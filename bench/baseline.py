"""Run the benchmark over several seeds and record its baseline.

    python3 bench/baseline.py

For every workload of BENCHMARK.json, runs `bench/run.py` untraced once
per seed 1..SEEDS and traced once per seed 1..TRACE_SEEDS, each for its
run_seconds, and records per metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to
each end-to-end metric's bound. Also records the machine, and rewrites
bench/baseline.json as a whole. Prints one line per end-to-end metric.
Exits 1 if a run fails or reports incorrect output.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "baseline.json"
SEEDS = 10
TRACE_SEEDS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return result


def stats(values: list, bound=None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import numpy

    document = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, n_seeds, key in ((0, SEEDS, "end_to_end"), (1, TRACE_SEEDS, "per_layer")):
            runs = [run(workload, seed, spec["run_seconds"], trace)["metrics"]
                    for seed in range(1, n_seeds + 1)]
            entry[key] = {name: stats([r[name]["value"] for r in runs], bounds.get(name))
                          for name in runs[0]}
            if trace == 0:
                for name, s in entry[key].items():
                    flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
                    print(f"{workload:9s} {name:20s} median {s['median']:.6g} "
                          f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
        document["workloads"][workload] = entry
    OUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
