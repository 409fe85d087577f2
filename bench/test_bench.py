"""The benchmark's own test, at smoke size; it sets no timing bound.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# A layer metric that must be nonzero on each workload: the layer runs there.
ACTIVE = {
    "simulate": ["cli.simulate_s", "corpus.corrupt.calls", "corpus.generate.self_s",
                 "decoding.beam_search.provider_calls", "providers.asr.calls"],
    "fuse": ["cli.sweep-static-grid_s", "decoding.greedy.steps", "providers.llm.calls",
             "providers.ngram.cache_hit_ratio", "fusion.fuse_step.calls", "core.softmax.calls",
             "core.validate.calls", "calibration.bisect_evals", "metrics.wer.calls"],
    "wire": ["cli.decode-uadf_s", "wire.round_trips", "wire.client_s",
             "wire.server_compute_s", "wire.rtt_us_p99", "wire.bytes_in",
             "calibration.trace_rows"],
}


def run_bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = next(line.strip() for line in lines if line.strip().startswith("digests "))
    return result, json.loads(digests.split(" ", 1)[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric_with_its_unit(workload, trace):
    result, _ = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in ACTIVE[workload]), values
        assert values["wire.errors"] == 0
    else:
        assert all(value > 0 for value in values.values()), values


def test_same_seed_gives_same_outputs():
    _, first = result_of(run_bench("fuse", 0, seed=5))
    _, second = result_of(run_bench("fuse", 0, seed=5))
    assert first == second and "scores.json" in first
    _, other = result_of(run_bench("fuse", 0, seed=6))
    assert other["data/test.jsonl"] != first["data/test.jsonl"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("simulate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
