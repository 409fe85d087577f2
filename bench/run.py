"""latefuse benchmark: one command per workload and seed.

    python3 bench/run.py --workload {simulate,fuse,wire} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; it imports latefuse from ./src and fails
without it. Each iteration sets up (fresh interpreter import probe plus
the workload's data, regenerated from the seed) and then runs the timed
phase; iterations repeat until they add up to --seconds of wall time
and at least MIN_ITERATIONS ran. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, medians over the
iterations (per command for the phase), with times in reference seconds
(see workloads.ReferenceClock). With --trace 1 iterations alternate
untraced and traced and the metrics are the per-layer ones, medians over
the traced iterations in wall-clock seconds, plus the tracing overhead.
--smoke uses a tiny corpus. The benchmark and the processes it starts run
on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: client and server share 2 cores
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Untraced iterations a run makes at least. `simulate`'s are short, and
# `wire`'s round trips vary the most from one iteration to the next, so
# those two take the median of more.
MIN_ITERATIONS = {"simulate": 8, "fuse": 3, "wire": 5}
MIN_ITERATIONS_SMOKE = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="latefuse benchmark")
    parser.add_argument("--workload", required=True, choices=["simulate", "fuse", "wire"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for tests")
    return parser.parse_args(argv)


def pin_to_one_core():
    """Keep this process, and every process it starts (the wire server,
    the import probe), on one core: a round trip to the wire server then
    switches processes on that core instead of waking the other one,
    which on a shared VM made `wire`'s time vary about twice as much."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_latefuse():
    """Import latefuse from this checkout's src/, never from elsewhere."""
    if not (SRC / "latefuse" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'latefuse'} not found; run from a latefuse checkout")
    sys.path.insert(0, str(SRC))
    import latefuse

    if Path(latefuse.__file__).resolve().parent != SRC / "latefuse":
        sys.exit(f"error: imported latefuse from {latefuse.__file__}, not {SRC}")


def end_to_end(iterations) -> dict:
    """Medians over the iterations; the phase's times are the median of
    each command's time, summed, so one slow command in one iteration and
    another in the next both drop out."""
    first = iterations[0]
    stage_s = {stage: statistics.median(it.stage_s[stage] for it in iterations)
               for stage in first.stage_s}
    primary_s = sum(stage_s[stage] for stage in first.primary)
    return {
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "wall_s": sum(stage_s.values()),
        "records_per_s": first.records / primary_s,
        "decode_steps_per_s": first.steps / primary_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wer": first.wer["wer"],
    }


def per_layer(untraced, traced) -> dict:
    out = {name: statistics.median(it.layers[name] for it in traced)
           for name in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(it.wall_s for it in traced)
                               - statistics.median(it.wall_s for it in untraced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_core()
    load_latefuse()
    import layers
    import workloads
    from tracing import Tracer

    size = "smoke" if args.smoke else "full"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    runner = workloads.Runner(ROOT, work, args.seed, workloads.SIZES[size][args.workload], env)
    run_iteration = workloads.WORKLOADS[args.workload]
    min_iterations = MIN_ITERATIONS_SMOKE if args.smoke else MIN_ITERATIONS[args.workload]

    untraced, traced = [], []
    measured = 0.0
    while True:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        runner.tracer = Tracer() if trace_this else None
        runner.clock.ticking(not trace_this)
        started = perf_counter()
        try:
            it = run_iteration(runner)
        except workloads.Failure:
            break
        except Exception as exc:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            runner.fail(f"iteration raised {type(exc).__name__}: {exc}")
            break
        if trace_this:
            it.layers = layers.layer_metrics(runner.tracer, it.server)
            runner.tracer.write(work.parent / f"{args.workload}-s{args.seed}-spans.npz")
            traced.append(it)
        else:
            untraced.append(it)
        measured += perf_counter() - started
        enough = (min(len(untraced), len(traced)) >= 1 if args.trace
                  else len(untraced) >= min_iterations)
        if enough and measured >= args.seconds:
            break
    runner.tracer = None
    runner.clock.ticking(False)

    iterations = untraced + traced
    for it in iterations[1:]:
        runner.check(it.digests == iterations[0].digests,
                     "outputs differ between iterations of one seed")
        runner.check(it.wer == iterations[0].wer, "WER differs between iterations")
        runner.check((it.records, it.steps) == (iterations[0].records, iterations[0].steps),
                     "record or step counts differ between iterations")

    metrics = {}
    complete = not runner.failures and untraced and (traced or not args.trace)
    if complete:
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if complete and missing:
        runner.fail(f"metrics not computed: {missing}")

    print(f"workload={args.workload} seed={args.seed} size={size} "
          f"iterations={len(untraced)} untraced, {len(traced)} traced")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:40s} {metrics[m['name']]!r} {m['unit']}")
    if iterations and not args.trace:
        for key, value in iterations[0].wer.items():
            print(f"  ({key} {value!r})")
        for key in ("setup_s", "wall_s"):
            print(f"  ({key} per iteration {[getattr(it, key) for it in untraced]})")
    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    print(f"  (failed_ratio {failed / attempted!r}, {failed} of {attempted} operations)")
    for message in runner.failures:
        print(f"  FAILED: {message}")
    if iterations:
        print("  digests " + json.dumps(iterations[0].digests, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
