"""The README walkthrough on a 300/60/100 corpus, pinned file by file.

Every command runs in-process from one working directory with relative
paths, so each file it writes, resolved configs included, has the same
bytes on every run of the same code. `golden_digests.json` holds the
sha256 of each, with the Python and numpy versions that wrote them.

numpy picks its loops by CPU at run time, and its AVX-512 (X86_V4) loops
round a few results differently from its AVX2 and baseline ones, so five
files (the corpus splits and the two step logs) differ without them.
`golden_digests.json` pins a run with X86_V4, and
`golden_digests_without_avx512.json` a run without it (the AVX2 and the
baseline loops give the same files); the test reads the set for the CPU
features numpy runs with. To check the second set on a machine with
AVX-512, run with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".

A change meant to keep every output leaves both files as they are. A
change that alters an output by design rewrites the running path's file
with

    PYTHONPATH=src python tests/test_golden_digests.py

(once per path), and names each changed digest, and why, in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from latefuse.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json" if __cpu_features__.get("X86_V4")
                                  else "golden_digests_without_avx512.json")

_VOCAB = ["--vocab", "data/vocab.txt"]
_PROVIDERS = ["--lm-model", "lm.json", "--manifest", "data/manifest.json"]
_CALIBRATED = ["--calibration-llm", "cal-llm.json", "--calibration-asr", "cal-asr.json"]
_DECODE = ["--corpus", "data/test.jsonl", *_VOCAB, *_PROVIDERS, *_CALIBRATED]
_SWEEP = ["--corpus", "data/val.jsonl", *_VOCAB, *_PROVIDERS, *_CALIBRATED]

WALKTHROUGH = [
    ["simulate", "--out-dir", "data", "--n-train", "300", "--n-val", "60",
     "--n-test", "100", "--seed", "0"],
    ["train-lm", "--corpus", "data/train.jsonl", *_VOCAB, "--out", "lm.json"],
    ["calibrate", "--corpus", "data/val.jsonl", *_VOCAB, "--which", "llm",
     "--lm-model", "lm.json", "--out", "cal-llm.json"],
    ["calibrate", "--corpus", "data/val.jsonl", *_VOCAB, "--which", "asr",
     "--manifest", "data/manifest.json", "--out", "cal-asr.json"],
    ["decode", *_DECODE, "--mode", "llm", "--out", "hyp-llm.jsonl"],
    ["decode", *_DECODE, "--mode", "asr", "--out", "hyp-asr.jsonl"],
    ["decode", *_DECODE, "--mode", "static", "--steps-log", "steps-static.jsonl",
     "--out", "hyp-static.jsonl"],
    ["decode", *_DECODE, "--mode", "uadf", "--steps-log", "steps-uadf.jsonl",
     "--out", "hyp-uadf.jsonl"],
    ["sweep", "--axis", "static-grid", *_SWEEP, "--w-asr-values", "0,0.25,0.5,1",
     "--out", "grid.csv"],
    ["sweep", "--axis", "beta", *_SWEEP, "--beta-values", "0,0.25,0.5,0.75",
     "--out", "beta.csv"],
    ["score", "--corpus", "data/test.jsonl", "--baseline", "llm",
     "--hyp", "llm=hyp-llm.jsonl", "--hyp", "asr=hyp-asr.jsonl",
     "--hyp", "static=hyp-static.jsonl", "--hyp", "uadf=hyp-uadf.jsonl",
     "--out", "scores.json"],
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def walkthrough_digests(workdir: Path) -> dict:
    """Run the walkthrough in `workdir`; the sha256 of each file it wrote,
    keyed by its path relative to `workdir`."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in WALKTHROUGH:
            if main(argv) != 0:
                raise RuntimeError(f"walkthrough command failed: {argv}")
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def test_walkthrough_outputs_equal_the_pinned_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = walkthrough_digests(tmp_path)
    capsys.readouterr()
    differing = sorted(name for name in golden["files"].keys() | got.keys()
                       if golden["files"].get(name) != got.get(name))
    pinned = f"python {golden['python']} / numpy {golden['numpy']}"
    running = f"python {versions()['python']} / numpy {versions()['numpy']}"
    assert not differing, (f"files differing from {GOLDEN.name}: {differing}; "
                           f"pinned with {pinned}, run with {running}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        files = walkthrough_digests(Path(work))
    GOLDEN.write_text(json.dumps({**versions(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {GOLDEN}", file=sys.stderr)
