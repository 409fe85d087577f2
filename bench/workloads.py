"""The benchmark's workloads, each one iteration of set-up plus a timed phase.

Every workload drives the README walkthrough in-process through
`latefuse.cli.main(argv)` as one closed-loop client (each command starts
after the previous one returns), with README flags only. Set-up data is
regenerated from the workload seed on every iteration by the code under
test.

* simulate -- `latefuse simulate`: corpus noise (`corpus.corrupt`) and
  N-best beam search over the acoustic channel; fusion, calibration and
  wire stay idle.
* fuse -- the walkthrough after `simulate`: train-lm, calibrate x2,
  decode x4, both sweeps and score on a corpus made in set-up; fusion,
  core math, the n-gram corrector and the greedy loop do the work.
* wire -- the corrector served over TCP loopback by a second process;
  calibrate llm and decode llm/uadf go through `--llm-endpoint`, so
  round trips dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import select
import signal
import signal
import shutil
import subprocess
import sys
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np


from latefuse import cli, corpus, decoding, metrics, wire
from latefuse.core import Vocabulary

import layers

# Corpus sizes per workload. V stays 200, but the README's 2000/200/500
# records shrink so that several set-ups and phases fit in one run:
# `simulate` times the corpus generation itself, so it runs a smaller
# corpus more often; the others decode half the README's val/test splits.
SIZES = {
    "full": {
        "simulate": {"n_train": 100, "n_val": 50, "n_test": 150},
        "fuse": {"n_train": 200, "n_val": 100, "n_test": 250},
        "wire": {"n_train": 200, "n_val": 100, "n_test": 250},
    },
    "smoke": dict.fromkeys(("simulate", "fuse", "wire"),
                           {"n_train": 40, "n_val": 10, "n_test": 12}),
}
N_BEST = 5
VOCAB_SIZE = 200
STATIC_GRID_ROWS = 7   # default --w-asr-values
BETA_ROWS = 4          # default --beta-values
SERVER_START_TIMEOUT_S = 60.0

# Times are reported in reference seconds: wall-clock seconds scaled by
# PROBE_REF_S over the CPU time of a fixed speed probe run every TICK_S.
# PROBE_REF_S is the probe's CPU time on an idle core of the machine the
# baseline was recorded on, so reference seconds read as seconds on that
# machine at full speed. The probe does the program's two kinds of work,
# an interpreter loop over small numpy calls (decoding) and whole-array
# math on a V x V matrix (corpus generation). On that shared 2-core VM the
# same code ran up to 1.8x slower for stretches of a few seconds, in CPU
# time as much as in wall time.
PROBE_REF_S = 0.005
TICK_S = 0.1
_PROBE_ROW = np.linspace(-1.0, 1.0, VOCAB_SIZE)
_PROBE_MATRIX = np.linspace(-1.0, 1.0, VOCAB_SIZE ** 2).reshape(VOCAB_SIZE, VOCAB_SIZE)


def speed_probe() -> float:
    """CPU seconds taken by a fixed mix of interpreter work and numpy calls."""
    x, m = _PROBE_ROW, _PROBE_MATRIX
    acc = 0.0
    t0 = process_time()
    for i in range(500):
        acc += float(np.exp(x - x.max()).sum()) + len(str(i)) + (i * i) % 7
    for i in range(6):
        k = np.exp(-np.abs(m - i / 12.0))
        k *= 1.0 + 0.6 * np.cos(m)
        acc += float((k / k.sum(axis=1, keepdims=True)).sum())
    return process_time() - t0


class ReferenceClock:
    """Counts reference seconds.

    At every tick (a SIGALRM every TICK_S while ticking, and every read)
    the clock runs the speed probe and adds the wall time since the
    previous probe, less the probe's own CPU time, scaled by PROBE_REF_S
    over the mean of the two probes. Wall time keeps every wait in the
    count, such as a round trip to the wire server; the probe's CPU time,
    unlike its wall time, does not grow while that server shares the core.
    """

    def __init__(self):
        self.ref_s = 0.0
        self._in_tick = False
        self._probe_s = speed_probe()
        self._last = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)

    def ticking(self, on: bool):
        """Tick on the timer too, or only on reads (traced iterations, so
        that no span holds a probe)."""
        interval = TICK_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def _tick(self, *_):
        if self._in_tick:  # a timer tick landing in a read
            return
        self._in_tick = True
        try:
            now = perf_counter()
            probe = speed_probe()
            self.ref_s += (now - self._last) * 2 * PROBE_REF_S / (self._probe_s + probe)
            self._probe_s = probe
            self._last = now + probe
        finally:
            self._in_tick = False

    def now(self) -> float:
        self._tick()
        return self.ref_s


class Failure(Exception):
    """A command failed, so the iteration cannot go on."""


@dataclass
class Iteration:
    setup_s: float = 0.0        # set-up, reference seconds
    stage_s: dict = field(default_factory=dict)   # per phase command, reference seconds
    primary: tuple = ()         # the stages whose time the throughputs divide by
    records: int = 0            # records generated or decoded by those stages
    steps: int = 0              # tokens emitted by their decoders
    wer: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


class Runner:
    """Runs commands and output checks, counting attempts and failures."""

    def __init__(self, root: Path, work: Path, seed: int, size: dict, env: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.size = size
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        self.clock = ReferenceClock()
        self.wire_reference = None   # in-process outputs the wire decode must equal

    @contextmanager
    def timed(self, it: Iteration, stage: str | None = None):
        """Add the block's time to the set-up, or record it as the time of
        phase command `stage`; both in reference seconds."""
        t0 = self.clock.now()
        try:
            yield
        finally:
            elapsed = self.clock.now() - t0
            if stage is None:
                it.setup_s += elapsed
            else:
                it.stage_s[stage] = elapsed

    def fail(self, message: str):
        self.failures.append(message)

    def abort(self, message: str):
        """Record a failed operation that the iteration cannot go past."""
        self.fail(message)
        raise Failure(message)

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def command(self, stage: str, argv: list, it: Iteration | None = None):
        """Run one CLI command in-process, timed as a phase stage when `it`
        is given; raise Failure unless it exits 0."""
        self.attempted += 1
        argv = [str(a) for a in argv]
        err = io.StringIO()
        with ExitStack() as stack:
            if it is not None:
                stack.enter_context(self.timed(it, stage))
                if self.tracer is not None:
                    stack.enter_context(self.tracer.span(f"cli.{stage}"))
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an uncaught error is a failed command
                rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            self.abort(f"{stage} exited {rc!r}: {err.getvalue().strip()[-500:]}")

    def import_probe(self):
        """Start a fresh interpreter that imports the CLI: program start-up."""
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-c", "import latefuse.cli"],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            self.abort(f"import probe exited {proc.returncode}: {proc.stderr[-500:]!r}")

    def fresh_dir(self) -> Path:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "data").mkdir(parents=True)
        return self.work


@contextmanager
def count_decodes(it: Iteration):
    """Count utterances and emitted tokens of every greedy decode: one
    wrapper call per utterance, no timing."""
    original = decoding.fused_greedy_decode

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        it.records += 1
        it.steps += len(result.tokens)
        return result

    decoding.fused_greedy_decode = counted
    try:
        yield
    finally:
        decoding.fused_greedy_decode = original


@contextmanager
def phase(r: Runner, it: Iteration):
    """The timed phase; with a tracer, its wrappers are installed only here."""
    if r.tracer is not None:
        layers.install(r.tracer)
    try:
        with count_decodes(it):
            yield
    finally:
        if r.tracer is not None:
            r.tracer.uninstall()


def _digest(r: Runner, it: Iteration, names):
    for name in names:
        path = r.work / name
        r.check(path.is_file(), f"missing output {name}")
        if path.is_file():
            it.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()


CORPUS_FILES = ("data/train.jsonl", "data/val.jsonl", "data/test.jsonl",
                "data/vocab.txt", "data/manifest.json")


def simulate_argv(r: Runner) -> list:
    s = r.size
    return ["simulate", "--out-dir", r.work / "data", "--seed", r.seed,
            "--n-train", s["n_train"], "--n-val", s["n_val"], "--n-test", s["n_test"]]


def _paths(r: Runner) -> dict:
    w, d = r.work, r.work / "data"
    return {"vocab": d / "vocab.txt", "manifest": d / "manifest.json",
            "lm": w / "lm.json", "cal_llm": w / "cal-llm.json", "cal_asr": w / "cal-asr.json"}


def train_lm_argv(r: Runner) -> list:
    p = _paths(r)
    return ["train-lm", "--corpus", r.work / "data/train.jsonl", "--vocab", p["vocab"],
            "--out", p["lm"]]


def calibrate_argv(r: Runner, which: str, out: Path, endpoint: str | None = None) -> list:
    p = _paths(r)
    argv = ["calibrate", "--corpus", r.work / "data/val.jsonl", "--vocab", p["vocab"],
            "--which", which]
    if which == "asr":
        argv += ["--manifest", p["manifest"]]
    elif endpoint:
        argv += ["--llm-endpoint", endpoint]
    else:
        argv += ["--lm-model", p["lm"]]
    return argv + ["--out", out]


def _decode_common(r: Runner, cal_llm: Path, endpoint: str | None) -> list:
    p = _paths(r)
    llm = ["--llm-endpoint", endpoint] if endpoint else ["--lm-model", p["lm"]]
    return ["--corpus", r.work / "data/test.jsonl", "--vocab", p["vocab"], *llm,
            "--manifest", p["manifest"], "--calibration-llm", cal_llm,
            "--calibration-asr", p["cal_asr"]]


def decode_argv(r: Runner, mode: str, out: Path, cal_llm: Path,
                endpoint: str | None = None) -> list:
    return ["decode", "--mode", mode, *_decode_common(r, cal_llm, endpoint), "--out", out]


def sweep_argv(r: Runner, axis: str) -> list:
    return ["sweep", "--axis", axis, *_decode_common(r, _paths(r)["cal_llm"], None),
            "--out", r.work / f"sweep-{axis}.csv"]


def score_argv(r: Runner) -> list:
    hyps = [a for m in ("llm", "asr", "static", "uadf")
            for a in ("--hyp", f"{m}={r.work / f'hyp-{m}.jsonl'}")]
    return ["score", "--corpus", r.work / "data/test.jsonl", "--baseline", "llm",
            *hyps, "--out", r.work / "scores.json"]


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _check_hyps(r: Runner, path: Path, test_ids: list):
    ids = [json.loads(line)["id"] for line in path.read_text(encoding="utf-8").splitlines()]
    r.check(ids == test_ids, f"{path.name} does not hold one line per test utterance")


def _hyp_wer(path: Path, records) -> float:
    hyps = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        hyps[entry["id"]] = entry["text"]
    return metrics.corpus_wer([(metrics.normalize_text(hyps[rec.id]),
                                metrics.normalize_text(rec.reference)) for rec in records])


def _load_split(r: Runner, split: str):
    return corpus.load_corpus(r.work / "data" / f"{split}.jsonl")


# -- workloads ---------------------------------------------------------


def simulate(r: Runner) -> Iteration:
    it = Iteration()
    with r.timed(it):
        r.import_probe()
        r.fresh_dir()

    with phase(r, it):
        r.command("simulate", simulate_argv(r), it)
    it.primary = ("simulate",)

    records = []
    for split in ("train", "val", "test"):
        loaded = _load_split(r, split)
        r.check(len(loaded) == r.size[f"n_{split}"], f"{split} split has {len(loaded)} records")
        records += loaded
    r.check(all(len(rec.nbest) == N_BEST for rec in records), "an N-best list is not 5-best")
    r.check(Vocabulary.load(r.work / "data/vocab.txt").size == VOCAB_SIZE,
            "vocabulary size is not 200")
    it.records = len(records)
    it.steps = sum(len(text.split()) + 1 for rec in records for text, _ in rec.nbest)
    it.wer["wer"] = metrics.corpus_wer([(rec.nbest[0][0].split(), rec.reference.split())
                                        for rec in records])
    _digest(r, it, CORPUS_FILES)
    return it


def fuse(r: Runner) -> Iteration:
    it = Iteration()
    p = _paths(r)
    with r.timed(it):
        r.import_probe()
        r.fresh_dir()
        r.command("setup-simulate", simulate_argv(r))

    with phase(r, it):
        r.command("train-lm", train_lm_argv(r), it)
        r.command("calibrate-llm", calibrate_argv(r, "llm", p["cal_llm"]), it)
        r.command("calibrate-asr", calibrate_argv(r, "asr", p["cal_asr"]), it)
        for mode in ("llm", "asr", "static", "uadf"):
            r.command(f"decode-{mode}",
                      decode_argv(r, mode, r.work / f"hyp-{mode}.jsonl", p["cal_llm"]), it)
        for axis in ("static-grid", "beta"):
            r.command(f"sweep-{axis}", sweep_argv(r, axis), it)
        r.command("score", score_argv(r), it)
    it.primary = tuple(s for s in it.stage_s if s.startswith(("decode", "sweep")))

    test_ids = [rec.id for rec in _load_split(r, "test")]
    for mode in ("llm", "asr", "static", "uadf"):
        _check_hyps(r, r.work / f"hyp-{mode}.jsonl", test_ids)
    systems = json.loads((r.work / "scores.json").read_text(encoding="utf-8"))["systems"]
    grid = _read_csv(r.work / "sweep-static-grid.csv")
    betas = _read_csv(r.work / "sweep-beta.csv")
    r.check(sorted(systems) == ["asr", "llm", "static", "uadf"], "scores.json lacks a system")
    r.check(len(grid) == STATIC_GRID_ROWS and len(betas) == BETA_ROWS,
            "a sweep table has the wrong number of rows")
    # The decode defaults (static w_asr = 0.25, uadf beta = 0.5) are also
    # sweep points, so score and sweep must agree on their WER.
    r.check([row["wer"] for row in grid if row["w_asr"] == 0.25] == [systems["static"]["wer"]],
            "static decode WER differs from its static-grid sweep point")
    r.check([row["wer"] for row in betas if row["beta"] == 0.5] == [systems["uadf"]["wer"]],
            "uadf decode WER differs from its beta sweep point")
    it.wer = {"wer": systems["uadf"]["wer"], "wer_static": systems["static"]["wer"],
              "wer_static_best": min(row["wer"] for row in grid)}
    _digest(r, it, CORPUS_FILES + (
        "lm.json", "cal-llm.json", "cal-asr.json", "hyp-llm.jsonl", "hyp-asr.jsonl",
        "hyp-static.jsonl", "hyp-uadf.jsonl", "sweep-static-grid.csv",
        "sweep-beta.csv", "scores.json"))
    return it


class WireServer:
    """The bench's server process around `wire.ProviderServer`."""

    def __init__(self, r: Runner):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("wire_server.py")),
             "--data-dir", str(r.work / "data"), "--lm-model", str(r.work / "lm.json")],
            cwd=r.root, env=r.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self.address = None
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], SERVER_START_TIMEOUT_S)
            line = self._proc.stdout.readline() if ready else b""
            if line:
                self.address = json.loads(line)["address"]
        finally:
            if self.address is None:
                self.stop()
        if self.address is None:
            r.abort("wire server did not start")

    def stop(self) -> dict:
        """Close the server's stdin and return the stats it prints at exit."""
        try:
            out, _err = self._proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            return {}
        lines = out.decode("utf-8").strip().splitlines()
        return json.loads(lines[-1]) if lines and self._proc.returncode == 0 else {}


def wire_workload(r: Runner) -> Iteration:
    it = Iteration()
    p = _paths(r)
    with r.timed(it):
        r.import_probe()
        r.fresh_dir()
        r.command("setup-simulate", simulate_argv(r))
        r.command("setup-train-lm", train_lm_argv(r))
        r.command("setup-calibrate-asr", calibrate_argv(r, "asr", p["cal_asr"]))
    if r.wire_reference is None:
        # The in-process outputs for the byte-identity check, made once per
        # run and outside setup_s; the digests check that every iteration
        # decodes the same corpus.
        ref = r.work / "ref"
        ref.mkdir()
        r.command("reference-calibrate-llm", calibrate_argv(r, "llm", ref / "cal-llm.json"))
        for mode in ("llm", "uadf"):
            r.command(f"reference-decode-{mode}",
                      decode_argv(r, mode, ref / f"hyp-{mode}.jsonl", ref / "cal-llm.json"))
        r.wire_reference = {name: (ref / name).read_bytes()
                            for name in ("cal-llm.json", "hyp-llm.jsonl", "hyp-uadf.jsonl")}
    server = None
    try:
        with r.timed(it):
            server = WireServer(r)
            r.attempted += 1
            try:
                wire.connect_external(server.address, Vocabulary.load(p["vocab"])).close()
            except Exception as exc:  # the handshake is an operation that can fail
                r.abort(f"handshake failed: {exc}")

        with phase(r, it):
            r.command("calibrate-llm",
                      calibrate_argv(r, "llm", p["cal_llm"], server.address), it)
            for mode in ("llm", "uadf"):
                r.command(f"decode-{mode}",
                          decode_argv(r, mode, r.work / f"hyp-{mode}.jsonl", p["cal_llm"],
                                      server.address), it)
    finally:
        if server is not None:
            it.server = server.stop()
    r.check("compute_s" in it.server, "wire server reported no stats")
    it.primary = ("decode-llm", "decode-uadf")

    test = _load_split(r, "test")
    r.check(p["cal_llm"].read_bytes() == r.wire_reference["cal-llm.json"],
            "calibration over the wire differs from in-process calibration")
    for mode in ("llm", "uadf"):
        out = r.work / f"hyp-{mode}.jsonl"
        _check_hyps(r, out, [rec.id for rec in test])
        r.check(out.read_bytes() == r.wire_reference[f"hyp-{mode}.jsonl"],
                f"hyp-{mode}.jsonl over the wire differs from the in-process decode")
    it.wer["wer"] = _hyp_wer(r.work / "hyp-uadf.jsonl", test)
    _digest(r, it, CORPUS_FILES + ("lm.json", "cal-llm.json", "cal-asr.json",
                                   "hyp-llm.jsonl", "hyp-uadf.jsonl"))
    return it


WORKLOADS = {"simulate": simulate, "fuse": fuse, "wire": wire_workload}
