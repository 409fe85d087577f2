"""The benchmark's hooks still reach the latefuse names they patch.

`bench/layers.py` wraps module functions and provider methods by name for
the traced run, and `bench/workloads.count_decodes` counts decodes by
patching `decoding.fused_greedy_decode`. A renamed or deleted name, or a
set-level loop that stops looking the decoder up through the module,
would break the bench's trace mode or its counts; these tests catch that
without running the bench. The last test runs the `wire` workload's
server, `bench/wire_server.py`, on a tiny corpus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import latefuse
from latefuse import cli, corpus, decoding, wire
from latefuse.core import Vocabulary
from latefuse.fusion import FusionConfig
from latefuse.providers import (
    AcousticChannel,
    NgramCorrector,
    NgramModel,
    UtteranceContext,
    train_ngram_corrector,
)
from test_decoding import serial_searches

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TEXTS = ["a b c", "b a", "c c b", "a"]


@pytest.fixture
def bench_case(abc_vocab):
    """An n-gram corrector, a noisy channel and a five-utterance eval set.

    The first four utterances' decodes follow their one-hypothesis N-best
    lists, so the corrector's lattice serves every step; the last has no
    N-best list, so its decodes leave the lattice after BOS and read the
    corrector through `next_logits` and `fuse_step`."""
    refs = [abc_vocab.encode(text, append_eos=True) for text in TEXTS]
    llm = train_ngram_corrector(refs, abc_vocab,
                                order=2, smoothing=0.1)
    noisy = np.full((6, 6), 0.05)
    np.fill_diagonal(noisy, 0.75)
    asr = AcousticChannel(abc_vocab, noisy / noisy.sum(axis=1, keepdims=True))
    eval_set = [(UtteranceContext(utt_id=f"u{i}", nbest=(ref,), observation=(0,) + ref),
                 text.split()) for i, (text, ref) in enumerate(zip(TEXTS, refs))]
    eval_set.append((UtteranceContext(utt_id="no-nbest", observation=(0,) + refs[0]),
                     TEXTS[0].split()))
    return llm, asr, eval_set


def test_install_wraps_and_uninstall_restores():
    tr = tracing.Tracer()
    layers.install(tr)
    try:
        patches = list(tr._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tr.uninstall()
    for owner, attr, original in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


def test_traced_set_level_decodes_count_each_utterance_and_config(bench_case):
    llm, asr, eval_set = bench_case
    betas = (0.0, 0.5, 1.0)
    grid = [FusionConfig(mode="static", w_asr=w) for w in (0.0, 0.25)]
    tr = tracing.Tracer()
    layers.install(tr)
    try:
        decoded = list(decoding.decode_eval_set(llm, asr, [FusionConfig()], eval_set))
        decoding.sweep_wers(llm, asr, [FusionConfig(beta=b) for b in betas], eval_set)
        decoding.sweep_wers(llm, asr, grid, eval_set)
    finally:
        tr.uninstall()
    m = layers.layer_metrics(tr, {})
    assert len(decoded) == len(eval_set)
    assert m["decoding.greedy.utts"] == len(eval_set) * (1 + len(betas) + len(grid))
    untraced = [FusionConfig()], [FusionConfig(beta=b) for b in betas], grid
    assert m["decoding.greedy.steps"] == sum(
        len(r.tokens) for cfgs in untraced
        for r in decoding.decode_eval_set(llm, asr, cfgs, eval_set))
    assert m["fusion.fuse_step.calls"] > 0
    assert m["providers.llm.calls"] > 0
    # every channel row comes from the set's calibrated block
    assert m["providers.asr.calls"] == 0
    # each corrector row a fused step reads is checked once, by its softmax
    assert m["core.softmax.calls"] == m["fusion.fuse_step.calls"] == m["core.validate.calls"]


def test_traced_decode_sets_read_no_channel_row(bench_case, monkeypatch):
    llm, asr, eval_set = bench_case
    sets = [[FusionConfig(mode="asr", tau2=0.7)], [FusionConfig(tau2=0.7)],
            [FusionConfig(beta=b) for b in (0.0, 0.5, 1.0)],
            [FusionConfig(mode="static", w_asr=w) for w in (0.0, 0.25)]]
    # Untraced reference: the fused steps off their utterance's choice
    # table, each one `fuse_step`.
    misses, original = [0], decoding.fuse_step

    def counted(*args):
        misses[0] += 1
        return original(*args)

    with monkeypatch.context() as patched:
        patched.setattr(decoding, "fuse_step", counted)
        for cfgs in sets:
            list(decoding.decode_eval_set(llm, asr, cfgs, eval_set))

    tr = tracing.Tracer()
    layers.install(tr)
    try:
        for cfgs in sets:
            list(decoding.decode_eval_set(llm, asr, cfgs, eval_set))
    finally:
        tr.uninstall()
    m = layers.layer_metrics(tr, {})
    # each set calibrates the channel's block once, with no 1-D softmax, and
    # every step, mode asr's included, reads its channel row there
    assert m["providers.asr.calls"] == 0
    assert m["fusion.fuse_step.calls"] == misses[0] > 0
    # one softmax, and one check, per step off the table: the primary's
    assert m["core.softmax.calls"] == m["fusion.fuse_step.calls"] == m["core.validate.calls"]


def test_traced_generate_corpus_reads_each_acoustic_row_key_once(monkeypatch):
    channel = corpus.ChannelSpec(seed=4)
    sizes = {"n_train": 6, "n_val": 2, "n_test": 2}
    # Untraced reference: the serial oracle, which reads a row for each
    # live beam; the row keys of the histories it reads are the keys the
    # corpus reaches.
    keys = set()

    def recorded_serial_search(provider, ctxs, *args):
        class Recorded:
            vocab = provider.vocab

            def next_logits(self, history, ctx):
                keys.add(provider.row_key(len(history), ctx))
                return provider.next_logits(history, ctx)

        return serial_searches(Recorded(), ctxs, *args)

    with monkeypatch.context() as patched:
        patched.setattr(decoding, "beam_search", recorded_serial_search)
        want = corpus.generate_corpus(channel, **sizes)

    tr = tracing.Tracer()
    layers.install(tr)
    try:
        got = corpus.generate_corpus(channel, **sizes)
    finally:
        tr.uninstall()
    m = layers.layer_metrics(tr, {})
    assert got[0] == want[0]
    # one call searches every utterance of a chunk, and 10 records make one chunk
    assert m["decoding.beam_search.calls"] == 1
    # so each distinct key is read once
    assert m["decoding.beam_search.provider_calls"] == m["providers.asr.calls"] == len(keys) > 0


def test_traced_calibrate_and_score_count_evaluations_rows_and_pairs(tmp_path, frozen_fit):
    """A traced `calibrate` makes one `mean_confidence` call per bisection
    evaluation and reads one trace row per reference token; a traced
    `score` aligns each distinct (hypothesis, reference) pair once."""
    data, lm = tmp_path / "data", tmp_path / "lm.json"
    files = ["--vocab", data / "vocab.txt"]
    assert cli.main(["simulate", "--out-dir", str(data), "--n-train", "30", "--n-val", "6",
                     "--n-test", "8", "--seed", "5"]) == 0
    assert cli.main(["train-lm", "--corpus", str(data / "train.jsonl"), *map(str, files),
                     "--out", str(lm)]) == 0
    vocab = Vocabulary.load(data / "vocab.txt")
    saved = json.loads(lm.read_text())
    providers = {"llm": ["--lm-model", lm], "asr": ["--manifest", data / "manifest.json"]}
    cal_set = [(corpus.record_context(rec, vocab)[0],
                vocab.encode(rec.reference, append_eos=True))
               for rec in corpus.load_corpus(data / "val.jsonl")]
    local = {"llm": NgramCorrector(NgramModel.from_dict(saved, vocab),
                                   vote_weight=saved["vote_weight"]),
             "asr": cli.build_provider(cli.ProviderSpec(
                 "acoustic-channel", {"manifest_path": str(data / "manifest.json")}), vocab)}
    want_evals = sum(frozen_fit(local[which], cal_set)[1] for which in providers)

    tr = tracing.Tracer()
    layers.install(tr)
    try:
        for which, flags in providers.items():
            assert cli.main([str(a) for a in (
                "calibrate", "--corpus", data / "val.jsonl", *files, "--which", which,
                *flags, "--out", tmp_path / f"cal-{which}.json")]) == 0
        hyps = []
        for mode in ("llm", "asr", "uadf"):
            out = tmp_path / f"hyp-{mode}.jsonl"
            assert cli.main([str(a) for a in (
                "decode", "--corpus", data / "test.jsonl", *files, "--mode", mode,
                *providers["llm"], *providers["asr"], "--out", out)]) == 0
            hyps += ["--hyp", f"{mode}={out}"]
        assert cli.main([str(a) for a in ("score", "--corpus", data / "test.jsonl", *hyps,
                                          "--out", tmp_path / "scores.json")]) == 0
    finally:
        tr.uninstall()
    m = layers.layer_metrics(tr, {})
    assert m["calibration.bisect_evals"] == want_evals > 0
    assert m["calibration.trace_rows"] == 2 * sum(len(ref) for _ctx, ref in cal_set)

    records = corpus.load_corpus(data / "test.jsonl")
    pairs = {(tuple(rec.nbest[0][0].lower().split()), tuple(rec.reference.lower().split()))
             for rec in records}
    for mode in ("llm", "asr", "uadf"):
        text = {entry["id"]: entry["text"] for entry in map(
            json.loads, (tmp_path / f"hyp-{mode}.jsonl").read_text().splitlines())}
        pairs |= {(tuple(text[rec.id].lower().split()), tuple(rec.reference.lower().split()))
                  for rec in records}
    assert m["metrics.wer.calls"] == len(pairs) < 4 * len(records)


def test_count_decodes_counts_each_utterance_and_config(bench_case):
    llm, asr, eval_set = bench_case
    cfgs = [FusionConfig(beta=b) for b in (0.0, 0.5)]
    it = SimpleNamespace(records=0, steps=0)
    original = decoding.fused_greedy_decode
    with workloads.count_decodes(it):
        results = list(decoding.decode_eval_set(llm, asr, cfgs, eval_set))
        decoding.sweep_wers(llm, asr, cfgs, eval_set)
    assert decoding.fused_greedy_decode is original
    assert len(results) == len(eval_set) * len(cfgs)
    assert it.records == 2 * len(results)
    assert it.steps == 2 * sum(len(r.tokens) for r in results)


def test_wire_server_serves_the_in_process_corrector(tmp_path):
    data, lm = tmp_path / "data", tmp_path / "lm.json"
    assert cli.main(["simulate", "--out-dir", str(data), "--n-train", "20", "--n-val", "3",
                     "--n-test", "3", "--seed", "2"]) == 0
    assert cli.main(["train-lm", "--corpus", str(data / "train.jsonl"),
                     "--vocab", str(data / "vocab.txt"), "--out", str(lm)]) == 0
    vocab = Vocabulary.load(data / "vocab.txt")
    saved = json.loads(lm.read_text())
    local = NgramCorrector(NgramModel.from_dict(saved, vocab), vote_weight=saved["vote_weight"])
    ctx = corpus.record_context(corpus.load_corpus(data / "test.jsonl")[0], vocab)[0]

    env = {**os.environ, "PYTHONPATH": str(Path(latefuse.__file__).resolve().parents[1])}
    with subprocess.Popen(
            [sys.executable, str(BENCH / "wire_server.py"), "--data-dir", str(data),
             "--lm-model", str(lm)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env) as server:
        try:
            address = json.loads(server.stdout.readline())["address"]
            with wire.connect_external(address, vocab) as remote:
                history = (Vocabulary.BOS,)
                assert remote.next_logits(history, ctx).tobytes() == \
                    local.next_logits(history, ctx).tobytes()
        finally:
            server.stdin.close()  # the server prints its stats and exits
        stats = json.loads(server.stdout.readline())
    assert server.returncode == 0
    assert stats["calls"] >= 1
