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

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TEXTS = ["a b c", "b a", "c c b", "a"]


@pytest.fixture
def bench_case(abc_vocab):
    """An n-gram corrector, a noisy channel and a four-utterance eval set."""
    refs = [abc_vocab.encode(text, append_eos=True) for text in TEXTS]
    llm = train_ngram_corrector(refs, abc_vocab,
                                order=2, smoothing=0.1)
    noisy = np.full((6, 6), 0.05)
    np.fill_diagonal(noisy, 0.75)
    asr = AcousticChannel(abc_vocab, noisy / noisy.sum(axis=1, keepdims=True))
    eval_set = [(UtteranceContext(utt_id=f"u{i}", nbest=(ref,), observation=(0,) + ref),
                 text.split()) for i, (text, ref) in enumerate(zip(TEXTS, refs))]
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
    assert m["providers.asr.calls"] > 0
    # each provider row is checked once, by the softmax that reads it
    assert m["core.validate.calls"] == m["core.softmax.calls"] > 0


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
