"""Acceptance suite over the standard synthetic corpus.

One test per criterion, each printing a PASS/FAIL line (run with -s to
stream them). The corpus is 2000/200/500 sentences, ~200-word
vocabulary, substitution 0.15 / deletion 0.02 / insertion 0.02, 5-best,
seed 0; the whole module is budgeted to stay well under two minutes.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from latefuse.calibration import collect_traces, fit_temperature
from latefuse.cli import main as cli_main
from latefuse.core import Vocabulary, argmax_token
from latefuse.corpus import (
    ChannelSpec,
    decoder_confusion,
    generate_corpus,
    record_context,
)
from latefuse.decoding import decode_eval_set, fused_greedy_decode, greedy_decode, sweep_wers
from latefuse.fusion import FusionConfig, uadf_weight
from latefuse.metrics import (
    corpus_wer,
    normalize_text,
    oracle_compositional,
    oracle_nbest,
    wer,
    werr,
)
from latefuse.providers import AcousticChannel, UtteranceContext, train_ngram_corrector
from latefuse.wire import ProviderServer, connect_external

STATIC_GRID = (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)


def static_grid_wers(bench, tau1=1.0, tau2=1.0) -> dict:
    """{w_asr: validation WER} over STATIC_GRID, at temperatures tau1, tau2."""
    cfgs = [FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2)
            for w_asr in STATIC_GRID]
    wers = sweep_wers(bench["llm"], bench["asr"], cfgs, bench["val_set"])
    return dict(zip(STATIC_GRID, wers))


def check(num, desc, ok):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def bench():
    channel = ChannelSpec(sub_rate=0.15, del_rate=0.02, ins_rate=0.02, seed=0)
    splits, vocab = generate_corpus(channel, n_train=2000, n_val=200, n_test=500)
    train_refs = [vocab.encode(rec.reference, append_eos=True) for rec in splits["train"]]
    llm = train_ngram_corrector(train_refs, vocab, order=2, smoothing=0.1,
                                vote_weight=0.85)
    asr = AcousticChannel(vocab, decoder_confusion(vocab, channel))
    cal_set = [
        (record_context(rec, vocab)[0], vocab.encode(rec.reference, append_eos=True))
        for rec in splits["val"]
    ]
    rep_llm = fit_temperature(llm, cal_set)
    rep_asr = fit_temperature(asr, cal_set)
    val_set = [record_context(rec, vocab) for rec in splits["val"]]
    test_set = [record_context(rec, vocab) for rec in splits["test"]]

    def test_wer(cfg):
        results = decode_eval_set(llm, asr, [cfg], test_set)
        return corpus_wer([(vocab.decode(r.tokens).split(), ref)
                           for r, (_c, ref) in zip(results, test_set)])

    return {
        "channel": channel, "splits": splits, "vocab": vocab,
        "llm": llm, "asr": asr, "rep_llm": rep_llm, "rep_asr": rep_asr,
        "cal_set": cal_set, "val_set": val_set, "test_set": test_set,
        "test_wer": test_wer,
    }


def test_criterion_1_dynamic_weight_arithmetic():
    w = uadf_weight(9.91, 0.5)
    check(1, f"uadf_weight(9.91, 0.5) = {w:.6f} within 1e-4 of 0.49995",
          abs(w - 0.49995) <= 1e-4)


def test_criterion_2_relative_reduction_arithmetic():
    a = werr(1.61, 1.24) * 100.0
    b = werr(2.83, 2.47) * 100.0
    check(2, f"werr arithmetic: {a:.3f}% ~ 23.0, {b:.3f}% ~ 12.7",
          abs(a - 23.0) <= 0.05 and abs(b - 12.7) <= 0.05)


class _HashProvider:
    """Deterministic pseudorandom logits per (salt, history)."""

    def __init__(self, vocab, salt):
        self.vocab = vocab
        self.salt = salt

    def next_logits(self, history, ctx):
        out = np.empty(self.vocab.size)
        for v in range(self.vocab.size):
            d = hashlib.sha256(f"{self.salt}:{tuple(history)}:{v}".encode()).digest()
            out[v] = int.from_bytes(d[:8], "big") / 2.0**64 * 8.0 - 4.0
        return out


def _oracle_uadf_tokens(llm, asr, tau1, tau2, beta, ctx, max_len):
    """Independent plain-math recomputation of each fused greedy step."""
    def softmax(xs, tau):
        scaled = [x / tau for x in xs]
        peak = max(scaled)
        exps = [math.exp(x - peak) for x in scaled]
        z = sum(exps)
        return [e / z for e in exps]

    history, tokens = (0,), ()
    for _ in range(max_len):
        p1 = softmax(list(llm.next_logits(history, ctx)), tau1)
        h = -sum(p * math.log(p) for p in p1 if p > 0.0)
        w = 1.0 / (1.0 + math.exp(-h)) - beta
        p2 = softmax(list(asr.next_logits(history, ctx)), tau2)
        summed = [a + w * b for a, b in zip(p1, p2)]
        fused = softmax(summed, 1.0)
        chosen = max(range(len(fused)), key=lambda i: (fused[i], -i))
        tokens += (chosen,)
        history += (chosen,)
        if chosen == 1:
            break
    return tokens


def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(1234)
    cases = mismatches = 0
    for case in range(220):
        v = int(rng.integers(3, 6))
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>") +
                           tuple(f"w{i}" for i in range(v - 3)))
        llm = _HashProvider(vocab, f"L{case}")
        asr = _HashProvider(vocab, f"A{case}")
        ctx = UtteranceContext(utt_id=f"c{case}")
        tau1 = float(rng.uniform(0.3, 3.0))
        tau2 = float(rng.uniform(0.3, 3.0))
        beta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        max_len = int(rng.integers(1, 5))
        cfg = FusionConfig(mode="uadf", tau1=tau1, tau2=tau2, beta=beta)
        got = fused_greedy_decode(llm, asr, cfg, ctx, max_len).tokens
        want = _oracle_uadf_tokens(llm, asr, tau1, tau2, beta, ctx, max_len)
        cases += 1
        mismatches += got != want
    check(3, f"{cases} randomized fused decodes match the plain-math oracle "
             f"({mismatches} mismatches)", cases >= 200 and mismatches == 0)


def test_criterion_4_calibration_fixed_point(bench, frozen_bins):
    ok = True
    parts = []
    for name in ("llm", "asr"):
        rep = bench[f"rep_{name}"]
        gap = abs(rep.mean_confidence - (1.0 - rep.ter))
        rows, targets, steps = collect_traces(bench[name], bench["cal_set"])
        traces = rows[steps]
        parts.append(f"{name}: tau={rep.tau:.3f} gap={gap:.1e} "
                     f"ece {rep.ece_tau1:.4f}->{rep.ece:.4f}")
        ok &= gap <= 1e-3 and not rep.clamped and rep.ece < rep.ece_tau1
        # the report's bins are those of the collected trace at each tau
        assert (rep.bins_tau1, rep.ece_tau1) == frozen_bins(traces, targets, 1.0, 10)
        assert (rep.bins, rep.ece) == frozen_bins(traces, targets, rep.tau, 10)
    check(4, "; ".join(parts), ok)


@pytest.mark.parametrize("bounds", [(1e-2, 1e2), (1e-320, 1e2)], ids=["default", "tiny"])
@pytest.mark.parametrize("name", ["llm", "asr"])
def test_fit_equals_the_fit_that_shifts_per_evaluation(bench, frozen_fit, name, bounds):
    """The fitted report is bit for bit the one the per-evaluation shift
    gave; at tau_min 1e-320 every shifted logit but the maximum
    overflows to -inf, whose weight is 0."""
    got = fit_temperature(bench[name], bench["cal_set"], bounds=bounds).to_dict()
    want, _evals = frozen_fit(bench[name], bench["cal_set"], bounds=bounds)
    assert json.dumps(got) == json.dumps(want)


def test_criterion_5_argmax_invariance():
    rng = np.random.default_rng(77)
    from latefuse.core import softmax_with_temperature

    violations = 0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        scale = float(rng.choice([0.5, 3.0, 50.0, 2000.0]))
        x = rng.normal(scale=scale, size=size)
        ref = int(np.argmax(x))
        for tau in (0.01, 0.1, 1.0, 10.0, 100.0):
            violations += argmax_token(softmax_with_temperature(x, tau)) != ref
    check(5, f"10,000 vectors x 5 temperatures, {violations} argmax changes",
          violations == 0)


def test_static_band_near_optimum_is_flat(bench):
    # a band of weights around the optimum gives near-identical WER while
    # the grid ends (w_asr = 0 and 1) sit ~1+ point away; the band
    # tolerance is 0.25 points at this corpus size (one word ~ 0.04 points)
    by_weight = static_grid_wers(bench)
    floor = min(by_weight.values())
    band = [by_weight[w] for w in (0.25, 0.375, 0.5)]
    assert max(band) - floor <= 0.0025
    assert by_weight[0.0] - floor > 0.005
    assert by_weight[1.0] - floor > 0.005


def test_criterion_6_fusion_behavior_ordering(bench):
    rep_llm, rep_asr = bench["rep_llm"], bench["rep_asr"]
    wer_llm = bench["test_wer"](FusionConfig(mode="llm", tau1=rep_llm.tau))
    wer_asr = bench["test_wer"](FusionConfig(mode="asr", tau2=rep_asr.tau))
    wer_uadf = bench["test_wer"](
        FusionConfig(mode="uadf", tau1=rep_llm.tau, tau2=rep_asr.tau))
    # static baseline at the same fitted temperatures: w_asr grid-searched
    # on the validation split (ties go to the smaller w_asr)
    grid = static_grid_wers(bench, rep_llm.tau, rep_asr.tau)
    w_asr = min(grid, key=lambda w: (grid[w], w))
    wer_static = bench["test_wer"](
        FusionConfig(mode="static", w_asr=w_asr, tau1=rep_llm.tau, tau2=rep_asr.tau))
    ok = wer_uadf < wer_llm and wer_uadf < wer_asr and wer_uadf <= wer_static + 0.001
    check(6, f"uadf={wer_uadf:.4f} < llm={wer_llm:.4f}, < asr={wer_asr:.4f}, "
             f"<= static(w_asr={w_asr})={wer_static:.4f} + 0.001", ok)


def test_static_sum_has_the_mixture_argmax_at_every_grid_step(bench):
    """Static fusion chooses argmax(p_llm + w * p_asr); the weighted mixture
    (p_llm + w * p_asr) / (1 + w) has the same argmax in exact arithmetic,
    and in floating point at every step the grid decodes take, uncalibrated
    and calibrated."""
    steps = differ = 0
    for tau1, tau2 in ((1.0, 1.0), (bench["rep_llm"].tau, bench["rep_asr"].tau)):
        cfgs = [FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2)
                for w_asr in STATIC_GRID]
        for result in decode_eval_set(bench["llm"], bench["asr"], cfgs,
                                      bench["val_set"] + bench["test_set"]):
            for step in result.steps:
                summed = step.p_llm + step.w_asr_effective * step.p_asr
                steps += 1
                differ += argmax_token(summed) != argmax_token(
                    summed / (1.0 + step.w_asr_effective))
    assert steps > 100_000
    assert differ == 0


class _DiracWrapper:
    """Forces a provider to emit one-hot argmax logits."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab

    def next_logits(self, history, ctx):
        logits = self.inner.next_logits(history, ctx)
        out = np.zeros_like(logits)
        out[int(np.argmax(logits))] = 60.0
        return out


def test_criterion_7_full_confidence_bypass(bench):
    dirac_llm = _DiracWrapper(bench["llm"])
    mismatched = 0
    for ctx, ref in bench["test_set"]:
        max_len = 2 * (len(ref) + 1)
        uadf = fused_greedy_decode(
            dirac_llm, bench["asr"],
            FusionConfig(mode="uadf", beta=0.5, tau2=bench["rep_asr"].tau),
            ctx, max_len)
        only = fused_greedy_decode(
            dirac_llm, bench["asr"], FusionConfig(mode="llm"), ctx, max_len)
        mismatched += uadf.tokens != only.tokens
    check(7, f"Dirac primary, beta=0.5: {mismatched} of {len(bench['test_set'])} "
             f"utterances differ from mode llm", mismatched == 0)


def test_criterion_8_oracle_ordering_and_severity(bench):
    violations = 0
    for rec in bench["splits"]["test"]:
        ref = normalize_text(rec.reference)
        hyps = [normalize_text(t) for t, _ in rec.nbest]
        o_nb = oracle_nbest(hyps, ref)
        o_cp = oracle_compositional(hyps, ref)
        first = wer(hyps[0], ref).wer
        violations += not (o_cp <= o_nb + 1e-12 and o_nb <= first + 1e-12)

    sweep = []
    for sub in (0.05, 0.15, 0.30):
        spec = ChannelSpec(sub_rate=sub, del_rate=0.02, ins_rate=0.02, seed=0)
        splits, _v = generate_corpus(spec, 2, 1, 150)
        sweep.append(corpus_wer([
            (normalize_text(r.nbest[0][0]), normalize_text(r.reference))
            for r in splits["test"]]))
    monotone = sweep[0] <= sweep[1] <= sweep[2]
    check(8, f"o_cp <= o_nb <= 1-best on all 500 utterances ({violations} "
             f"violations); 1-best WER over sub rates = "
             f"{[round(w, 4) for w in sweep]}", violations == 0 and monotone)


def test_criterion_9_loopback_protocol(bench):
    contexts = {ctx.utt_id: ctx for ctx, _ref in bench["test_set"][:100]}
    mismatched = 0
    with ProviderServer(bench["llm"], contexts) as server:
        remote = connect_external(server.address, bench["vocab"], timeout=10.0)
        try:
            for ctx, ref in bench["test_set"][:100]:
                max_len = 2 * (len(ref) + 1)
                local = greedy_decode(bench["llm"], ctx, max_len)
                served = greedy_decode(remote, ctx, max_len)
                same_steps = all(np.array_equal(a, b) for a, b in
                                 zip(local.steps, served.steps))
                mismatched += local.tokens != served.tokens or not same_steps
        finally:
            remote.close()
    check(9, f"served corrector reproduces 100 in-process decodes "
             f"({mismatched} mismatches)", mismatched == 0)


def test_criterion_10_pipeline_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        argv_sets = [
            ["simulate", "--out-dir", data, "--n-train", 60, "--n-val", 15,
             "--n-test", 25, "--seed", 5],
            ["train-lm", "--corpus", data / "train.jsonl",
             "--vocab", data / "vocab.txt", "--out", root / "lm.json"],
            ["calibrate", "--corpus", data / "val.jsonl",
             "--vocab", data / "vocab.txt", "--which", "llm",
             "--lm-model", root / "lm.json", "--out", root / "cal-llm.json"],
            ["calibrate", "--corpus", data / "val.jsonl",
             "--vocab", data / "vocab.txt", "--which", "asr",
             "--manifest", data / "manifest.json", "--out", root / "cal-asr.json"],
            ["decode", "--corpus", data / "test.jsonl",
             "--vocab", data / "vocab.txt", "--mode", "uadf",
             "--lm-model", root / "lm.json", "--manifest", data / "manifest.json",
             "--calibration-llm", root / "cal-llm.json",
             "--calibration-asr", root / "cal-asr.json",
             "--out", root / "uadf.jsonl"],
            ["score", "--corpus", data / "test.jsonl",
             "--hyp", f"uadf={root / 'uadf.jsonl'}", "--out", root / "scores.json"],
        ]
        for argv in argv_sets:
            assert cli_main([str(a) for a in argv]) == 0
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    root = tmp_path / "run"
    first = pipeline(root)
    second = pipeline(root)  # same config, same paths, rerun in place
    diffs = [str(k) for k in first if first[k] != second.get(k)]
    check(10, f"rerun of simulate->train-lm->calibrate->decode->score is "
              f"byte-identical ({len(diffs)} files differ)",
          not diffs and set(first) == set(second))
