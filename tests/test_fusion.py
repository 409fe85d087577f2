import hashlib
import math

import numpy as np
import pytest

from latefuse.core import Vocabulary, entropy, softmax_with_temperature
from latefuse.errors import InvalidParameterError
from latefuse.fusion import FusionConfig, fuse_step, uadf_weight
from latefuse.providers import UtteranceContext


def fuse_rows(logits_llm, logits_asr, cfg):
    """`fuse_step` on two logit rows, the acoustic one calibrated at tau2 as
    the decoders calibrate it."""
    return fuse_step(logits_llm, softmax_with_temperature(logits_asr, cfg.tau2), cfg)


class TestUadfWeight:
    def test_zero_uncertainty_default_beta(self):
        assert uadf_weight(0.0, 0.5) == 0.0

    def test_high_uncertainty_weight_saturates_near_half(self):
        assert uadf_weight(9.91, 0.5) == pytest.approx(0.49995, abs=1e-4)

    def test_ln2_closed_form(self):
        assert uadf_weight(math.log(2.0), 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_strictly_increasing_in_uncertainty(self):
        us = np.linspace(0.0, 8.0, 200)
        ws = [uadf_weight(u, 0.5) for u in us]
        assert all(a < b for a, b in zip(ws, ws[1:]))


class TestFuseStatic:
    def test_equal_weights_hand_arithmetic(self):
        # [0.8, 0.2] + 1 * [0.3, 0.7] = [1.1, 0.9]
        step = fuse_rows(np.log([0.8, 0.2]), np.log([0.3, 0.7]),
                         FusionConfig(mode="static", w_asr=1.0))
        np.testing.assert_allclose(step.p_llm + step.p_asr, [1.1, 0.9], atol=1e-12)
        assert step.w_asr_effective == 1.0
        assert step.chosen == 0

    def test_zero_asr_weight_chooses_calibrated_llm_argmax(self):
        cfg = FusionConfig(mode="static", w_asr=0.0, tau1=2.0)
        logits = np.array([1.0, 0.0, -1.0])
        step = fuse_rows(logits, np.array([0.0, 0.0, 5.0]), cfg)
        np.testing.assert_allclose(step.p_llm, softmax_with_temperature(logits, 2.0),
                                   atol=1e-12)
        assert step.w_asr_effective == 0.0
        assert step.chosen == 0

    def test_flip_threshold_is_the_llm_margin(self):
        # secondary Dirac on id 1: the choice flips exactly when w_asr
        # exceeds the primary's probability margin 0.55 - 0.35
        l1 = np.log([0.55, 0.35, 0.10])
        l2 = np.array([-200.0, 0.0, -200.0])
        for w in (0.0, 0.1, 0.19, 0.21, 0.5, 1.0, 4.0):
            step = fuse_rows(l1, l2, FusionConfig(mode="static", w_asr=w))
            assert step.chosen == (1 if w > 0.2 else 0)

    def test_unnormalised_sum_has_the_mixture_argmax(self):
        # (p_llm + w p_asr) / (1 + w) is the weighted mixture; the positive
        # factor 1 / (1 + w) cannot move its argmax
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = float(rng.uniform(0.0, 3.0))
            step = fuse_rows(rng.normal(size=7), rng.normal(size=7),
                             FusionConfig(mode="static", w_asr=w))
            mixture = (step.p_llm + w * step.p_asr) / (1.0 + w)
            assert mixture.sum() == pytest.approx(1.0, abs=1e-9)
            assert step.chosen == int(np.argmax(mixture))


class TestFuseUadf:
    def test_dirac_llm_bypasses_asr(self):
        cfg = FusionConfig(mode="uadf", beta=0.5)
        llm = np.array([200.0, 0.0, 0.0])
        asr = np.array([0.0, 0.0, 200.0])
        step = fuse_rows(llm, asr, cfg)
        assert step.uncertainty == pytest.approx(0.0, abs=1e-12)
        assert step.w_asr_effective == pytest.approx(0.0, abs=1e-12)
        assert step.chosen == 0

    def test_two_way_split_worked_example(self):
        # p_llm = [0.5, 0.5], p_asr = [0.9, 0.1], beta = 0.5:
        # u = ln 2, w = 2/3 - 1/2 = 1/6, sum = [0.65, 31/60]
        cfg = FusionConfig(mode="uadf", beta=0.5)
        step = fuse_rows(np.array([0.0, 0.0]), np.log([0.9, 0.1]), cfg)
        assert step.uncertainty == pytest.approx(math.log(2.0), abs=1e-12)
        assert step.w_asr_effective == pytest.approx(1.0 / 6.0, abs=1e-12)
        summed = step.p_llm + step.w_asr_effective * step.p_asr
        np.testing.assert_allclose(summed, [0.65, 31.0 / 60.0], atol=1e-12)
        np.testing.assert_allclose(summed, [0.64995, 0.51666], atol=1e-4)
        assert step.chosen == 0

    def test_uncertain_llm_defers_to_confident_asr(self):
        # near-uniform primary with a hair's margin on id 3; secondary
        # Dirac on id 4 flips the decision
        p = np.array([0.2, 0.2, 0.2, 0.2001, 0.1999])
        cfg = FusionConfig(mode="uadf", beta=0.5)
        step = fuse_rows(np.log(p), np.log([1e-9, 1e-9, 1e-9, 1e-9, 1.0]), cfg)
        assert int(np.argmax(step.p_llm)) == 3
        assert step.w_asr_effective > 0.3
        assert step.chosen == 4

    def test_weight_bounds_for_default_beta(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            step = fuse_rows(rng.normal(size=v), rng.normal(size=v),
                             FusionConfig(mode="uadf", beta=0.5))
            assert 0.0 <= step.w_asr_effective < 1.0 / (1.0 + math.exp(-math.log(v))) - 0.5 + 1e-12

    def test_deference_threshold_in_weight(self):
        # secondary Dirac on id 1; flip happens exactly when w exceeds the
        # primary's probability margin
        l1 = np.log([0.55, 0.35, 0.10])
        u = entropy(softmax_with_temperature(l1, 1.0))
        margin = 0.55 - 0.35
        l2 = np.array([-200.0, 0.0, -200.0])
        for beta in np.linspace(0.0, 1.0, 41):
            step = fuse_rows(l1, l2, FusionConfig(mode="uadf", beta=float(beta)))
            w = uadf_weight(u, float(beta))
            expected = 1 if w > margin else 0
            assert step.chosen == expected

    def test_fusion_step_log_entry(self, abc_vocab):
        cfg = FusionConfig(mode="uadf")
        step = fuse_rows(np.zeros(6), np.zeros(6), cfg)
        entry = step.log_entry(3, abc_vocab)
        assert entry["step"] == 3
        assert len(entry["llm_top"]) == 3
        assert {"token", "prob"} <= set(entry["llm_top"][0])
        assert entry["chosen"] == "<s>"


class TestFuseStep:
    def test_chosen_is_argmax_of_the_fused_scores(self):
        """Both modes choose argmax(p_llm + w * p_asr); only w differs."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            l1 = rng.normal(scale=2.0, size=v)
            l2 = rng.normal(scale=2.0, size=v)
            tau1, tau2 = (float(t) for t in rng.uniform(0.3, 3.0, size=2))
            w_asr = float(rng.uniform(0.0, 2.0))
            beta = float(rng.uniform(0.0, 1.0))
            p_llm = softmax_with_temperature(l1, tau1)
            p_asr = softmax_with_temperature(l2, tau2)

            for cfg, w in (
                (FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2), w_asr),
                (FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2),
                 uadf_weight(entropy(p_llm), beta)),
            ):
                step = fuse_rows(l1, l2, cfg)
                assert step.w_asr_effective == w
                assert step.chosen == int(np.argmax(p_llm + w * p_asr))

    def test_secondary_arrives_calibrated(self):
        """fuse_step calibrates and measures only the primary; it takes the
        secondary's distribution as given, the very array passed in."""
        rng = np.random.default_rng(12)
        l1 = rng.normal(size=9)
        p_asr = softmax_with_temperature(rng.normal(size=9), 0.7)
        for cfg in (FusionConfig(mode="static", tau1=1.3, tau2=0.7),
                    FusionConfig(mode="uadf", tau1=1.3, tau2=0.7)):
            step = fuse_step(l1, p_asr, cfg)
            assert step.p_asr is p_asr
            assert step.p_llm.tobytes() == softmax_with_temperature(l1, 1.3).tobytes()
            assert step.uncertainty == entropy(step.p_llm)

    def test_other_modes_rejected(self):
        with pytest.raises(InvalidParameterError):
            fuse_rows(np.zeros(3), np.zeros(3), FusionConfig(mode="llm"))


class TestFusionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "weird"},
        {"tau1": 0.0},
        {"tau2": -1.0},
        {"beta": 1.5},
        {"beta": -0.1},
        {"tau1": math.inf},
        {"mode": "static", "w_asr": -0.5},
        {"mode": "static", "w_asr": math.inf},
        {"mode": "static", "w_asr": math.nan},
        {"mode": "llm-only"},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FusionConfig(**kwargs)


class HashProvider:
    """Pseudorandom but fully deterministic logits per (salt, history)."""

    def __init__(self, vocab, salt):
        self.vocab = vocab
        self.salt = salt

    def next_logits(self, history, ctx):
        out = np.empty(self.vocab.size)
        for v in range(self.vocab.size):
            digest = hashlib.sha256(f"{self.salt}:{tuple(history)}:{v}".encode()).digest()
            out[v] = int.from_bytes(digest[:8], "big") / 2.0**64 * 8.0 - 4.0
        return out


def oracle_uadf_decode(llm, asr, tau1, tau2, beta, ctx, max_len):
    """Plain-math re-derivation of greedy dynamic fusion (no numpy)."""
    def softmax(xs, tau):
        scaled = [x / tau for x in xs]
        peak = max(scaled)
        exps = [math.exp(x - peak) for x in scaled]
        z = sum(exps)
        return [e / z for e in exps]

    history = (0,)
    tokens = []
    for _ in range(max_len):
        p1 = softmax(list(llm.next_logits(history, ctx)), tau1)
        h = -sum(p * math.log(p) for p in p1 if p > 0.0)
        w = 1.0 / (1.0 + math.exp(-h)) - beta
        p2 = softmax(list(asr.next_logits(history, ctx)), tau2)
        summed = [a + w * b for a, b in zip(p1, p2)]
        fused = softmax(summed, 1.0)
        chosen = max(range(len(fused)), key=lambda i: (fused[i], -i))
        tokens.append(chosen)
        history += (chosen,)
        if chosen == 1:
            break
    return tuple(tokens)


class TestBruteForceEquivalence:
    def test_uadf_decode_matches_plain_math_oracle(self):
        from latefuse.decoding import fused_greedy_decode

        rng = np.random.default_rng(99)
        cases = 0
        for case in range(60):
            v = int(rng.integers(3, 6))
            vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>") +
                               tuple(f"w{i}" for i in range(v - 3)))
            llm = HashProvider(vocab, f"llm{case}")
            asr = HashProvider(vocab, f"asr{case}")
            ctx = UtteranceContext(utt_id=f"c{case}")
            tau1 = float(rng.uniform(0.5, 2.0))
            tau2 = float(rng.uniform(0.5, 2.0))
            beta = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            max_len = int(rng.integers(1, 5))
            cfg = FusionConfig(mode="uadf", tau1=tau1, tau2=tau2, beta=beta)
            got = fused_greedy_decode(llm, asr, cfg, ctx, max_len)
            want = oracle_uadf_decode(llm, asr, tau1, tau2, beta, ctx, max_len)
            assert got.tokens == want
            cases += 1
        assert cases == 60

