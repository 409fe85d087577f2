import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from latefuse import decoding, fusion
from latefuse.core import Vocabulary, argmax_token, entropy, softmax_with_temperature
from latefuse.decoding import (
    MAX_BEAM_WIDTH,
    beam_search,
    decode_eval_set,
    evaluation_max_len,
    fused_greedy_decode,
    greedy_decode,
    sweep_wers,
)
from latefuse.errors import ConfigurationError, InvalidInputError, InvalidParameterError
from latefuse.fusion import FusionConfig, decide
from latefuse.metrics import corpus_wer
from latefuse.providers import AcousticChannel, UtteranceContext


@pytest.fixture
def identity_channel(abc_vocab):
    return AcousticChannel(abc_vocab, np.eye(abc_vocab.size))


def obs_ctx(vocab, text, utt_id="u0"):
    return UtteranceContext(
        utt_id=utt_id, observation=(0,) + vocab.encode(text) + (1,))


class TestGreedyDecode:
    def test_identity_channel_reproduces_observation(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "a b")
        result = greedy_decode(identity_channel, ctx, max_len=10)
        assert result.tokens == (3, 4, 1)
        assert result.terminated == "eos"
        assert len(result.steps) == 3

    def test_max_len_cap(self, abc_vocab, constant_provider_cls):
        logits = np.zeros(abc_vocab.size)
        logits[3] = 10.0  # never EOS
        provider = constant_provider_cls(abc_vocab, logits)
        result = greedy_decode(provider, UtteranceContext(utt_id="u"), max_len=2)
        assert result.tokens == (3, 3)
        assert result.terminated == "max-length"

    def test_memorized_corpus_replay(self, abc_vocab):
        from latefuse.providers import train_ngram_corrector

        refs = [abc_vocab.encode("a b c", append_eos=True)] * 10
        corrector = train_ngram_corrector(refs, abc_vocab, order=2,
                                          smoothing=0.0, vote_weight=0.0)
        result = greedy_decode(corrector, UtteranceContext(utt_id="u"), max_len=10)
        assert abc_vocab.decode(result.tokens) == "a b c"
        assert result.terminated == "eos"

    def test_max_len_must_be_positive(self, abc_vocab, identity_channel):
        with pytest.raises(InvalidParameterError):
            greedy_decode(identity_channel, obs_ctx(abc_vocab, "a"), max_len=0)


class TestFusedGreedyDecode:
    def test_llm_only_equals_plain_greedy(self, abc_vocab, identity_channel,
                                          constant_provider_cls):
        other = constant_provider_cls(abc_vocab, np.arange(6.0))
        ctx = obs_ctx(abc_vocab, "c a b")
        cfg = FusionConfig(mode="llm", tau1=3.0)
        fused = fused_greedy_decode(identity_channel, other, cfg, ctx, max_len=10)
        plain = greedy_decode(identity_channel, ctx, max_len=10)
        assert fused.tokens == plain.tokens

    def test_asr_only_uses_second_provider(self, abc_vocab, identity_channel,
                                           constant_provider_cls):
        other = constant_provider_cls(abc_vocab, np.arange(6.0))
        ctx = obs_ctx(abc_vocab, "b c")
        cfg = FusionConfig(mode="asr")
        fused = fused_greedy_decode(other, identity_channel, cfg, ctx, max_len=10)
        assert abc_vocab.decode(fused.tokens) == "b c"

    def test_dirac_llm_ignores_asr_everywhere(self, abc_vocab, identity_channel):
        # a corrector that replays one sentence with near-certain votes
        from latefuse.providers import train_ngram_corrector

        refs = [abc_vocab.encode("c b a", append_eos=True)] * 5
        llm = train_ngram_corrector(refs, abc_vocab, order=2, smoothing=0.0,
                                    vote_weight=0.0)
        ctx = obs_ctx(abc_vocab, "a a a")
        uadf = fused_greedy_decode(llm, identity_channel,
                                   FusionConfig(mode="uadf", beta=0.5), ctx, 10)
        only = fused_greedy_decode(llm, identity_channel,
                                   FusionConfig(mode="llm"), ctx, 10)
        assert uadf.tokens == only.tokens == abc_vocab.encode("c b a", append_eos=True)

    def test_history_shared_and_steps_recorded(self, abc_vocab, identity_channel):
        seen = []

        class Spy:
            vocab = abc_vocab

            def next_logits(self, history, ctx):
                seen.append(tuple(history))
                return np.zeros(abc_vocab.size)

        spy = Spy()
        ctx = obs_ctx(abc_vocab, "a b")
        result = fused_greedy_decode(identity_channel, spy,
                                     FusionConfig(mode="uadf"), ctx, max_len=5)
        # the spy saw exactly the emitted prefixes
        prefixes = [(0,) + result.tokens[:i] for i in range(len(result.tokens))]
        assert seen == prefixes
        assert len(result.steps) == len(result.tokens)

    def test_vocabulary_mismatch_rejected(self, abc_vocab, identity_channel):
        other_vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "x"))
        other = AcousticChannel(other_vocab, np.eye(4))
        with pytest.raises(ConfigurationError):
            fused_greedy_decode(identity_channel, other, FusionConfig(mode="uadf"),
                                obs_ctx(abc_vocab, "a"), max_len=3)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self, abc_vocab):
        import hashlib

        class HashProvider:
            vocab = abc_vocab

            def next_logits(self, history, ctx):
                out = np.empty(abc_vocab.size)
                for v in range(abc_vocab.size):
                    d = hashlib.sha256(f"{tuple(history)}:{v}".encode()).digest()
                    out[v] = int.from_bytes(d[:8], "big") / 2.0**64 * 6.0 - 3.0
                return out

        provider = HashProvider()
        ctx = UtteranceContext(utt_id="u")
        for max_len in (1, 3, 6):
            greedy = greedy_decode(provider, ctx, max_len=max_len)
            (seq, _score), = beam_search(provider, ctx, beam_width=1, n_out=1,
                                         max_len=max_len)
            assert seq == greedy.tokens

    def test_matches_exhaustive_enumeration(self, table_provider_cls):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>"))
        # step distributions chosen so beam 3 can hold every live prefix
        table = {
            (0,): [math.log(0.2), math.log(0.5), math.log(0.3)],
            (0, 0): [math.log(0.6), math.log(0.3), math.log(0.1)],
            (0, 2): [math.log(0.1), math.log(0.2), math.log(0.7)],
        }
        default = [math.log(0.25), math.log(0.5), math.log(0.25)]
        provider = table_provider_cls(vocab, table, default=default)
        ctx = UtteranceContext(utt_id="u")

        def enumerate_all(history, score, depth):
            logits = provider.next_logits(history, ctx)
            shifted = logits - logits.max()
            logp = shifted - math.log(float(np.exp(shifted).sum()))
            out = []
            for v in range(3):
                seq_score = score + float(logp[v])
                seq = history[1:] + (v,)
                if v == 1 or depth == 1:
                    out.append((seq, seq_score))
                else:
                    out.extend(enumerate_all(history + (v,), seq_score, depth - 1))
            return out

        ranked = sorted(enumerate_all((0,), 0.0, 3), key=lambda it: (-it[1], it[0]))
        got = beam_search(provider, ctx, beam_width=3, n_out=3, max_len=3)
        assert [seq for seq, _ in got] == [seq for seq, _ in ranked[:3]]
        for (_, got_score), (_, want_score) in zip(got, ranked[:3]):
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_n_out_contract_sorted(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "a b c")
        hyps = beam_search(identity_channel, ctx, beam_width=8, n_out=5, max_len=8)
        assert len(hyps) == 5
        scores = [s for _, s in hyps]
        assert scores == sorted(scores, reverse=True)
        # identity channel: best hypothesis is the observation itself
        assert abc_vocab.decode(hyps[0][0]) == "a b c"

    def test_bad_widths_rejected(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "a")
        with pytest.raises(InvalidParameterError):
            beam_search(identity_channel, ctx, beam_width=2, n_out=3, max_len=4)
        with pytest.raises(InvalidParameterError, match=str(MAX_BEAM_WIDTH)):
            beam_search(identity_channel, ctx, beam_width=MAX_BEAM_WIDTH + 1, n_out=1,
                        max_len=4)

    def test_widest_beam_runs(self, abc_vocab, identity_channel):
        # V = 6 and 4 steps: at most 1296 candidates, so the width binds
        hyps = beam_search(identity_channel, obs_ctx(abc_vocab, "a b c"),
                           beam_width=MAX_BEAM_WIDTH, n_out=5, max_len=4)
        assert abc_vocab.decode(hyps[0][0]) == "a b c"

    def test_determinism(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "b a c")
        one = beam_search(identity_channel, ctx, beam_width=4, n_out=4, max_len=8)
        two = beam_search(identity_channel, ctx, beam_width=4, n_out=4, max_len=8)
        assert one == two


class TestDecodeEvalSet:
    def test_order_preserved(self, abc_vocab, identity_channel):
        eval_set = []
        for i, text in enumerate(["a b", "c", "b b a"]):
            eval_set.append((obs_ctx(abc_vocab, text, f"u{i}"), text.split()))
        results = decode_eval_set(None, identity_channel, [FusionConfig(mode="asr")],
                                  eval_set)
        assert [abc_vocab.decode(r.tokens) for r in results] == ["a b", "c", "b b a"]

    def test_yields_each_config_per_utterance_in_order(self):
        llm, asr, eval_set, (tau1, tau2) = random_case(5)
        cfgs = [FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2)
                for beta in (0.0, 0.5, 1.0)]
        got = list(decode_eval_set(llm, asr, cfgs, eval_set, max_len_factor=1.5))
        shared_calls = llm.calls
        llm.calls = 0
        want = [fused_greedy_decode(llm, asr, cfg, ctx, max_len=evaluation_max_len(ref, 1.5))
                for ctx, ref in eval_set for cfg in cfgs]
        assert [r.tokens for r in got] == [r.tokens for r in want]
        assert [r.terminated for r in got] == [r.terminated for r in want]
        assert shared_calls < llm.calls

    def test_evaluation_max_len(self):
        assert evaluation_max_len(["w"] * 5) == 12  # 2 * (5 + 1)
        assert evaluation_max_len([], factor=2.0) == 2

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_evaluation_max_len_rejects_bad_factor(self, factor):
        with pytest.raises(InvalidParameterError):
            evaluation_max_len(["w"] * 5, factor=factor)


class SeededProvider:
    """Deterministic pseudorandom logits per (salt, history), counting calls.

    Low-temperature-ish logits (scale 3) on a small vocabulary make the
    sweep points agree on some prefixes and part ways on others.
    """

    def __init__(self, vocab, salt):
        self.vocab = vocab
        self.salt = salt
        self.calls = 0

    def next_logits(self, history, ctx):
        self.calls += 1
        key = f"{self.salt}:{ctx.utt_id}:{tuple(history)}".encode()
        seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        return np.random.default_rng(seed).normal(scale=3.0, size=self.vocab.size)


def plain_sweep(llm, asr, cfgs, eval_set, factor=2.0):
    """The per-point loop the sweep replaces: decode the set, then score it."""
    wers = []
    for cfg in cfgs:
        pairs = []
        for ctx, ref in eval_set:
            result = fused_greedy_decode(llm, asr, cfg, ctx,
                                         max_len=evaluation_max_len(ref, factor))
            pairs.append((llm.vocab.decode(result.tokens).split(), ref))
        wers.append(corpus_wer(pairs))
    return wers


def random_case(case):
    rng = np.random.default_rng(case)
    v = int(rng.integers(5, 9))
    vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>") + tuple(f"w{i}" for i in range(v - 3)))
    eval_set = []
    for u in range(6):
        ref = [vocab.tokens[int(t)] for t in rng.integers(3, v, size=int(rng.integers(1, 6)))]
        eval_set.append((UtteranceContext(utt_id=f"c{case}u{u}"), ref))
    llm = SeededProvider(vocab, f"llm{case}")
    asr = SeededProvider(vocab, f"asr{case}")
    taus = tuple(float(t) for t in rng.uniform(0.5, 2.0, size=2))
    return llm, asr, eval_set, taus


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; the count
    is the one item of the returned list."""
    calls, original = [0], getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestEntropyOnlyWhereRead:
    """Only uadf's weight reads the primary's entropy, so a static decode
    set computes none, and a uadf set one per step that misses its memo."""

    GRID = (0.0, 0.25, 0.5, 1.0)
    BETAS = (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("case", range(4))
    def test_static_set_computes_no_entropy(self, monkeypatch, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        cfgs = [FusionConfig(mode="static", w_asr=w, tau1=tau1, tau2=tau2) for w in self.GRID]
        entropies = count_calls(monkeypatch, fusion, "entropy")
        misses = count_calls(monkeypatch, decoding, "fuse_step")
        results = list(decode_eval_set(llm, asr, cfgs, eval_set))
        assert len(results) == len(eval_set) * len(cfgs)
        assert misses[0] > 0
        assert entropies[0] == 0

    @pytest.mark.parametrize("case", range(4))
    def test_uadf_set_computes_one_entropy_per_miss(self, monkeypatch, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        cfgs = [FusionConfig(mode="uadf", beta=b, tau1=tau1, tau2=tau2) for b in self.BETAS]
        entropies = count_calls(monkeypatch, fusion, "entropy")
        misses = count_calls(monkeypatch, decoding, "fuse_step")
        results = list(decode_eval_set(llm, asr, cfgs, eval_set))
        steps = sum(len(r.steps) for r in results)
        assert entropies[0] == misses[0] > 0
        assert steps > misses[0]  # memo hits reuse the measured entropy

    @pytest.mark.parametrize("case", range(4))
    def test_static_step_computes_its_entropy_when_read(self, monkeypatch, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        cfgs = [FusionConfig(mode="static", w_asr=w, tau1=tau1, tau2=tau2) for w in self.GRID]
        steps = [step for r in decode_eval_set(llm, asr, cfgs, eval_set) for step in r.steps]
        entropies = count_calls(monkeypatch, fusion, "entropy")
        for k, step in enumerate(steps, start=1):
            assert step.measured_u is None
            assert step.uncertainty == entropy(step.p_llm)
            assert entropies[0] == k

    @pytest.mark.parametrize("mode", ["static", "uadf"])
    def test_steps_equal_those_that_measure_every_entropy(self, mode):
        """Each step of a set equals, bit for bit and in its uncertainty, the
        step of a loop that measures the entropy at every step."""
        llm, asr, eval_set, (tau1, tau2) = random_case(6)
        cfgs = [FusionConfig(mode=mode, w_asr=w, beta=b, tau1=tau1, tau2=tau2)
                for w, b in zip(self.GRID, self.BETAS)]
        got = iter(decode_eval_set(llm, asr, cfgs, eval_set))
        for ctx, ref in eval_set:
            for cfg in cfgs:
                assert_same_decode(next(got), reference_decode(
                    llm, asr, cfg, ctx, evaluation_max_len(ref)))


class TestSweepWers:
    """The memoized, utterance-major sweep gives the WERs of a plain loop."""

    @pytest.mark.parametrize("case", range(8))
    def test_static_grid_equals_plain_loop(self, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        grid = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0)
        cfgs = [FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2)
                for w_asr in grid]
        got = sweep_wers(llm, asr, cfgs, eval_set)
        shared_calls = llm.calls
        llm.calls = 0
        assert got == plain_sweep(llm, asr, cfgs, eval_set)
        assert len(got) == len(grid)
        assert shared_calls < llm.calls

    @pytest.mark.parametrize("case", range(8))
    def test_beta_sweep_equals_plain_loop(self, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        cfgs = [FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2)
                for beta in (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)]
        got = sweep_wers(llm, asr, cfgs, eval_set, max_len_factor=1.5)
        shared_calls = asr.calls
        asr.calls = 0
        assert got == plain_sweep(llm, asr, cfgs, eval_set, factor=1.5)
        assert shared_calls < asr.calls

    def test_memo_leaves_each_decode_unchanged(self):
        llm, asr, eval_set, (tau1, tau2) = random_case(99)
        ctx, ref = eval_set[0]
        memo = {}
        for beta in (0.0, 0.5, 1.0, 0.5):
            cfg = FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2)
            shared = fused_greedy_decode(llm, asr, cfg, ctx, max_len=6, memo=memo)
            alone = fused_greedy_decode(llm, asr, cfg, ctx, max_len=6)
            assert shared.tokens == alone.tokens
            assert [s.w_asr_effective for s in shared.steps] == \
                [s.w_asr_effective for s in alone.steps]

    @pytest.mark.parametrize("other", [
        {"tau1": 0.5}, {"tau2": 2.0}, {"mode": "static"},
    ])
    def test_points_must_share_step_inputs(self, other):
        llm, asr, eval_set, _taus = random_case(0)
        base = {"mode": "uadf", "beta": 0.5}
        cfgs = [FusionConfig(**base), FusionConfig(**{**base, **other})]
        with pytest.raises(InvalidParameterError):
            sweep_wers(llm, asr, cfgs, eval_set)


def serial_log_softmax(logits):
    shifted = logits - logits.max()
    return shifted - math.log(float(np.exp(shifted).sum()))


def serial_beam_search(provider, ctx, beam_width, n_out, max_len):
    """Oracle: the beam search that ran one log-softmax per live beam."""
    live = [((), 0.0)]
    pool = []
    for _ in range(max_len):
        if not live:
            break
        logps = np.stack([
            serial_log_softmax(provider.next_logits((Vocabulary.BOS,) + seq, ctx))
            for seq, _ in live
        ])
        scores = (np.array([s for _, s in live])[:, None] + logps).ravel()
        k = min(beam_width, scores.size)
        boundary = np.partition(scores, scores.size - k)[scores.size - k]
        chosen = np.flatnonzero(scores > boundary).tolist()
        chosen += np.flatnonzero(scores == boundary).tolist()[: k - len(chosen)]
        chosen.sort()
        v = logps.shape[1]
        next_live = []
        for flat in chosen:
            seq = live[flat // v][0] + (flat % v,)
            entry = (seq, float(scores[flat]))
            if seq[-1] == Vocabulary.EOS:
                pool.append(entry)
            else:
                next_live.append(entry)
        live = next_live
    pool.extend(live)
    pool.sort(key=lambda item: (-item[1], item[0]))
    return pool[:n_out]


class RandomLogits:
    """Seeded logits per (salt, history). Quantised logits take few distinct
    values, so candidates tie exactly, also at the top-k boundary. A large
    scale makes peaked rows, whose sums of exponentials lie just above 1:
    there `np.log` and `math.log` disagree in the last bit most often."""

    def __init__(self, vocab, salt, quantised, scale):
        self.vocab = vocab
        self.salt = salt
        self.quantised = quantised
        self.scale = scale

    def next_logits(self, history, ctx):
        key = f"{self.salt}:{tuple(history)}".encode()
        rng = np.random.default_rng(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
        logits = rng.normal(scale=self.scale, size=self.vocab.size)
        return np.round(logits) if self.quantised else logits


def sized_vocab(v):
    return Vocabulary(tokens=("<s>", "</s>", "<unk>") + tuple(f"w{i}" for i in range(v - 3)))


class TestBatchedBeamSearch:
    """The batched step returns the serial beam search's lists bit for bit."""

    @pytest.mark.parametrize("quantised", [False, True], ids=["continuous", "quantised"])
    @pytest.mark.parametrize("v", [3, 7, 200])
    def test_equals_serial_oracle(self, v, quantised):
        vocab = sized_vocab(v)
        rng = np.random.default_rng(v * 2 + quantised)
        ties = 0
        for case in range(30):
            beam_width = int(rng.integers(1, 9))
            n_out = int(rng.integers(1, beam_width + 1))
            max_len = int(rng.integers(1, 11))
            scale = (1.0, 3.0, 12.0)[case % 3]
            provider = RandomLogits(vocab, f"{v}:{quantised}:{case}", quantised, scale)
            ctx = UtteranceContext(utt_id=f"u{case}")
            got = beam_search(provider, ctx, beam_width, n_out, max_len)
            want = serial_beam_search(provider, ctx, beam_width, n_out, max_len)
            assert got == want
            assert [type(score) for _, score in got] == [float] * len(got)
            scores = [score for _, score in want]
            ties += len(set(scores)) < len(scores)
        if quantised and v > 3:
            assert ties  # the quantised cases do exercise exact ties

    def test_generate_corpus_equals_serial_oracle(self, monkeypatch):
        from latefuse import corpus, decoding

        channel = corpus.ChannelSpec(seed=3)
        batched = corpus.generate_corpus(channel, n_train=30, n_val=10, n_test=10)
        monkeypatch.setattr(decoding, "beam_search", serial_beam_search)
        serial = corpus.generate_corpus(channel, n_train=30, n_val=10, n_test=10)
        assert batched[0] == serial[0]
        assert batched[1].tokens == serial[1].tokens

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_row_normalisers_equal_the_serial_ones(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(50):
            buffer = rng.normal(scale=4.0, size=(rows, 200))
            buffer -= buffer.max(axis=1, keepdims=True)
            sums = np.exp(buffer).sum(axis=1)
            assert sums.tolist() == [float(np.exp(row).sum()) for row in buffer]
            norms = [math.log(total) for total in sums.tolist()]
            assert norms == [math.log(float(np.exp(row).sum())) for row in buffer]

    def test_normaliser_is_math_log_of_the_row_sum(self, constant_provider_cls):
        # Peaked rows: sums of exponentials in (1, 1.01), where np.log
        # differs from math.log in the last bit for a few percent of sums.
        vocab = sized_vocab(200)
        rng = np.random.default_rng(7)
        for _ in range(300):
            logits = np.concatenate([[0.0], rng.uniform(-14.0, -8.0, size=199)])
            total = float(np.exp(logits).sum())
            provider = constant_provider_cls(vocab, logits)
            (seq, score), = beam_search(provider, UtteranceContext(utt_id="u"),
                                        beam_width=1, n_out=1, max_len=1)
            assert seq == (Vocabulary.BOS,)
            assert score == -math.log(total)


def confusion_with_ties(v, seed):
    """Row-stochastic matrix of small integer counts, so rows hold ties."""
    counts = np.random.default_rng(seed).integers(1, 4, size=(v, v)).astype(float)
    return counts / counts.sum(axis=1, keepdims=True)


class TestOneRowPerStep:
    """A keyed provider is asked once per beam step, and its one row gives
    the lists the per-beam serial search gives."""

    @staticmethod
    def history_lengths(provider):
        """Wrap the instance's next_logits to log each history's length."""
        lengths, original = [], provider.next_logits

        def logged(history, ctx):
            lengths.append(len(history))
            return original(history, ctx)

        provider.next_logits = logged
        return lengths

    @pytest.mark.parametrize("matrix", ["identity", "quantised"])
    def test_acoustic_channel_equals_serial_oracle(self, abc_vocab, identity_channel,
                                                   matrix):
        rng = np.random.default_rng(11)
        calls = {"per-beam": 0, "per-step": 0}
        for case in range(20):
            if matrix == "identity":
                vocab, channel = abc_vocab, identity_channel
            else:
                vocab = sized_vocab(7)
                channel = AcousticChannel(vocab, confusion_with_ties(7, case))
            obs = (0,) + tuple(rng.integers(3, vocab.size, size=int(rng.integers(0, 6)))) + (1,)
            ctx = UtteranceContext(utt_id=f"u{case}", observation=obs)
            beam_width = int(rng.integers(1, 9))
            n_out = int(rng.integers(1, beam_width + 1))
            max_len = len(obs) + 2

            per_beam = self.history_lengths(channel)
            want = serial_beam_search(channel, ctx, beam_width, n_out, max_len)
            del channel.next_logits
            per_step = self.history_lengths(channel)
            got = beam_search(channel, ctx, beam_width, n_out, max_len)
            del channel.next_logits

            assert got == want
            # one call per step, and the steps are the ones the serial search ran
            assert per_step == sorted(set(per_beam))
            calls["per-beam"] += len(per_beam)
            calls["per-step"] += len(per_step)
        assert calls["per-beam"] > calls["per-step"] > 0

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "per-beam"])
    @pytest.mark.parametrize("kind", ["float64", "int-list"])
    def test_cached_rows_are_copied_not_normalised(self, keyed, kind):
        vocab = sized_vocab(7)
        rng = np.random.default_rng(5)
        cache = [rng.integers(-4, 5, size=vocab.size) for _ in range(6)]
        cache = [row.tolist() if kind == "int-list" else row.astype(np.float64)
                 for row in cache]
        before = [np.array(row, dtype=np.float64).tobytes() for row in cache]

        class CachedRows:
            """Returns its cached row for the history's length, not a copy."""

            def __init__(self):
                self.vocab = vocab

            def next_logits(self, history, ctx):
                return cache[min(len(history), len(cache)) - 1]

        class KeyedCachedRows(CachedRows):
            def row_key(self, length, ctx):
                return min(length, len(cache))

        class Copies(CachedRows):
            def next_logits(self, history, ctx):
                return np.array(super().next_logits(history, ctx), dtype=np.float64)

        ctx = UtteranceContext(utt_id="u")
        provider = KeyedCachedRows() if keyed else CachedRows()
        for beam_width, max_len in ((1, 3), (4, 6), (8, 8)):
            got = beam_search(provider, ctx, beam_width, min(beam_width, 3), max_len)
            assert got == serial_beam_search(Copies(), ctx, beam_width,
                                             min(beam_width, 3), max_len)
        assert [np.array(row, dtype=np.float64).tobytes() for row in cache] == before
        assert all(type(row) is (list if kind == "int-list" else np.ndarray)
                   for row in cache)

    def test_row_of_the_wrong_length_is_a_data_error(self, abc_vocab, constant_provider_cls):
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size - 1))
        with pytest.raises(InvalidInputError, match="vocabulary size 6"):
            beam_search(provider, UtteranceContext(utt_id="u"), 2, 1, 3)


def reference_decode(llm, asr, cfg, ctx, max_len):
    """Oracle: the decode loop that reads and softmaxes every provider row at
    every step, with no memo and no row cache. Its steps are the
    distributions (single-model modes) or the FusionSteps (fused modes)."""
    history, tokens, steps = (Vocabulary.BOS,), (), []
    for _ in range(max_len):
        if cfg.mode in ("llm", "asr"):
            provider, tau = (llm, cfg.tau1) if cfg.mode == "llm" else (asr, cfg.tau2)
            step = softmax_with_temperature(provider.next_logits(history, ctx), tau)
            tok = argmax_token(step)
        else:
            p_llm = softmax_with_temperature(llm.next_logits(history, ctx), cfg.tau1)
            p_asr = softmax_with_temperature(asr.next_logits(history, ctx), cfg.tau2)
            step = decide(p_llm, p_asr, entropy(p_llm), cfg)
            tok = step.chosen
        steps.append(step)
        tokens += (tok,)
        history += (tok,)
        if tok == Vocabulary.EOS:
            return tokens, steps, "eos"
    return tokens, steps, "max-length"


def step_bytes(step):
    if isinstance(step, np.ndarray):
        return step.tobytes()
    return step.p_llm.tobytes(), step.p_asr.tobytes(), step.uncertainty, step.chosen


def assert_same_decode(result, want):
    tokens, steps, terminated = want
    assert result.tokens == tokens
    assert result.terminated == terminated
    assert [step_bytes(step) for step in result.steps] == [step_bytes(step) for step in steps]


class CountingChannel(AcousticChannel):
    """An acoustic channel that counts its reads per row key."""

    def __init__(self, vocab, confusion):
        super().__init__(vocab, confusion)
        self.calls = Counter()

    def next_logits(self, history, ctx):
        self.calls[self.row_key(len(history), ctx)] += 1
        return super().next_logits(history, ctx)


def channel_case(seed, v=7, utts=6):
    """A tied-confusion channel over a V-word vocabulary, an n-gram-free
    seeded primary, and utterances whose observations share row keys."""
    vocab = sized_vocab(v)
    confusion = confusion_with_ties(v, seed)
    rng = np.random.default_rng(seed)
    eval_set = []
    for u in range(utts):
        words = rng.integers(3, v, size=int(rng.integers(1, 6)))
        ctx = UtteranceContext(utt_id=f"s{seed}u{u}",
                               observation=(0,) + tuple(int(w) for w in words) + (1,))
        eval_set.append((ctx, [vocab.tokens[int(w)] for w in words]))
    return vocab, confusion, SeededProvider(vocab, f"llm{seed}"), eval_set


CONFIG_SETS = {
    "llm": lambda tau: [FusionConfig(mode="llm", tau1=tau)],
    "asr": lambda tau2: [FusionConfig(mode="asr", tau2=tau2)],
    "static": lambda tau2: [FusionConfig(mode="static", w_asr=w, tau1=0.8, tau2=tau2)
                            for w in (0.0, 0.5, 2.0)],
    "uadf": lambda tau2: [FusionConfig(mode="uadf", beta=b, tau1=0.8, tau2=tau2)
                          for b in (0.0, 0.5, 1.0)],
}


class TestCalibratedRows:
    """A keyed provider's row is read and normalised once per (key, tau) in a
    decode set, and every decode equals the loop that softmaxes every row."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("configs", CONFIG_SETS.values(), ids=CONFIG_SETS.keys())
    def test_one_read_per_key_and_tau(self, configs, seed):
        """The channel is the secondary, or the primary in mode llm."""
        vocab, confusion, seeded, eval_set = channel_case(seed)
        channel = CountingChannel(vocab, confusion)
        plain = AcousticChannel(vocab, confusion)
        reached, steps = Counter(), 0
        for tau in (1.0, 0.6):
            cfgs = configs(tau)
            in_llm_role = cfgs[0].mode == "llm"
            roles = (channel, seeded) if in_llm_role else (seeded, channel)
            plain_roles = (plain, seeded) if in_llm_role else (seeded, plain)
            results = iter(list(decode_eval_set(*roles, cfgs, eval_set)))
            keys = set()
            for ctx, ref in eval_set:
                for cfg in cfgs:
                    result = next(results)
                    assert_same_decode(result, reference_decode(
                        *plain_roles, cfg, ctx, evaluation_max_len(ref)))
                    keys.update(channel.row_key(1 + i, ctx) for i in range(len(result.tokens)))
                    steps += len(result.tokens)
            reached.update(keys)
        # each key a decode reached was read once per tau; keys repeat across
        # steps and utterances, so that is fewer reads than steps
        assert channel.calls == reached
        assert sum(reached.values()) < steps

    def test_cached_distributions_refuse_writes(self):
        vocab, confusion, llm, eval_set = channel_case(4)
        channel = AcousticChannel(vocab, confusion)
        for cfgs in (CONFIG_SETS["asr"](1.0), CONFIG_SETS["uadf"](1.0)):
            for result in decode_eval_set(llm, channel, cfgs, eval_set):
                for step in result.steps:
                    dist = step if cfgs[0].mode == "asr" else step.p_asr
                    with pytest.raises(ValueError, match="read-only"):
                        dist[0] = 0.5

    def test_keyed_providers_never_swap_rows(self):
        """Two channels read the same keys off one observation, and one rows
        dict serves both, in either role and at two taus."""
        vocab, confusion, _llm, eval_set = channel_case(5)
        one = AcousticChannel(vocab, confusion)
        two = AcousticChannel(vocab, confusion_with_ties(vocab.size, 50))
        rows = {}
        for ctx, ref in eval_set:
            max_len = evaluation_max_len(ref)
            for llm, asr in ((one, two), (two, one)):
                for cfg in (FusionConfig(mode="llm"), FusionConfig(mode="asr"),
                            FusionConfig(mode="asr", tau2=0.5),
                            FusionConfig(mode="uadf", tau2=0.5),
                            FusionConfig(mode="static", w_asr=1.0)):
                    got = fused_greedy_decode(llm, asr, cfg, ctx, max_len, rows=rows)
                    assert_same_decode(got, reference_decode(llm, asr, cfg, ctx, max_len))
        assert {(provider, tau) for provider, _key, tau in rows} == \
            {(id(one), 1.0), (id(two), 1.0), (id(one), 0.5), (id(two), 0.5)}

    def test_unkeyed_provider_is_read_every_step(self):
        llm, asr, eval_set, (tau1, tau2) = random_case(7)
        cfgs = [FusionConfig(mode="asr", tau2=tau2)]
        results = list(decode_eval_set(llm, asr, cfgs, eval_set))
        assert asr.calls == sum(len(r.tokens) for r in results)
        for (ctx, ref), result in zip(eval_set, results):
            assert_same_decode(result, reference_decode(llm, asr, cfgs[0], ctx,
                                                        evaluation_max_len(ref)))

    @pytest.mark.parametrize("mode", ["llm", "asr"])
    def test_single_model_decode_without_rows(self, mode):
        """Without a rows dict, a decode of one keyed or unkeyed provider
        equals the loop that softmaxes every row; the cap of 2 stops most
        decodes at max-length."""
        vocab, confusion, seeded, eval_set = channel_case(8)
        terminated = Counter()
        for provider in (AcousticChannel(vocab, confusion), seeded):
            llm, asr = (provider, None) if mode == "llm" else (None, provider)
            for ctx, ref in eval_set:
                for max_len in (evaluation_max_len(ref), 2):
                    for tau in (1.0, 0.6):
                        cfg = FusionConfig(mode=mode, tau1=tau, tau2=tau)
                        want = reference_decode(llm, asr, cfg, ctx, max_len)
                        got = fused_greedy_decode(llm, asr, cfg, ctx, max_len)
                        assert_same_decode(got, want)
                        if mode == "llm":
                            assert_same_decode(greedy_decode(provider, ctx, max_len, tau), want)
                        terminated[got.terminated] += 1
        assert terminated["eos"] > 0 and terminated["max-length"] > 0


class RowProvider:
    """A plug-in provider that returns one fixed row for every history."""

    def __init__(self, vocab, row):
        self.vocab = vocab
        self.row = np.asarray(row, dtype=np.float64)

    def next_logits(self, history, ctx):
        return self.row


BAD_ROWS = {
    "nan": [0.0, 1.0, math.nan, 0.0, 0.0, 0.0],
    "+inf": [0.0, 1.0, math.inf, 0.0, 0.0, 0.0],
    "-inf": [0.0, 1.0, -math.inf, 0.0, 0.0, 0.0],
    "2-d": np.zeros((1, 6)),
    "empty": np.zeros(0),
}

FUSED_DECODERS = {
    "uadf": lambda llm, asr, ctx: fused_greedy_decode(llm, asr, FusionConfig(mode="uadf"), ctx),
    "static": lambda llm, asr, ctx: fused_greedy_decode(
        llm, asr, FusionConfig(mode="static"), ctx),
    "sweep": lambda llm, asr, ctx: sweep_wers(
        llm, asr, [FusionConfig(beta=0.0), FusionConfig(beta=0.5)], [(ctx, ["a", "b"])]),
}


@pytest.mark.parametrize("row", BAD_ROWS.values(), ids=BAD_ROWS.keys())
class TestRowCheckedWhereItEnters:
    """The softmax is the one check a provider row gets, and every greedy
    or fused decode passes each row through it."""

    def test_greedy(self, abc_vocab, row):
        with pytest.raises(InvalidInputError):
            greedy_decode(RowProvider(abc_vocab, row), obs_ctx(abc_vocab, "a b"))

    @pytest.mark.parametrize("bad_role", ["llm", "asr"])
    @pytest.mark.parametrize("decoder", FUSED_DECODERS.values(), ids=FUSED_DECODERS.keys())
    def test_fused(self, abc_vocab, identity_channel, row, decoder, bad_role):
        bad = RowProvider(abc_vocab, row)
        pair = (bad, identity_channel) if bad_role == "llm" else (identity_channel, bad)
        with pytest.raises(InvalidInputError):
            decoder(*pair, obs_ctx(abc_vocab, "a b"))
