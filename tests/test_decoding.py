import hashlib
import inspect
import math
import sys
from collections import Counter

import numpy as np
import pytest

from latefuse import decoding, fusion
from latefuse.calibration import fit_temperature
from latefuse.core import (Vocabulary, argmax_token, entropy, sigmoid, softmax_rows,
                           softmax_with_temperature)
from latefuse.decoding import (
    CHUNK_UTTERANCES,
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
from latefuse.corpus import ChannelSpec, decoder_confusion, generate_corpus, record_context
from latefuse.providers import AcousticChannel, UtteranceContext, train_ngram_corrector
from test_providers import history_key


@pytest.fixture
def identity_channel(abc_vocab):
    return AcousticChannel(abc_vocab, np.eye(abc_vocab.size))


def obs_ctx(vocab, text, utt_id="u0"):
    return UtteranceContext(
        utt_id=utt_id, observation=(0,) + vocab.encode(text) + (1,))


class RowsByLength:
    """A keyed acoustic stub: a history of n ids reads
    log_rows[min(n, len(log_rows)) - 1]."""

    def __init__(self, vocab, rows):
        self.vocab = vocab
        self.log_rows = np.asarray(rows, dtype=np.float64)

    def row_key(self, length, ctx):
        return min(length, len(self.log_rows)) - 1

    def next_logits(self, history, ctx):
        return self.log_rows[self.row_key(len(history), ctx)].copy()


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


def search(provider, ctx, beam_width, n_out, max_len):
    """`beam_search` of one utterance: its one N-best list."""
    hyps, = beam_search(provider, [ctx], beam_width, n_out, [max_len])
    return hyps


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        # rows of small integer counts tie, and both take the lowest id
        vocab = sized_vocab(7)
        rng = np.random.default_rng(4)
        for case in range(20):
            channel = AcousticChannel(vocab, confusion_with_ties(7, case))
            obs = (0,) + tuple(rng.integers(3, 7, size=int(rng.integers(0, 6)))) + (1,)
            ctx = UtteranceContext(utt_id=f"u{case}", observation=obs)
            for max_len in (1, 3, 6):
                greedy = greedy_decode(channel, ctx, max_len=max_len)
                (seq, _score), = search(channel, ctx, beam_width=1, n_out=1, max_len=max_len)
                assert seq == greedy.tokens

    def test_matches_exhaustive_enumeration(self):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>"))
        # per-length distributions chosen so that beam 3 keeps the prefixes
        # of the three best sequences, and no two sequences tie
        provider = RowsByLength(vocab, np.log([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1],
                                               [0.35, 0.4, 0.25]]))
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
        got = search(provider, ctx, beam_width=3, n_out=3, max_len=3)
        assert [seq for seq, _ in got] == [seq for seq, _ in ranked[:3]]
        for (_, got_score), (_, want_score) in zip(got, ranked[:3]):
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_n_out_contract_sorted(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "a b c")
        hyps = search(identity_channel, ctx, beam_width=8, n_out=5, max_len=8)
        assert len(hyps) == 5
        scores = [s for _, s in hyps]
        assert scores == sorted(scores, reverse=True)
        # identity channel: best hypothesis is the observation itself
        assert abc_vocab.decode(hyps[0][0]) == "a b c"

    def test_bad_widths_rejected(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "a")
        with pytest.raises(InvalidParameterError):
            search(identity_channel, ctx, beam_width=2, n_out=3, max_len=4)
        with pytest.raises(InvalidParameterError, match=str(MAX_BEAM_WIDTH)):
            search(identity_channel, ctx, beam_width=MAX_BEAM_WIDTH + 1, n_out=1, max_len=4)

    def test_widest_beam_runs(self, abc_vocab, identity_channel):
        # V = 6 and 4 steps: at most 1296 candidates, so the width binds
        hyps = search(identity_channel, obs_ctx(abc_vocab, "a b c"),
                      beam_width=MAX_BEAM_WIDTH, n_out=5, max_len=4)
        assert abc_vocab.decode(hyps[0][0]) == "a b c"

    def test_determinism(self, abc_vocab, identity_channel):
        ctx = obs_ctx(abc_vocab, "b a c")
        one = search(identity_channel, ctx, beam_width=4, n_out=4, max_len=8)
        two = search(identity_channel, ctx, beam_width=4, n_out=4, max_len=8)
        assert one == two

    def test_unkeyed_provider_is_refused_before_a_row_is_read(self, abc_vocab):
        class Unkeyed:
            vocab = abc_vocab

            def next_logits(self, history, ctx):
                raise AssertionError("an unkeyed provider's row was read")

        for n in (1, 2):
            ctxs = [obs_ctx(abc_vocab, "a", utt_id=f"u{i}") for i in range(n)]
            with pytest.raises(InvalidParameterError, match="row_key"):
                beam_search(Unkeyed(), ctxs, 2, 1, [3] * n)

    def test_one_length_cap_per_utterance(self, abc_vocab, identity_channel):
        ctxs = [obs_ctx(abc_vocab, "a"), obs_ctx(abc_vocab, "b", utt_id="u1")]
        with pytest.raises(InvalidParameterError, match="one max_len per utterance"):
            beam_search(identity_channel, ctxs, 2, 1, [3])
        with pytest.raises(InvalidParameterError, match="max_len must be >= 1, got 0"):
            beam_search(identity_channel, ctxs, 2, 1, [3, 0])
        assert beam_search(identity_channel, [], 2, 1, []) == []


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
        want = [fused_greedy_decode(llm, asr, cfg, ctx, max_len=evaluation_max_len(ref, 1.5))
                for ctx, ref in eval_set for cfg in cfgs]
        assert [r.tokens for r in got] == [r.tokens for r in want]
        assert [r.terminated for r in got] == [r.terminated for r in want]

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
    set computes none, and a uadf set one per step off its table."""

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
        list(decode_eval_set(llm, asr, cfgs, eval_set))
        assert entropies[0] == misses[0] > 0

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
    """The utterance-major sweep gives the WERs of a plain loop."""

    @pytest.mark.parametrize("case", range(8))
    def test_static_grid_equals_plain_loop(self, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        grid = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0)
        cfgs = [FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2)
                for w_asr in grid]
        got = sweep_wers(llm, asr, cfgs, eval_set)
        assert got == plain_sweep(llm, asr, cfgs, eval_set)
        assert len(got) == len(grid)

    @pytest.mark.parametrize("case", range(8))
    def test_beta_sweep_equals_plain_loop(self, case):
        llm, asr, eval_set, (tau1, tau2) = random_case(case)
        cfgs = [FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2)
                for beta in (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)]
        got = sweep_wers(llm, asr, cfgs, eval_set, max_len_factor=1.5)
        assert got == plain_sweep(llm, asr, cfgs, eval_set, factor=1.5)

    @pytest.mark.parametrize("mode", ["static", "uadf"])
    def test_one_pass_eval_set_gives_the_wers_of_the_list(self, mode):
        """A generator is read once, and scored against the references it
        gave, not against an exhausted second pass."""
        llm, asr, eval_set, (tau1, tau2) = random_case(3)
        cfgs = [FusionConfig(mode=mode, w_asr=w, beta=w, tau1=tau1, tau2=tau2)
                for w in (0.0, 0.5)]
        want = sweep_wers(llm, asr, cfgs, eval_set)
        assert sweep_wers(llm, asr, cfgs, (pair for pair in eval_set)) == want

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
    """Oracle: the beam search that ran one log-softmax per live beam and
    scored every id, one utterance at a time."""
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


def serial_searches(provider, ctxs, beam_width, n_out, max_lens):
    """`beam_search`'s call, made of one oracle search per utterance."""
    return [serial_beam_search(provider, ctx, beam_width, n_out, max_len)
            for ctx, max_len in zip(ctxs, max_lens)]


def assert_same_lists(got, want):
    """N-best lists equal, and every score equal bit for bit."""
    assert got == want
    assert [[score.hex() for _, score in hyps] for hyps in got] == \
        [[score.hex() for _, score in hyps] for hyps in want]
    assert {type(score) for hyps in got for _, score in hyps} <= {float}


def sized_vocab(v):
    return Vocabulary(tokens=("<s>", "</s>", "<unk>") + tuple(f"w{i}" for i in range(v - 3)))


def spy_full_steps(monkeypatch):
    """Log the live beams' count of every utterance step that scored every id."""
    widened, original = [], decoding._full_step

    def logged(base, logp, beam_width):
        widened.append(len(base))
        return original(base, logp, beam_width)

    monkeypatch.setattr(decoding, "_full_step", logged)
    return widened


class TestBatchedBeamSearch:
    """The batched step returns the serial beam search's lists bit for bit."""

    @pytest.mark.parametrize("quantised", [False, True], ids=["continuous", "quantised"])
    @pytest.mark.parametrize("v", [3, 7, 200])
    def test_equals_serial_oracle(self, v, quantised):
        # Seeded rows, one per length. Quantised rows take few distinct
        # values, so candidates tie exactly, also at the top-k boundary.
        # Scale 12 makes peaked rows, whose sums of exponentials lie just
        # above 1: there `np.log` and `math.log` disagree in the last bit
        # most often.
        vocab = sized_vocab(v)
        rng = np.random.default_rng(v * 2 + quantised)
        ties = 0
        for case in range(30):
            beam_width = int(rng.integers(1, 9))
            n_out = int(rng.integers(1, beam_width + 1))
            max_len = int(rng.integers(1, 11))
            scale = (1.0, 3.0, 12.0)[case % 3]
            table = rng.normal(scale=scale, size=(max_len, v))
            provider = RowsByLength(vocab, np.round(table) if quantised else table)
            ctx = UtteranceContext(utt_id=f"u{case}")
            got = search(provider, ctx, beam_width, n_out, max_len)
            want = serial_beam_search(provider, ctx, beam_width, n_out, max_len)
            assert_same_lists([got], [want])
            scores = [score for _, score in want]
            ties += len(set(scores)) < len(scores)
        if quantised and v > 3:
            assert ties  # the quantised cases do exercise exact ties

    def test_generate_corpus_equals_serial_oracle(self, monkeypatch):
        from latefuse import corpus, decoding

        channel = corpus.ChannelSpec(seed=3)
        batched = corpus.generate_corpus(channel, n_train=30, n_val=10, n_test=10)
        monkeypatch.setattr(decoding, "beam_search", serial_searches)
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

    def test_normaliser_is_math_log_of_the_row_sum(self):
        # Peaked rows: sums of exponentials in (1, 1.01), where np.log
        # differs from math.log in the last bit for a few percent of sums.
        vocab = sized_vocab(200)
        rng = np.random.default_rng(7)
        for _ in range(300):
            logits = np.concatenate([[0.0], rng.uniform(-14.0, -8.0, size=199)])
            total = float(np.exp(logits).sum())
            provider = RowsByLength(vocab, [logits])
            (seq, score), = search(provider, UtteranceContext(utt_id="u"),
                                   beam_width=1, n_out=1, max_len=1)
            assert seq == (Vocabulary.BOS,)
            assert score == -math.log(total)


def confusion_with_ties(v, seed):
    """Row-stochastic matrix of small integer counts, so rows hold ties."""
    counts = np.random.default_rng(seed).integers(1, 4, size=(v, v)).astype(float)
    return counts / counts.sum(axis=1, keepdims=True)


class TestOneRowPerStep:
    """A keyed provider is read once per key of a call, and that one row
    gives the lists the per-beam serial search gives."""

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
            got = search(channel, ctx, beam_width, n_out, max_len)
            del channel.next_logits

            assert_same_lists([got], [want])
            # one call per key, at the first length the serial search read it
            first = {}
            for length in per_beam:
                first.setdefault(channel.row_key(length, ctx), length)
            assert per_step == list(first.values())
            calls["per-beam"] += len(per_beam)
            calls["per-step"] += len(per_step)
        assert calls["per-beam"] > calls["per-step"] > 0

    @pytest.mark.parametrize("utterances", [1, 3])
    @pytest.mark.parametrize("kind", ["float64", "int-list"])
    def test_cached_rows_are_copied_not_normalised(self, kind, utterances):
        vocab = sized_vocab(7)
        rng = np.random.default_rng(5)
        cache = [rng.integers(-4, 5, size=vocab.size) for _ in range(6)]
        cache = [row.tolist() if kind == "int-list" else row.astype(np.float64)
                 for row in cache]
        before = [np.array(row, dtype=np.float64).tobytes() for row in cache]
        reads = []

        class CachedRows(RowsByLength):
            """Returns its cached row for the history's length, not a copy."""

            def next_logits(self, history, ctx):
                reads.append(len(history))
                return cache[self.row_key(len(history), ctx)]

        class Copies(CachedRows):
            def next_logits(self, history, ctx):
                return np.array(super().next_logits(history, ctx), dtype=np.float64)

        # the utterances of a call share every key: each is read once a call
        ctxs = [UtteranceContext(utt_id=f"u{i}") for i in range(utterances)]
        provider = CachedRows(vocab, cache)
        for beam_width, max_len in ((1, 3), (4, 6), (8, 8)):
            n_out = min(beam_width, 3)
            got = beam_search(provider, ctxs, beam_width, n_out, [max_len] * utterances)
            assert sorted(reads) == list(range(1, len(reads) + 1))
            reads.clear()
            want = serial_searches(Copies(vocab, cache), ctxs, beam_width, n_out,
                                   [max_len] * utterances)
            reads.clear()
            assert_same_lists(got, want)
        assert [np.array(row, dtype=np.float64).tobytes() for row in cache] == before
        assert all(type(row) is (list if kind == "int-list" else np.ndarray)
                   for row in cache)

    def test_each_read_history_is_bos_alone_as_long_as_its_step(self):
        # a chunk of utterances in one call: each key is read once, with a
        # history of BOS alone at the first step any utterance reaches it,
        # which is the first length any serial search reads it at
        vocab = sized_vocab(7)
        channel = AcousticChannel(vocab, confusion_with_ties(7, 4))
        ctxs = observed(np.random.default_rng(4), 7, 12, longest=6)
        max_lens = [len(ctx.observation) + 2 for ctx in ctxs]
        first = {}
        for ctx, max_len in zip(ctxs, max_lens):
            lengths = self.history_lengths(channel)
            serial_beam_search(channel, ctx, 4, 3, max_len)
            del channel.next_logits
            for length in lengths:
                key = channel.row_key(length, ctx)
                first[key] = min(first.get(key, length), length)
        histories, original = [], channel.next_logits

        def logged(history, ctx):
            histories.append((tuple(history), channel.row_key(len(history), ctx)))
            return original(history, ctx)

        channel.next_logits = logged
        got = beam_search(channel, ctxs, 4, 3, max_lens)
        del channel.next_logits
        assert_same_lists(got, serial_searches(channel, ctxs, 4, 3, max_lens))
        assert histories == [((Vocabulary.BOS,) * first[key], key) for _, key in histories]
        assert sorted(key for _, key in histories) == sorted(first)

    def test_row_of_the_wrong_length_is_a_data_error(self, abc_vocab):
        provider = RowsByLength(abc_vocab, [np.zeros(abc_vocab.size - 1)])
        with pytest.raises(InvalidInputError, match="vocabulary size 6"):
            search(provider, UtteranceContext(utt_id="u"), 2, 1, 3)


class TestRankedRows:
    """A step scores the first m ranked ids of a keyed row, and an
    utterance whose id left out could still reach the boundary scores
    every id instead; the lists equal the serial search's, which scores
    every id."""

    def test_ids_that_round_to_the_boundary_widen_the_step(self, monkeypatch):
        # Step 2 ranks id 9 first and id 8 second, their values differ, but
        # added to the one beam's score they round to the same float: the
        # tie goes to the lower id, 8, which a step of the top-1 id misses.
        vocab = sized_vocab(200)
        first = np.zeros(200)
        first[3] = 1e-9
        s = serial_log_softmax(first)[3]
        for ulps in range(1, 64):
            second = np.full(200, -50.0)
            second[9], second[8] = 0.0, -ulps * 2.0**-53
            r = serial_log_softmax(second)
            if r[8] < r[9] and s + r[8] == s + r[9]:
                break
        else:
            pytest.fail("no row rounds to a tie")
        provider = RowsByLength(vocab, [first, second])
        ctx = UtteranceContext(utt_id="u")
        widened = spy_full_steps(monkeypatch)

        got = search(provider, ctx, 1, 1, 2)
        assert got == serial_beam_search(provider, ctx, 1, 1, 2)
        assert got[0][0] == (3, 8)
        assert widened == [1]  # the second step, of the one live beam

    @pytest.mark.parametrize("v", [7, 30])
    def test_tied_confusion_equals_serial_oracle(self, v, monkeypatch):
        # 60 seeded utterances, searched in one call per beam width and n_out
        vocab = sized_vocab(v)
        confusion = confusion_with_ties(v, v)
        channel, oracle = AcousticChannel(vocab, confusion), AcousticChannel(vocab, confusion)
        reads, original = [], channel.next_logits

        def counted(history, ctx):
            reads.append(channel.row_key(len(history), ctx))
            return original(history, ctx)

        channel.next_logits = counted
        widened = spy_full_steps(monkeypatch)
        rng = np.random.default_rng(v)
        calls = {}
        for case in range(60):
            obs = (0,) + tuple(rng.integers(3, v, size=int(rng.integers(0, 8)))) + (1,)
            beam_width = int(rng.integers(1, 9))
            n_out = int(rng.integers(1, beam_width + 1))
            calls.setdefault((beam_width, n_out), []).append(
                UtteranceContext(utt_id=f"u{case}", observation=obs))
        ties = 0
        for (beam_width, n_out), ctxs in calls.items():
            max_lens = [len(ctx.observation) + 2 for ctx in ctxs]
            reads.clear()
            got = beam_search(channel, ctxs, beam_width, n_out, max_lens)
            want = serial_searches(oracle, ctxs, beam_width, n_out, max_lens)
            assert_same_lists(got, want)
            # each key was read and ranked once for the call's utterances
            assert len(reads) == len(set(reads)) <= v + 1
            ties += sum(len({s for _, s in hyps}) < len(hyps) for hyps in want)
        assert widened and ties

    def test_beam_as_wide_as_the_vocabulary_scores_every_id(self, monkeypatch):
        vocab = sized_vocab(7)
        channel = AcousticChannel(vocab, confusion_with_ties(7, 3))
        widened = spy_full_steps(monkeypatch)
        rng = np.random.default_rng(2)
        for case, beam_width in enumerate((7, 8, 16, 7, 12)):
            obs = (0,) + tuple(rng.integers(3, 7, size=4)) + (1,)
            ctx = UtteranceContext(utt_id=f"u{case}", observation=obs)
            got = search(channel, ctx, beam_width, 5, 7)
            assert got == serial_beam_search(channel, ctx, beam_width, 5, 7)
        # m is V: every step scored the whole row, so no step had to widen
        assert widened == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 1], ids=["first-step", "second-step"])
    @pytest.mark.parametrize("utterances", [1, 3])
    def test_non_finite_row_is_a_data_error(self, bad, at, utterances):
        # finite rows but one, which holds one non-finite entry: the row the
        # first step reads (one live beam), or the second's (after BOS and
        # EOS tie at the top of the uniform first row, one beam lives on)
        vocab = sized_vocab(7)
        table = np.zeros((2, 7))
        table[at, 4] = bad
        provider = RowsByLength(vocab, table)
        ctxs = [UtteranceContext(utt_id=f"u{i}") for i in range(utterances)]
        with pytest.raises(InvalidInputError, match="^logit rows must be finite$"):
            beam_search(provider, ctxs, 2, 1, [3] * utterances)


def observed(rng, v, n, longest=8, low=3):
    """n seeded utterances, each observing up to `longest` ids in [low, v)."""
    return [UtteranceContext(utt_id=f"u{i}", observation=(0,) + tuple(
        rng.integers(low, v, size=int(rng.integers(0, longest + 1)))) + (1,)) for i in range(n)]


class TestLockstepBeamSearch:
    """One call searches a chunk of utterances in lockstep, one step per
    token position, and each utterance's list equals the serial oracle's,
    scores bit for bit."""

    @pytest.mark.parametrize("v", [7, 200])
    def test_mixed_length_caps_in_one_call(self, v):
        rng = np.random.default_rng(v)
        channel = AcousticChannel(sized_vocab(v), dirichlet_confusion(v, v))
        ctxs = observed(rng, v, 40)
        max_lens = [1, 2, *rng.integers(1, 12, size=38).tolist()]
        got = beam_search(channel, ctxs, 4, 3, max_lens)
        assert_same_lists(got, serial_searches(channel, ctxs, 4, 3, max_lens))
        assert [len(hyps[0][0]) for hyps in got[:1]] == [1]

    def test_vocabulary_narrower_than_the_beam(self):
        # V = 3 and beam 8: the first steps hold fewer than beam_width
        # candidates (live x m < beam_width), so each takes all of them
        rng = np.random.default_rng(3)
        channel = AcousticChannel(sized_vocab(3), dirichlet_confusion(3, 3))
        ctxs = observed(rng, 3, 30, low=0)
        max_lens = rng.integers(1, 8, size=30).tolist()
        got = beam_search(channel, ctxs, 8, 8, max_lens)
        assert_same_lists(got, serial_searches(channel, ctxs, 8, 8, max_lens))
        assert any(len(hyps) < 8 for hyps in got)

    @pytest.mark.parametrize("v", [7, 30])
    def test_quantised_rows_with_ties(self, v):
        rng = np.random.default_rng(v + 1)
        channel = AcousticChannel(sized_vocab(v), confusion_with_ties(v, v + 1))
        ctxs = observed(rng, v, 40)
        max_lens = [len(ctx.observation) + 2 for ctx in ctxs]
        got = beam_search(channel, ctxs, 5, 5, max_lens)
        assert_same_lists(got, serial_searches(channel, ctxs, 5, 5, max_lens))
        assert any(len({s for _, s in hyps}) < len(hyps) for hyps in got)

    def test_only_some_utterances_widen(self, monkeypatch):
        # Observed id 3 reads a flat row, whose ids all tie, so a step of its
        # first 2 ranked ids cannot bound the rest and scores every id; id 4
        # reads a row of distinct values, whose step stays at 2 ids.
        v = 30
        confusion = dirichlet_confusion(v, 5)
        confusion[3] = 1.0 / v
        confusion[4] = 0.5 ** np.arange(1, v + 1)
        confusion[4] /= confusion[4].sum()
        channel = AcousticChannel(sized_vocab(v), confusion)
        ctxs = [UtteranceContext(utt_id=f"u{i}", observation=(0, 3 + i % 2, 1))
                for i in range(10)]
        widened = spy_full_steps(monkeypatch)
        got = beam_search(channel, ctxs, 2, 2, [1] * 10)
        assert widened == [1] * 5  # the five utterances observing id 3, at their one step
        assert_same_lists(got, serial_searches(channel, ctxs, 2, 2, [1] * 10))
        widened.clear()
        got = beam_search(channel, ctxs, 2, 2, [4] * 10)
        assert_same_lists(got, serial_searches(channel, ctxs, 2, 2, [4] * 10))
        assert 5 <= len(widened) < 10 * 4

    def test_chunk_size_plus_one_utterances(self, monkeypatch):
        from latefuse import corpus

        # the default beam (8) at V = 200: calls of SEARCH_CANDIDATES // 64
        # utterances, so one more record makes a second call of one
        chunk = corpus.SEARCH_CANDIDATES // 64
        calls, original = [], decoding.beam_search

        def counted(provider, ctxs, *args):
            calls.append(len(ctxs))
            return original(provider, ctxs, *args)

        channel = ChannelSpec(seed=5)
        monkeypatch.setattr(decoding, "beam_search", counted)
        got = generate_corpus(channel, chunk - 1, 1, 1)
        assert calls == [chunk, 1]
        monkeypatch.setattr(decoding, "beam_search", serial_searches)
        assert got == generate_corpus(channel, chunk - 1, 1, 1)

    def test_every_beam_retired_before_the_cap(self, abc_vocab, identity_channel):
        ctxs = [obs_ctx(abc_vocab, text, utt_id=f"u{i}")
                for i, text in enumerate(("a b", "c", "a b c a", "b b"))]
        max_lens = [len(ctx.observation) + 10 for ctx in ctxs]
        lengths, original = [], identity_channel.next_logits

        def logged(history, ctx):
            lengths.append(len(history))
            return original(history, ctx)

        identity_channel.next_logits = logged
        got = beam_search(identity_channel, ctxs, 3, 3, max_lens)
        del identity_channel.next_logits
        assert_same_lists(got, serial_searches(identity_channel, ctxs, 3, 3, max_lens))
        assert all(seq[-1] == Vocabulary.EOS for hyps in got for seq, _ in hyps)
        # the search stopped when the last beam retired, well before any cap
        assert max(lengths) < min(max_lens)

    def test_beam_one_equals_greedy(self):
        vocab = sized_vocab(7)
        channel = AcousticChannel(vocab, confusion_with_ties(7, 0))
        ctxs = observed(np.random.default_rng(6), 7, 30, longest=6)
        max_lens = [(1, 3, 6)[i % 3] for i in range(30)]
        got = beam_search(channel, ctxs, 1, 1, max_lens)
        assert_same_lists(got, serial_searches(channel, ctxs, 1, 1, max_lens))
        assert [hyps[0][0] for hyps in got] == \
            [greedy_decode(channel, ctx, max_len=n).tokens for ctx, n in zip(ctxs, max_lens)]

    @pytest.mark.parametrize("bad, message", [
        ("nan", "^logit rows must be finite$"),
        ("short", r"^logit rows must have vocabulary size 7, got shape \(6,\)$"),
    ])
    def test_bad_row_of_one_utterance_is_a_data_error(self, bad, message):
        # the fourth utterance alone observes id 5, at its second step
        vocab = sized_vocab(7)
        channel = AcousticChannel(vocab, dirichlet_confusion(7, 2))
        log_rows = channel.log_rows.copy()
        if bad == "nan":
            log_rows[5, 2] = math.nan
        channel.log_rows = log_rows
        read = channel.next_logits

        def short(history, ctx):
            row = read(history, ctx)
            return row[:-1] if bad == "short" and channel.row_key(len(history), ctx) == 5 else row

        channel.next_logits = short
        ctxs = [UtteranceContext(utt_id=f"u{i}", observation=(0, 3, 4 + (i == 3), 1))
                for i in range(6)]
        with pytest.raises(InvalidInputError, match=message):
            beam_search(channel, ctxs, 4, 2, [5] * 6)
        # without the fourth utterance, no step reads the bad row
        del ctxs[3]
        assert len(beam_search(channel, ctxs, 4, 2, [5] * 5)) == 5


def reference_decode(llm, asr, cfg, ctx, max_len):
    """Oracle: the decode loop that reads and softmaxes every provider row at
    every step, with no row cache. Its steps are the
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
            step = decide(p_llm, p_asr, cfg)
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


def calibrated_block(provider, tau):
    """The read-only block a decode set reads a keyed provider's rows from."""
    block = softmax_rows(provider.log_rows, tau)
    block.flags.writeable = False
    return block


def with_logits(channel, cells):
    """`channel` with its block's cells ((row, id) -> logit) edited before
    the block is made read-only."""
    log_rows = channel.log_rows.copy()
    for cell, logit in cells.items():
        log_rows[cell] = logit
    log_rows.flags.writeable = False
    channel.log_rows = log_rows
    return channel


def all_rows_ctx(v):
    """An utterance whose histories of 1 .. V + 1 ids read every row of a
    V-word channel's block in order, the EOS row (key -1) last."""
    return UtteranceContext("all-rows", observation=(0,) + tuple(range(v)))


def dirichlet_confusion(v, seed):
    rng = np.random.default_rng(seed)
    return 0.6 * np.eye(v) + 0.4 * rng.dirichlet(np.full(v, 0.3), size=v)


class TestCalibratedRows:
    """A decode set calibrates a keyed provider's block once, reads every
    step's row there and not through `next_logits`, and every decode
    equals the loop that softmaxes every row."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("configs", CONFIG_SETS.values(), ids=CONFIG_SETS.keys())
    def test_steps_read_one_calibrated_block(self, configs, seed, monkeypatch):
        """The channel is the secondary, or the primary in mode llm."""
        vocab, confusion, seeded, eval_set = channel_case(seed)
        channel = AcousticChannel(vocab, confusion)
        reads = count_calls(monkeypatch, channel, "next_logits")
        plain = AcousticChannel(vocab, confusion)
        for tau in (1.0, 0.6):
            cfgs = configs(tau)
            in_llm_role = cfgs[0].mode == "llm"
            roles = (channel, seeded) if in_llm_role else (seeded, channel)
            plain_roles = (plain, seeded) if in_llm_role else (seeded, plain)
            results = iter(list(decode_eval_set(*roles, cfgs, eval_set)))
            dists = []
            for ctx, ref in eval_set:
                for cfg in cfgs:
                    result = next(results)
                    assert_same_decode(result, reference_decode(
                        *plain_roles, cfg, ctx, evaluation_max_len(ref)))
                    dists += [step if cfg.mode in ("llm", "asr") else step.p_asr
                              for step in result.steps]
            # every row a step read is a view of the one block of this set
            (block,) = {id(dist.base): dist.base for dist in dists}.values()
            assert block.tobytes() == softmax_rows(channel.log_rows, tau).tobytes()
        assert reads[0] == 0

    @pytest.mark.parametrize("confusion", ["decoder", "dirichlet"])
    def test_block_rows_equal_the_per_row_softmax(self, confusion):
        """Every row of the calibrated block equals the 1-D softmax of the
        row `next_logits` gives, bit for bit, on a V = 200 channel; a row
        with a NaN logit, or one that a tau < 1 overflows, comes out NaN,
        and its 1-D softmax raises."""
        v = 200
        vocab = sized_vocab(v)
        matrix = (decoder_confusion(vocab, ChannelSpec()) if confusion == "decoder"
                  else dirichlet_confusion(v, 7))
        channel = with_logits(AcousticChannel(vocab, matrix), {(5, 9): math.nan, (17, 3): -1e308})
        ctx, flagged = all_rows_ctx(v), Counter()
        for tau in (0.3, 0.5, 1.0, 1.6, 5.0):
            block = softmax_rows(channel.log_rows, tau)
            for length in range(1, v + 2):
                history = (Vocabulary.BOS,) * length
                row = block[channel.row_key(length, ctx)]
                try:
                    want = softmax_with_temperature(channel.next_logits(history, ctx), tau)
                except (InvalidInputError, InvalidParameterError):
                    assert np.isnan(row).all()
                    flagged[tau] += 1
                    continue
                assert row.tobytes() == want.tobytes()
        assert flagged == {0.3: 2, 0.5: 2, 1.0: 1, 1.6: 1, 5.0: 1}

    def test_cached_distributions_refuse_writes(self):
        vocab, confusion, llm, eval_set = channel_case(4)
        channel = AcousticChannel(vocab, confusion)
        for cfgs in (CONFIG_SETS["asr"](1.0), CONFIG_SETS["uadf"](1.0)):
            for result in decode_eval_set(llm, channel, cfgs, eval_set):
                for step in result.steps:
                    dist = step if cfgs[0].mode == "asr" else step.p_asr
                    with pytest.raises(ValueError, match="read-only"):
                        dist[0] = 0.5

    def test_each_decode_reads_the_block_it_is_given(self):
        """Two channels read the same keys off one observation; a decode
        given the calibrated block of the channel its steps read, in either
        role and at two taus, equals the decode without a block."""
        vocab, confusion, _llm, eval_set = channel_case(5)
        one = AcousticChannel(vocab, confusion)
        two = AcousticChannel(vocab, confusion_with_ties(vocab.size, 50))
        for ctx, ref in eval_set:
            max_len = evaluation_max_len(ref)
            for llm, asr in ((one, two), (two, one)):
                for cfg in (FusionConfig(mode="llm"), FusionConfig(mode="asr"),
                            FusionConfig(mode="asr", tau2=0.5),
                            FusionConfig(mode="uadf", tau2=0.5),
                            FusionConfig(mode="static", w_asr=1.0)):
                    keyed, tau = (llm, cfg.tau1) if cfg.mode == "llm" else (asr, cfg.tau2)
                    got = fused_greedy_decode(llm, asr, cfg, ctx, max_len,
                                              block=calibrated_block(keyed, tau))
                    want = reference_decode(llm, asr, cfg, ctx, max_len)
                    assert_same_decode(got, want)
                    assert_same_decode(fused_greedy_decode(llm, asr, cfg, ctx, max_len), want)

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
        """Without a block, a decode of one keyed or unkeyed provider
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


class PlainCorrector:
    """A corrector with only `vocab` and `next_logits`: a decode set reads
    it as it reads any provider without lattices."""

    def __init__(self, corrector):
        self.vocab = corrector.vocab
        self.next_logits = corrector.next_logits


def decode_fields(result):
    """Everything a decode result says: its tokens, how it ended, and each
    step's p_llm bytes, uncertainty (measured or not), weight and choice."""
    def step_fields(step):
        if isinstance(step, np.ndarray):
            return step.tobytes()
        return (step.p_llm.tobytes(), step.p_asr.tobytes(), step.uncertainty,
                step.measured_u, step.w_asr_effective, step.chosen)

    return result.tokens, result.terminated, [step_fields(step) for step in result.steps]


def assert_lattice_changes_nothing(llm, asr, cfgs, eval_set, monkeypatch):
    """The set decoded with the corrector's lattice equals the set decoded
    through `PlainCorrector`, field for field; returns the corrector's own
    reads and the steps of the set with the lattice."""
    without = [decode_fields(r) for r in decode_eval_set(PlainCorrector(llm), asr, cfgs,
                                                          eval_set)]
    with monkeypatch.context() as patched:
        reads = count_calls(patched, llm, "next_logits")
        results = list(decode_eval_set(llm, asr, cfgs, eval_set))
    assert [decode_fields(r) for r in results] == without
    return reads[0], [step for r in results for step in r.steps]


@pytest.fixture(scope="module", params=[1, 2], ids=["seed1", "seed2"])
def small_walkthrough(request):
    """The README walkthrough's corpus at test size (200/30/40), its decoder
    channel, and the val and test sets; the test set ends with an
    utterance whose N-best list is empty."""
    channel = ChannelSpec(seed=request.param)
    splits, vocab = generate_corpus(channel, n_train=200, n_val=30, n_test=40)
    train = [vocab.encode(rec.reference, append_eos=True) for rec in splits["train"]]
    asr = AcousticChannel(vocab, decoder_confusion(vocab, channel))
    val = [record_context(rec, vocab) for rec in splits["val"]]
    test = [record_context(rec, vocab) for rec in splits["test"]]
    ctx, ref = test[0]
    test.append((UtteranceContext("no-nbest", observation=ctx.observation), ref))
    return vocab, train, asr, val, test


class TestCorrectorLattice:
    """A decode set that walks the choice tables built on the corrector's
    calibrated lattices, a chunk of utterances at a time, decodes exactly
    as one that reads every row through `next_logits`."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_walkthrough_sets_equal_the_sets_without_it(self, small_walkthrough, order,
                                                        monkeypatch):
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=order, smoothing=0.1,
                                    vote_weight=0.85)
        cal_set = [(ctx, vocab.encode(" ".join(ref), append_eos=True)) for ctx, ref in val]
        taus = {"tau1": fit_temperature(llm, cal_set).tau,
                "tau2": fit_temperature(asr, cal_set).tau}
        sets = [([FusionConfig(mode=mode, **taus)], test)
                for mode in ("llm", "asr", "static", "uadf")]
        sets.append(([FusionConfig(mode="static", w_asr=w, **taus)
                      for w in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)], val))
        sets.append(([FusionConfig(beta=b, **taus) for b in (0.0, 0.25, 0.5, 0.75)], val))
        for cfgs, eval_set in sets:
            reads, steps = assert_lattice_changes_nothing(llm, asr, cfgs, eval_set,
                                                          monkeypatch)
            if cfgs[0].mode == "asr":
                assert reads == 0
                continue
            rows = [step if isinstance(step, np.ndarray) else step.p_llm for step in steps]
            on_lattice = sum(not row.flags.writeable for row in rows)
            # most rows come from the lattice. Past BOS, the decodes of the
            # utterance with no N-best list leave it, unless an order-1
            # corrector reads that utterance's one key at every step.
            assert reads < on_lattice
            assert reads > 0 or order == 1

    def test_block_is_read_only_and_shared_by_every_config(self, abc_vocab, identity_channel):
        """The utterances of a chunk follow their N-best lists, so every step
        of every config reads the chunk's one block."""
        llm = train_ngram_corrector([(3, 4, 1), (3, 5, 1), (4, 1)], abc_vocab, order=2)
        asr = identity_channel
        eval_set = [(UtteranceContext("u", nbest=((3, 4, 1), (3, 5, 1)),
                                      observation=(0, 3, 4, 1)), ["a", "b"]),
                    (UtteranceContext("v", nbest=((4, 1),), observation=(0, 4, 1)), ["b"])]
        cfgs = [FusionConfig(mode="static", w_asr=w) for w in (0.0, 0.5)]
        results = list(decode_eval_set(llm, asr, cfgs, eval_set))
        assert len(results) == 4
        blocks = {id(step.p_llm.base) for r in results for step in r.steps}
        assert len(blocks) == 1
        row = results[0].steps[0].p_llm
        assert not row.flags.writeable and not row.base.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


class FixedLattice:
    """A corrector stub whose lattices, of a chunk of one utterance, are
    fixed raw rows, row i keyed by step count i and a one-id context."""

    def __init__(self, vocab, raw):
        self.vocab = vocab
        self.raw = raw

    def lattices(self, ctxs):
        assert len(ctxs) == 1
        return [[(i, (i,)) for i in range(len(self.raw))]], self.raw.copy()


def crossing_weights(p, a, low, high):
    """Each weight in [low, high] at which two ids of p + w * a (nearly) tie,
    with its two neighbouring floats."""
    weights = set()
    for j in range(p.size):
        for k in range(j + 1, p.size):
            if a[j] != a[k]:
                w = (p[j] - p[k]) / (a[k] - a[j])
                weights.update(x for x in (np.nextafter(w, -np.inf), w, np.nextafter(w, np.inf))
                               if low <= x <= high)
    return sorted(float(w) for w in weights)


class TestChoiceTable:
    """`choice_tables` decides every (config, row) cell of a chunk as
    `fusion.decide` does, and a decode set that walks the tables decodes as
    one that reads every corrector row through `next_logits`."""

    @pytest.mark.parametrize("mode", ["static", "uadf"])
    def test_every_cell_equals_decide_at_near_and_exact_ties(self, mode):
        """The configs' weights are the points where two ids of a row's
        fused sum cross, and the floats next to them; in uadf they include
        weights below 0 (beta > sigmoid(u)). Row 0 ties ids 3 and 4 in both
        distributions, so their fused sums tie exactly."""
        vocab = sized_vocab(7)
        rng = np.random.default_rng(5)
        raw_p = rng.integers(0, 4, size=(6, 7)) * 0.75
        raw_a = rng.integers(0, 4, size=(6, 7)) * 0.5
        raw_p[0] = [0, 0, 0, 2, 2, 0, 0]
        raw_a[0] = [0, 0, 0, 1, 1, 0, 0]
        tau1, tau2 = 0.9, 1.3
        p = np.array([softmax_with_temperature(row, tau1) for row in raw_p])
        a = np.array([softmax_with_temperature(row, tau2) for row in raw_a])
        if mode == "static":
            cfgs = [FusionConfig(mode="static", w_asr=w, tau1=tau1, tau2=tau2)
                    for i in range(len(p)) for w in crossing_weights(p[i], a[i], 0.0, 8.0)]
        else:
            betas = {1.0}
            for i in range(len(p)):
                s = sigmoid(entropy(p[i]))
                betas.update(s - w for w in crossing_weights(p[i], a[i], s - 1.0, s))
            cfgs = [FusionConfig(mode="uadf", beta=b, tau1=tau1, tau2=tau2)
                    for b in sorted(betas) if 0.0 <= b <= 1.0]
        asr = RowsByLength(vocab, raw_a)
        (tables,) = decoding.choice_tables(
            FixedLattice(vocab, raw_p), asr, cfgs, [UtteranceContext("u")],
            calibrated_block(asr, tau2))
        near, overrides = 0, 0
        for cfg, table in zip(cfgs, tables):
            for i in range(len(p)):
                assert table.p_llm[i].tobytes() == p[i].tobytes()
                assert table.p_asr[i].tobytes() == a[i].tobytes()
                step = decide(table.p_llm[i], table.p_asr[i], cfg)
                assert (table.chosen[i], table.w[i], table.u[i]) == \
                    (step.chosen, step.w_asr_effective, step.measured_u)
                fused = np.sort(p[i] + step.w_asr_effective * a[i])
                near += bool(fused[-1] - fused[-2] <= 4 * np.spacing(fused[-1]))
                overrides += step.chosen != argmax_token(p[i])
            assert table.chosen[0] != 4
            assert table.chosen[0] == 3 or table.w[0] < 0
        assert near > 0 and overrides > 0
        assert mode == "static" or min(w for table in tables for w in table.w) < 0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_clipped_keys_equal_the_sets_without_tables(self, abc_vocab, order, monkeypatch):
        """With no N-best list, or past the longest hypothesis, the
        corrector's key clips, so one key spans several lengths and several
        acoustic rows: the walk must leave the table there. Some step of
        these decodes has a lattice key for its history but not its
        (t, context)."""
        refs = [abc_vocab.encode(text, append_eos=True)
                for text in ("a b c", "b a", "c c b", "a", "a b a b", "a a a a")]
        llm = train_ngram_corrector(refs, abc_vocab, order=order, smoothing=0.1)
        noisy = np.full((6, 6), 0.05)
        np.fill_diagonal(noisy, 0.75)
        asr = AcousticChannel(abc_vocab, noisy / noisy.sum(axis=1, keepdims=True))
        eval_set = [
            (UtteranceContext("empty", observation=(0, 3, 4, 5, 1)), ["a", "b", "c"]),
            (UtteranceContext("short", nbest=((3,),), observation=(0, 3, 4, 3, 4, 1)),
             ["a", "b", "a", "b"]),
            (UtteranceContext("repeat", nbest=((3, 3),), observation=(0, 3, 3, 3, 3, 1)),
             ["a", "a", "a", "a"]),
        ]
        sets = [[FusionConfig(mode="llm")],
                [FusionConfig(mode="static", w_asr=w) for w in (0.0, 0.5, 2.0)],
                [FusionConfig(beta=b) for b in (0.0, 0.5, 1.0)]]
        clipped = 0
        for cfgs in sets:
            _reads, steps = assert_lattice_changes_nothing(llm, asr, cfgs, eval_set,
                                                           monkeypatch)
            results = iter(list(decode_eval_set(llm, asr, cfgs, eval_set)))
            for ctx, _ref in eval_set:
                keys = set(llm.lattices([ctx])[0][0])
                for _cfg in cfgs:
                    tokens = next(results).tokens
                    for t in range(len(tokens)):
                        history = (Vocabulary.BOS,) + tokens[:t]
                        clipped += (history_key(llm, history, ctx) in keys
                                    and (t, llm.model._context(history)) not in keys)
        assert clipped > 0

    @pytest.mark.parametrize("mode", ["llm", "static", "uadf"])
    def test_rows_that_fail_a_check_stay_off_the_table(self, abc_vocab, identity_channel,
                                                       mode, monkeypatch):
        """At this tau the lattice row of context "a" after two tokens
        overflows (its smallest logit is about -13.8) and the others do not
        (about -8.3 and -7.6). A decode that never reads that row succeeds,
        as it does without the table; one that reads it raises the
        softmax's error, with the table or without."""
        llm = train_ngram_corrector([(5,) + (3,) * 500 + (1,), (4, 1)], abc_vocab,
                                    order=2, smoothing=1e-3, vote_weight=0.5)
        cfg = FusionConfig(mode=mode, tau1=11.0 / sys.float_info.max)
        b_then_eos = UtteranceContext("b", nbest=((4, 1), (5, 3, 1)), observation=(0, 4, 1))
        (keys,), _rows = llm.lattices([b_then_eos])
        ((table,),) = decoding.choice_tables(
            llm, identity_channel, [cfg], [b_then_eos], calibrated_block(identity_channel, 1.0))
        assert len(table.index) == len(keys) - 1 and (2, (3,)) not in table.index
        assert_lattice_changes_nothing(llm, identity_channel, [cfg],
                                       [(b_then_eos, ["b"])], monkeypatch)
        c_then_a = UtteranceContext("c", nbest=((5, 3, 1),), observation=(0, 5, 3, 1))
        for corrector in (llm, PlainCorrector(llm)):
            with pytest.raises(InvalidParameterError, match="is too small"):
                list(decode_eval_set(corrector, identity_channel, [cfg],
                                     [(c_then_a, ["c", "a"])]))

    @pytest.mark.parametrize("mode", ["static", "uadf"])
    def test_acoustic_rows_that_fail_a_check_stay_off_the_table(self, abc_vocab, mode,
                                                                monkeypatch):
        """The acoustic row of three ids is not finite. The keys of that
        length stay off the table: a decode that stops before it succeeds,
        as it does without the table, and one that reads it raises."""
        llm = train_ngram_corrector([(4, 1)] * 3 + [(5, 3, 1)], abc_vocab, order=2)
        rows = np.zeros((3, 6))
        rows[0, 4] = rows[1, 1] = 5.0
        rows[2, 2] = np.nan
        asr = RowsByLength(abc_vocab, rows)
        cfgs = [FusionConfig(mode=mode, w_asr=1.0, beta=0.0)]
        b_then_eos = UtteranceContext("b", nbest=((4, 1), (5, 3, 1)))
        ((table,),) = decoding.choice_tables(llm, asr, cfgs, [b_then_eos],
                                             calibrated_block(asr, 1.0))
        assert sorted(t for t, _ in table.index) == [0, 1, 1]
        _reads, steps = assert_lattice_changes_nothing(llm, asr, cfgs, [(b_then_eos, ["b"])],
                                                       monkeypatch)
        assert len(steps) == 2
        c_then_a = UtteranceContext("c", nbest=((5, 3, 1),))
        cfgs = [FusionConfig(mode=mode, w_asr=0.0, beta=1.0)]
        for corrector in (llm, PlainCorrector(llm)):
            with pytest.raises(InvalidInputError, match="finite"):
                list(decode_eval_set(corrector, asr, cfgs, [(c_then_a, ["c", "a"])]))

    def test_a_table_must_fit_the_mode(self, abc_vocab, identity_channel):
        """Mode llm walks only a table without weights, static and uadf
        only one with weights, and asr none: a table of another mode would
        decode the corrector's or the fused choices under asr's name."""
        llm = train_ngram_corrector([(4, 1), (5, 3, 1)], abc_vocab, order=2)
        ctx = UtteranceContext("b", nbest=((4, 1), (5, 3, 1)), observation=(0, 5, 1))
        block = calibrated_block(identity_channel, 1.0)
        tables = {mode: decoding.choice_tables(llm, identity_channel, [FusionConfig(mode=mode)],
                                               [ctx], block)[0][0]
                  for mode in ("llm", "static", "uadf")}
        for mode in ("llm", "asr", "static", "uadf"):
            cfg = FusionConfig(mode=mode)
            plain = fused_greedy_decode(llm, identity_channel, cfg, ctx, 5)
            for kind, table in tables.items():
                if mode != "asr" and (mode == "llm") == (kind == "llm"):
                    walked = fused_greedy_decode(llm, identity_channel, cfg, ctx, 5, table=table)
                    assert walked.tokens == plain.tokens
                    continue
                weights = "without" if kind == "llm" else "with"
                with pytest.raises(InvalidParameterError,
                                   match=f"^a choice table {weights} weights does not fit "
                                         f"mode {mode}$"):
                    fused_greedy_decode(llm, identity_channel, cfg, ctx, 5, table=table)


C = CHUNK_UTTERANCES


class TestChunks:
    """A decode set cut into chunks of `CHUNK_UTTERANCES` decodes, at every
    chunk boundary, exactly as one that reads every corrector row through
    `next_logits`."""

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sets_of_every_size_equal_the_sets_without_tables(self, small_walkthrough, order,
                                                               n, monkeypatch):
        """Past one utterance, the set holds one with no N-best list, at its
        middle, and past two, one whose only hypothesis is its first id, at
        its end: its decodes run past their longest hypothesis."""
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=order, smoothing=0.1,
                                    vote_weight=0.85)
        (ctx, ref), eval_set = test[0], test[1:1 + n]
        if n > 1:
            eval_set[n // 2] = (UtteranceContext("no-nbest", observation=ctx.observation), ref)
        if n > 2:
            eval_set[-1] = (UtteranceContext("short", nbest=(ctx.nbest[0][:1],),
                                             observation=ctx.observation), ref)
        taus = {"tau1": 0.8, "tau2": 1.2}
        sets = [[FusionConfig(mode=mode, **taus)] for mode in ("llm", "static", "uadf")]
        sets.append([FusionConfig(mode="static", w_asr=w, **taus)
                     for w in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)])
        sets.append([FusionConfig(beta=b, **taus) for b in (0.0, 0.25, 0.5, 0.75)])
        for cfgs in sets:
            _reads, steps = assert_lattice_changes_nothing(llm, asr, cfgs, eval_set,
                                                           monkeypatch)
            assert len(steps) >= n * len(cfgs)
        if n > 2:
            (past,) = decode_eval_set(llm, asr, sets[0], eval_set[-1:])
            assert len(past.tokens) > 1

    def test_steps_off_the_table_count_no_list(self, small_walkthrough, monkeypatch):
        """The corrector holds each list's vote rows from its chunk's
        `lattices` count, so a step off the table counts no N-best list."""
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=2, smoothing=0.1, vote_weight=0.85)
        cfgs = [FusionConfig(mode="static", w_asr=w) for w in (0.0, 0.5, 1.0)]
        counted = count_calls(monkeypatch, llm, "_vote_rows")
        reads = count_calls(monkeypatch, llm, "next_logits")
        list(decode_eval_set(llm, asr, cfgs, test))
        assert reads[0] > 0 and counted[0] == 0

    @pytest.mark.parametrize("mode", ["static", "uadf"])
    def test_a_refused_list_raises_at_its_step(self, small_walkthrough, mode, monkeypatch):
        """In a set of three chunks, the second utterance of the second chunk
        has a list with an id outside the vocabulary. Every decode before
        it, steps off the table among them, counts no list; its first step
        counts its list, the one count of the set, and raises there."""
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=2, smoothing=0.1, vote_weight=0.85)
        eval_set, at = test[:2 * C + 2], C + 1
        ctx, ref = eval_set[at]
        refused = UtteranceContext("refused", nbest=(*ctx.nbest, (vocab.size,)),
                                   observation=ctx.observation)
        eval_set[at] = (refused, ref)
        cfgs = [FusionConfig(mode=mode, w_asr=w, beta=w) for w in (0.25, 0.75)]
        counted, count = [], llm._vote_rows
        monkeypatch.setattr(llm, "_vote_rows", lambda nbest: counted.append(nbest) or count(nbest))
        reads = count_calls(monkeypatch, llm, "next_logits")
        results = decode_eval_set(llm, asr, cfgs, eval_set)
        for _ in range(at * len(cfgs)):
            next(results)
        assert reads[0] > 0 and counted == []
        with pytest.raises(InvalidInputError, match=rf"N-best token id {vocab.size} is outside"):
            next(results)
        assert counted == [refused.nbest]


def walk_kind(step):
    """Whether a decode read its step off its table: a table's rows are
    read-only, a row read through the providers is not."""
    row = step if isinstance(step, np.ndarray) else step.p_llm
    return "hit" if not row.flags.writeable else "miss"


class TestLazySteps:
    """A step read off a choice table is built when `steps` is first read,
    equal to the step the providers and `fusion.decide` would give."""

    @staticmethod
    def sets(small_walkthrough):
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=2, smoothing=0.1, vote_weight=0.85)
        taus = {"tau1": 0.8, "tau2": 1.2}
        sets = [[FusionConfig(mode="llm", **taus)],
                [FusionConfig(mode="static", w_asr=w, **taus) for w in (0.0, 0.5, 1.0)],
                [FusionConfig(beta=b, **taus) for b in (0.0, 0.5, 1.0)]]
        return llm, asr, test, sets

    def test_steps_read_twice_are_the_same_steps(self, small_walkthrough):
        llm, asr, test, sets = self.sets(small_walkthrough)
        for cfgs in sets:
            for result in decode_eval_set(llm, asr, cfgs, test):
                first = result.steps
                assert result.steps is first
                assert len(first) == len(result.tokens)

    def test_steps_that_leave_and_rejoin_the_table_keep_their_order(self, small_walkthrough):
        """Some decodes read the table, leave it and come back; their steps
        equal the loop that reads and softmaxes every row, step by step."""
        llm, asr, test, sets = self.sets(small_walkthrough)
        rejoined = 0
        for cfgs in sets:
            results = iter(list(decode_eval_set(llm, asr, cfgs, test)))
            for ctx, ref in test:
                for cfg in cfgs:
                    result = next(results)
                    kinds = "".join(walk_kind(step)[0] for step in result.steps)
                    rejoined += "hmh" in kinds
                    assert_same_decode(result, reference_decode(
                        PlainCorrector(llm), asr, cfg, ctx, evaluation_max_len(ref)))
        assert rejoined > 0

    def test_table_steps_equal_decide(self, small_walkthrough):
        llm, asr, test, sets = self.sets(small_walkthrough)
        hits = Counter()
        for cfgs in sets[1:]:
            results = iter(list(decode_eval_set(llm, asr, cfgs, test)))
            for _ctx, _ref in test:
                for cfg in cfgs:
                    for step in next(results).steps:
                        if walk_kind(step) == "hit":
                            want = decide(step.p_llm, step.p_asr, cfg)
                            assert (step.p_llm.tobytes(), step.p_asr.tobytes(),
                                    step.measured_u, step.w_asr_effective, step.chosen) == \
                                (want.p_llm.tobytes(), want.p_asr.tobytes(), want.measured_u,
                                 want.w_asr_effective, want.chosen)
                            hits[cfg.mode] += 1
        assert hits["static"] > 0 and hits["uadf"] > 0

    @pytest.mark.parametrize("mode", ["llm", "asr", "static", "uadf"])
    def test_steps_without_a_table_are_one_tuple(self, small_walkthrough, mode):
        """A decode without a table walks an empty one: its steps, one per
        token, are made a tuple once, on the first read."""
        llm, asr, test, _sets = self.sets(small_walkthrough)
        cfg = FusionConfig(mode=mode, tau1=0.8, tau2=1.2)
        for ctx, ref in test:
            result = fused_greedy_decode(llm, asr, cfg, ctx, evaluation_max_len(ref))
            first = result.steps
            assert type(first) is tuple and len(first) == len(result.tokens)
            assert result.steps is first

    def test_decode_eval_set_takes_no_steps_switch(self):
        assert list(inspect.signature(decode_eval_set).parameters) == \
            ["llm_provider", "asr_provider", "cfgs", "eval_set", "max_len_factor"]


def b_then_eos(utt_id):
    """An utterance whose decodes read "b" and EOS off its N-best list."""
    return (UtteranceContext(utt_id, nbest=((4, 1), (5, 3, 1)), observation=(0, 4, 1)), ["b"])


def overflowing_corrector(vocab):
    """At tau1 `TINY_TAU` the row of context "a" after two tokens overflows
    (see `test_rows_that_fail_a_check_stay_off_the_table`)."""
    return train_ngram_corrector([(5,) + (3,) * 500 + (1,), (4, 1)], vocab,
                                 order=2, smoothing=1e-3, vote_weight=0.5)


TINY_TAU = 11.0 / sys.float_info.max


def faulty_channel(vocab, token, logit):
    """An identity channel whose row for an observed `token` holds `logit`
    at id 2."""
    return with_logits(AcousticChannel(vocab, np.eye(vocab.size)), {(token, 2): logit})


# fault -> (modes, acoustic model or None for the identity channel, tau1,
# tau2, faulty utterance, error)
FAULTS = {
    "nbest-id": (("llm", "static", "uadf"), None, 1.0, 1.0,
                 UtteranceContext("bad", nbest=((4, 6, 1),), observation=(0, 4, 1)),
                 (InvalidInputError, r"N-best token id 6 is outside \[0, 6\)")),
    "corrector-row": (("llm", "static", "uadf"), None, TINY_TAU, 1.0,
                      UtteranceContext("c", nbest=((5, 3, 1),), observation=(0, 5, 3, 1)),
                      (InvalidParameterError, "is too small")),
    "acoustic-row": (("asr", "static", "uadf"), lambda v: faulty_channel(v, 5, math.nan), 1.0,
                     1.0, UtteranceContext("c", nbest=((5, 1),), observation=(0, 5, 1)),
                     (InvalidInputError, "finite")),
    # -1e308 / 0.5 overflows: the row is flagged at tau2 0.5, and its step raises
    "acoustic-overflow": (("asr", "static", "uadf"), lambda v: faulty_channel(v, 5, -1e308),
                          1.0, 0.5, UtteranceContext("c", nbest=((5, 1),), observation=(0, 5, 1)),
                          (InvalidParameterError, "is too small")),
    "no-observation": (("asr", "static", "uadf"), None, 1.0, 1.0,
                       UtteranceContext("c", nbest=((4, 1),)),
                       (InvalidInputError, "has no observation")),
}


class TestErrorOrderInAChunk:
    """A fault in utterance j of a chunk raises when j's decode reads it,
    after every decode of the utterances before it, as with no tables."""

    @pytest.mark.parametrize("j", [0, C // 2, C - 1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fault", FAULTS.keys())
    def test_utterances_before_the_fault_decode_first(self, abc_vocab, identity_channel,
                                                      fault, j):
        modes, make_asr, tau1, tau2, bad, (error, match) = FAULTS[fault]
        llm = overflowing_corrector(abc_vocab)
        asr = make_asr(abc_vocab) if make_asr else identity_channel
        eval_set = [b_then_eos(f"u{i}") for i in range(C + 2)]
        eval_set[j] = (bad, ["c", "a"])
        for mode in modes:
            cfgs = [FusionConfig(mode=mode, tau1=tau1, tau2=tau2, w_asr=w, beta=0.5 - w)
                    for w in (0.0, 0.5)]
            for corrector in (llm, PlainCorrector(llm)):
                got = []
                with pytest.raises(error, match=match):
                    for result in decode_eval_set(corrector, asr, cfgs, eval_set):
                        got.append(decode_fields(result))
                assert len(got) == j * len(cfgs)
                assert got == [decode_fields(r) for r in decode_eval_set(
                    PlainCorrector(llm), asr, cfgs, eval_set[:j])]
