import itertools
import re

import numpy as np
import pytest

from latefuse.cli import main
from latefuse.core import Vocabulary, softmax_with_temperature
from latefuse.corpus import load_corpus, record_context
from latefuse.errors import CorpusSchemaError, InvalidInputError, InvalidParameterError
from latefuse.providers import (
    LOG_EPS,
    MAX_ORDER,
    AcousticChannel,
    NgramCorrector,
    NgramModel,
    ProviderSpec,
    UtteranceContext,
    train_ngram_corrector,
)


def ctx_with_nbest(vocab, texts, utt_id="u0"):
    return UtteranceContext(
        utt_id=utt_id,
        nbest=tuple(vocab.encode(t, append_eos=True) for t in texts),
    )


class TestNgramModel:
    def test_unigram_add_k_matches_hand_counts(self, abc_vocab):
        # refs "a b a" and "b c": counts a=2 b=2 c=1 EOS=2, total 7, k=0.5, V=6
        model = NgramModel(abc_vocab, order=1, smoothing=0.5)
        model.train([abc_vocab.encode("a b a", append_eos=True),
                     abc_vocab.encode("b c", append_eos=True)])
        dist = model.cond_dist((0, 3))  # context is ignored at order 1
        np.testing.assert_allclose(
            dist, [0.05, 0.25, 0.05, 0.25, 0.25, 0.15], atol=1e-12)

    def test_bigram_memorized_sentence(self, abc_vocab):
        model = NgramModel(abc_vocab, order=2, smoothing=0.0)
        model.train([abc_vocab.encode("a b", append_eos=True)] * 10)
        dist = model.cond_dist((Vocabulary.BOS, 3))  # context (a,)
        assert int(np.argmax(dist)) == 4  # "b"
        assert dist[4] == pytest.approx(1.0)

    def test_unseen_context_without_smoothing_is_uniform(self, abc_vocab):
        model = NgramModel(abc_vocab, order=2, smoothing=0.0)
        model.train([abc_vocab.encode("a b", append_eos=True)])
        np.testing.assert_allclose(model.cond_dist((5,)), np.full(6, 1 / 6))

    def test_dict_roundtrip(self, abc_vocab):
        model = NgramModel(abc_vocab, order=2, smoothing=0.25)
        model.train([abc_vocab.encode("a b c", append_eos=True)])
        clone = NgramModel.from_dict(model.to_dict(), abc_vocab)
        np.testing.assert_array_equal(clone.cond_dist((3,)), model.cond_dist((3,)))

    @pytest.mark.parametrize("key, ok", [([5, 5], True), ([5, 6], False), ([6, 0], False)])
    def test_token_ids_must_be_below_the_vocabulary_size(self, abc_vocab, key, ok):
        data = {"order": 2, "smoothing": 0.5, "ngrams": [[key, 1]]}
        if ok:
            assert NgramModel.from_dict(data, abc_vocab).counts[(key[0],)] == {key[1]: 1}
        else:
            with pytest.raises(InvalidParameterError, match="token ids in \\[0, 6\\)"):
                NgramModel.from_dict(data, abc_vocab)

    KEY = "n-gram [key, count] must have a key of 2 token ids in [0, 6), got "
    COUNT = "n-gram count must be an integer in [1, 2**53], got "
    TWICE = "n-gram key [3, 4] is listed twice"

    @pytest.mark.parametrize("ngrams, message", [
        ([[[3, 4], 1], "ab"], KEY + "'ab'"),
        ([[[3, 4], 1, 2]], KEY + "[[3, 4], 1, 2]"),
        ([[[3, 4]]], KEY + "[[3, 4]]"),
        ([["ab", 1]], KEY + "['ab', 1]"),
        ([[[3, True], 1]], KEY + "[[3, True], 1]"),
        ([[[3, 4.0], 1]], KEY + "[[3, 4.0], 1]"),
        ([[[3, -1], 1]], KEY + "[[3, -1], 1]"),
        ([[[3, 6], 1]], KEY + "[[3, 6], 1]"),
        ([[[3], 1]], KEY + "[[3], 1]"),
        ([[[3, 4, 5], 1]], KEY + "[[3, 4, 5], 1]"),
        ([[[3, 4], 0]], COUNT + "0"),
        ([[[3, 4], 2 ** 53 + 1]], COUNT + str(2 ** 53 + 1)),
        ([[[3, 4], True]], COUNT + "True"),
        ([[[3, 4], 1.0]], COUNT + "1.0"),
        ([[[3, 4], "1"]], COUNT + "'1'"),
        ([[[3, 4], 1], [[3, 4], 2]], TWICE),
        ([[[3, 4], 1], [[5, 5], 1], [[3, 4], 2]], TWICE),
        # the first bad entry is the one named, whatever follows it
        ([[[3, 5], 1], [[3, 4], 0], [[3, 9], 1]], COUNT + "0"),
        ([[[3, 5], 1], [[3, 9], 1], [[3, 4], 0]], KEY + "[[3, 9], 1]"),
        ([[[3, 4], 1], [[3, 4], 1], [[3, 9], 1]], TWICE),
        ([[[3, 4], 1], [[3, 9], 1], [[3, 4], 1]], KEY + "[[3, 9], 1]"),
    ])
    def test_bad_ngram_is_refused_naming_the_first(self, abc_vocab, ngrams, message):
        data = {"order": 2, "smoothing": 0.5, "ngrams": ngrams}
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            NgramModel.from_dict(data, abc_vocab)

    # 1000 distinct order-2 n-grams over a 200-token vocabulary
    GOOD = [[[3 + i // 50, 3 + i % 50], 1 + i % 7] for i in range(1000)]
    KEY_200 = "n-gram [key, count] must have a key of 2 token ids in [0, 200), got "

    @pytest.mark.parametrize("bad, message", [
        ([[3, True], 1], KEY_200 + "[[3, True], 1]"),
        ([[False, 3], 1], KEY_200 + "[[False, 3], 1]"),
        ([[3, 4], True], COUNT + "True"),
        ([[3, 4], False], COUNT + "False"),
        ([[3, 200], 1], KEY_200 + "[[3, 200], 1]"),
        ([[-1, 3], 1], KEY_200 + "[[-1, 3], 1]"),
        ([[3, 4.0], 1], KEY_200 + "[[3, 4.0], 1]"),
        ([[3], 1], KEY_200 + "[[3], 1]"),
        ([[3, 4, 5], 1], KEY_200 + "[[3, 4, 5], 1]"),
        ([[3, 4], 0], COUNT + "0"),
        ([[3, 4], 2 ** 53 + 1], COUNT + str(2 ** 53 + 1)),
        ([[3, 4], 1.0], COUNT + "1.0"),
        ([[3, 4]], KEY_200 + "[[3, 4]]"),
        ("ab", KEY_200 + "'ab'"),
        ([[60, 3], 1], "n-gram key [60, 3] is listed twice"),
        ([[3, 3], 2], "n-gram key [3, 3] is listed twice"),
    ])
    def test_bad_ngram_after_a_thousand_good_ones(self, bad, message):
        """The walk files a thousand good entries, then names the bad one,
        whatever follows it in the list."""
        vocab = Vocabulary.from_words(f"w{i}" for i in range(197))
        good = self.GOOD + [[[60, 3], 5]]
        for ngrams in (good + [bad], good + [bad] + good[:3] + [[[3, 4], 0]]):
            data = {"order": 2, "smoothing": 0.5, "ngrams": ngrams}
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                NgramModel.from_dict(data, vocab)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_read_counts_equal_the_trained_counts(self, word_vocab, order):
        from latefuse.providers import _counts

        model = NgramModel(word_vocab, order=order, smoothing=0.1)
        model.train(random_sequences(word_vocab, seed=9, n=200))
        ngrams = model.to_dict()["ngrams"]
        assert _counts(ngrams, order, word_vocab.size) == model.counts
        loaded = NgramModel.from_dict(model.to_dict(), word_vocab)
        assert loaded.to_dict() == model.to_dict()

    def test_empty_ngrams_are_a_model_of_its_smoothing_alone(self, abc_vocab):
        model = NgramModel.from_dict({"order": 2, "smoothing": 0.5, "ngrams": []}, abc_vocab)
        assert model.counts == {}
        np.testing.assert_array_equal(model.cond_dist((3,)), np.full(6, 1 / 6))

    def test_ngrams_in_any_order_give_the_same_counts(self, word_vocab):
        model = NgramModel(word_vocab, order=3, smoothing=0.1)
        model.train(random_sequences(word_vocab, seed=5))
        data = model.to_dict()
        shuffled = dict(data, ngrams=list(reversed(data["ngrams"][1::2] + data["ngrams"][::2])))
        assert NgramModel.from_dict(shuffled, word_vocab).counts == model.counts

    def test_ngrams_must_be_a_list(self, abc_vocab):
        data = {"order": 2, "smoothing": 0.5, "ngrams": {"3 4": 1}}
        with pytest.raises(CorpusSchemaError,
                           match=re.escape("'ngrams' must be a list, got {'3 4': 1}")):
            NgramModel.from_dict(data, abc_vocab)

    def test_bad_params(self, abc_vocab):
        with pytest.raises(InvalidParameterError):
            NgramModel(abc_vocab, order=0)
        with pytest.raises(InvalidParameterError):
            NgramModel(abc_vocab, smoothing=-1.0)
        with pytest.raises(InvalidParameterError, match="smoothing must be finite and >= 0"):
            NgramModel(abc_vocab, smoothing=10 ** 400)  # an int past the float range

    @pytest.mark.parametrize("smoothing, ok", [(1e305, True), (1e306, False), (1e308, False),
                                               (10 ** 305, True), (10 ** 306, False)],
                             ids=["1e305", "1e306", "1e308", "int-10**305", "int-10**306"])
    def test_smoothing_times_the_vocabulary_size_must_be_finite(self, smoothing, ok):
        vocab = Vocabulary.from_words(f"w{i}" for i in range(197))
        assert vocab.size == 200
        data = {"order": 2, "smoothing": smoothing, "ngrams": [[[3, 4], 2]]}
        if ok:
            for model in (NgramModel(vocab, smoothing=smoothing),
                          NgramModel.from_dict(data, vocab)):
                assert model.cond_dist((Vocabulary.BOS, 3)).sum() == pytest.approx(1.0)
        else:
            refused = re.escape(f"smoothing {float(smoothing)} times the vocabulary size 200 "
                                "must be finite")
            with pytest.raises(InvalidParameterError, match=refused):
                NgramModel(vocab, smoothing=smoothing)
            with pytest.raises(InvalidParameterError, match=refused):
                NgramModel.from_dict(data, vocab)

    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 2 ** 62, 10 ** 19])
    def test_order_past_max_order_is_refused(self, abc_vocab, order):
        refused = rf"order must be in \[1, {MAX_ORDER}\]"
        with pytest.raises(InvalidParameterError, match=refused):
            NgramModel(abc_vocab, order=order)
        with pytest.raises(InvalidParameterError, match=refused):
            NgramModel.from_dict({"order": order, "smoothing": 0.5, "ngrams": []}, abc_vocab)

    def test_max_order_round_trips(self, abc_vocab):
        model = NgramModel(abc_vocab, order=MAX_ORDER, smoothing=0.25)
        model.train([abc_vocab.encode("a b c", append_eos=True)])
        clone = NgramModel.from_dict(model.to_dict(), abc_vocab)
        assert clone.order == MAX_ORDER
        np.testing.assert_array_equal(clone.cond_dist((3,)), model.cond_dist((3,)))


def random_sequences(vocab, seed, n=40):
    """n EOS-terminated sequences of real-word ids (never UNK)."""
    rng = np.random.default_rng(seed)
    return [tuple(int(t) for t in rng.integers(3, vocab.size, size=int(rng.integers(0, 8))))
            + (Vocabulary.EOS,) for _ in range(n)]


def every_history(vocab, order):
    """A BOS-led history for every context of `order` - 1 ids: seen in
    training, unseen (those holding UNK or BOS past the padding), and
    shorter than the context, so left-padded with BOS."""
    return [(Vocabulary.BOS,)] + [(Vocabulary.BOS,) + ids for ids in
                                  itertools.product(range(vocab.size), repeat=order - 1)]


@pytest.fixture
def word_vocab():
    return Vocabulary(tokens=Vocabulary.SPECIALS + tuple(f"w{i}" for i in range(9)))


class TestContextIndex:
    """Rows built from the counts kept by context equal, bit for bit, the
    rows of the loop that probed every id of the vocabulary."""

    @staticmethod
    def assert_rows_are_the_probe_loops(model, frozen_cond_dist):
        histories = every_history(model.vocab, model.order)
        unseen = [h for h in histories if model._context(h) not in model.counts]
        assert model.order == 1 or unseen, "no context unseen in training was read"
        for history in histories:
            assert model.cond_dist(history).tobytes() == \
                frozen_cond_dist(model, history).tobytes(), history

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_trained_model(self, word_vocab, frozen_cond_dist, order, smoothing):
        model = NgramModel(word_vocab, order=order, smoothing=smoothing)
        model.train(random_sequences(word_vocab, seed=order))
        self.assert_rows_are_the_probe_loops(model, frozen_cond_dist)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_model_loaded_from_dict(self, word_vocab, frozen_cond_dist, order, smoothing):
        model = NgramModel(word_vocab, order=order, smoothing=smoothing)
        model.train(random_sequences(word_vocab, seed=10 + order))
        clone = NgramModel.from_dict(model.to_dict(), word_vocab)
        self.assert_rows_are_the_probe_loops(clone, frozen_cond_dist)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_context_never_seen_in_training(self, abc_vocab, frozen_cond_dist, smoothing):
        model = NgramModel(abc_vocab, order=2, smoothing=smoothing)
        model.train([abc_vocab.encode("a b", append_eos=True)])
        for history in [(Vocabulary.BOS, Vocabulary.UNK), (5,), (3, 4, 1)]:
            assert model._context(history) not in model.counts
            assert model.cond_dist(history).tobytes() == \
                frozen_cond_dist(model, history).tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_model_trained_again_serves_the_new_counts(self, word_vocab, frozen_cond_dist,
                                                       order):
        model = NgramModel(word_vocab, order=order, smoothing=0.1)
        model.train(random_sequences(word_vocab, seed=20 + order))
        histories = every_history(word_vocab, order)
        before = [model.cond_dist(h).tobytes() for h in histories]  # rows cached
        model.train(random_sequences(word_vocab, seed=30 + order))
        after = [model.cond_dist(h).tobytes() for h in histories]
        assert after == [frozen_cond_dist(model, h).tobytes() for h in histories]
        assert after != before


class TestNgramCorrector:
    def test_vote_follows_unanimous_first_token(self, abc_vocab):
        refs = [abc_vocab.encode("a b", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, order=1,
                                          smoothing=0.5, vote_weight=0.5)
        ctx = ctx_with_nbest(abc_vocab, ["c a", "c b", "c c", "c a", "c b"])
        logits = corrector.next_logits((Vocabulary.BOS,), ctx)
        assert int(np.argmax(logits)) == abc_vocab.id_of("c")

    def test_pure_vote_is_dirac_on_shared_reference(self, abc_vocab):
        refs = [abc_vocab.encode("a", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, vote_weight=1.0)
        ctx = ctx_with_nbest(abc_vocab, ["a b c"] * 5)
        # teacher-forced over the shared reference: argmax equals it everywhere
        reference = abc_vocab.encode("a b c", append_eos=True)
        history = (Vocabulary.BOS,)
        for tok in reference:
            logits = corrector.next_logits(history, ctx)
            assert int(np.argmax(logits)) == tok
            history += (tok,)

    def test_vote_weight_zero_ignores_context(self, abc_vocab):
        refs = [abc_vocab.encode("a b a", append_eos=True),
                abc_vocab.encode("b c", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, order=1,
                                          smoothing=0.5, vote_weight=0.0)
        ctx1 = ctx_with_nbest(abc_vocab, ["c c c"] * 5)
        ctx2 = UtteranceContext(utt_id="u1")
        logits1 = corrector.next_logits((0,), ctx1)
        logits2 = corrector.next_logits((0,), ctx2)
        np.testing.assert_array_equal(logits1, logits2)
        # distribution equals the smoothed unigram of the references
        np.testing.assert_allclose(
            softmax_with_temperature(logits1, 1.0),
            [0.05, 0.25, 0.05, 0.25, 0.25, 0.15], atol=1e-9)

    def test_vote_beyond_all_hypotheses_is_uniform(self, abc_vocab):
        refs = [abc_vocab.encode("a", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, vote_weight=1.0)
        ctx = ctx_with_nbest(abc_vocab, ["a"])
        # position 5 is past the single 2-token hypothesis
        logits = corrector.next_logits((0, 3, 1, 3, 3, 3), ctx)
        np.testing.assert_allclose(
            softmax_with_temperature(logits, 1.0), np.full(6, 1 / 6), atol=1e-9)

    def test_determinism_bit_identical(self, abc_vocab):
        refs = [abc_vocab.encode("a b c", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab)
        ctx = ctx_with_nbest(abc_vocab, ["a b", "a c"])
        one = corrector.next_logits((0, 3), ctx)
        two = corrector.next_logits((0, 3), ctx)
        np.testing.assert_array_equal(one, two)

    def test_logits_always_finite(self, abc_vocab):
        refs = [abc_vocab.encode("a", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, smoothing=0.0,
                                          vote_weight=1.0)
        ctx = ctx_with_nbest(abc_vocab, ["a"] * 5)
        assert np.all(np.isfinite(corrector.next_logits((0,), ctx)))

    def test_empty_corpus_rejected(self, abc_vocab):
        with pytest.raises(InvalidInputError):
            train_ngram_corrector([], abc_vocab)

    def test_bad_vote_weight(self, abc_vocab):
        model = NgramModel(abc_vocab)
        with pytest.raises(InvalidParameterError):
            NgramCorrector(model, vote_weight=1.5)

    def test_dict_roundtrip_is_the_whole_lm_file(self, abc_vocab):
        refs = [abc_vocab.encode("a b c", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, order=2, vote_weight=0.3)
        data = corrector.to_dict()
        assert list(data) == ["order", "smoothing", "ngrams", "vote_weight"]
        clone = NgramCorrector.from_dict(data, abc_vocab)
        assert clone.vote_weight == 0.3 and clone.to_dict() == data
        ctx = ctx_with_nbest(abc_vocab, ["a b", "a c"])
        assert clone.next_logits((0, 3), ctx).tobytes() == \
            corrector.next_logits((0, 3), ctx).tobytes()
        with pytest.raises(CorpusSchemaError, match="'vote_weight' is a required field"):
            NgramCorrector.from_dict({k: data[k] for k in list(data)[:3]}, abc_vocab)


def per_call_row(model, vote_weight, history, nbest):
    """Oracle: the corrector's row built from scratch on every call, the
    positional vote counted over the list, mixed with the prior, logged."""
    v = model.vocab.size
    position = len(history) - 1
    dist = np.zeros(v)
    covering = 0
    for hyp in nbest:
        if position < len(hyp):
            dist[hyp[position]] += 1.0
            covering += 1
    vote = np.full(v, 1.0 / v) if covering == 0 else dist / covering
    p = model.cond_dist(history)
    if vote_weight > 0.0:
        p = (1.0 - vote_weight) * p + vote_weight * vote
    return np.log(p + LOG_EPS)


def seven_word_case():
    vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>") + tuple("defghij"))
    rng = np.random.default_rng(3)
    refs = [tuple(int(t) for t in rng.integers(3, 10, size=int(rng.integers(1, 7)))) + (1,)
            for _ in range(20)]
    model = NgramModel(vocab, order=2, smoothing=0.1)
    model.train(refs)
    lists = {
        "A": tuple(refs[i] for i in range(5)),
        "B": (refs[5], refs[6][:2], refs[7]),
        "empty": (),
    }
    return vocab, model, lists, rng


class TestCorrectorRows:
    """The vote built once per N-best list and the prior once per context
    give the per-call rows byte for byte."""

    @pytest.mark.parametrize("vote_weight", [0.0, 0.5, 1.0])
    def test_rows_equal_the_per_call_formula(self, vote_weight):
        vocab, model, lists, rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=vote_weight)
        rows = 0
        for name in ("A", "B", "A", "empty", "B", "A"):
            nbest = lists[name]
            ctx = UtteranceContext(utt_id=name, nbest=nbest)
            longest = max(map(len, nbest), default=0)
            for position in range(longest + 3):
                history = (Vocabulary.BOS,) + tuple(
                    int(t) for t in rng.integers(1, vocab.size, size=position))
                got = corrector.next_logits(history, ctx)
                assert got.tobytes() == \
                    per_call_row(model, vote_weight, history, nbest).tobytes()
                rows += 1
        assert rows > 30

    def test_equal_list_in_a_new_tuple_gives_the_same_rows(self):
        vocab, model, lists, _rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=0.85)
        history = (Vocabulary.BOS, 3, 4)
        first = corrector.next_logits(history, UtteranceContext("a", nbest=lists["A"]))
        copy = tuple(tuple(hyp) for hyp in list(lists["A"]))
        again = corrector.next_logits(history, UtteranceContext("b", nbest=copy))
        assert first.tobytes() == again.tobytes()

    def test_returned_row_is_the_callers(self):
        vocab, model, lists, _rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=0.5)
        ctx = UtteranceContext("a", nbest=lists["A"])
        history = (Vocabulary.BOS, 5)
        row = corrector.next_logits(history, ctx)
        want = row.tobytes()
        row[:] = 0.0
        assert corrector.next_logits(history, ctx).tobytes() == want

    def test_model_trained_again_serves_no_stale_prior(self):
        vocab, model, lists, _rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=0.5)
        ctx = UtteranceContext("a", nbest=lists["B"])
        history = (Vocabulary.BOS, 4)
        before = corrector.next_logits(history, ctx)
        model.train([(4, 9, 9, 1)] * 30)
        after = corrector.next_logits(history, ctx)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == per_call_row(model, 0.5, history, lists["B"]).tobytes()

    def test_model_trained_again_serves_no_stale_lattice_row(self):
        vocab, model, lists, _rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=0.5)
        ctx = UtteranceContext("a", nbest=lists["B"])
        _lattices, before = corrector.lattices([ctx])
        model.train([(4, 9, 9, 1)] * 30)
        (keys,), after = corrector.lattices([ctx])
        assert after.tobytes() != before.tobytes()
        for i, (t, context) in enumerate(keys):
            history = (Vocabulary.BOS,) * (t + 1 - len(context)) + context
            assert after[i].tobytes() == per_call_row(model, 0.5, history, lists["B"]).tobytes()

    def test_held_lattice_votes_are_read_without_counting(self, monkeypatch):
        """After `lattices`, a row off the lattice of any list of the chunk
        reads the vote rows that `lattices` holds, in any order: no list
        is counted again."""
        vocab, model, lists, _rng = seven_word_case()
        corrector = NgramCorrector(model, vote_weight=0.5)
        ctxs = [UtteranceContext(name, nbest=lists[name]) for name in ("A", "B", "empty")]
        corrector.lattices(ctxs)
        counted = []
        monkeypatch.setattr(corrector, "_vote_rows", lambda nbest: counted.append(nbest))
        for ctx in ctxs[::-1] + ctxs:
            for history in ((Vocabulary.BOS, 9, 9), (Vocabulary.BOS,) + (3,) * 9):
                assert corrector.next_logits(history, ctx).tobytes() == \
                    per_call_row(model, 0.5, history, ctx.nbest).tobytes()
        assert counted == []


@pytest.fixture(scope="module")
def walkthrough_lists(tmp_path_factory):
    """(vocabulary, every N-best list) of the seed-0 300/60/100 walkthrough
    corpus, all three splits, as `decode` reads them."""
    out = tmp_path_factory.mktemp("walkthrough") / "data"
    assert main(["simulate", "--out-dir", str(out), "--n-train", "300", "--n-val", "60",
                 "--n-test", "100", "--seed", "0"]) == 0
    vocab = Vocabulary.load(out / "vocab.txt")
    lists = [record_context(record, vocab)[0].nbest
             for split in ("train", "val", "test")
             for record in load_corpus(out / f"{split}.jsonl")]
    return vocab, lists


class TestVoteRows:
    """The vote rows counted in one pass equal, bit for bit, the rows the
    `np.add.at` count gave, and an id outside the vocabulary is refused."""

    @staticmethod
    def assert_first_definition(corrector, nbest, frozen_vote_rows):
        got = corrector._vote_rows(nbest)
        want = frozen_vote_rows(corrector, nbest)
        assert len(got) == len(want) == max(map(len, nbest), default=0) + 1
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want], nbest

    @pytest.mark.parametrize("vote_weight", [0.0, 0.35, 1.0])
    def test_walkthrough_lists(self, walkthrough_lists, frozen_vote_rows, vote_weight):
        vocab, lists = walkthrough_lists
        assert len(lists) == 460
        corrector = NgramCorrector(NgramModel(vocab), vote_weight=vote_weight)
        for nbest in lists:
            self.assert_first_definition(corrector, nbest, frozen_vote_rows)

    @pytest.mark.parametrize("nbest", [
        (),
        ((3, 4, 5, 1), (3, 1), (5, 5, 5, 5, 5, 1)),
        ((), (4, 1)),
        ((),),
        ((1,), (1,), (2, 1)),
    ], ids=["empty-list", "unequal-lengths", "empty-hypothesis", "only-empty", "short"])
    @pytest.mark.parametrize("vote_weight", [0.35, 1.0])
    def test_edge_lists(self, abc_vocab, frozen_vote_rows, nbest, vote_weight):
        corrector = NgramCorrector(NgramModel(abc_vocab), vote_weight=vote_weight)
        self.assert_first_definition(corrector, nbest, frozen_vote_rows)

    @pytest.mark.parametrize("vote_weight", [0.35, 1.0])
    def test_chunk_votes_equal_the_first_definition(self, walkthrough_lists, frozen_vote_rows,
                                                    vote_weight):
        """`lattices` counts a chunk's lists with one bincount; each list's
        rows equal the one-list count, edge lists and refused ones among
        them."""
        vocab, lists = walkthrough_lists
        edge = [(), ((3, 4, 5, 1), (3, 1)), ((), (4, 1)), ((),), ((1,), (2, 1)),
                ((3, vocab.size),), ((-1,),)]
        lists = [*edge, *lists[:40]]
        corrector = NgramCorrector(NgramModel(vocab), vote_weight=vote_weight)
        for lo in range(0, len(lists), 9):
            chunk = lists[lo:lo + 9]
            lattices, _rows = corrector.lattices([UtteranceContext("u", nbest=n) for n in chunk])
            held = corrector._votes
            for nbest, keys in zip(chunk, lattices):
                toks = [tok for hyp in nbest for tok in hyp]
                if not all(0 <= tok < vocab.size for tok in toks):
                    assert keys is None and id(nbest) not in held
                    continue
                want = frozen_vote_rows(corrector, nbest)
                assert held[id(nbest)][0] is nbest
                assert [row.tobytes() for row in held[id(nbest)][1]] == \
                    [row.tobytes() for row in want], nbest

    @pytest.mark.parametrize("bad", [6, -1, 2 ** 70], ids=["V", "minus-1", "2**70"])
    def test_token_id_outside_the_vocabulary_is_refused(self, abc_vocab, bad):
        corrector = NgramCorrector(NgramModel(abc_vocab), vote_weight=0.5)
        ctx = UtteranceContext("u0", nbest=((3, 4, 1), (3, bad, 1)))
        with pytest.raises(InvalidInputError,
                           match=rf"N-best token id {bad} is outside \[0, 6\)"):
            corrector.next_logits((Vocabulary.BOS, 3), ctx)


def nbest_prefixes(nbest):
    """Oracle: every BOS-prefixed prefix of each hypothesis up to its EOS,
    BOS alone included, in hypothesis order, repeats kept."""
    for hyp in nbest or ((),):
        for t in range(len(hyp) + 1):
            yield (Vocabulary.BOS,) + tuple(hyp[:t])
            if t < len(hyp) and hyp[t] == Vocabulary.EOS:
                break


def history_key(corrector, history, ctx):
    """All that `corrector.next_logits(history, ctx)` reads of `history`:
    its vote row, and its n-gram context, which is all `_prior` reads of
    it. Histories of one utterance with one key get one row."""
    return (corrector._vote_row(history, corrector._held_votes(ctx.nbest)),
            corrector.model._context(history))


class TestLattice:
    """`NgramCorrector.lattices` gives the keys of an utterance's N-best
    prefixes once each, in order of first appearance, and for each key the
    row `next_logits` gives every history of that key, byte for byte. Each
    list is built in a chunk after two others, one of them refused, and
    before a third, so its rows sit inside the chunk's block."""

    @staticmethod
    def assert_lattice(corrector, nbest, extra_histories=()):
        ctx = UtteranceContext("u", nbest=nbest)
        chunk = [UtteranceContext("before", nbest=((3, 4, 1), (4,))),
                 UtteranceContext("refused", nbest=((3, corrector.vocab.size),)),
                 ctx, UtteranceContext("after")]
        lattices, block = corrector.lattices(chunk)
        assert lattices[1] is None
        keys, lo = lattices[2], len(lattices[0])
        rows = block[lo:lo + len(keys)]
        assert len(block) == lo + len(keys) + len(lattices[3])
        prefixes = list(nbest_prefixes(nbest))
        assert keys == list(dict.fromkeys(history_key(corrector, h, ctx) for h in prefixes))
        assert rows.shape == (len(keys), corrector.vocab.size)
        index = {key: i for i, key in enumerate(keys)}
        read = 0
        for history in prefixes + list(extra_histories):
            i = index.get(history_key(corrector, history, ctx))
            if i is not None:
                assert rows[i].tobytes() == corrector.next_logits(history, ctx).tobytes()
                read += 1
        return keys, read

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("vote_weight", [0.0, 0.5, 1.0])
    def test_rows_equal_next_logits(self, order, vote_weight):
        vocab, _model, lists, rng = seven_word_case()
        model = NgramModel(vocab, order=order, smoothing=0.1)
        model.train(random_sequences(vocab, seed=order))
        corrector = NgramCorrector(model, vote_weight=vote_weight)
        edge = {
            "no-EOS": ((3, 4, 5), (3, 4)),
            "EOS-inside": ((3, 1, 4, 5, 1), (3, 4, 1)),
            "EOS-only": ((1,), (1,)),
            "empty-hypothesis": ((), (6, 1)),
        }
        read_off = 0
        for nbest in [*lists.values(), *edge.values()]:
            # histories off the prefixes: some share a prefix's key, and
            # some run past the longest hypothesis, onto the uniform vote row
            off = [(Vocabulary.BOS,) + tuple(int(t) for t in rng.integers(1, vocab.size, n))
                   for n in range(9) for _ in range(6)]
            _keys, read = self.assert_lattice(corrector, nbest, off)
            read_off += read - len(list(nbest_prefixes(nbest)))
        assert read_off > 0

    def test_empty_list_has_the_bos_row_alone(self, abc_vocab):
        corrector = train_ngram_corrector([(3, 4, 1)], abc_vocab, order=3)
        keys, read = self.assert_lattice(corrector, ())
        assert keys == [(0, (Vocabulary.BOS,) * 2)] and read == 1

    def test_shared_prefixes_and_contexts_give_one_key(self, abc_vocab):
        corrector = train_ngram_corrector([(3, 4, 1)], abc_vocab, order=2)
        # "a b" and "a c" share BOS and "a"; "c a" reaches context (a,) at
        # vote row 2, "a" reaches it at vote row 1
        nbest = tuple(abc_vocab.encode(t, append_eos=True) for t in ["a b", "a c", "c a"])
        keys, _ = self.assert_lattice(corrector, nbest)
        assert keys == [(0, (0,)), (1, (3,)), (2, (4,)), (2, (5,)), (1, (5,)), (2, (3,))]

    def test_walkthrough_lists(self, walkthrough_lists):
        vocab, lists = walkthrough_lists
        corrector = train_ngram_corrector([hyp for nbest in lists[:300] for hyp in nbest],
                                          vocab, order=2, smoothing=0.1, vote_weight=0.85)
        keys = sum(len(self.assert_lattice(corrector, nbest)[0]) for nbest in lists[300:])
        prefixes = sum(len(list(nbest_prefixes(nbest))) for nbest in lists[300:])
        assert 0 < keys < prefixes / 2  # the hypotheses share most of their prefixes


class TestAcousticChannel:
    def test_identity_copies_observation(self, abc_vocab):
        chan = AcousticChannel(abc_vocab, np.eye(6))
        obs = (0, 3, 4, 1)  # BOS a b EOS
        ctx = UtteranceContext(utt_id="u0", observation=obs)
        assert int(np.argmax(chan.next_logits((0,), ctx))) == 3
        assert int(np.argmax(chan.next_logits((0, 3), ctx))) == 4
        assert int(np.argmax(chan.next_logits((0, 3, 4), ctx))) == 1

    def test_confusion_row_lookup(self, abc_vocab):
        confusion = np.eye(6)
        confusion[3] = [0, 0, 0, 0.7, 0, 0.3]  # "a" row: 0.7 a, 0.3 c
        chan = AcousticChannel(abc_vocab, confusion)
        ctx = UtteranceContext(utt_id="u0", observation=(0, 3, 1))
        dist = softmax_with_temperature(chan.next_logits((0,), ctx), 1.0)
        assert dist[3] == pytest.approx(0.7, abs=1e-9)
        assert dist[5] == pytest.approx(0.3, abs=1e-9)

    def test_past_observation_end_is_eos_dominant(self, abc_vocab):
        chan = AcousticChannel(abc_vocab, np.eye(6))
        ctx = UtteranceContext(utt_id="u0", observation=(0, 3, 1))
        logits = chan.next_logits((0, 3, 1, 4, 4), ctx)
        assert int(np.argmax(logits)) == Vocabulary.EOS

    def test_non_stochastic_matrix_rejected(self, abc_vocab):
        bad = np.eye(6)
        bad[2, 2] = 0.5
        with pytest.raises(InvalidInputError):
            AcousticChannel(abc_vocab, bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, abc_vocab, entry):
        bad = np.eye(6)
        bad[3] = entry  # a 0/0 row of a channel that keeps and substitutes nothing
        with pytest.raises(InvalidInputError, match="finite"):
            AcousticChannel(abc_vocab, bad)

    def test_missing_observation_rejected(self, abc_vocab):
        chan = AcousticChannel(abc_vocab, np.eye(6))
        with pytest.raises(InvalidInputError):
            chan.next_logits((0,), UtteranceContext(utt_id="u0"))
        with pytest.raises(InvalidInputError):
            chan.row_key(1, UtteranceContext(utt_id="u0"))

    def test_row_key_names_the_row(self, abc_vocab):
        confusion = np.full((6, 6), 0.1)
        np.fill_diagonal(confusion, 0.5)
        chan = AcousticChannel(abc_vocab, confusion)
        one = UtteranceContext(utt_id="u0", observation=(0, 3, 4, 1))
        two = UtteranceContext(utt_id="u1", observation=(0, 4, 1))
        assert [chan.row_key(n, one) for n in range(1, 7)] == [3, 4, 1, -1, -1, -1]
        rows = {}
        for ctx in (one, two):
            for n in range(1, 7):
                row = chan.next_logits((0,) + (5,) * (n - 1), ctx).tobytes()
                assert rows.setdefault(chan.row_key(n, ctx), row) == row
        assert len(set(rows.values())) == len(rows) == 4
        for ctx in (one, two):
            for n in range(1, 7):
                row = chan.next_logits((0,) * n, ctx)
                assert row.tobytes() == chan.log_rows[chan.row_key(n, ctx)].tobytes()

    def test_log_rows_refuse_writes(self, abc_vocab):
        """The block a decode set calibrates once is read-only; the row
        `next_logits` gives is a copy, which a caller may write."""
        chan = AcousticChannel(abc_vocab, np.eye(6))
        assert chan.log_rows.shape == (7, 6)
        with pytest.raises(ValueError, match="read-only"):
            chan.log_rows[3, 3] = 0.0
        row = chan.next_logits((0,), UtteranceContext(utt_id="u0", observation=(0, 3, 1)))
        row[0] = 1.0
        assert chan.log_rows[3, 0] != 1.0


class TestProviderSpec:
    def test_known_kinds_with_required_parameters(self):
        specs = [
            ProviderSpec("ngram-corrector", {"model_path": "lm.json"}),
            ProviderSpec("acoustic-channel", {"manifest_path": "manifest.json"}),
            ProviderSpec("external", {"endpoint": "127.0.0.1:9"}),
        ]
        assert [s.kind for s in specs] == ["ngram-corrector", "acoustic-channel", "external"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProviderSpec(kind="neural", parameters={"endpoint": "x"})

    @pytest.mark.parametrize("kind", ProviderSpec.KINDS)
    def test_missing_parameters_rejected(self, kind):
        with pytest.raises(InvalidParameterError):
            ProviderSpec(kind=kind, parameters={})
