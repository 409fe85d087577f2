import numpy as np
import pytest

from latefuse.core import Vocabulary, softmax_with_temperature
from latefuse.errors import InvalidInputError, InvalidParameterError
from latefuse.providers import (
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
            assert NgramModel.from_dict(data, abc_vocab).ngram_counts[tuple(key)] == 1
        else:
            with pytest.raises(InvalidParameterError, match="token ids in \\[0, 6\\)"):
                NgramModel.from_dict(data, abc_vocab)

    def test_bad_params(self, abc_vocab):
        with pytest.raises(InvalidParameterError):
            NgramModel(abc_vocab, order=0)
        with pytest.raises(InvalidParameterError):
            NgramModel(abc_vocab, smoothing=-1.0)


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

    def test_missing_observation_rejected(self, abc_vocab):
        chan = AcousticChannel(abc_vocab, np.eye(6))
        with pytest.raises(InvalidInputError):
            chan.next_logits((0,), UtteranceContext(utt_id="u0"))


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
