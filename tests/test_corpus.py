import hashlib
import json
import math

import numpy as np
import pytest

from latefuse import corpus
from latefuse.core import Vocabulary
from latefuse.corpus import (
    ChannelSpec,
    CorpusRecord,
    builtin_vocabulary,
    corrupt,
    decoder_confusion,
    generate_corpus,
    load_corpus,
    record_context,
    sample_references,
    save_corpus,
)
from latefuse.errors import (
    CorpusParseError,
    CorpusSchemaError,
    InvalidInputError,
    InvalidParameterError,
)
from latefuse.metrics import corpus_wer, normalize_text, oracle_nbest


class TestChannelSpec:
    def test_defaults_are_valid(self):
        spec = ChannelSpec()
        assert spec.sub_rate == 0.15

    @pytest.mark.parametrize("kwargs", [
        {"sub_rate": -0.1},
        {"ins_rate": 1.2},
        {"sub_rate": 0.8, "del_rate": 0.3},
        {"concentration": 0.0},
        {"seed": -1},
        {"seed": 2**64},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ChannelSpec(**kwargs)


class TestSampleReferences:
    def test_same_seed_is_identical(self):
        assert sample_references(None, 50, seed=9) == sample_references(None, 50, seed=9)

    def test_different_seed_differs(self):
        assert sample_references(None, 50, seed=9) != sample_references(None, 50, seed=10)

    def test_exact_count(self):
        assert len(sample_references(None, 100, seed=1)) == 100

    def test_mean_length_tracks_configuration(self):
        for mean in (8.0, 12.0):
            refs = sample_references(None, 1000, seed=3, mean_len=mean)
            observed = np.mean([len(r.split()) for r in refs])
            assert abs(observed - mean) <= 2.0

    def test_text_file_source(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("Alpha beta\n\ngamma delta\n")
        splits, vocab = generate_corpus(ChannelSpec(), 4, 1, 1, source=path)
        assert vocab.tokens[3:] == ("alpha", "beta", "gamma", "delta")
        refs = {rec.reference for records in splits.values() for rec in records}
        assert refs <= {"alpha beta", "gamma delta"}

    def test_vocabulary_coverage(self):
        vocab = builtin_vocabulary()
        refs = sample_references(None, 3000, seed=5)
        seen = {w for r in refs for w in r.split()}
        assert len(seen) >= vocab.size - 3 - 5  # essentially every pool word appears


class TestCorrupt:
    def test_noiseless_channel_is_identity(self):
        vocab = builtin_vocabulary()
        spec = ChannelSpec(sub_rate=0.0, del_rate=0.0, ins_rate=0.0, seed=1)
        words = sample_references(None, 1, seed=2)[0].split()
        assert corrupt(words, spec, vocab, utt_id="x") == words

    def test_saturated_substitution_changes_every_word(self):
        vocab = builtin_vocabulary()
        spec = ChannelSpec(sub_rate=1.0, del_rate=0.0, ins_rate=0.0, seed=1)
        words = sample_references(None, 5, seed=2)
        for i, sentence in enumerate(words):
            src = sentence.split()
            out = corrupt(src, spec, vocab, utt_id=f"u{i}")
            assert len(out) == len(src)
            assert all(a != b for a, b in zip(out, src))

    def test_monte_carlo_substitution_fraction(self):
        vocab = builtin_vocabulary()
        spec = ChannelSpec(sub_rate=0.15, del_rate=0.0, ins_rate=0.0, seed=11)
        rng = np.random.default_rng(12)
        words = [vocab.token_of(3 + int(i)) for i in rng.integers(0, vocab.size - 3, 10000)]
        out = corrupt(words, spec, vocab, utt_id="mc")
        fraction = np.mean([a != b for a, b in zip(out, words)])
        assert abs(fraction - 0.15) <= 0.01

    def test_deterministic_per_utterance_id(self):
        vocab = builtin_vocabulary()
        spec = ChannelSpec(seed=4)
        words = sample_references(None, 1, seed=6)[0].split()
        assert corrupt(words, spec, vocab, "a") == corrupt(words, spec, vocab, "a")
        assert corrupt(words, spec, vocab, "a") != corrupt(words, spec, vocab, "b") or \
            corrupt(words, spec, vocab, "a") == words  # ids rarely collide


def record_seed(seed, utt_id):
    """The documented seed of a record's noise stream: the corpus seed xor
    the first 8 bytes, big-endian, of the id's sha256."""
    digest = hashlib.sha256(utt_id.encode("utf-8")).digest()
    return (seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big")


def frozen_corrupt(reference_words, channel, vocab, utt_id):
    """`corrupt` frozen as it draws one scalar at a time: per word a
    uniform for an insertion (then `integers` for the inserted word, which
    takes a buffered 32-bit half, not a fresh double), a uniform roll, and
    for a substitution of a word in the vocabulary a uniform looked up in
    the kernel row's cumulative sums; then a last insertion uniform (and
    word). A vocabulary of no word inserts none, and one of a single word
    builds no cumulative sums and `integers(1)` draws nothing. A bulk draw
    must keep this stream."""
    rng = np.random.default_rng(record_seed(channel.seed, utt_id))
    n_words = vocab.size - 3
    cdf = corpus._substitution_cdf(n_words, channel.concentration) if n_words > 1 else None
    out = []
    for word in reference_words:
        if rng.random() < channel.ins_rate and n_words > 0:
            out.append(vocab.token_of(3 + int(rng.integers(n_words))))
        roll = rng.random()
        if roll < channel.sub_rate:
            wid = vocab.id_of(word) - 3
            if cdf is not None and wid >= 0:
                out.append(vocab.token_of(
                    3 + int(cdf[wid].searchsorted(rng.random(), side="right"))))
            else:
                out.append(word)
        elif roll < channel.sub_rate + channel.del_rate:
            continue
        else:
            out.append(word)
    if rng.random() < channel.ins_rate and n_words > 0:
        out.append(vocab.token_of(3 + int(rng.integers(n_words))))
    return out


class TestCorruptDrawStream:
    """`corrupt` equals the frozen scalar-draw loop on 500 seeded records
    at each of several rates, insertions interleaved with the doubles."""

    @pytest.mark.parametrize("sub_rate, del_rate, ins_rate", [
        (0.15, 0.02, 0.02), (0.4, 0.1, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0, 0.3), (0.3, 0.7, 0.0),
    ])
    def test_equals_the_frozen_scalar_loop(self, sub_rate, del_rate, ins_rate):
        vocab = builtin_vocabulary()
        channel = ChannelSpec(sub_rate, del_rate, ins_rate, concentration=0.5, seed=29)
        lengths = []
        for i, sentence in enumerate(sample_references(None, 500, seed=31)):
            words = sentence.split()
            got = corrupt(words, channel, vocab, utt_id=f"r{i}")
            assert got == frozen_corrupt(words, channel, vocab, f"r{i}")
            lengths.append(len(got) - len(words))
        if ins_rate > del_rate:
            assert max(lengths) > 1  # several insertions in a record

    @pytest.mark.parametrize("words", [(), ("x",), ("x", "y")], ids=["0", "1", "2"])
    def test_small_vocabularies_equal_the_frozen_scalar_loop(self, words):
        """Below two words no cumulative sums are built, and below one no
        word is inserted; a reference word outside the vocabulary is kept."""
        vocab = Vocabulary.from_words(words)
        channel = ChannelSpec(0.4, 0.1, 0.5, seed=3)
        reference = ["x", "y", "z"] * 4
        for i in range(300):
            got = corrupt(reference, channel, vocab, utt_id=f"q{i}")
            assert got == frozen_corrupt(reference, channel, vocab, f"q{i}")


def frozen_sample_references(sentences, n, seed, mean_len=12.0):
    """`sample_references` frozen as it drew one scalar at a time from
    `default_rng(seed)`: per reference an `integers` over the list, or per
    sentence a `normal` target and then, per phrase, a connector uniform
    and `integers` for the pattern and each word."""
    rng = np.random.default_rng(seed)
    if sentences is not None:
        return [sentences[int(rng.integers(len(sentences)))] for _ in range(n)]
    out = []
    for _ in range(n):
        target = max(4, int(round(rng.normal(mean_len, mean_len / 4.0))))
        words = []
        while len(words) < target:
            remaining = target - len(words)
            connector = bool(words) and remaining >= 3 and rng.random() < 0.2
            budget = remaining - (1 if connector else 0)
            options = [p for p in corpus._PATTERNS if len(p) <= budget]
            pattern = options[int(rng.integers(len(options)))]
            if connector:
                pool = corpus.WORD_POOLS["conn"]
                words.append(pool[int(rng.integers(len(pool)))])
            for role in pattern:
                pool = corpus.WORD_POOLS[role]
                words.append(pool[int(rng.integers(len(pool)))])
        out.append(" ".join(words))
    return out


class TestReferenceDrawStream:
    """`sample_references` equals the frozen scalar-draw loop: grammar
    sentences, whose `normal` targets fall between the decoded draws, at
    several seeds and mean lengths, and lists of sentences, of which a
    list of one draws nothing."""

    @pytest.mark.parametrize("mean_len", [0, 3, 12, 40])
    @pytest.mark.parametrize("seed", [0, 1, 7, 31])
    def test_grammar_equals_the_frozen_scalar_loop(self, seed, mean_len):
        got = sample_references(None, 150, seed, mean_len=mean_len)
        assert got == frozen_sample_references(None, 150, seed, mean_len=mean_len)

    @pytest.mark.parametrize("sentences", [["one line"], ["a b", "c d e", "f"]],
                             ids=["1", "3"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_list_equals_the_frozen_scalar_loop(self, seed, sentences):
        n = 3 * corpus.SOURCE_BLOCK + 5  # reads past several blocks
        assert sample_references(sentences, n, seed) == \
            frozen_sample_references(sentences, n, seed)


class TestRawWordDraws:
    """`_Draws` returns what scalar `random()` and `integers(n)` calls on a
    twin `default_rng` return, interleaved at random, through block
    refills and Lemire rejections; after `settle()` the twin's next
    whole-word draws are the helper generator's."""

    BOUNDS = [1, 2, 3, 197, 2**31 + 1, 2**32]

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_draws_equal_a_twin_generator(self, seed, block):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = corpus._Draws(rng.bit_generator, block)
        pick = np.random.default_rng(100 + seed)
        for op in pick.integers(len(self.BOUNDS) + 1, size=2000).tolist():
            if op == len(self.BOUNDS):
                x = draws.random()
                assert type(x) is float and x == twin.random()
            else:
                n = self.BOUNDS[op]
                x = draws.integers(n)
                assert type(x) is int and x == int(twin.integers(n))

    def test_rejections_at_a_bound_past_two_to_the_31(self):
        """At 2**31 + 1 Lemire's loop rejects about half the halves, which
        no corpus draw comes near: 400 values then take about 800 halves,
        400 words, where 400 halves would take 200."""
        n = 2**31 + 1
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        draws = corpus._Draws(rng.bit_generator, 1)
        assert [draws.integers(n) for _ in range(400)] == \
            [int(twin.integers(n)) for _ in range(400)]
        fresh, words = np.random.default_rng(5).bit_generator, 0
        while fresh.state["state"] != rng.bit_generator.state["state"]:
            fresh.random_raw()
            words += 1
        assert words > 300

    @pytest.mark.parametrize("block", [1, 3, 32])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_settle_hands_numpy_the_next_word(self, seed, block):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = corpus._Draws(rng.bit_generator, block)
        pick = np.random.default_rng(200 + seed)
        for _round in range(50):
            for n in pick.integers(1, 300, size=int(pick.integers(0, 12))).tolist():
                if n % 4 == 0:
                    assert draws.random() == twin.random()
                else:
                    assert draws.integers(n) == int(twin.integers(n))
            draws.settle()
            assert rng.normal(3.0, 2.0) == twin.normal(3.0, 2.0)
            assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


class TestBatchedSeeding:
    """`_record_bits` decodes numpy's seeding outside numpy: each record's
    PCG64 state, and the raw words it then gives, must equal those of
    `default_rng` of the documented record seed. NEP 19 does not promise
    this seeding across numpy versions, so a change to it fails here and
    does not silently change corpora."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    def assert_twin(self, bits, record_seed_value):
        twin = np.random.default_rng(record_seed_value).bit_generator
        assert bits.state == twin.state
        assert bits.random_raw(16).tolist() == twin.random_raw(16).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345, 2**64 - 1])
    def test_batch_equals_default_rng_at_random_record_seeds(self, seed):
        ids = [f"utt-{i}#obs" for i in range(400)]
        for utt_id, bits in zip(ids, corpus._record_bits(seed, ids), strict=True):
            self.assert_twin(bits, record_seed(seed, utt_id))

    @pytest.mark.parametrize("edge", EDGE_SEEDS)
    def test_edge_record_seeds_equal_default_rng(self, edge):
        """A corpus seed xor the id's hash gives each edge record seed;
        below 2**32 the seed is one 32-bit word, not two."""
        seed = edge ^ record_seed(0, "edge")
        (bits,) = corpus._record_bits(seed, ["edge"])
        self.assert_twin(bits, edge)

    def test_reading_a_record_leaves_the_next_one_alone(self):
        """The one reused PCG64 is seeded anew for each record, whatever the
        record before read: no words, a few, a buffered 32-bit half, a
        step back."""
        ids = [f"r{i}" for i in range(8)]
        seen = []
        for i, bits in enumerate(corpus._record_bits(7, ids)):
            seen.append(bits)
            self.assert_twin(bits, record_seed(7, ids[i]))
            if i % 4 == 1:
                bits.random_raw(1000)
            elif i % 4 == 2:
                np.random.Generator(bits).integers(5)  # leaves a buffered half
            elif i % 4 == 3:
                bits.advance(-3)
        assert all(bits is seen[0] for bits in seen)

    def test_empty_batch_yields_nothing(self):
        assert list(corpus._record_bits(3, [])) == []


class TestSubstitutionDraw:
    """`corrupt` draws a substitution from the cached cumulative row of the
    kernel: the draw and the generator state after it must be those of
    `rng.choice(n_words, p=row)`, which every corpus file was made with."""

    KEYS = [(n_words, concentration)
            for n_words in (2, 9, 197) for concentration in (0.1, 1.0, 30.0)]

    @pytest.mark.parametrize("n_words, concentration", KEYS)
    def test_cumulative_row_draw_equals_choice_on_a_twin_generator(self, n_words,
                                                                   concentration):
        kernel = corpus._substitution_kernel(n_words, concentration)
        cdf = corpus._substitution_cdf(n_words, concentration)
        for seed in range(4):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for row in range(n_words):
                for _ in range(5):
                    drawn = int(cdf[row].searchsorted(rng.random(), side="right"))
                    assert drawn == int(twin.choice(n_words, p=kernel[row]))
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n_words, concentration", KEYS)
    def test_table_is_read_only_and_built_once_per_key(self, n_words, concentration):
        cdf = corpus._substitution_cdf(n_words, concentration)
        assert cdf.shape == (n_words, n_words)
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0, 0] = 0.0
        misses = corpus._substitution_cdf.cache_info().misses
        assert corpus._substitution_cdf(n_words, concentration) is cdf
        assert corpus._substitution_cdf.cache_info().misses == misses


class TestDecoderConfusion:
    @staticmethod
    def words(n):
        return Vocabulary.from_words(f"w{i}" for i in range(n))

    def test_vocabulary_at_the_cap_passes_the_size_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(corpus.np, "eye", reached)  # the first V x V allocation
        vocab = self.words(corpus.MAX_CHANNEL_VOCAB - 3)
        assert vocab.size == corpus.MAX_CHANNEL_VOCAB
        with pytest.raises(Reached):
            decoder_confusion(vocab, ChannelSpec())
        with pytest.raises(InvalidInputError, match=(
                f"{corpus.MAX_CHANNEL_VOCAB + 1} tokens is over the noisy channel's cap "
                f"of {corpus.MAX_CHANNEL_VOCAB}")):
            decoder_confusion(self.words(corpus.MAX_CHANNEL_VOCAB - 2), ChannelSpec())

    def test_rows_are_stochastic(self):
        vocab = builtin_vocabulary()
        matrix = decoder_confusion(vocab, ChannelSpec())
        assert matrix.shape == (vocab.size, vocab.size)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert matrix.min() >= 0.0

    def test_special_rows_are_identity(self):
        vocab = builtin_vocabulary()
        matrix = decoder_confusion(vocab, ChannelSpec())
        for i in range(3):
            assert matrix[i, i] == 1.0

    def test_observed_token_stays_most_likely(self):
        vocab = builtin_vocabulary()
        matrix = decoder_confusion(vocab, ChannelSpec())
        assert (matrix.argmax(axis=1) == np.arange(vocab.size)).all()

    @pytest.mark.parametrize("sub_rate, del_rate", [(0.9, 0.1), (0.7, 0.3), (1.0, 0.0)])
    def test_rates_summing_to_one_keep_nothing_and_stay_stochastic(self, sub_rate, del_rate):
        # in floats 1.0 - 0.9 - 0.1 is -2.8e-17: the kept mass must not go below 0
        matrix = decoder_confusion(builtin_vocabulary(), ChannelSpec(sub_rate, del_rate))
        assert matrix.min() >= 0.0
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("sub_rate, del_rate", [(0.0, 1.0), (5e-324, 1.0)])
    def test_channel_that_keeps_and_substitutes_nothing_is_refused(self, sub_rate, del_rate):
        with pytest.raises(InvalidParameterError, match="sub_rate .* and del_rate"):
            decoder_confusion(builtin_vocabulary(), ChannelSpec(sub_rate, del_rate))


class TestGenerateCorpus:
    def test_split_sizes_and_ids(self):
        splits, _vocab = generate_corpus(ChannelSpec(seed=3), 12, 5, 7)
        assert [len(splits[k]) for k in ("train", "val", "test")] == [12, 5, 7]
        assert splits["val"][0].id == "val-00000"
        ids = [r.id for records in splits.values() for r in records]
        assert len(set(ids)) == len(ids)

    def test_noiseless_channel_top_hypothesis_is_reference(self):
        spec = ChannelSpec(sub_rate=0.0, del_rate=0.0, ins_rate=0.0, seed=5)
        splits, _ = generate_corpus(spec, 2, 1, 8)
        for rec in splits["test"]:
            assert normalize_text(rec.nbest[0][0]) == normalize_text(rec.reference)
            assert oracle_nbest([normalize_text(t) for t, _ in rec.nbest],
                                normalize_text(rec.reference)) == 0.0

    def test_default_channel_oracle_below_one_best(self):
        splits, _ = generate_corpus(ChannelSpec(seed=7), 2, 1, 60)
        test = splits["test"]
        one_best = corpus_wer([(normalize_text(r.nbest[0][0]),
                                normalize_text(r.reference)) for r in test])
        onb = np.mean([oracle_nbest([normalize_text(t) for t, _ in r.nbest],
                                    normalize_text(r.reference)) for r in test])
        assert 0.0 < one_best
        assert onb < one_best

    def test_nbest_contract(self):
        splits, _ = generate_corpus(ChannelSpec(seed=9), 2, 1, 5, n_best=5)
        for rec in splits["test"]:
            assert len(rec.nbest) == 5
            scores = [s for _, s in rec.nbest]
            assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("channel", [
        ChannelSpec(seed=17), ChannelSpec(0.4, 0.1, 0.5, concentration=3.0, seed=2**64 - 1)])
    def test_batch_seeding_equals_corrupt_called_alone(self, channel):
        """Each observation, drawn from the batch-seeded bit generator, is
        what `corrupt` gives called alone with the record's id."""
        splits, vocab = generate_corpus(channel, 30, 5, 5)
        for record in (r for records in splits.values() for r in records):
            assert record.observation == " ".join(corrupt(
                record.reference.split(), channel, vocab, utt_id=record.id + "#obs"))

    def test_bitwise_reproducible(self):
        a, _ = generate_corpus(ChannelSpec(seed=13), 3, 1, 3)
        b, _ = generate_corpus(ChannelSpec(seed=13), 3, 1, 3)
        assert a == b

    def test_severity_monotonicity(self):
        wers = []
        for sub in (0.05, 0.15, 0.30):
            spec = ChannelSpec(sub_rate=sub, seed=21)
            splits, _ = generate_corpus(spec, 2, 1, 50)
            wers.append(corpus_wer([(normalize_text(r.nbest[0][0]),
                                     normalize_text(r.reference))
                                    for r in splits["test"]]))
        assert wers[0] <= wers[1] <= wers[2]

    @pytest.mark.parametrize("beam_width", [8, 1024])
    def test_calls_stay_inside_the_candidate_block(self, monkeypatch, beam_width):
        """A call searches as many utterances as SEARCH_CANDIDATES holds,
        and one at least, whose step alone may score more. The search is
        stubbed, so no candidate block is allocated."""
        from latefuse import decoding

        calls = []

        def stub(provider, ctxs, width, n_out, max_lens):
            calls.append(len(ctxs))
            return [[((3, 1), -1.0)] * n_out for _ in ctxs]

        monkeypatch.setattr(decoding, "beam_search", stub)
        total = 1200 if beam_width == 8 else 5
        splits, vocab = generate_corpus(ChannelSpec(), total - 2, 1, 1, beam_width=beam_width)
        per_utterance = beam_width * min(beam_width, vocab.size)
        chunk = max(1, corpus.SEARCH_CANDIDATES // per_utterance)
        assert calls == [chunk] * (total // chunk) + [total % chunk] * (total % chunk > 0)
        assert max(calls) * per_utterance <= max(corpus.SEARCH_CANDIDATES, per_utterance)
        assert (len(calls) > 2) if beam_width == 8 else (calls == [1] * 5)
        assert sum(len(records) for records in splits.values()) == total

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_corpus(ChannelSpec(), 0, 1, 1)
        with pytest.raises(InvalidParameterError):
            generate_corpus(ChannelSpec(), 1, 1, 1, n_best=3)

    def test_largest_split_passes_the_size_check(self, monkeypatch):
        from latefuse import corpus

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(corpus, "sample_references", reached)
        for sizes in ((corpus.MAX_SPLIT_SIZE, 1, 1), (1, 1, corpus.MAX_SPLIT_SIZE)):
            with pytest.raises(Reached):
                generate_corpus(ChannelSpec(), *sizes)


class TestSerialization:
    def _random_records(self, n):
        rng = np.random.default_rng(15)
        words = ["alpha", "beta", "gamma", "delta"]
        records = []
        for i in range(n):
            nbest = tuple((" ".join(rng.choice(words, size=3)), float(-j - rng.random()))
                          for j in range(5))
            records.append(CorpusRecord(
                id=f"r{i}",
                reference=" ".join(rng.choice(words, size=4)),
                observation=" ".join(rng.choice(words, size=4)),
                nbest=nbest,
            ))
        return records

    def test_roundtrip_identity(self, tmp_path):
        records = self._random_records(100)
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        assert load_corpus(path) == records

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "reference": "x", "observation": "x", "nbest": ["x"]}\nnot json\n')
        with pytest.raises(CorpusParseError) as err:
            load_corpus(path)
        assert err.value.line_no == 2

    def test_missing_field_names_it(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"id": "a", "nbest": [{"text": "x", "score": 0}]}) + "\n")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.field == "reference"

    @pytest.mark.parametrize("raw, field", [
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": "high"}]}, "score"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": [1]}]}, "score"),
        ({"id": "a", "reference": "x", "nbest": "xy"}, "nbest"),
        ({"id": "a", "reference": "x", "nbest": {"text": "x"}}, "nbest"),
        ({"id": "a", "reference": "x", "nbest": []}, "nbest"),
        ({"id": "a", "reference": "", "nbest": ["x"]}, "reference"),
        ({"id": "a", "reference": "  ", "nbest": ["x"]}, "reference"),
        ({"id": "a", "reference": None, "nbest": ["x"]}, "reference"),
        ({"id": "a", "reference": "x", "nbest": [{"text": 5}]}, "text"),
        ({"id": "a", "reference": "x", "nbest": ["x", 7]}, "text"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": True}]}, "score"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": "1.5"}]}, "score"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": math.nan}]}, "score"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "x", "score": 10 ** 400}]}, "score"),
        ({"id": "a", "reference": "x", "observation": -1, "nbest": ["x"]}, "observation"),
        ({"id": "a", "reference": "x", "observation": ["a", "b"], "nbest": ["x"]},
         "observation"),
        ({"id": "a", "reference": "x", "observation": None, "nbest": ["x"]}, "observation"),
    ])
    def test_malformed_record_is_schema_error(self, tmp_path, raw, field):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.field == field
        assert f"{path}:1:" in str(err.value)

    @pytest.mark.parametrize("raw, field, named", [
        ({"id": "a", "reference": "x </s> y", "nbest": ["x"]}, "reference", ""),
        ({"id": "a", "reference": "x", "observation": "<s> x", "nbest": ["x"]},
         "observation", ""),
        ({"id": "a", "reference": "x", "observation": "x </s>", "nbest": ["x"]},
         "observation", ""),
        ({"id": "a", "reference": "x", "nbest": ["x", "x </s> <s>"]}, "text", " hypothesis 1:"),
        ({"id": "a", "reference": "x", "nbest": [{"text": "</s>", "score": 0}]},
         "text", " hypothesis 0:"),
    ], ids=["reference", "observation-bos", "observation-eos", "string-hypothesis",
            "hypothesis-text"])
    def test_reserved_token_in_text_is_schema_error(self, tmp_path, raw, field, named):
        """`encode` would read <s> and </s> as the BOS and EOS ids."""
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "z", "reference": "x", "nbest": ["x"]}) + "\n"
                        + json.dumps(raw) + "\n")
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.field == field
        message = str(err.value)
        assert message.startswith(f"{path}:2:{named} reserved token ")
        assert message.endswith(f" in {field!r}")

    def test_unknown_word_token_is_text(self, tmp_path):
        raw = {"id": "a", "reference": "x <unk>", "observation": "<unk> x",
               "nbest": ["<unk>", {"text": "x <unk>"}]}
        path = tmp_path / "unk.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        rec, = load_corpus(path)
        assert (rec.reference, rec.observation) == ("x <unk>", "<unk> x")
        assert [text for text, _ in rec.nbest] == ["<unk>", "x <unk>"]

    def test_non_object_line_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["a", "x", ["x"]]\n')
        with pytest.raises(CorpusParseError) as err:
            load_corpus(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("ids, bad_line", [
        ([None], 1),
        (["a", "b", "a"], 3),
        ([1, "1"], 2),
        ([7, 7], 2),
        (["a", True], 2),
        (["a", 1.5], 2),
        ([["a"]], 1),
    ], ids=["null", "repeated", "int-then-string", "repeated-int", "bool", "float", "list"])
    def test_bad_or_repeated_id_is_schema_error(self, tmp_path, ids, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(
            json.dumps({"id": utt_id, "reference": "x", "nbest": ["x"]}) + "\n"
            for utt_id in ids))
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert err.value.field == "id"
        assert f"{path}:{bad_line}:" in str(err.value)

    def test_integer_ids_are_read_as_strings(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text("".join(
            json.dumps({"id": utt_id, "reference": "x", "nbest": ["x"]}) + "\n"
            for utt_id in (0, 12, "u")))
        assert [rec.id for rec in load_corpus(path)] == ["0", "12", "u"]

    def test_external_format_is_read_after_renaming_its_keys(self, tmp_path):
        raw = {
            "utt": "ext-1",
            "output": "the true words",
            "input1": [{"hyp": "the true words", "am_score": -1.5},
                       {"hyp": "a true word", "am_score": -2.0},
                       {"hyp": "the true word", "am_score": -2.5},
                       {"hyp": "the blue words", "am_score": -3.0},
                       {"hyp": "the true wards", "am_score": -3.5}],
        }
        renamed = {"id": raw["utt"], "reference": raw["output"],
                   "nbest": [{"text": h["hyp"], "score": h["am_score"]} for h in raw["input1"]]}
        path = tmp_path / "renamed.jsonl"
        path.write_text(json.dumps(renamed) + "\n")
        records = load_corpus(path)
        assert len(records) == 1
        assert len(records[0].nbest) == 5
        assert records[0].nbest[0] == ("the true words", -1.5)
        # observation falls back to the first hypothesis
        assert records[0].observation == "the true words"

    def test_rank_fallback_scores(self, tmp_path):
        raw = {"id": "a", "reference": "x y", "observation": "x y",
               "nbest": ["x y", "x z", "z y"]}
        path = tmp_path / "ranked.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        rec, = load_corpus(path)
        assert rec.nbest == (("x y", 0.0), ("x z", -1.0), ("z y", -2.0))


class TestRecordContext:
    def test_shapes_and_alignment(self):
        splits, vocab = generate_corpus(ChannelSpec(seed=17), 2, 1, 2)
        rec = splits["test"][0]
        ctx, ref_words = record_context(rec, vocab)
        assert ctx.utt_id == rec.id
        assert ref_words == rec.reference.split()
        assert ctx.observation[0] == vocab.BOS
        assert ctx.observation[-1] == vocab.EOS
        assert len(ctx.nbest) == len(rec.nbest)
        for hyp_ids, (text, _score) in zip(ctx.nbest, rec.nbest):
            assert hyp_ids[-1] == vocab.EOS
            assert vocab.decode(hyp_ids) == text

    @pytest.mark.parametrize("observation", [
        "a b c", "a zzz b", "zzz", "  a\tb\n\nc  ", "a  b\t\tc\r\n", "", " \t\n "],
        ids=["plain", "unknown-inside", "unknown-only", "tabs-newlines", "repeated-spaces",
             "empty", "whitespace-only"])
    def test_equals_the_first_definition(self, frozen_record_context, observation):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c"))
        rec = CorpusRecord(id="u7", reference="a b  c", observation=observation,
                           nbest=(("a  zzz\tc", -1.0), ("", -2.5), ("b\n", -3.0)))
        got = record_context(rec, vocab)
        assert got == frozen_record_context(rec, vocab)
        assert all(type(ids) is tuple for ids in (got[0].observation, *got[0].nbest))

    def test_generated_corpus_equals_the_first_definition(self, frozen_record_context):
        splits, vocab = generate_corpus(ChannelSpec(seed=17), 6, 3, 6)
        for records in splits.values():
            for rec in records:
                assert record_context(rec, vocab) == frozen_record_context(rec, vocab)


def _plain_line(utt_id, n_hyps=5):
    """A record as `save_corpus` writes it, with n_hyps scored hypotheses."""
    return {"id": utt_id, "reference": "x y z", "observation": "x z",
            "nbest": [{"text": f"x y{' z' * rank}", "score": -0.25 - rank}
                      for rank in range(n_hyps)]}


# The hypotheses of `_plain_line(utt_id)` as `load_corpus` reads them.
_PLAIN_NBEST = tuple((f"x y{' z' * rank}", -0.25 - rank) for rank in range(5))


class TestPlainAndCheckedRecords:
    """`load_corpus` reads a field of the plain form `save_corpus` writes
    with a plain type test, and hands any other field to its check: a bad
    field is named with its file, line and hypothesis rank wherever it
    sits, and the other forms the checks take are still read."""

    def write(self, tmp_path, last):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(raw) + "\n"
                                for raw in [_plain_line("a"), _plain_line("b"), last]))
        return path

    @pytest.mark.parametrize("hyp, message", [
        ({"text": 5, "score": -1.0}, "'text' must be a string, got 5"),
        ({"text": None, "score": -1.0}, "'text' must be a string, got None"),
        ({"score": -1.0}, "'text' is a required field and is missing"),
        (7, "'text' is a required field and is missing"),
        (["x"], "'text' is a required field and is missing"),
        ({"text": "x </s>", "score": -1.0}, "reserved token '</s>' in 'text'"),
        ({"text": "<s> x", "score": -1.0}, "reserved token '<s>' in 'text'"),
        ({"text": "x", "score": math.nan},
         "'score' must be an integer or a finite number, got nan"),
        ({"text": "x", "score": math.inf},
         "'score' must be an integer or a finite number, got inf"),
        ({"text": "x", "score": -math.inf},
         "'score' must be an integer or a finite number, got -inf"),
        ({"text": "x", "score": True},
         "'score' must be an integer or a finite number, got True"),
        ({"text": "x", "score": False},
         "'score' must be an integer or a finite number, got False"),
        ({"text": "x", "score": "-1.5"},
         "'score' must be an integer or a finite number, got '-1.5'"),
        ({"text": "x", "score": 10 ** 400},
         "'score' must be an integer or a finite number, got " + "1" + "0" * 199),
    ], ids=["int-text", "null-text", "no-text", "int-hypothesis", "list-hypothesis",
            "eos-text", "bos-text", "nan-score", "inf-score", "minus-inf-score",
            "true-score", "false-score", "string-score", "huge-int-score"])
    def test_bad_field_in_the_last_hypothesis_of_the_last_record(self, tmp_path, hyp,
                                                                 message):
        last = _plain_line("c")
        last["nbest"][4] = hyp
        path = self.write(tmp_path, last)
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:3: hypothesis 4: {message}"

    @pytest.mark.parametrize("key, value, message", [
        ("id", True, "'id' must be a string or an integer, got True"),
        ("id", 1.5, "'id' must be a string or an integer, got 1.5"),
        ("reference", " \t", "'reference' must be a non-empty string, got ' \\t'"),
        ("reference", "x </s>", "reserved token '</s>' in 'reference'"),
        ("nbest", [], "'nbest' must be a non-empty list, got []"),
        ("observation", None, "'observation' must be a string, got None"),
        ("observation", "x <s>", "reserved token '<s>' in 'observation'"),
    ])
    def test_bad_field_of_the_last_record(self, tmp_path, key, value, message):
        last = _plain_line("c")
        last[key] = value
        path = self.write(tmp_path, last)
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert (err.value.field, str(err.value)) == (key, f"{path}:3: {message}")

    def test_other_forms_are_still_read(self, tmp_path):
        """Integer scores and ids, plain-string hypotheses, hypotheses
        without a score or with a null one, no observation, and a word that
        only ends in "s>"."""
        last = {"id": 7, "reference": "bus> x", "nbest": [
            {"text": "x bus>", "score": -3}, "y", {"text": "z"},
            {"text": "x", "score": None}, {"text": "x y", "score": 0}]}
        path = self.write(tmp_path, last)
        *_, rec = load_corpus(path)
        assert rec == CorpusRecord(id="7", reference="bus> x", observation="x bus>", nbest=(
            ("x bus>", -3.0), ("y", -1.0), ("z", -2.0), ("x", -3.0), ("x y", 0.0)))
        assert all(type(score) is float for _text, score in rec.nbest)

    def test_generated_corpus_round_trips_with_and_without_observation(self, tmp_path):
        splits, _vocab = generate_corpus(ChannelSpec(seed=23), 8, 3, 8)
        records = [rec for split in splits.values() for rec in split]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        assert load_corpus(path) == records
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for raw in lines:
            del raw["observation"]
        path.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
        assert load_corpus(path) == [
            CorpusRecord(id=rec.id, reference=rec.reference, observation=rec.nbest[0][0],
                         nbest=rec.nbest) for rec in records]

    @pytest.mark.parametrize("edit, expected", [
        (lambda raw: raw.update(id=3), CorpusRecord(
            id="3", reference="x y z", observation="x z", nbest=_PLAIN_NBEST)),
        (lambda raw: raw["nbest"].__setitem__(2, "x y"), CorpusRecord(
            id="c", reference="x y z", observation="x z",
            nbest=_PLAIN_NBEST[:2] + (("x y", -2.0),) + _PLAIN_NBEST[3:])),
        (lambda raw: raw["nbest"][4].update(score=-4), CorpusRecord(
            id="c", reference="x y z", observation="x z",
            nbest=_PLAIN_NBEST[:4] + (("x y z z z z", -4.0),))),
        (lambda raw: raw["nbest"][4].pop("score"), CorpusRecord(
            id="c", reference="x y z", observation="x z",
            nbest=_PLAIN_NBEST[:4] + (("x y z z z z", -4.0),))),
        (lambda raw: raw.update(reference="bus> x"), CorpusRecord(
            id="c", reference="bus> x", observation="x z", nbest=_PLAIN_NBEST)),
    ], ids=["int-id", "string-hypothesis", "int-score", "no-score",
            "word-ending-in-s>"])
    def test_forms_the_plain_tests_leave_to_the_checks(self, tmp_path, edit, expected):
        raw = _plain_line("c")
        edit(raw)
        path = self.write(tmp_path, raw)
        assert load_corpus(path)[-1] == expected

    @pytest.mark.parametrize("first, second", [
        (lambda raw: raw.update(id=True), lambda raw: raw.update(reference=" ")),
        (lambda raw: raw.update(reference="x </s>"),
         lambda raw: raw["nbest"].__setitem__(2, {"text": 5, "score": -1.0})),
        (lambda raw: raw["nbest"].__setitem__(1, {"text": "x <s>", "score": -1.0}),
         lambda raw: raw["nbest"].__setitem__(3, {"text": "x", "score": math.nan})),
        (lambda raw: raw["nbest"].__setitem__(4, {"score": -1.0}),
         lambda raw: raw.update(observation=None)),
    ], ids=["id-reference", "reference-hypothesis-2", "hypotheses-1-3",
            "hypothesis-4-observation"])
    def test_first_bad_field_of_a_record_is_named(self, tmp_path, first, second):
        """Fields are checked in the order id, reference, nbest, hypotheses
        by rank, observation: a record with two bad fields fails as it does
        with the first alone."""
        messages = []
        for edits in ((first,), (second,), (first, second)):
            raw = _plain_line("c")
            for edit in edits:
                edit(raw)
            with pytest.raises(CorpusSchemaError) as err:
                load_corpus(self.write(tmp_path, raw))
            messages.append(str(err.value))
        alone, other, both = messages
        assert both == alone != other

    def test_missing_observation_reads_a_1_best_ending_in_s(self, tmp_path):
        last = _plain_line("c")
        del last["observation"]
        last["nbest"][0]["text"] = "x bus>"
        *_, rec = load_corpus(self.write(tmp_path, last))
        assert rec.observation == rec.nbest[0][0] == "x bus>"
        last["observation"] = None
        path = self.write(tmp_path, last)
        with pytest.raises(CorpusSchemaError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:3: 'observation' must be a string, got None"
