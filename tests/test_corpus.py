import json
import math

import numpy as np
import pytest

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


class TestDecoderConfusion:
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

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_corpus(ChannelSpec(), 0, 1, 1)
        with pytest.raises(InvalidParameterError):
            generate_corpus(ChannelSpec(), 1, 1, 1, n_best=3)


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

    def test_field_map_ingests_external_format(self, tmp_path):
        raw = {
            "utt": "ext-1",
            "output": "the true words",
            "input1": [{"hyp": "the true words", "am_score": -1.5},
                       {"hyp": "a true word", "am_score": -2.0},
                       {"hyp": "the true word", "am_score": -2.5},
                       {"hyp": "the blue words", "am_score": -3.0},
                       {"hyp": "the true wards", "am_score": -3.5}],
        }
        path = tmp_path / "external.jsonl"
        path.write_text(json.dumps(raw) + "\n")
        records = load_corpus(path, field_map={
            "id": "utt", "reference": "output", "nbest": "input1",
            "nbest_text": "hyp", "nbest_score": "am_score",
        })
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
