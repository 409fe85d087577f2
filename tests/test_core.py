import math
import re

import numpy as np
import pytest

from latefuse.core import (
    Vocabulary,
    argmax_token,
    as_logits,
    as_prob_dist,
    entropy,
    json_field,
    loads,
    sigmoid,
    softmax_with_temperature,
)
from latefuse.errors import CorpusSchemaError, InvalidInputError, InvalidParameterError


class TestSoftmaxWithTemperature:
    def test_symmetric_logits_give_uniform(self):
        np.testing.assert_allclose(
            softmax_with_temperature([0.0, 0.0], 1.0), [0.5, 0.5], atol=1e-15)

    def test_ln2_closed_form(self):
        # softmax([ln 2, 0]) = [2, 1] / 3
        np.testing.assert_allclose(
            softmax_with_temperature([math.log(2.0), 0.0], 1.0),
            [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_huge_tau_flattens(self):
        out = softmax_with_temperature([10.0, 0.0], 1e6)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-5)
        assert out[0] > out[1]  # argmax still intact

    def test_small_tau_sharpens(self):
        out = softmax_with_temperature([1.0, 0.0], 0.01)
        assert out[0] > 1.0 - 1e-12

    def test_overflow_safety_magnitude_1e4(self):
        out = softmax_with_temperature([1e4, -1e4, 0.0], 1.0)
        assert np.all(np.isfinite(out))
        as_prob_dist(out)  # valid distribution
        assert argmax_token(out) == 0

    @pytest.mark.parametrize("tau", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(InvalidParameterError):
            softmax_with_temperature([0.0, 1.0], tau)

    @pytest.mark.parametrize("logits, tau", [([-1.0, -2.0], 1e-320), ([1e308, 0.0], 0.5),
                                             ([0.0, -30.0], 1e-308)])
    def test_tau_that_overflows_a_logit_rejected(self, logits, tau):
        with pytest.raises(InvalidParameterError, match="too small"):
            softmax_with_temperature(logits, tau)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_with_temperature([0.0, float("inf")], 1.0)

    def test_argmax_invariance_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            x = rng.normal(scale=5.0, size=int(rng.integers(2, 30)))
            ref = int(np.argmax(x))
            for tau in (0.01, 0.1, 1.0, 10.0, 100.0):
                assert argmax_token(softmax_with_temperature(x, tau)) == ref


class TestEntropy:
    def test_dirac_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_ln_v(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_way_split(self):
        assert entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bounds_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v = int(rng.integers(2, 50))
            p = rng.dirichlet(np.ones(v))
            h = entropy(p / p.sum())
            assert 0.0 <= h <= math.log(v) + 1e-12


NAN, INF = float("nan"), float("inf")


class TestValidationTable:
    """Which inputs each checked entry point rejects, and with which type."""

    @pytest.mark.parametrize("values, ok", [
        ([0.0, 1.5, -3.0], True),
        ([0.0, NAN], False),
        ([0.0, INF], False),
        ([0.0, -INF], False),
        ([INF, -INF], False),
        ([], False),
        ([[0.0, 1.0]], False),
        (np.zeros((2, 2)), False),
        (5.0, False),
    ])
    @pytest.mark.parametrize("check", [as_logits,
                                       lambda v: softmax_with_temperature(v, 1.0)],
                             ids=["as_logits", "softmax"])
    def test_logits(self, check, values, ok):
        if ok:
            check(values)
        else:
            with pytest.raises(InvalidInputError):
                check(values)

    @pytest.mark.parametrize("values, ok", [
        ([0.25, 0.75], True),
        ([1.0, 0.0, -0.0], True),
        ([0.5, 0.5 + 9e-10], True),
        ([0.5, 0.5 + 2e-9], False),
        ([0.5, 0.5 - 2e-9], False),
        ([0.5, NAN], False),
        ([NAN, 1.0], False),
        ([1.0, INF], False),
        ([1.0, -INF], False),
        ([INF, -INF], False),
        ([1.5, -0.5], False),
        ([-1e-300, 1.0], False),
        ([], False),
        ([[0.5, 0.5]], False),
        (np.full((2, 2), 0.25), False),
        (1.0, False),
    ])
    @pytest.mark.parametrize("check", [as_prob_dist], ids=["as_prob_dist"])
    def test_distributions(self, check, values, ok):
        if ok:
            check(values)
        else:
            with pytest.raises(InvalidInputError):
                check(values)

    def test_logits_length_check(self):
        assert as_logits([0.0, 1.0], size=2).shape == (2,)
        with pytest.raises(InvalidInputError):
            as_logits([0.0, 1.0], size=3)


class TestArgmaxToken:
    def test_plain(self):
        assert argmax_token([0.1, 0.8, 0.1]) == 1

    def test_tie_breaks_low(self):
        assert argmax_token([0.5, 0.5]) == 0
        assert argmax_token([0.2, 0.4, 0.4]) == 1


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for x in (-30.0, -2.5, 0.7, 12.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_inputs_finite(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0


class TestVocabulary:
    def test_bijection(self, abc_vocab):
        for i, tok in enumerate(abc_vocab.tokens):
            assert abc_vocab.id_of(tok) == i
            assert abc_vocab.token_of(i) == tok

    def test_reserved_ids(self, abc_vocab):
        assert (abc_vocab.BOS, abc_vocab.EOS, abc_vocab.UNK) == (0, 1, 2)

    def test_unknown_word_maps_to_unk(self, abc_vocab):
        assert abc_vocab.id_of("zzz") == abc_vocab.UNK

    def test_encode_decode_roundtrip(self, abc_vocab):
        ids = abc_vocab.encode("a c b", append_eos=True)
        assert ids == (3, 5, 4, 1)
        assert abc_vocab.decode(ids) == "a c b"

    def test_minimum_size(self):
        with pytest.raises(InvalidInputError):
            Vocabulary(tokens=("<s>", "</s>"))

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "a"))

    def test_file_roundtrip(self, abc_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        abc_vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["<s>", "</s>", "<unk>"]  # first three lines are specials
        loaded = Vocabulary.load(path)
        assert loaded == abc_vocab
        assert loaded.content_hash() == abc_vocab.content_hash()

    @pytest.mark.parametrize("lines, named", [
        (["<s>", "</s>", "<unk>", "a", "", "a"], ":6: token 'a' repeats line 4"),
        (["<s>", "</s>", "<unk>", "two words"], ":4: token 'two words' holds whitespace"),
        (["<s>", "</s>", "<unk>", " a"], ":4: token ' a' holds whitespace"),
        (["<s>", "</s>"], ": vocabulary needs at least BOS, EOS and UNK"),
    ], ids=["repeated", "inner-space", "leading-space", "two-lines"])
    def test_load_names_the_file_and_line(self, tmp_path, lines, named):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path) + named)}"):
            Vocabulary.load(path)

    def test_from_words_dedupes_preserving_order(self):
        v = Vocabulary.from_words(["b", "a", "b", "c"])
        assert v.tokens[3:] == ("b", "a", "c")


class TestJsonInput:
    @pytest.mark.parametrize("text", [
        "{", "[1, 2", "9" * 5000, "[" * 100000 + "]" * 100000,
    ], ids=["truncated", "unclosed", "5000-digits", "deep"])
    def test_every_parse_failure_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            loads(text)

    @pytest.mark.parametrize("value, types, ok", [
        ("x", (str,), True), (3, (int,), True), (3, (int, float), True),
        (1.5, (int, float), True), (2 ** 70, (int,), True), ([], (list,), True),
        (True, (int,), False), (False, (int, float), False), (1.5, (int,), False),
        ("1.5", (int, float), False), (math.nan, (int, float), False),
        (math.inf, (int, float), False), (10 ** 400, (int,), False),
        (None, (str,), False), ([], (str,), False),
    ])
    def test_type_finiteness_and_float_range(self, value, types, ok):
        if ok:
            assert json_field({"k": value}, "k", types) is value
        else:
            with pytest.raises(CorpusSchemaError, match="^f.json: 'k' must be") as err:
                json_field({"k": value}, "k", types, where="f.json")
            assert err.value.field == "k"

    @pytest.mark.parametrize("data", [{}, [], None, "k"])
    def test_missing_field_or_non_object_names_the_field(self, data):
        with pytest.raises(CorpusSchemaError, match="'k' is a required field") as err:
            json_field(data, "k", (int,))
        assert err.value.field == "k"

    def test_rule_states_what_ok_requires(self):
        assert json_field({"tau": 2}, "tau", (int, float), lambda t: t > 0, "positive") == 2
        with pytest.raises(CorpusSchemaError, match="'tau' must be positive, got 0"):
            json_field({"tau": 0}, "tau", (int, float), lambda t: t > 0, "positive")
