import collections
import itertools
import random

import numpy as np
import pytest

from latefuse import metrics
from latefuse.errors import InvalidInputError, InvalidParameterError
from latefuse.metrics import (
    corpus_report,
    corpus_wer,
    distance_to,
    normalize_text,
    oracle_compositional,
    oracle_nbest,
    total_report,
    wer,
    werr,
)


class TestWer:
    def test_identical_sequences(self):
        report = wer("a b c".split(), "a b c".split())
        assert report.wer == 0.0
        assert report.hits == 3

    def test_single_substitution_by_hand(self):
        report = wer("a x c".split(), "a b c".split())
        assert report.wer == pytest.approx(1.0 / 3.0)
        assert (report.substitutions, report.insertions, report.deletions,
                report.hits) == (1, 0, 0, 2)

    def test_empty_hypothesis_is_all_deletions(self):
        report = wer([], "a b".split())
        assert report.wer == 1.0
        assert report.deletions == 2

    def test_insertion_only(self):
        report = wer("a b c".split(), "a c".split())
        assert (report.substitutions, report.insertions, report.deletions) == (0, 1, 0)
        assert report.wer == pytest.approx(0.5)

    def test_total_edits_equal_levenshtein(self):
        rng = np.random.default_rng(17)
        alphabet = list("abcde")
        for _ in range(300):
            ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            hyp = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
            report = wer(hyp, ref)
            assert report.substitutions + report.insertions + report.deletions == \
                _levenshtein(hyp, ref)
            assert report.hits + report.substitutions + report.deletions == len(ref)
            assert report.hits + report.substitutions + report.insertions == len(hyp)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            wer("a".split(), [])

    def test_wer_can_exceed_one(self):
        assert wer("x y z w".split(), ["a"]).wer == 4.0


def _levenshtein(a, b):
    prev = list(range(len(a) + 1))
    for j, bj in enumerate(b, start=1):
        cur = [j]
        for i, ai in enumerate(a, start=1):
            cur.append(min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ai != bj)))
        prev = cur
    return prev[len(a)]


def _min_dp_counts(hyp, ref):
    """S/I/D/H from the three-way min() DP and backtrace `wer` used to run."""
    rows, cols = len(ref) + 1, len(hyp) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        row, prev = dist[i], dist[i - 1]
        for j in range(1, cols):
            diag = prev[j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            row[j] = min(diag, prev[j] + 1, row[j - 1] + 1)
    subs = ins = dels = hits = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            hits += 1
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, ins, dels, hits


class TestWerMatchesMinDp:
    def test_same_counts_as_three_way_min_dp(self):
        rng = np.random.default_rng(23)
        alphabet = list("abcd")
        pairs = [([], ["a"]), ([], list("abc"))]
        for _ in range(600):
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 12))]
            hyp = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 12))]
            pairs.append((hyp, ref))
        for hyp, ref in pairs:
            report = wer(hyp, ref)
            assert (report.substitutions, report.insertions, report.deletions,
                    report.hits) == _min_dp_counts(hyp, ref), (hyp, ref)


class TestWerr:
    def test_percentage_point_examples(self):
        assert werr(1.61, 1.24) * 100 == pytest.approx(23.0, abs=0.05)
        assert werr(2.83, 2.47) * 100 == pytest.approx(12.7, abs=0.05)

    def test_equal_wers_give_zero(self):
        assert werr(0.1, 0.1) == 0.0

    def test_degradation_is_negative(self):
        assert werr(0.10, 0.12) == pytest.approx(-0.2)

    def test_zero_baseline_rejected(self):
        with pytest.raises(InvalidParameterError):
            werr(0.0, 0.1)


class TestOracleNbest:
    def test_reference_in_list_gives_zero(self):
        assert oracle_nbest([["a", "x"], ["a", "b"]], ["a", "b"]) == 0.0

    def test_min_of_two_hand_wers(self):
        nbest = ["a x c".split(), "a b d".split()]
        assert oracle_nbest(nbest, "a b c".split()) == pytest.approx(1.0 / 3.0)

    def test_never_above_first_hypothesis(self):
        rng = np.random.default_rng(29)
        alphabet = list("abcd")
        for _ in range(200):
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
            nbest = [[alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
                     for _ in range(5)]
            assert oracle_nbest(nbest, ref) <= wer(nbest[0], ref).wer

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            oracle_nbest([], ["a"])


class TestOracleCompositional:
    def test_union_recovers_reference(self):
        # "a x c" and "a b y": slots {a} {x,b} {c,y} cover "a b c"
        nbest = ["a x c".split(), "a b y".split()]
        assert oracle_compositional(nbest, "a b c".split()) == 0.0

    def test_single_hypothesis_degenerates_to_wer(self):
        rng = np.random.default_rng(31)
        alphabet = list("abcd")
        for _ in range(100):
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
            hyp = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            assert oracle_compositional([hyp], ref) == pytest.approx(wer(hyp, ref).wer)

    def test_never_above_nbest_oracle_randomized(self):
        rng = np.random.default_rng(37)
        alphabet = list("abcdef")
        for _ in range(1000):
            ref = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
            nbest = [[alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 9))]
                     for _ in range(int(rng.integers(1, 6)))]
            o_cp = oracle_compositional(nbest, ref)
            o_nb = oracle_nbest(nbest, ref)
            assert o_cp <= o_nb + 1e-12

    def test_insertions_can_be_skipped_via_epsilon(self):
        # second hypothesis adds a word; epsilon lets the path drop it
        nbest = ["a b".split(), "a z b".split()]
        assert oracle_compositional(nbest, "a b".split()) == 0.0


def _network(nbest):
    """The confusion network `oracle_compositional` searches: each
    hypothesis merged into the first by `_merge_hypothesis`."""
    slots = [metrics._Slot(w) for w in nbest[0]]
    for hyp in nbest[1:]:
        slots = metrics._merge_hypothesis(slots, hyp)
    return slots


def _brute_force_oracle(slots, ref):
    """The fewest edits over every path through `slots` (one of each slot's
    words, or nothing where the slot has epsilon), over len(ref)."""
    choices = [sorted(slot.words) + ([None] if slot.has_epsilon else []) for slot in slots]
    return min(_levenshtein([w for w in path if w is not None], ref)
               for path in itertools.product(*choices)) / len(ref)


class TestOracleCompositionalEpsilonPath:
    """Lists of unequal lengths give slots with epsilon, which simulated
    N-best lists (all of one length per record) never do."""

    def test_equals_brute_force_over_every_path(self):
        rng = np.random.default_rng(41)
        alphabet = list("abcd")
        with_epsilon = below_nbest = 0
        for _ in range(400):
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            nbest = [[alphabet[i] for i in rng.integers(0, 4, size=length)]
                     for length in rng.permutation(5)[:int(rng.integers(2, 4))]]
            slots = _network(nbest)
            with_epsilon += any(slot.has_epsilon for slot in slots)
            o_cp = oracle_compositional(nbest, ref)
            assert o_cp == _brute_force_oracle(slots, ref), (nbest, ref)
            below_nbest += o_cp < oracle_nbest(nbest, ref)
        assert with_epsilon == 400  # every list holds hypotheses of distinct lengths
        assert below_nbest > 0

    def test_skipped_slot_lets_the_path_drop_an_insertion(self):
        # "a q b c" inserts q and "a b y" substitutes y: each is one edit from
        # "a b c", but "a b y" skips q's slot, so the path a ε b c costs none
        nbest = ["a q b c".split(), "a b y".split()]
        slots = _network(nbest)
        assert [(slot.words, slot.has_epsilon) for slot in slots] == [
            ({"a"}, False), ({"q"}, True), ({"b"}, False), ({"c", "y"}, False)]
        ref = "a b c".split()
        assert oracle_nbest(nbest, ref) == pytest.approx(1 / 3)
        assert oracle_compositional(nbest, ref) == 0.0


class TestCorpusAggregation:
    def test_corpus_report_pools_counts(self):
        pairs = [("a b".split(), "a b".split()), ("x".split(), "a b".split())]
        report = corpus_report(pairs)
        assert report.n_ref_words == 4
        assert report.hits == 2
        assert report.wer == pytest.approx(2.0 / 4.0)
        assert corpus_wer(pairs) == report.wer

    def test_normalize_text(self):
        assert normalize_text("Show  THE Flight") == ["show", "the", "flight"]
        assert normalize_text("Keep Case", lowercase=False) == ["Keep", "Case"]


class TestDistanceKernel:
    """`distance_to` is S + I + D of `wer`, with no alignment."""

    @staticmethod
    def edits(hyp, ref):
        report = wer(hyp, ref)
        return report.substitutions + report.insertions + report.deletions

    def test_every_short_pair_over_three_words(self):
        words = ("a", "b", "c")
        hyps = [h for n in range(5) for h in itertools.product(words, repeat=n)]
        refs = [r for n in range(1, 5) for r in itertools.product(words, repeat=n)]
        for ref in refs:
            distance = distance_to(ref)
            for hyp in hyps:
                assert distance(hyp) == self.edits(hyp, ref), (hyp, ref)

    def test_seeded_pairs_longer_than_64_words(self):
        rng = np.random.default_rng(43)
        alphabet = [f"w{i}" for i in range(6)]
        for _ in range(60):
            ref = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(65, 200))]
            hyp = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 200))]
            assert distance_to(ref)(hyp) == self.edits(hyp, ref)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            distance_to([])


class TestStringsAreRefused:
    """A `str` where a word sequence belongs would be read as characters:
    `wer("a b", "a c")` would count 3 reference words, and
    `oracle_nbest(["a b"], ["a", "b"])` would read 0.5."""

    @pytest.mark.parametrize("score, args, name", [
        (wer, ("a b", ["a", "c"]), "hypothesis"),
        (wer, (["a", "c"], "a b"), "reference"),
        (distance_to, ("a b",), "reference"),
        (lambda hyp, ref: distance_to(ref)(hyp), ("a b", ["a", "b"]), "hypothesis"),
        (oracle_nbest, ("ab", ["a", "b"]), "nbest"),
        (oracle_nbest, (["a b"], ["a", "b"]), "hypothesis"),
        (oracle_nbest, ([["a"]], "a b"), "reference"),
        (oracle_compositional, ("ab", ["a", "b"]), "nbest"),
        (oracle_compositional, ([["a"], "a b"], ["a", "b"]), "hypothesis"),
        (oracle_compositional, ([["a"]], "a b"), "reference"),
    ], ids=["wer-hypothesis", "wer-reference", "distance_to-reference",
            "distance-hypothesis", "oracle_nbest-list", "oracle_nbest-entry",
            "oracle_nbest-reference", "oracle_compositional-list",
            "oracle_compositional-entry", "oracle_compositional-reference"])
    def test_a_string_for_a_word_sequence_is_refused(self, score, args, name):
        with pytest.raises(InvalidInputError,
                           match=f"^{name} must be a sequence of words, not a string$"):
            score(*args)


class TestCorpusReportSharesAlignments:
    def test_each_distinct_pair_aligned_once(self, monkeypatch):
        pairs = [("a b".split(), "a b".split()), ("x".split(), "a b".split()),
                 ("a b".split(), "a b".split())]
        calls, original = [0], metrics.wer

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(metrics, "wer", counted)
        alone = corpus_report(pairs)
        assert calls[0] == 2
        aligned = {}
        first = corpus_report(pairs, aligned)
        again = corpus_report(pairs[:2], aligned)
        assert calls[0] == 4
        assert first == alone == total_report(original(*pair) for pair in pairs)
        assert again == total_report(original(*pair) for pair in pairs[:2])


def _table_alignment(rows, cols):
    """`metrics._alignment` as a walk back through a full Python edit table,
    the way it ran before its cells came from bit vectors."""
    dist = [list(range(len(cols) + 1))]
    for words in rows:
        prev = dist[-1]
        left = prev[0] + 1
        row = [left]
        for word, diag, up in zip(cols, prev, prev[1:]):
            best = diag if word in words else diag + 1
            if up + 1 < best:
                best = up + 1
            if left < best:
                best = left + 1
            row.append(best)
            left = best
        dist.append(row)
    i, j = len(rows), len(cols)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (cols[j - 1] not in rows[i - 1]):
            i, j = i - 1, j - 1
            yield i, j
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            i -= 1
            yield i, None
        else:
            j -= 1
            yield None, j


class TestAlignmentMatchesTableWalk:
    """`_alignment` reads its cells off Myers' column vectors; its walk,
    tie order included, must be the table walk's."""

    @staticmethod
    def check(rows, cols):
        assert list(metrics._alignment(rows, cols)) == list(_table_alignment(rows, cols)), \
            (rows, cols)

    def test_seeded_tie_heavy_pairs(self):
        rng = random.Random(59)
        for _ in range(20_000):
            alphabet = "abcd"[:rng.randint(1, 4)]
            rows = [set(rng.choices(alphabet, k=rng.randint(1, 2)))
                    for _ in range(rng.randint(0, 9))]
            self.check(rows, rng.choices(alphabet, k=rng.randint(0, 9)))

    def test_empty_sides(self):
        for rows, cols in [([], []), ([], list("ab")), ([{"a"}, {"b"}], []),
                           ([{"a"}], []), ([], ["a"])]:
            self.check(rows, cols)
        assert list(metrics._alignment([], list("ab"))) == [(None, 1), (None, 0)]
        assert list(metrics._alignment([{"a"}, {"b"}], [])) == [(1, None), (0, None)]

    def test_a_word_held_by_several_slots(self):
        rows = [{"a", "b"}, {"a"}, {"c", "a"}, {"b"}, {"a", "c"}]
        for n in range(7):
            for cols in itertools.product("abc", repeat=n):
                self.check(rows, list(cols))

    def test_rows_longer_than_64_words(self):
        rng = random.Random(61)
        for _ in range(100):
            rows = [set(rng.choices("abcde", k=rng.randint(1, 2)))
                    for _ in range(rng.randint(65, 200))]
            self.check(rows, rng.choices("abcde", k=rng.randint(0, 200)))


# -- the confusion-network oracle as it was before its edit tables moved
# to the compare-chain loop; kept frozen for the equality test below.


def _frozen_merge_hypothesis(slots, hyp):
    k, h = len(slots), len(hyp)
    dist = [[0] * (h + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        dist[i][0] = i
    for j in range(h + 1):
        dist[0][j] = j
    for i in range(1, k + 1):
        for j in range(1, h + 1):
            diag = dist[i - 1][j - 1] + (0 if hyp[j - 1] in slots[i - 1].words else 1)
            dist[i][j] = min(diag, dist[i - 1][j] + 1, dist[i][j - 1] + 1)

    merged = []
    i, j = k, h
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + \
                (0 if hyp[j - 1] in slots[i - 1].words else 1):
            slots[i - 1].words.add(hyp[j - 1])
            merged.append(slots[i - 1])
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            slots[i - 1].has_epsilon = True
            merged.append(slots[i - 1])
            i -= 1
        else:
            merged.append(metrics._Slot(hyp[j - 1], has_epsilon=True))
            j -= 1
    merged.reverse()
    return merged


def _frozen_oracle_compositional(nbest, reference):
    nbest = [list(h) for h in nbest]
    ref = list(reference)
    slots = [metrics._Slot(w) for w in nbest[0]]
    for hyp in nbest[1:]:
        slots = _frozen_merge_hypothesis(slots, hyp)
    n_ref = len(ref)
    cost = list(range(n_ref + 1))
    for slot in slots:
        skip = 0 if slot.has_epsilon else 1
        new = [cost[0] + skip]
        for r in range(1, n_ref + 1):
            consume = cost[r - 1] + (0 if ref[r - 1] in slot.words else 1)
            new.append(min(cost[r] + skip, new[r - 1] + 1, consume))
        cost = new
    return cost[n_ref] / n_ref


def _nbest_cases(seed, n):
    """Seeded (N-best list, reference) pairs over a small alphabet, so
    words repeat, with empty hypotheses mixed in."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcde")
    for _ in range(n):
        ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 10))]
        nbest = [[alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 10))]
                 for _ in range(int(rng.integers(1, 7)))]
        if rng.random() < 0.3:
            nbest.insert(int(rng.integers(0, len(nbest) + 1)), [])
        yield nbest, ref


class TestOracleEqualsFrozenCode:
    def test_merged_slots_equal(self):
        for nbest, _ref in _nbest_cases(47, 400):
            got = [metrics._Slot(w) for w in nbest[0]]
            want = [metrics._Slot(w) for w in nbest[0]]
            for hyp in nbest[1:]:
                got = metrics._merge_hypothesis(got, hyp)
                want = _frozen_merge_hypothesis(want, hyp)
            assert [(s.words, s.has_epsilon) for s in got] == \
                [(s.words, s.has_epsilon) for s in want], nbest

    def test_oracles_equal(self):
        for nbest, ref in _nbest_cases(53, 1500):
            assert oracle_compositional(nbest, ref) == _frozen_oracle_compositional(nbest, ref)
            assert oracle_nbest(nbest, ref) == min(wer(h, ref).wer for h in nbest)


def _edited(ref, rng, alphabet, rate):
    """`ref` with each word deleted, substituted or followed by an inserted
    word at `rate` each, so the lists of one reference differ in length."""
    hyp = []
    for word in ref:
        roll = rng.random()
        if roll >= rate:
            hyp.append(word if roll >= 2 * rate else rng.choice(alphabet))
        if rng.random() < rate:
            hyp.append(rng.choice(alphabet))
    return hyp


class TestBestPathOnEpsilonNetworks:
    """The best path's bit-parallel columns against the frozen Python DP, on
    networks with many epsilon slots and references past one 64-bit word:
    larger than `TestOracleCompositionalEpsilonPath` can brute-force."""

    def test_equals_the_frozen_dp(self):
        rng = random.Random(71)
        alphabet = list("abcdefgh")
        epsilon_slots = below_nbest = 0
        for case in range(160):
            ref = rng.choices(alphabet, k=rng.randint(1, 90))
            nbest = [_edited(ref, rng, alphabet, rng.choice((0.1, 0.2, 0.35)))
                     for _ in range(rng.randint(2, 6))]
            if case % 10 == 0:
                nbest.insert(rng.randint(0, len(nbest)), [])
            epsilon_slots += sum(slot.has_epsilon for slot in _network(nbest))
            o_cp = oracle_compositional(nbest, ref)
            assert o_cp == _frozen_oracle_compositional(nbest, ref), (nbest, ref)
            below_nbest += o_cp < oracle_nbest(nbest, ref)
        assert epsilon_slots > 3000
        assert below_nbest > 100


def _equal_length_cases(seed, n):
    """Seeded (rows, cols) of one length over a small alphabet, with rows of
    one or two words: h runs from 0 up, and shifted words give D < h."""
    rng = random.Random(seed)
    for _ in range(n):
        alphabet = "abcde"[:rng.randint(2, 5)]
        length = rng.randint(0, 12)
        rows = [set(rng.choices(alphabet, k=rng.randint(1, 2))) for _ in range(length)]
        yield rows, rng.choices(alphabet, k=length)


def _lemma_kind(rows, cols):
    """Which side of the diagonal lemma a pair of one length falls on."""
    h = sum(word not in row for word, row in zip(cols, rows))
    if h <= 2:
        return "h <= 2"
    distance = metrics._distance(metrics._match_masks(rows), (1 << len(rows)) - 1, cols)
    return "D == h > 2" if distance == h else "D < h"


class TestDiagonalShortcut:
    """`_diagonal` stands in for the walk where rows and columns have one
    length and the distance D equals their mismatch count h; the walk,
    tie rule included, must then go down the diagonal."""

    def test_equals_the_walk(self):
        kinds = collections.Counter()
        for rows, cols in _equal_length_cases(67, 6000):
            walk = list(metrics._alignment(rows, cols))
            diagonal = [(i, i) for i in reversed(range(len(rows)))]
            kind = _lemma_kind(rows, cols)
            kinds[kind] += 1
            subs = metrics._diagonal(rows, cols)
            if kind == "D < h":
                assert subs is None and walk != diagonal, (rows, cols)
            else:
                assert walk == diagonal, (rows, cols)
                assert subs == [i for i in range(len(rows)) if cols[i] not in rows[i]]
        assert min(kinds.values()) > 1000 and len(kinds) == 3

    def test_wer_counts_equal_the_min_dp(self):
        kinds = collections.Counter()
        for rows, cols in _equal_length_cases(73, 4000):
            ref = [min(row) for row in rows]
            if not ref:
                continue
            kinds[_lemma_kind([{word} for word in ref], cols)] += 1
            report = wer(cols, ref)
            assert (report.substitutions, report.insertions, report.deletions,
                    report.hits) == _min_dp_counts(cols, ref), (cols, ref)
        assert min(kinds.values()) > 500 and len(kinds) == 3

    def test_merged_slots_equal_the_frozen_merge(self):
        rng = random.Random(79)
        alphabet = list("abcde")
        kinds = collections.Counter()
        for case in range(1500):
            ref = rng.choices(alphabet, k=rng.randint(1, 12))
            if case % 3:  # one length per list, as simulated N-best lists have
                nbest = [ref] + [[rng.choice(alphabet) if rng.random() < 0.3 else word
                                  for word in ref] for _ in range(rng.randint(1, 6))]
                if case % 3 == 1:  # a word dropped and one added: D < h
                    nbest.append(ref[1:] + [rng.choice(alphabet)])
            else:
                nbest = [_edited(ref, rng, alphabet, 0.2) for _ in range(rng.randint(2, 6))]
            got = [metrics._Slot(w) for w in nbest[0]]
            want = [metrics._Slot(w) for w in nbest[0]]
            for hyp in nbest[1:]:
                if len(hyp) == len(got):
                    kinds[_lemma_kind([slot.words for slot in got], hyp)] += 1
                got = metrics._merge_hypothesis(got, hyp)
                want = _frozen_merge_hypothesis(want, hyp)
                assert [(s.words, s.has_epsilon) for s in got] == \
                    [(s.words, s.has_epsilon) for s in want], nbest
        assert min(kinds.values()) > 300 and len(kinds) == 3
