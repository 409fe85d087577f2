"""Word error rate, relative reduction and N-best oracles.

All scoring functions take pre-tokenized word sequences, and refuse a
`str` in place of one, which would read as a sequence of characters;
`normalize_text` is the default text hook (lowercase + whitespace split)
and can be swapped by callers ingesting external data with other
conventions.

`wer` aligns a pair to split its edits into S, I and D; `corpus_report`
aligns each distinct pair once, and can share its dict of alignments
across calls. A caller that reads only S + I + D (the N-best oracle, a
sweep's corpus WER) takes `distance_to`, with no alignment to trace back.
Unit-cost tables run on bit vectors, one pair of ints per column
(Myers' forward pass, `_steps`). `distance_to` reads the last column's
bottom cell; `_alignment`, the walk of `wer` and of the
confusion-network merge, reads each cell it compares by popcount. Pairs
of one length whose edit distance is their count of mismatched
positions align on the diagonal, with no walk (`_diagonal`). The
network's best path is the same forward pass over its slots: a slot
passes at cost 1, or at 0 where it has epsilon, and only an epsilon
slot is stepped cell by cell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter, ne

from .errors import InvalidInputError, InvalidParameterError


def normalize_text(text: str, lowercase: bool = True) -> list[str]:
    return text.lower().split() if lowercase else text.split()


@dataclass(frozen=True)
class ScoreReport:
    substitutions: int
    insertions: int
    deletions: int
    hits: int
    n_ref_words: int

    @property
    def wer(self) -> float:
        return (self.substitutions + self.insertions + self.deletions) / self.n_ref_words

    def to_dict(self) -> dict:
        return {"wer": self.wer, **asdict(self)}


def _words(words, name: str) -> list:
    """`words` as a list; a `str` is refused rather than read as characters."""
    if isinstance(words, str):
        raise InvalidInputError(f"{name} must be a sequence of words, not a string")
    return list(words)


def _match_masks(rows) -> dict:
    """Each word's match mask over `rows`, a sequence of word sets: bit i
    is set where row i holds the word."""
    masks = {}
    for i, words in enumerate(rows):
        for word in words:
            masks[word] = masks.get(word, 0) | 1 << i
    return masks


def _steps(pv: int, mv: int, full: int, eqs) -> tuple[int, int]:
    """Myers' forward pass (Myers 1999, in Hyyro's form for edit distance)
    from column (pv, mv) over one column word per match mask of `eqs`:
    the last column reached. In column j, bit i of pv (mv) is set when
    cell (i + 1, j) of the unit-cost edit table is one more (one less)
    than cell (i, j), and cell (0, j) is j. `full` masks every row. A
    Python int holds any number of rows, so a column word costs a few
    integer operations however many there are."""
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = ph << 1 | 1  # the top row grows by one per column word
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return pv, mv


def _columns(masks: dict, full: int, cols):
    """The columns (`_steps`) of the edit table of `cols` against the rows
    of `masks`: column 0, then one per word of `cols`."""
    column = full, 0
    yield column
    for word in cols:
        column = _steps(*column, full, (masks.get(word, 0),))
        yield column


def _distance(masks: dict, full: int, cols) -> int:
    """The unit-cost edit distance of `cols` from the rows of `masks`: the
    bottom cell of the table's last column."""
    pv, mv = _steps(full, 0, full, [masks.get(word, 0) for word in cols])
    return len(cols) + pv.bit_count() - mv.bit_count()


def _cell(column, i: int, j: int) -> int:
    """Cell (i, j) of an edit table, read off its column j."""
    pv, mv = column
    low = (1 << i) - 1
    return j + (pv & low).bit_count() - (mv & low).bit_count()


def _diagonal(rows, cols) -> list | None:
    """The rows that `cols` substitutes, if its alignment against `rows`
    (`_alignment`) is the diagonal; None otherwise.

    Let rows and cols have one length, and let h count the rows whose set
    lacks their column's word. The diagonal path costs h, so the distance
    D is at most h. A path off the diagonal takes an insertion and a
    deletion, so a D below 2 is the diagonal's own cost: D == h where
    h <= 2, with no table. If D == h, no diagonal cell is below the
    mismatch count up to it (the rest of the diagonal would then make
    D < h), so `_alignment`, which aligns on a match and on a substitution
    one below its cell, walks the diagonal."""
    if len(rows) != len(cols):
        return None
    subs = [i for i, (word, row) in enumerate(zip(cols, rows)) if word not in row]
    if len(subs) > 2 and _distance(_match_masks(rows), (1 << len(rows)) - 1, cols) < len(subs):
        return None
    return subs


def _alignment(rows, cols):
    """The unit-cost alignment of `cols` against `rows`, a sequence of word
    sets, walked back from the end: (i, j) aligns row i with column word j,
    and None marks a gap on its side. A word matches a row when it is in
    that row's set. Ties prefer aligned > passed row > unmatched word.

    The walk reads the table's columns (`_columns`) and holds the cell it
    stands on. A match always aligns, keeping the cell; any other step
    takes one edit off it. A substitution reads the diagonal cell; a row
    can be passed where bit i - 1 of pv_j is set."""
    columns = list(_columns(_match_masks(rows), (1 << len(rows)) - 1, cols))
    i, j = len(rows), len(cols)
    cell = _cell(columns[j], i, j)
    while i > 0 or j > 0:
        diagonal = i > 0 and j > 0
        hit = diagonal and cols[j - 1] in rows[i - 1]
        if hit or diagonal and cell - 1 == _cell(columns[j - 1], i - 1, j - 1):
            i, j, cell = i - 1, j - 1, cell - (not hit)
            yield i, j
        elif i > 0 and columns[j][0] >> (i - 1) & 1:
            i, cell = i - 1, cell - 1
            yield i, None
        else:
            j, cell = j - 1, cell - 1
            yield None, j


def wer(hypothesis, reference) -> ScoreReport:
    """Unit-cost Levenshtein alignment of word sequences.

    Backtrace ties prefer hit > substitution > deletion > insertion, so
    the S/I/D split is deterministic.
    """
    hyp = _words(hypothesis, "hypothesis")
    ref = _words(reference, "reference")
    if not ref:
        raise InvalidInputError("reference must be non-empty")

    rows = [{word} for word in ref]
    subs = _diagonal(rows, hyp)
    if subs is not None:
        return ScoreReport(len(subs), 0, 0, len(ref) - len(subs), len(ref))
    # an aligned pair is a hit or a substitution, any other word an insertion or deletion
    pairs = [(i, j) for i, j in _alignment(rows, hyp)
             if i is not None and j is not None]
    hits = sum(ref[i] == hyp[j] for i, j in pairs)
    return ScoreReport(len(pairs) - hits, len(hyp) - len(pairs), len(ref) - len(pairs),
                       hits, len(ref))


def distance_to(reference):
    """The function taking a hypothesis to its unit-cost word edit distance
    from `reference`, which is S + I + D of `wer(hypothesis, reference)`.

    The reference's match masks are built once, here, for every
    hypothesis scored against it. A hypothesis of the reference's length
    that differs from it in h <= 2 positions is h edits from it
    (`_diagonal`), with no table.
    """
    ref = _words(reference, "reference")
    if not ref:
        raise InvalidInputError("reference must be non-empty")
    masks = _match_masks([word] for word in ref)
    full = (1 << len(ref)) - 1

    def distance(hypothesis) -> int:
        hyp = _words(hypothesis, "hypothesis")
        if len(hyp) == len(ref):
            h = sum(map(ne, hyp, ref))
            if h <= 2:
                return h
        return _distance(masks, full, hyp)

    return distance


def corpus_report(pairs, aligned: dict | None = None) -> ScoreReport:
    """Aggregate (hypothesis, reference) pairs into one corpus-level report.

    Each distinct (hypothesis, reference) pair is aligned once. `aligned`,
    a dict that this function reads and fills, carries the alignments
    across every call that shares it.
    """
    aligned = {} if aligned is None else aligned
    reports = []
    for hyp, ref in pairs:
        key = (tuple(hyp), tuple(ref))
        report = aligned.get(key)
        if report is None:
            report = aligned[key] = wer(*key)
        reports.append(report)
    return total_report(reports)


def total_report(reports) -> ScoreReport:
    """Pool per-utterance reports into one corpus-level report."""
    totals = [0, 0, 0, 0, 0]
    for r in reports:
        totals[0] += r.substitutions
        totals[1] += r.insertions
        totals[2] += r.deletions
        totals[3] += r.hits
        totals[4] += r.n_ref_words
    if totals[4] == 0:
        raise InvalidInputError("no reference words to score")
    return ScoreReport(*totals)


def corpus_wer(pairs) -> float:
    return corpus_report(pairs).wer


def werr(wer_baseline: float, wer_new: float) -> float:
    """Relative WER reduction; negative values mean degradation."""
    if wer_baseline <= 0:
        raise InvalidParameterError("baseline WER must be positive")
    return (wer_baseline - wer_new) / wer_baseline


def oracle_nbest(nbest, reference) -> float:
    """WER of the best single hypothesis in the list."""
    nbest = _words(nbest, "nbest")
    if not nbest:
        raise InvalidInputError("nbest must be non-empty")
    ref = _words(reference, "reference")
    distance = distance_to(ref)
    # the smallest distance over one positive length is the smallest WER
    return min(distance(hyp) for hyp in nbest) / len(ref)


class _Slot:
    """One confusion-network slot: alternative words plus an epsilon flag."""

    __slots__ = ("words", "has_epsilon")

    def __init__(self, word, has_epsilon=False):
        self.words = {word}
        self.has_epsilon = has_epsilon


def _merge_hypothesis(slots: list[_Slot], hyp: list) -> list[_Slot]:
    """Minimum-edit alignment of `hyp` onto the slot sequence.

    A word aligned to a slot joins its alternatives (cost 0 when already
    present); a skipped slot gains epsilon; an unmatched word becomes a
    fresh slot that is epsilon for everything merged before it. Backtrace
    ties prefer match > substitution > skip-slot > new-slot.
    """
    rows = [slot.words for slot in slots]
    subs = _diagonal(rows, hyp)
    if subs is not None:
        for i in subs:
            rows[i].add(hyp[i])
        return slots
    merged: list[_Slot] = []
    # the walk reads no row again once it has yielded it, so a slot may grow here
    for i, j in _alignment(rows, hyp):
        slot = _Slot(hyp[j], has_epsilon=True) if i is None else slots[i]
        if j is None:
            slot.has_epsilon = True
        else:
            slot.words.add(hyp[j])  # a fresh slot holds it already
        merged.append(slot)
    merged.reverse()
    return merged


def oracle_compositional(nbest, reference) -> float:
    """WER of the best path through a confusion network of the hypotheses.

    The network is built by merging hypotheses into the first one by
    minimum-edit alignment (epsilon entries mark gaps); the best path
    picks, per slot, either epsilon or one alternative, minimizing edits
    against the reference (exact DP). Every hypothesis is itself a path,
    so the result never exceeds the single-best oracle, while remaining a
    conservative estimate of the true compositional optimum.
    """
    nbest = [_words(h, "hypothesis") for h in _words(nbest, "nbest")]
    if not nbest:
        raise InvalidInputError("nbest must be non-empty")
    ref = _words(reference, "reference")
    if not ref:
        raise InvalidInputError("reference must be non-empty")

    slots = [_Slot(w) for w in nbest[0]]
    for hyp in nbest[1:]:
        slots = _merge_hypothesis(slots, hyp)
    # The best path's table has a column per slot, whose cell r is the
    # fewest edits for ref[:r]. Passing a slot without consuming a
    # reference word costs an insertion, or nothing where it has epsilon.
    # A run of slots at cost 1 is Myers' forward pass (`_steps`), each
    # slot matching the OR of the reference masks of its words; the top
    # cell counts those slots.
    n = len(ref)
    ref_masks, full = _match_masks([word] for word in ref), (1 << n) - 1
    pv, mv, top = full, 0, 0
    for has_epsilon, run in groupby(slots, attrgetter("has_epsilon")):
        eqs = []
        for slot in run:
            eq = 0
            for word in slot.words:
                eq |= ref_masks.get(word, 0)
            eqs.append(eq)
        if not has_epsilon:
            pv, mv = _steps(pv, mv, full, eqs)
            top += len(eqs)
            continue
        # an epsilon slot, cell by cell: min(diag + cost, up, left + 1),
        # where diag and up are cells r and r + 1 of the column before;
        # on integers, left < best means left + 1 <= best
        for eq in eqs:
            diag = left = top
            pv_new = mv_new = 0
            for r in range(n):
                up = diag + (pv >> r & 1) - (mv >> r & 1)
                best = diag if eq >> r & 1 else diag + 1
                if up < best:
                    best = up
                if left < best:
                    best = left + 1
                pv_new |= (best > left) << r
                mv_new |= (best < left) << r
                diag, left = up, best
            pv, mv = pv_new, mv_new
    return (top + pv.bit_count() - mv.bit_count()) / n
