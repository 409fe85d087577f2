"""Word error rate, relative reduction and N-best oracles.

All scoring functions take pre-tokenized word sequences; `normalize_text`
is the default text hook (lowercase + whitespace split) and can be
swapped by callers ingesting external data with other conventions.

`wer` aligns a pair to split its edits into S, I and D; `corpus_report`
aligns each distinct pair once, and can share its dict of alignments
across calls. A caller that reads only S + I + D (the N-best oracle, a
sweep's corpus WER) takes `distance_to`, a bit-parallel edit distance
with no alignment to trace back. The edit tables of `wer`, of the
confusion-network merge and of the network's best path are one loop,
`_edit_table`: unit cost for the first two, a per-slot pass cost for the
third.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {
            "wer": self.wer,
            "substitutions": self.substitutions,
            "insertions": self.insertions,
            "deletions": self.deletions,
            "hits": self.hits,
            "n_ref_words": self.n_ref_words,
        }


def _edit_table(rows, cols, skips=None) -> list[list[int]]:
    """Edit table of `cols` against `rows`, a sequence of word sets: cell
    (i, j) is the fewest edits turning cols[:j] into rows[:i], where a word
    matches a row when it is in that row's set. A substitution or an
    unmatched column word costs 1; passing row i costs skips[i], and 1 when
    `skips` is None (unit cost)."""
    dist = [list(range(len(cols) + 1))]
    for i, words in enumerate(rows):
        skip = 1 if skips is None else skips[i]
        prev = dist[-1]
        left = prev[0] + skip
        row = [left]
        for word, diag, up in zip(cols, prev, prev[1:]):
            # min(diag + cost, up + skip, left + 1); on integers, left < best
            # means left + 1 <= best.
            best = diag if word in words else diag + 1
            if up + skip < best:
                best = up + skip
            if left < best:
                best = left + 1
            row.append(best)
            left = best
        dist.append(row)
    return dist


def wer(hypothesis, reference) -> ScoreReport:
    """Unit-cost Levenshtein alignment of word sequences.

    Backtrace ties prefer hit > substitution > deletion > insertion, so
    the S/I/D split is deterministic.
    """
    hyp = list(hypothesis)
    ref = list(reference)
    if not ref:
        raise InvalidInputError("reference must be non-empty")

    dist = _edit_table([{word} for word in ref], hyp)
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
    return ScoreReport(subs, ins, dels, hits, len(ref))


def distance_to(reference):
    """The function taking a hypothesis to its unit-cost word edit distance
    from `reference`, which is S + I + D of `wer(hypothesis, reference)`.

    Bit-parallel (Myers 1999, in Hyyro's form for edit distance): bit i of
    the vertical delta vectors is row i of one table column, so a word
    costs a few integer operations whatever the reference length (a
    Python int holds any width). The reference's bit masks are built
    once, here, for every hypothesis scored against it.
    """
    ref = list(reference)
    if not ref:
        raise InvalidInputError("reference must be non-empty")
    masks = {}
    for i, word in enumerate(ref):
        masks[word] = masks.get(word, 0) | 1 << i
    full, top = (1 << len(ref)) - 1, 1 << (len(ref) - 1)

    def distance(hypothesis) -> int:
        pv, mv, score = full, 0, len(ref)
        for word in hypothesis:
            eq = masks.get(word, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & top:
                score += 1
            elif mh & top:
                score -= 1
            ph = ph << 1 | 1  # the top row grows by one per hypothesis word
            pv = (mh << 1 | ~(xv | ph)) & full
            mv = ph & xv
        return score

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
    nbest = list(nbest)
    if not nbest:
        raise InvalidInputError("nbest must be non-empty")
    ref = list(reference)
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
    dist = _edit_table([slot.words for slot in slots], hyp)
    merged: list[_Slot] = []
    i, j = len(slots), len(hyp)
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
            merged.append(_Slot(hyp[j - 1], has_epsilon=True))
            j -= 1
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
    nbest = [list(h) for h in nbest]
    if not nbest:
        raise InvalidInputError("nbest must be non-empty")
    ref = list(reference)
    if not ref:
        raise InvalidInputError("reference must be non-empty")

    slots = [_Slot(w) for w in nbest[0]]
    for hyp in nbest[1:]:
        slots = _merge_hypothesis(slots, hyp)
    # the best path: passing a slot without consuming a reference word
    # costs nothing where it has epsilon, and an insertion where it has not
    skips = [0 if slot.has_epsilon else 1 for slot in slots]
    return _edit_table([slot.words for slot in slots], ref, skips)[-1][-1] / len(ref)
