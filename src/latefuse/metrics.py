"""Word error rate, relative reduction and N-best oracles.

All scoring functions take pre-tokenized word sequences; `normalize_text`
is the default text hook (lowercase + whitespace split) and can be
swapped by callers ingesting external data with other conventions.
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


def wer(hypothesis, reference) -> ScoreReport:
    """Unit-cost Levenshtein alignment of word sequences.

    Backtrace ties prefer hit > substitution > deletion > insertion, so
    the S/I/D split is deterministic.
    """
    hyp = list(hypothesis)
    ref = list(reference)
    if not ref:
        raise InvalidInputError("reference must be non-empty")

    rows, cols = len(ref) + 1, len(hyp) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        row, prev, word = dist[i], dist[i - 1], ref[i - 1]
        left = i
        for j in range(1, cols):
            # min(diag, up + 1, left + 1) on integers: x < best means x + 1 <= best.
            best = prev[j - 1] if word == hyp[j - 1] else prev[j - 1] + 1
            if prev[j] < best:
                best = prev[j] + 1
            if left < best:
                best = left + 1
            row[j] = left = best

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


def corpus_report(pairs) -> ScoreReport:
    """Aggregate (hypothesis, reference) pairs into one corpus-level report."""
    return total_report(wer(hyp, ref) for hyp, ref in pairs)


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
    return min(wer(hyp, reference).wer for hyp in nbest)


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

    merged: list[_Slot] = []
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

    # Best-path DP: cost[r] = min edits after the slots seen so far,
    # having consumed r reference words.
    n_ref = len(ref)
    cost = list(range(n_ref + 1))
    for slot in slots:
        skip = 0 if slot.has_epsilon else 1  # emit-as-insertion when no epsilon
        new = [cost[0] + skip]
        for r in range(1, n_ref + 1):
            consume = cost[r - 1] + (0 if ref[r - 1] in slot.words else 1)
            new.append(min(cost[r] + skip, new[r - 1] + 1, consume))
        cost = new
    return cost[n_ref] / n_ref
