"""Pluggable step-wise logit providers sharing one decoding space.

A provider is anything with a `vocab` attribute and a
`next_logits(history, ctx)` method returning a finite length-V float64
vector, deterministically from its inputs. Two concrete desk-scale
providers live here: an N-best-conditioned corrector (an n-gram language
model mixed with a positional vote over the hypothesis list) and a
noisy-channel acoustic model (a per-token confusion-matrix reader).
Their outputs depend only on their inputs, although `NgramModel` caches
the distributions it computed and `NgramCorrector` the mixture parts it
built from them. `NgramModel` keeps its counts by context, so a
distribution it computes reads only the counts of its context, not one
count per id of the vocabulary. `NgramCorrector` counts an N-best list's
positional vote in one pass: one `np.bincount` over `position * V + id`
gives every position's integer counts, and one `np.divide` by the number
of hypotheses covering each position turns them into rows; the row past
the longest hypothesis is uniform. `NgramCorrector.to_dict`/`from_dict`
write and read the whole of a trained corrector's `lm.json`; `from_dict`
checks each n-gram as it files it, in one walk over the list, and names
the first bad one. A keyed provider,
as `AcousticChannel` is, is a block plus an index: `row_key(length, ctx)`
indexes the rows of a `(R, V)` array `log_rows`, and
`next_logits(history, ctx)` equals `log_rows[row_key(len(history), ctx)]`,
so equal keys mean equal rows, also across utterances, and any history
of a length reads its key's row. Beam search reads only keyed providers:
it reads each key's row once per call, as that of a history of BOS
alone, and normalises and ranks it for every utterance of the chunk that
the call searches in lockstep (`decoding.beam_search`). A decode set
calibrates the whole block once (`decoding.decode_eval_set`), and a
calibration takes the block as its rows and each step's key as the row
it reads (`calibration.collect_traces`): neither builds a history.
`NgramCorrector` reads a history only through its key: its vote row and
its n-gram context. Its `lattices(ctxs)` gives the keys of the N-best
prefixes of a chunk of utterances and their rows as one `(B, V)` block:
one `np.bincount` counts the vote rows of every list of the chunk, and
the weighted priors are gathered from rows held by context for as long
as the model serves them. The corrector then holds the vote rows of
every list of the chunk, so a row read off those prefixes counts no list
again. A decode set calibrates that block once per chunk and decides
every config's choice at each of its keys (`decoding.choice_tables`);
each decode walks its utterance's table and reads the corrector only at
the steps off it. The wire client, `wire.ExternalProvider`, has
`lattices(ctxs)` too; the `wire` module describes its requests, and the
keys of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import TokenSeq, Vocabulary, json_field
from .errors import InvalidInputError, InvalidParameterError

# Added inside ln() so logits stay finite even for exact-zero mixture
# entries; shifts any downstream probability by less than V * 1e-12.
LOG_EPS = 1e-12

# Highest n-gram order a model takes. Each step builds an (order - 1)-id
# context tuple, so a step's work grows with the order, and an order in
# the billions could only exhaust memory. 64 is far past the orders n-gram
# models use (2 to 5).
MAX_ORDER = 64


@dataclass(frozen=True)
class UtteranceContext:
    """Per-utterance evidence shared by all providers.

    `nbest` is best-first and may be empty for providers that ignore it;
    `observation` is the corrupted channel output, aligned so that index 0
    corresponds to BOS (i.e. step t reads observation[t + 1]).
    """

    utt_id: str
    nbest: tuple[TokenSeq, ...] = ()
    observation: TokenSeq | None = None


class NgramModel:
    """Add-k smoothed n-gram model over token-id sequences.

    Contexts shorter than order-1 are left-padded with BOS, so training
    and decoding see identical context shapes.

    `counts` maps each context seen in training to the ids seen after it
    and their counts, so a distribution places its context's counts with
    one assignment, and its total is their (exact, integer) sum.
    """

    def __init__(self, vocab: Vocabulary, order: int = 2, smoothing: float = 0.5):
        if not 1 <= order <= MAX_ORDER:
            raise InvalidParameterError(f"order must be in [1, {MAX_ORDER}], got {order}")
        try:
            s = float(smoothing)
        except OverflowError:  # an int past the float range
            s = np.inf
        if not 0 <= s < np.inf:
            raise InvalidParameterError(
                f"smoothing must be finite and >= 0, got {smoothing!s:.200}")
        # a row divides by total + smoothing * V: past the float range every
        # row would come out all zeros instead of a distribution
        if not s * vocab.size < np.inf:
            raise InvalidParameterError(f"smoothing {s} times the vocabulary size "
                                        f"{vocab.size} must be finite")
        self.vocab = vocab
        self.order = int(order)
        self.smoothing = s
        self.counts: dict[tuple, dict[int, int]] = {}
        self._dist_cache: dict[tuple, np.ndarray] = {}

    def _context(self, history: TokenSeq) -> tuple:
        if self.order == 1:
            return ()
        padded = (Vocabulary.BOS,) * (self.order - 1) + tuple(history)
        return padded[-(self.order - 1):]

    def train(self, sequences):
        """Count n-grams over sequences of emitted ids (EOS-terminated)."""
        for seq in sequences:
            history: tuple = ()
            for tok in seq:
                seen = self.counts.setdefault(self._context(history), {})
                seen[tok] = seen.get(tok, 0) + 1
                history += (tok,)
        # a new dict, not a cleared one: a holder of rows built from the old
        # cache sees by its identity that the model serves new rows
        self._dist_cache = {}

    def cond_dist(self, history: TokenSeq) -> np.ndarray:
        """P(v | last order-1 tokens of history) over the whole vocabulary."""
        ctx = self._context(history)
        cached = self._dist_cache.get(ctx)
        if cached is not None:
            return cached
        v = self.vocab.size
        seen = self.counts.get(ctx, {})
        total = sum(seen.values())
        if total == 0 and self.smoothing == 0.0:
            dist = np.full(v, 1.0 / v)
        else:
            counts = np.zeros(v)
            counts[list(seen)] = list(seen.values())  # integer counts, exact in float64
            dist = (counts + self.smoothing) / (total + self.smoothing * v)
        self._dist_cache[ctx] = dist
        return dist

    def to_dict(self) -> dict:
        ngrams = sorted([[*ctx, tok], count] for ctx, seen in self.counts.items()
                        for tok, count in seen.items())
        return {"order": self.order, "smoothing": self.smoothing, "ngrams": ngrams}

    @classmethod
    def from_dict(cls, data: dict, vocab: Vocabulary) -> "NgramModel":
        """The model `to_dict` wrote. One walk over its n-grams files each
        into the counts as it checks it: a [key, count] pair, its key `order`
        token ids below V, listed once, its count in [1, 2**53]; the first
        that is not raises, naming it."""
        order = json_field(data, "order", (int,))
        model = cls(vocab, order=order, smoothing=json_field(data, "smoothing", (int, float)))
        model.counts = _counts(json_field(data, "ngrams", (list,)), order, vocab.size)
        return model


def _counts(ngrams: list, order: int, v: int) -> dict:
    """The counts table of `NgramModel.from_dict`, each entry checked as it
    is filed; the first bad entry raises."""
    table: dict[tuple, dict[int, int]] = {}
    for entry in ngrams:
        key, count = entry if type(entry) is list and len(entry) == 2 else (None, None)
        bad = type(key) is not list or len(key) != order
        if not bad:
            for t in key:  # a plain loop: all() or a comprehension costs more per key
                if type(t) is not int or not 0 <= t < v:
                    bad = True
                    break
        if bad:
            raise InvalidParameterError(f"n-gram [key, count] must have a key of {order} "
                                        f"token ids in [0, {v}), got {entry!r:.200}")
        if type(count) is not int or not 1 <= count <= 2 ** 53:
            raise InvalidParameterError(
                f"n-gram count must be an integer in [1, 2**53], got {count!r:.200}")
        seen = table.setdefault(tuple(key[:-1]), {})
        if key[-1] in seen:
            raise InvalidParameterError(f"n-gram key {key} is listed twice")
        seen[key[-1]] = count
    return table


class NgramCorrector:
    """N-best-conditioned corrector: n-gram prior mixed with a positional vote.

    The step-t distribution is
        (1 - vote_weight) * p_ngram(v | history) + vote_weight * p_vote(v | t, nbest)
    where p_vote is the relative frequency of tokens at position t across
    the hypotheses that are long enough (uniform when none is). Logits are
    the natural log of this mixture.

    Both terms are built once and reused: the weighted vote of every
    position of an N-best list when a step first reads that list (held for
    the lists of the latest `lattices` chunk, or else for the latest list
    only; `_vote_rows` counts the whole list with one `np.bincount` and
    divides once), and the weighted prior of an n-gram context when a step
    first reads the row the model serves for it (held against that row, so
    a model trained again, which serves new rows, leaves none stale).

    A row reads its history only through its key: the vote row,
    min(len(history), len(votes)) - 1, and the n-gram context, the last
    order - 1 ids; histories of one utterance with one key get one row.
    `lattices` builds the rows of the N-best prefixes of a chunk of
    utterances at once.
    """

    def __init__(self, model: NgramModel, vote_weight: float = 0.5):
        if not 0.0 <= vote_weight <= 1.0:
            raise InvalidParameterError(f"vote_weight must be in [0, 1], got {vote_weight}")
        self.model = model
        self.vocab = model.vocab
        self.vote_weight = float(vote_weight)
        self._priors: dict[int, tuple] = {}  # id(model row) -> (model row, weighted row)
        # id(nbest) -> (nbest, weighted vote rows) of the latest chunk's lists or
        # latest list; an entry holds its list, so no other list takes its id
        self._votes: dict = {}
        # (the model's row cache, context -> weighted row), for `lattices`
        self._context_priors: tuple = (None, None)

    def to_dict(self) -> dict:
        """The whole of `lm.json`: the model's fields, then `vote_weight`."""
        return {**self.model.to_dict(), "vote_weight": self.vote_weight}

    @classmethod
    def from_dict(cls, data: dict, vocab: Vocabulary) -> "NgramCorrector":
        """The corrector `to_dict` wrote."""
        return cls(NgramModel.from_dict(data, vocab),
                   vote_weight=json_field(data, "vote_weight", (int, float)))

    def _vote_rows(self, nbest: tuple[TokenSeq, ...]) -> list:
        """vote_weight * p_vote for positions 0 .. longest hypothesis, one
        row each; the last, uniform, stands for every position past them.

        One `np.bincount` over `pos * V + tok` counts every position's
        tokens, and one `np.divide` by the number of hypotheses covering
        each position turns the counts into rows. Every position short of
        the longest hypothesis is covered (by that hypothesis), so only the
        last row needs the uniform fill. The counts are exact integers, so
        each entry is one correctly rounded division of two integers. A
        token id outside [0, V) is refused: it would count in another
        position's row."""
        v = self.vocab.size
        toks = [tok for hyp in nbest for tok in hyp]
        if toks and not (0 <= min(toks) and max(toks) < v):
            bad = next(tok for tok in toks if not 0 <= tok < v)
            raise InvalidInputError(f"N-best token id {bad} is outside [0, {v})")
        n_pos = max(map(len, nbest), default=0) + 1
        counts = np.bincount([pos * v + tok for hyp in nbest for pos, tok in enumerate(hyp)],
                             minlength=n_pos * v).reshape(n_pos, v)
        covered = counts[:-1]
        vote = np.empty(counts.shape)
        np.divide(covered, covered.sum(axis=1, keepdims=True), out=vote[:-1])
        vote[-1] = 1.0 / v
        vote *= self.vote_weight
        rows = list(vote)
        self._votes = {id(nbest): (nbest, rows)}
        return rows

    def _held_votes(self, nbest: tuple[TokenSeq, ...]) -> list:
        """The weighted vote rows of `nbest`, counted when they are not
        held."""
        held = self._votes.get(id(nbest))
        return self._vote_rows(nbest) if held is None else held[1]

    def _prior(self, history: TokenSeq) -> np.ndarray:
        """(1 - vote_weight) * p_ngram(. | history), kept for as long as the
        model serves the same row. The entry holds that row, so no other
        array can take its id while the entry lives."""
        p = self.model.cond_dist(history)
        prior = self._priors.get(id(p))
        if prior is None:
            prior = self._priors[id(p)] = (p, (1.0 - self.vote_weight) * p)
        return prior[1]

    @staticmethod
    def _vote_row(history: TokenSeq, votes: list) -> int:
        """The index of the row of `votes` that a step after `history` reads."""
        return min(len(history), len(votes)) - 1

    def next_logits(self, history: TokenSeq, ctx: UtteranceContext) -> np.ndarray:
        votes = self._held_votes(ctx.nbest)
        row = self._prior(history) + votes[self._vote_row(history, votes)]
        row += LOG_EPS
        return np.log(row, out=row)

    def _held_priors(self) -> dict:
        """context -> the weighted prior `_prior` gives it, held for as long
        as the model serves the same rows: training replaces the model's row
        cache (`NgramModel.train`), and with it this map."""
        cache, priors = self._context_priors
        if cache is not self.model._dist_cache:
            priors = {}
            self._context_priors = (self.model._dist_cache, priors)
        return priors

    def lattices(self, ctxs) -> tuple[list, np.ndarray]:
        """The keys of each utterance of `ctxs`, and the raw rows of all of
        them, in order, as one new `(B, V)` array.

        An utterance's keys are those (vote row, n-gram context) of the
        BOS-prefixed prefixes of its N-best list up to each hypothesis's
        EOS, BOS alone included, each once; their rows are consecutive in
        the block, and row i of them `==` `next_logits(history, ctx)` for
        every history of key i. They are None for a list with an id outside
        [0, V): `next_logits` refuses that list when a step reads it. The
        vote rows of every other list are held in place of those held
        before, so `next_logits` counts none of these lists again.

        A prefix of t tokens is no longer than the longest hypothesis, so
        its vote row is t, unclipped, and its context is a slice of the
        hypothesis padded as `_context` pads a history: the prefix's key,
        with no call per prefix. One `np.bincount` counts the vote rows of
        every list at once, each row with `_vote_rows`'s
        arithmetic; the weighted priors are held by context (a context is
        its own history); and the block takes `next_logits`'s elementwise
        ops.
        """
        v, k = self.vocab.size, self.model.order - 1
        lattices, lists, spans, flat, vote_rows, contexts = [], [], [], [], [], []
        n_votes = 0
        for ctx in ctxs:
            nbest = ctx.nbest
            toks = [tok for hyp in nbest for tok in hyp]
            if toks and not (0 <= min(toks) and max(toks) < v):
                lattices.append(None)
                continue
            keys = {}
            for hyp in nbest or ((),):
                end = hyp.index(Vocabulary.EOS) if Vocabulary.EOS in hyp else len(hyp)
                # the context after t tokens is padded[t:t + k]
                padded = (Vocabulary.BOS,) * k + tuple(hyp[:end])
                shifted = zip(*[padded[j:] for j in range(k)]) if k else repeat(())
                keys.update(dict.fromkeys(zip(range(end + 1), shifted)))
            base = n_votes * v
            flat += [base + pos * v + tok for hyp in nbest for pos, tok in enumerate(hyp)]
            vote_rows += [n_votes + t for t, _ in keys]
            contexts += [context for _, context in keys]
            lattices.append(list(keys))
            lists.append(nbest)
            spans.append(slice(n_votes, n_votes + max(map(len, nbest), default=0) + 1))
            n_votes = spans[-1].stop
        if not spans:
            return lattices, np.empty((0, v))
        counts = np.bincount(flat, minlength=n_votes * v).reshape(n_votes, v)
        uniform = [span.stop - 1 for span in spans]  # past each longest hypothesis
        totals = counts.sum(axis=1, keepdims=True)
        totals[uniform] = 1  # their counts are 0
        votes = counts / totals
        votes[uniform] = 1.0 / v
        votes *= self.vote_weight
        priors = self._held_priors()
        rows = np.array([priors[c] if c in priors else priors.setdefault(c, self._prior(c))
                         for c in contexts])
        rows += votes[vote_rows]
        rows += LOG_EPS
        np.log(rows, out=rows)
        self._votes = {id(nbest): (nbest, votes[span]) for nbest, span in zip(lists, spans)}
        return lattices, rows


def train_ngram_corrector(
    references,
    vocab: Vocabulary,
    order: int = 2,
    smoothing: float = 0.5,
    vote_weight: float = 0.5,
) -> NgramCorrector:
    """Train the corrector's n-gram component on a list of reference token
    sequences; the hypothesis vote always comes from the decode-time context.
    """
    if not references:
        raise InvalidInputError("training corpus is empty")
    model = NgramModel(vocab, order=order, smoothing=smoothing)
    model.train(references)
    return NgramCorrector(model, vote_weight=vote_weight)


class AcousticChannel:
    """Noisy-channel stand-in for an acoustic decoder.

    At each step it returns (the log of) the confusion row of the observed
    token at that step; past the end of the observation it returns an
    EOS-dominant distribution.

    So the row depends on the history only through its length, and on the
    utterance only through the observed token there: `row_key` names it,
    as an index of the read-only `(V + 1, V)` block `log_rows`.
    `beam_search` reads one row per key and gives it to every live beam
    of every utterance of its call that reaches the key; a decode set
    calibrates the whole block once, and a calibration reads no row
    through `next_logits`: its trace is the block, gathered by key.
    """

    def __init__(self, vocab: Vocabulary, confusion: np.ndarray):
        confusion = np.asarray(confusion, dtype=np.float64)
        v = vocab.size
        if confusion.shape != (v, v):
            raise InvalidInputError(f"confusion matrix must be {v}x{v}, got {confusion.shape}")
        # phrased so that a NaN fails: every comparison with NaN is False
        if not (np.all(confusion >= 0) and np.all(np.abs(confusion.sum(axis=1) - 1.0) <= 1e-9)):
            raise InvalidInputError("confusion rows must be finite, nonnegative and sum to 1")
        self.vocab = vocab
        eos_row = np.zeros(v)
        eos_row[Vocabulary.EOS] = 1.0
        # the EOS row last, so that row_key's -1 indexes it
        self.log_rows = np.log(np.vstack([confusion, eos_row]) + LOG_EPS)
        self.log_rows.flags.writeable = False

    def row_key(self, length: int, ctx: UtteranceContext) -> int:
        """The observed token a history of `length` ids reads, or -1 past the
        end of the observation, where every history gets the EOS row."""
        obs = ctx.observation
        if obs is None:
            raise InvalidInputError(f"utterance {ctx.utt_id!r} has no observation")
        return obs[length] if length < len(obs) else -1

    def next_logits(self, history: TokenSeq, ctx: UtteranceContext) -> np.ndarray:
        return self.log_rows[self.row_key(len(history), ctx)].copy()


@dataclass(frozen=True)
class ProviderSpec:
    """Declarative provider description, resolvable from a run config."""

    kind: str
    parameters: dict = field(default_factory=dict)

    KINDS = ("ngram-corrector", "acoustic-channel", "external")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParameterError(
                f"unknown provider kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if self.kind == "ngram-corrector" and "model_path" not in self.parameters:
            raise InvalidParameterError("ngram-corrector needs a model_path parameter")
        if self.kind == "acoustic-channel" and "manifest_path" not in self.parameters:
            raise InvalidParameterError("acoustic-channel needs a manifest_path parameter")
        if self.kind == "external" and "endpoint" not in self.parameters:
            raise InvalidParameterError("external provider needs an endpoint parameter")
