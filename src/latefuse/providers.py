"""Pluggable step-wise logit providers sharing one decoding space.

A provider is anything with a `vocab` attribute and a
`next_logits(history, ctx)` method returning a finite length-V float64
vector, deterministically from its inputs. Two concrete desk-scale
providers live here: an N-best-conditioned corrector (an n-gram language
model mixed with a positional vote over the hypothesis list) and a
noisy-channel acoustic model (a per-token confusion-matrix reader).
Their outputs depend only on their inputs, although `NgramModel` caches
the distributions it computed. The wire client, `wire.ExternalProvider`,
keeps the unread rows of its latest reply and counts what its steps
took, so callers that interleave utterances on one client evict each
other's rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import TokenSeq, Vocabulary, is_token_id_list, json_field
from .errors import InvalidInputError, InvalidParameterError

# Added inside ln() so logits stay finite even for exact-zero mixture
# entries; shifts any downstream probability by less than V * 1e-12.
LOG_EPS = 1e-12


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
    """

    def __init__(self, vocab: Vocabulary, order: int = 2, smoothing: float = 0.5):
        if order < 1:
            raise InvalidParameterError(f"order must be >= 1, got {order}")
        if not 0 <= smoothing < np.inf:
            raise InvalidParameterError(f"smoothing must be finite and >= 0, got {smoothing}")
        self.vocab = vocab
        self.order = int(order)
        self.smoothing = float(smoothing)
        self.ngram_counts: Counter = Counter()
        self.context_totals: Counter = Counter()
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
                ctx = self._context(history)
                self.ngram_counts[ctx + (tok,)] += 1
                self.context_totals[ctx] += 1
                history += (tok,)
        self._dist_cache.clear()

    def cond_dist(self, history: TokenSeq) -> np.ndarray:
        """P(v | last order-1 tokens of history) over the whole vocabulary."""
        ctx = self._context(history)
        cached = self._dist_cache.get(ctx)
        if cached is not None:
            return cached
        v = self.vocab.size
        total = self.context_totals.get(ctx, 0)
        if total == 0 and self.smoothing == 0.0:
            dist = np.full(v, 1.0 / v)
        else:
            counts = np.zeros(v)
            for tok in range(v):
                c = self.ngram_counts.get(ctx + (tok,))
                if c:
                    counts[tok] = c
            dist = (counts + self.smoothing) / (total + self.smoothing * v)
        self._dist_cache[ctx] = dist
        return dist

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "smoothing": self.smoothing,
            "ngrams": [
                [list(key), count] for key, count in sorted(self.ngram_counts.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, vocab: Vocabulary) -> "NgramModel":
        """The model `to_dict` wrote: each n-gram is a [key, count] pair, its
        key `order` token ids below V, listed once, its count in [1, 2**53]."""
        order, v = json_field(data, "order", (int,)), vocab.size
        model = cls(vocab, order=order, smoothing=json_field(data, "smoothing", (int, float)))
        for entry in json_field(data, "ngrams", (list,)):
            key, count = entry if type(entry) is list and len(entry) == 2 else (None, None)
            if not is_token_id_list(key, v) or len(key) != order:
                raise InvalidParameterError(f"n-gram [key, count] must have a key of {order} "
                                            f"token ids in [0, {v}), got {entry!r:.200}")
            if type(count) is not int or not 1 <= count <= 2 ** 53:
                raise InvalidParameterError(
                    f"n-gram count must be an integer in [1, 2**53], got {count!r:.200}")
            key = tuple(key)
            if key in model.ngram_counts:
                raise InvalidParameterError(f"n-gram key {list(key)} is listed twice")
            model.ngram_counts[key] = count
            model.context_totals[key[:-1]] += count
        return model


class NgramCorrector:
    """N-best-conditioned corrector: n-gram prior mixed with a positional vote.

    The step-t distribution is
        (1 - vote_weight) * p_ngram(v | history) + vote_weight * p_vote(v | t, nbest)
    where p_vote is the relative frequency of tokens at position t across
    the hypotheses that are long enough (uniform when none is). Logits are
    the natural log of this mixture.
    """

    def __init__(self, model: NgramModel, vote_weight: float = 0.5):
        if not 0.0 <= vote_weight <= 1.0:
            raise InvalidParameterError(f"vote_weight must be in [0, 1], got {vote_weight}")
        self.model = model
        self.vocab = model.vocab
        self.vote_weight = float(vote_weight)

    def _vote(self, position: int, nbest: tuple[TokenSeq, ...]) -> np.ndarray:
        v = self.vocab.size
        dist = np.zeros(v)
        covering = 0
        for hyp in nbest:
            if position < len(hyp):
                dist[hyp[position]] += 1.0
                covering += 1
        if covering == 0:
            return np.full(v, 1.0 / v)
        return dist / covering

    def next_logits(self, history: TokenSeq, ctx: UtteranceContext) -> np.ndarray:
        p = self.model.cond_dist(history)
        if self.vote_weight > 0.0:
            vote = self._vote(len(history) - 1, ctx.nbest)
            p = (1.0 - self.vote_weight) * p + self.vote_weight * vote
        return np.log(p + LOG_EPS)


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
    """

    def __init__(self, vocab: Vocabulary, confusion: np.ndarray):
        confusion = np.asarray(confusion, dtype=np.float64)
        v = vocab.size
        if confusion.shape != (v, v):
            raise InvalidInputError(f"confusion matrix must be {v}x{v}, got {confusion.shape}")
        if np.any(confusion < 0) or np.any(np.abs(confusion.sum(axis=1) - 1.0) > 1e-9):
            raise InvalidInputError("confusion matrix rows must be nonnegative and sum to 1")
        self.vocab = vocab
        self._log_rows = np.log(confusion + LOG_EPS)
        eos_row = np.zeros(v)
        eos_row[Vocabulary.EOS] = 1.0
        self._log_eos_row = np.log(eos_row + LOG_EPS)

    def next_logits(self, history: TokenSeq, ctx: UtteranceContext) -> np.ndarray:
        obs = ctx.observation
        if obs is None:
            raise InvalidInputError(f"utterance {ctx.utt_id!r} has no observation")
        step = len(history)
        if step < len(obs):
            return self._log_rows[obs[step]].copy()
        return self._log_eos_row.copy()


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
