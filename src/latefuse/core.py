"""Shared vocabulary, token-sequence and probability-vector primitives.

Token sequences are plain tuples of ids. Logits and probability
distributions are 1-D float64 numpy arrays of length V. All operations
here are pure functions over immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

TokenSeq = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token-id <-> token-string map with reserved boundary ids.

    Ids 0, 1, 2 are BOS, EOS and UNK respectively; real words follow.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    BOS = 0
    EOS = 1
    UNK = 2

    def __post_init__(self):
        if len(self.tokens) < 3:
            raise InvalidInputError("vocabulary needs at least BOS, EOS and UNK")
        index = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise InvalidInputError(f"duplicate token {tok!r}")
            index[tok] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_words(cls, words):
        """Build a vocabulary from an iterable of words (specials prepended)."""
        specials = ("<s>", "</s>", "<unk>")
        seen = dict.fromkeys(w for w in words if w not in specials)
        return cls(tokens=specials + tuple(seen))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Id of `token`, falling back to UNK for out-of-vocabulary words."""
        return self._index.get(token, self.UNK)

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode(self, text: str, append_eos: bool = False) -> TokenSeq:
        """Whitespace-tokenize `text` into ids (UNK for unknown words)."""
        ids = tuple(self.id_of(w) for w in text.split())
        return ids + (self.EOS,) if append_eos else ids

    def decode(self, ids: TokenSeq) -> str:
        """Surface form of `ids`, dropping BOS/EOS markers."""
        return " ".join(
            self.tokens[i] for i in ids if i not in (self.BOS, self.EOS)
        )

    def content_hash(self) -> str:
        """sha256 over the token list; used by the wire-protocol handshake."""
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path):
        """One token per line; line number is the id (specials first)."""
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as f:
            tokens = tuple(line.rstrip("\n") for line in f if line.rstrip("\n"))
        return cls(tokens=tokens)


def as_logits(values, size: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 logit vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-D vector")
    if size is not None and arr.size != size:
        raise InvalidInputError(f"logits length {arr.size} != vocabulary size {size}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("logits must be finite")
    return arr


def as_prob_dist(values) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum within 1e-9 of 1.

    One min and one sum decide: a NaN entry makes the min NaN, and +inf
    makes the sum infinite, so neither comparison can pass.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("distribution must be a non-empty 1-D vector")
    if not arr.min() >= 0.0:
        raise InvalidInputError("distribution entries must be finite and >= 0")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidInputError(f"distribution sums to {total!r}, not 1")
    return arr


def softmax_with_temperature(logits, tau: float) -> np.ndarray:
    """softmax(logits / tau) with max-subtraction for overflow safety.

    tau > 0 scales the logits before normalization, so the argmax (and any
    ties) of the output always matches the argmax of the input.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise InvalidParameterError(f"tau must be a positive finite real, got {tau!r}")
    scaled = as_logits(logits) / float(tau)
    scaled -= scaled.max()
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum()
    return scaled


def entropy(dist) -> float:
    """Shannon entropy in nats, with 0 * ln 0 := 0; result in [0, ln V]."""
    p = as_prob_dist(dist)
    nz = p[p > 0.0]
    h = float(-(nz * np.log(nz)).sum())
    # Clamp float noise; uniform gives exactly ln V up to rounding.
    return min(max(h, 0.0), math.log(p.size))


def argmax_token(dist) -> int:
    """Index of the largest entry, ties broken toward the lowest id."""
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("cannot take argmax of an empty vector")
    return int(arr.argmax())


def sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)
