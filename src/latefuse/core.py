"""Shared vocabulary, token-sequence and probability-vector primitives,
and the one line reader, JSON parse and field check every input file
goes through.

Token sequences are plain tuples of ids. Logits and probability
distributions are 1-D float64 numpy arrays of length V. A provider's
logit row is checked once, by `as_logits` inside
`softmax_with_temperature`; `entropy` and `argmax_token` then trust the
arrays the program made and check nothing. `softmax_rows` and `entropy`
also take a `(B, V)` block of rows the program made, and give each row
the 1-D result, bit for bit, for one call's overhead instead of B.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusSchemaError, InvalidInputError, InvalidParameterError

TokenSeq = tuple[int, ...]


class _TokenIds(dict):
    """token -> id; a token it lacks reads as UNK, and is not added."""

    __slots__ = ()

    def __missing__(self, token):
        return Vocabulary.UNK


# The ufunc reductions behind `ndarray.all/max/min/sum`, called directly:
# the method wrappers cost more per call than a short row's reduction,
# and the result is the same reduction, bit for bit.
_all = np.logical_and.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_sum = np.add.reduce


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token-id <-> token-string map with reserved boundary ids.

    Ids 0, 1, 2 are BOS, EOS and UNK respectively, with the tokens of
    `SPECIALS`; real words follow.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    BOS = 0
    EOS = 1
    UNK = 2
    SPECIALS = ("<s>", "</s>", "<unk>")  # the tokens of ids 0, 1 and 2

    def __post_init__(self):
        if self.tokens[:3] != self.SPECIALS:
            raise InvalidInputError(
                f"vocabulary must begin with {self.SPECIALS}, got {self.tokens[:3]}")
        index = _TokenIds((tok, i) for i, tok in enumerate(self.tokens))
        if len(index) < len(self.tokens):
            raise InvalidInputError("vocabulary repeats a token")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_words(cls, words):
        """Build a vocabulary from an iterable of words (specials prepended)."""
        seen = dict.fromkeys(w for w in words if w not in cls.SPECIALS)
        return cls(tokens=cls.SPECIALS + tuple(seen))

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
        ids = [*map(self._index.__getitem__, text.split())]
        if append_eos:
            ids.append(self.EOS)
        return tuple(ids)

    def decode(self, ids: TokenSeq) -> str:
        """Surface form of `ids`, dropping BOS/EOS markers."""
        tokens = self.tokens
        return " ".join([tokens[i] for i in ids if i not in (0, 1)])  # BOS, EOS

    def content_hash(self) -> str:
        """sha256 over the token list; used by the wire-protocol handshake."""
        import hashlib  # here, not at the top: only the wire handshake needs it

        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path):
        """One token per line; line number is the id (specials first)."""
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The vocabulary `save` wrote, blank lines skipped; a token holding
        whitespace (`encode` never yields one) or seen twice, or a file whose
        first three tokens are not `SPECIALS` in order, is a data error."""
        first_line = {}  # token -> line; insertion order is id order
        for line_no, tok in read_lines(path):
            if not tok:
                continue
            if tok.split() != [tok]:
                raise InvalidInputError(f"{path}:{line_no}: token {tok!r} holds whitespace")
            if tok in first_line:
                raise InvalidInputError(
                    f"{path}:{line_no}: token {tok!r} repeats line {first_line[tok]}")
            first_line[tok] = line_no
        for tok, special in zip(first_line, cls.SPECIALS):
            if tok != special:
                raise InvalidInputError(
                    f"{path}:{first_line[tok]}: token {tok!r} where {special!r} belongs; "
                    f"the first three tokens must be {' '.join(cls.SPECIALS)}")
        if len(first_line) < 3:
            raise InvalidInputError(f"{path}: vocabulary needs at least BOS, EOS and UNK")
        return cls(tokens=tuple(first_line))


def read_lines(path):
    """(line number, line without its "\n" or "\r\n") for each line of a
    UTF-8 text file; a line that is not UTF-8 is a data error naming the
    file and the line."""
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInputError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
            yield line_no, line.rstrip("\r\n")


def loads(text: str):
    """The JSON value of `text`. Every way of failing raises ValueError: a
    syntax error, an integer past the digit limit, nesting too deep."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number", list: "a list"}
_MISSING = object()


def json_field(data, key: str, types: tuple, ok=None, rule: str | None = None,
               where: str = ""):
    """`data[key]` if its JSON type is one of `types` and `ok(value)`, if
    given, holds; a bool is no number, and a number is finite and within
    float range. Else CorpusSchemaError naming `key` (`data` not an object
    included), saying what it must be (`rule`), prefixed by `where`."""
    value = data.get(key, _MISSING) if type(data) is dict else _MISSING
    kind = type(value)
    if kind in types and (kind is not int and kind is not float
                          or abs(value) <= sys.float_info.max) and (ok is None or ok(value)):
        return value
    prefix = f"{where}: " if where else ""
    if value is _MISSING:
        raise CorpusSchemaError(key, f"{prefix}{key!r} is a required field and is missing")
    rule = rule or " or ".join(_KIND_NAMES[t] for t in types)
    raise CorpusSchemaError(key, f"{prefix}{key!r} must be {rule}, got {value!r:.200}")


def is_token_id_list(value, size: int) -> bool:
    """A list of JSON integers in [0, size); a boolean is not one."""
    return isinstance(value, list) and all(type(t) is int and 0 <= t < size for t in value)


def as_logits(values, size: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 logit vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-D vector")
    if size is not None and arr.size != size:
        raise InvalidInputError(f"logits length {arr.size} != vocabulary size {size}")
    if not _all(np.isfinite(arr)):
        raise InvalidInputError("logits must be finite")
    return arr


def as_prob_dist(values) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum within 1e-9 of 1.

    One min and one sum decide: a NaN entry makes the min NaN, and +inf
    makes the sum infinite, so neither comparison can pass. No decoder
    calls it; the benchmark's trace (bench/layers.py) wraps it by name.
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
    ties) of the output always matches the argmax of the input. A tau so
    small that a logit / tau overflows is a parameter error.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise InvalidParameterError(f"tau must be a positive finite real, got {tau!r}")
    arr = as_logits(logits)
    top = float(_max(arr)) / tau  # == (arr / tau).max(): x / tau is monotone, correctly rounded
    # only a tau < 1 can scale a finite logit past the float range
    if tau < 1 and not (math.isfinite(top) and math.isfinite(float(_min(arr)) / tau)):
        raise InvalidParameterError(f"tau {tau!r} is too small: a logit / tau overflows")
    scaled = arr / float(tau)
    scaled -= top
    np.exp(scaled, out=scaled)
    scaled /= _sum(scaled)
    return scaled


def softmax_rows(block: np.ndarray, tau: float) -> np.ndarray:
    """`softmax_with_temperature` of each row of a `(B, V)` float64 block,
    bit for bit, with its checks made per row before any division: a row
    with a logit that is not finite, or one that tau would overflow, comes
    out all NaN instead of raising, and nothing warns.

    It is a function of its own because a provider's row must stay 1-D:
    `softmax_with_temperature` refuses a `(1, V)` row as a data error. It
    repeats that function's arithmetic on the block rather than share a
    helper with it: the helper's calls measurably slowed the 1-D function,
    which every row read without a lattice goes through.
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise InvalidParameterError(f"tau must be a positive finite real, got {tau!r}")
    with np.errstate(over="ignore"):  # an overflow here is what the check looks for
        top = _max(block, axis=1, keepdims=True) / tau
        bottom = _min(block, axis=1, keepdims=True) / tau
    # a NaN or infinite logit makes its row's max or min one too
    bad = ~(np.isfinite(top) & np.isfinite(bottom))
    if bad.any():  # zero the flagged rows so that nothing below overflows
        block = np.where(bad, 0.0, block)
        top[bad] = 0.0
    scaled = block / float(tau)
    scaled -= top
    np.exp(scaled, out=scaled)
    scaled /= _sum(scaled, axis=1, keepdims=True)
    scaled[bad[:, 0]] = np.nan
    return scaled


def entropy(dist) -> float | list[float]:
    """Shannon entropy in nats, with 0 * ln 0 := 0; result in [0, ln V].

    `dist` must be a valid non-empty 1-D distribution, such as a
    `softmax_with_temperature` output; it is not checked. A row with no
    zero is summed whole; only a row with one is copied without its zeros,
    so the terms summed, and their order, are those of the nonzero entries
    either way.

    A 2-D `(B, V)` block of such rows gives a list of B floats, each the
    1-D result for its row: the rows without a zero are summed in one
    block, and a row with one goes through the 1-D rule.
    """
    p = np.asarray(dist)
    if p.ndim == 2:
        return _row_entropies(p)
    nz = p if _min(p) > 0.0 else p[p > 0.0]
    terms = np.log(nz)
    terms *= nz
    h = -float(_sum(terms))
    # Clamp float noise; uniform gives exactly ln V up to rounding.
    return min(max(h, 0.0), math.log(p.size))


def _row_entropies(p: np.ndarray) -> list[float]:
    """The 2-D case of `entropy`."""
    whole = _min(p, axis=1) > 0.0
    nz = p if whole.all() else p[whole]
    terms = np.log(nz)
    terms *= nz
    hs = np.minimum(np.maximum(-_sum(terms, axis=1), 0.0), math.log(p.shape[1])).tolist()
    if nz is p:
        return hs
    hs = iter(hs)
    return [next(hs) if w else entropy(row) for w, row in zip(whole.tolist(), p)]


def argmax_token(dist) -> int:
    """Index of the largest entry, ties broken toward the lowest id.

    `dist` must be a non-empty 1-D vector without NaN; it is not checked.
    It calls the array method, because `np.argmax` costs about three times
    as much per call.
    """
    return int(np.asarray(dist).argmax())


def sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)
