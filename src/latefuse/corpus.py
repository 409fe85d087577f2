"""Synthetic corpus generation and corpus-file serialization.

References come from a small template grammar (or a text file), pass
through a per-word noisy channel, and get an N-best list from beam
search over an analytically derived decoder matrix. The channel draws a
substitution by inverse CDF, from cumulative kernel rows cached once
per kernel: the same draw `Generator.choice` makes with the row as `p`.
The N-best noise draw and the stored fusion-time observation are
independent draws of the same channel, so hypothesis evidence and the
acoustic provider are correlated but distinct. Everything is
deterministic: each noise draw's stream is `default_rng` of the corpus
seed xor a sha256 of the utterance id, and `generate_corpus` seeds every
draw's PCG64 state in one batch (`_record_bits`), with numpy's seeding
arithmetic run on arrays, then hands each `corrupt` call its bit
generator. Each generator's uniform and bounded-integer draws are decoded
from its raw 64-bit words, read in blocks (`_Draws`), and are the values,
in the order, that scalar `Generator.random()` and `Generator.integers(n)`
calls return.

`load_corpus` reads each record in one walk (`_record`): a field of the
form `save_corpus` writes passes a plain type test, and only a field
that fails it goes through its check, which reads the other forms a
file may take (integer ids and scores, plain-string hypotheses,
hypotheses without a score, records without an observation) or names
the field with its file, line and hypothesis rank.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import TokenSeq, Vocabulary, json_field, loads, read_lines
from .errors import (
    CorpusParseError,
    CorpusSchemaError,
    InvalidInputError,
    InvalidParameterError,
)
from .providers import AcousticChannel, UtteranceContext

# Word pools for the template grammar; together with the three specials
# the built-in vocabulary has exactly 200 entries.
WORD_POOLS = {
    "opener": "please kindly now then also next first finally".split(),
    "verb": ("show list find book cancel confirm check give display fetch update "
             "remove compare count open close send read print sort filter save "
             "load play").split(),
    "det": "the a this that every some".split(),
    "adj": ("early late cheap direct quick full empty new old busy quiet long "
            "short final daily local express major minor red blue green heavy "
            "light wide smart slow fast").split(),
    "noun": ("flight fare seat gate plane train ticket route map table chart "
             "report price menu code city airport hotel room meal crew pilot "
             "bag tag desk door sign board clock time date day week month year "
             "plan trip tour guide pass").split(),
    "prep": "to from in on at with for by about near".split(),
    "place": ("boston denver dallas austin miami seattle phoenix atlanta chicago "
              "detroit houston memphis nashville oakland orlando portland reno "
              "tampa tucson omaha boise fresno newark buffalo raleigh richmond "
              "salem savannah toledo wichita").split(),
    "time": ("today tomorrow tonight monday tuesday wednesday thursday friday "
             "saturday sunday morning afternoon evening noon midnight april "
             "may june").split(),
    "conn": "and or but while before after".split(),
    "number": "one two three four five six seven eight nine ten twenty thirty".split(),
    "adv": ("quickly directly soon again only really very quite almost nearly "
            "exactly mostly rarely always never").split(),
}

_PATTERNS = (
    ("verb", "det", "noun"),
    ("verb", "det", "adj", "noun"),
    ("opener", "verb", "det", "noun", "prep", "place"),
    ("det", "noun", "prep", "det", "adj", "noun"),
    ("number", "noun", "prep", "place"),
    ("verb", "det", "noun", "prep", "time"),
    ("prep", "time"),
    ("adv",),
)
# The patterns of at most b words, in `_PATTERNS` order, for each budget
# b up to the longest pattern's length; a larger budget takes them all.
_LONGEST = max(map(len, _PATTERNS))
_FITTING = tuple(tuple(p for p in _PATTERNS if len(p) <= b) for b in range(_LONGEST + 1))


def builtin_vocabulary() -> Vocabulary:
    words = [w for pool in WORD_POOLS.values() for w in pool]
    return Vocabulary.from_words(words)


@dataclass(frozen=True)
class ChannelSpec:
    """Per-word corruption rates plus the substitution kernel shape."""

    sub_rate: float = 0.15
    del_rate: float = 0.02
    ins_rate: float = 0.02
    concentration: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sub_rate", "del_rate", "ins_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1], got {rate}")
        if self.sub_rate + self.del_rate > 1.0:
            raise InvalidParameterError("sub_rate + del_rate must not exceed 1")
        if not (math.isfinite(self.concentration) and self.concentration > 0):
            raise InvalidParameterError(
                f"concentration must be finite and > 0, got {self.concentration}")
        if not 0 <= self.seed < 2**64:  # record noise reads a seed's low 64 bits only
            raise InvalidParameterError(f"seed must be in [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    reference: str
    observation: str
    nbest: tuple = field(default_factory=tuple)  # ((text, score), ...) best-first


# SeedSequence's 32-bit hash constants follow a fixed sequence whatever the
# seed: 16 steps of the first mix the pool, 8 of the second make the state.
# NEP 19 does not promise this seeding across numpy versions (TestBatchedSeeding).
_M32 = 0xFFFFFFFF
_POOL_HASH = [0x43B0D7E5 * 0x931E8875 ** k & _M32 for k in range(17)]
_STATE_HASH = [0x8B51F9DD * 0x58F38DED ** k & _M32 for k in range(9)]
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _record_seeds(seed: int, utt_ids) -> list[int]:
    """`seed ^ int(sha256(id)[:8])` for each id: the seed of its draws."""
    import hashlib  # here, not at the top: only a corpus draw (`simulate`) needs it

    return [seed ^ int.from_bytes(hashlib.sha256(u.encode("utf-8")).digest()[:8], "big")
            for u in utt_ids]


def _record_bits(seed: int, utt_ids):
    """For each id in turn, one reused `PCG64` in the state
    `default_rng(seed ^ int(sha256(id)[:8]))` starts in, `seed < 2**64`.

    Every id is hashed and seeded before the first is yielded: SeedSequence
    (a pool of 4 words mixed from the seed's two 32-bit halves, then
    `generate_state(4, uint64)`) runs on uint64 arrays masked to 32 bits,
    and `pcg64_set_seed` in Python ints mod 2**128. A record's words must
    be read before the next is yielded, which sets the state anew."""
    seeds = np.array(_record_seeds(seed, utt_ids), dtype=np.uint64)

    def hashmix(v, consts):
        xor, mult = next(consts)
        v = (v ^ xor) * mult & _M32
        return v ^ v >> 16

    mixing, zeros = iter(zip(_POOL_HASH, _POOL_HASH[1:])), np.zeros_like(seeds)
    pool = [hashmix(v, mixing) for v in (seeds & _M32, seeds >> 32, zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                r = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src], mixing) & _M32
                pool[dst] = r ^ r >> 16
    state = iter(zip(_STATE_HASH, _STATE_HASH[1:]))
    halves = np.stack([hashmix(pool[i % 4], state) for i in range(8)], axis=1)
    words = halves[:, 0::2] | halves[:, 1::2] << 32  # (ids, 4), as generate_state returns them
    del seeds, zeros, pool, halves  # only `words` is held while the records are drawn
    bits = np.random.PCG64()
    for w0, w1, w2, w3 in map(np.ndarray.tolist, words):
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128, "inc": inc}}
        yield bits


class _Draws:
    """The values scalar `random()` and `integers(n)` calls on a fresh
    `Generator` of the PCG64 `bits` return, decoded from its raw 64-bit
    words, which are read `block` at a time with `bits.random_raw`; only
    those words and `bits.advance` are used, so `bits` may be one that
    `_record_bits` reuses.

    `random()` is a word's top 53 bits times 2**-53. `integers(n)`, for
    1 <= n <= 2**32, is Lemire's bounded method on 32-bit halves: a
    word's low half serves first and its high half is kept for the next
    call, as PCG64's `has_uint32` buffer keeps it; `n == 1` draws
    nothing. A block that runs out is refilled from the same bit
    generator. `settle()` steps the bit generator back over the words not
    yet decoded, so that a draw numpy then makes itself (one that reads
    whole words, such as `normal`) goes on from the next word; a kept half
    stays kept.
    """

    __slots__ = ("_raw", "_advance", "_block", "_words", "_half")

    def __init__(self, bits: np.random.PCG64, block: int):
        self._raw = bits.random_raw
        self._advance = bits.advance
        self._block = block
        self._words = iter(())
        self._half = None

    def _word(self) -> int:
        for word in self._words:
            return word
        self._words = iter(self._raw(self._block).tolist())
        return next(self._words)

    def random(self) -> float:
        for word in self._words:
            return (word >> 11) * 2.0 ** -53
        return (self._word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:  # only then can the low 32 bits fall under the threshold
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def settle(self) -> None:
        unread = self._words.__length_hint__()
        if unread:
            self._advance(-unread)
            self._words = iter(())


# Attractor structure of the substitution kernel: words form clusters of
# HUB_CLUSTER consecutive ids whose first member is the cluster's "hub",
# an acoustically central word that attracts HUB_PULL of its mates'
# substitution mass. Observing a hub is therefore weak evidence (many
# sources collapse into it), which is what makes some positions genuinely
# ambiguous instead of uniformly confident.
HUB_CLUSTER = 8
HUB_PULL = 0.55

# Largest `mean_len` the grammar fills sentences to, in words: a sentence
# is built word by word, so a huge mean would never finish.
MAX_MEAN_LEN = 1000.0
# Largest split `generate_corpus` makes, in records: every reference of
# every split is drawn, and every record (about 2 KB) is held, before any
# is written, so a huge split would only run until memory runs out.
MAX_SPLIT_SIZE = 100_000
# Largest vocabulary the noisy channel takes, in tokens (specials
# included): `decoder_confusion` and `_substitution_kernel` build dense
# V x V float64 arrays, 8 x 4096^2 B = 134 MB each at the cap, and
# building the channel holds about six at its peak (the kernel, its
# cumulative rows, the decoder matrix, the provider's log rows and
# temporaries), about 0.8 GB. A larger vocabulary would only run until
# memory runs out.
MAX_CHANNEL_VOCAB = 4096
# Candidates (utterances x beam_width x min(beam_width, V)) a step of a
# `beam_search` call of `generate_corpus` scores: as many utterances as
# fit, one at least. Bigger calls rank fewer rows anew but hold bigger
# temporaries: at V = 200, beam 8, calls of 1,024 searched 2,700 records
# about 4% faster than calls of 512, at 2 MB more peak RSS.
SEARCH_CANDIDATES = 1 << 15
# Raw words `sample_references` reads at a time from a list of sentences,
# whatever the number of references drawn.
SOURCE_BLOCK = 256


@functools.lru_cache(maxsize=8)
def _substitution_kernel(n_words: int, concentration: float) -> np.ndarray:
    """Row-stochastic word-confusability kernel with zero diagonal.

    Each row mixes a pull toward the word's cluster hub with an
    exponential decay over cyclic id distance (sharpness = concentration),
    modulated so different word pairs have different margins (a constant
    profile would make all single-substitution beam candidates tie
    exactly). Built once per (n_words, concentration) and returned
    read-only, since the cache shares it.
    """
    idx = np.arange(n_words)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, n_words - dist)
    # the diagonal, zeroed below, decays from distance 1 too: exp(+concentration) overflows;
    # a concentration near the float range overflows the product to -inf, whose exp is 0
    with np.errstate(over="ignore"):
        kernel = np.exp(-concentration * (np.maximum(dist, 1) - 1.0))
    kernel *= 1.0 + 0.6 * np.cos(0.7 * (idx[:, None] + idx[None, :]))
    np.fill_diagonal(kernel, 0.0)
    kernel /= kernel.sum(axis=1, keepdims=True)
    if n_words > HUB_CLUSTER:
        hubs = (idx // HUB_CLUSTER) * HUB_CLUSTER
        is_mate = hubs != idx
        kernel[is_mate] *= 1.0 - HUB_PULL
        kernel[idx[is_mate], hubs[is_mate]] += HUB_PULL
    kernel.flags.writeable = False
    return kernel


@functools.lru_cache(maxsize=8)
def _substitution_cdf(n_words: int, concentration: float) -> np.ndarray:
    """Row-wise cumulative sums of `_substitution_kernel`, each row divided
    by its last entry, as `Generator.choice(n, p=row)` builds them per call.

    A row's `searchsorted(rng.random(), side="right")` is then the draw
    `choice` makes, from the same single uniform. Built once per
    (n_words, concentration) and returned read-only, like the kernel.
    """
    cdf = _substitution_kernel(n_words, concentration).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    cdf.flags.writeable = False
    return cdf


def decoder_confusion(vocab: Vocabulary, channel: ChannelSpec) -> np.ndarray:
    """Posterior matrix P(true token | observed token) for the channel.

    Under a uniform prior over source words, row o is proportional to the
    channel likelihood P(observed=o | true=y), i.e. identity mass
    (1 - sub - del) plus sub times the kernel COLUMN of o; rows of
    attractor hubs come out flat because many sources feed them.
    Special-token rows are identity. Insertions and deletions shift
    alignment instead, which this per-position model cannot represent.
    """
    v = vocab.size
    if v > MAX_CHANNEL_VOCAB:  # before any V x V array is allocated
        raise InvalidInputError(
            f"a vocabulary of {v} tokens is over the noisy channel's cap of "
            f"{MAX_CHANNEL_VOCAB}: each of its {v}x{v} float64 matrices would take "
            f"{8 * v * v / 1e6:.0f} MB")
    n_words = v - 3
    matrix = np.eye(v)
    if n_words > 1:
        kernel = _substitution_kernel(n_words, channel.concentration)
        # rounding can take 1 - sub - del below 0 when sub + del is 1
        keep = max(0.0, 1.0 - channel.sub_rate - channel.del_rate)
        block = keep * np.eye(n_words) + channel.sub_rate * kernel.T
        mass = block.sum(axis=1, keepdims=True)
        if not np.all(mass > 0):
            raise InvalidParameterError(
                f"sub_rate {channel.sub_rate} and del_rate {channel.del_rate} give an observed "
                "word no true word to decode to (need sub_rate > 0 or sub_rate + del_rate < 1)")
        matrix[3:, 3:] = block / mass
    return matrix


def sample_references(sentences, n: int, seed: int, mean_len: float = 12.0) -> list[str]:
    """Draw `n` reference sentences from the grammar or a list of sentences.

    A list is sampled with replacement; the built-in grammar fills each
    sentence with whole phrases to an exact per-sentence target length
    drawn around `mean_len`. The `integers` and `random` draws are decoded
    from the generator's raw words read in blocks (`_Draws`), and each
    sentence's `normal` is drawn by numpy after `settle`, so the stream is
    the one scalar calls on `default_rng(seed)` make.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 0 <= mean_len <= MAX_MEAN_LEN:
        raise InvalidParameterError(
            f"mean_len must be in [0, {MAX_MEAN_LEN:g}], got {mean_len}")
    rng = np.random.default_rng(seed)
    if sentences is not None:
        draws = _Draws(rng.bit_generator, SOURCE_BLOCK)
        return [sentences[draws.integers(len(sentences))] for _ in range(n)]
    draws = _Draws(rng.bit_generator, int(mean_len) + 8)  # most sentences' draws fit in one block
    return [" ".join(_grammar_sentence(rng, draws, mean_len)) for _ in range(n)]


def _grammar_sentence(rng: np.random.Generator, draws: _Draws, mean_len: float) -> list[str]:
    draws.settle()
    target = max(4, int(round(rng.normal(mean_len, mean_len / 4.0))))
    words: list[str] = []
    while len(words) < target:
        remaining = target - len(words)
        connector = bool(words) and remaining >= 3 and draws.random() < 0.2
        budget = remaining - (1 if connector else 0)
        options = _FITTING[min(budget, _LONGEST)]
        pattern = options[draws.integers(len(options))]
        if connector:
            pool = WORD_POOLS["conn"]
            words.append(pool[draws.integers(len(pool))])
        for role in pattern:
            pool = WORD_POOLS[role]
            words.append(pool[draws.integers(len(pool))])
    return words


_RESERVED = frozenset(Vocabulary.SPECIALS[:Vocabulary.UNK])  # the BOS and EOS tokens


def _words(text: str, key: str, where: str) -> str:
    """`text`, unless a word of it is the BOS or EOS token, which `encode`
    would read as that id: then CorpusSchemaError naming `key`, prefixed
    by `where`."""
    if "s>" in text:  # both tokens end so; the substring test is cheaper than a split
        found = _RESERVED.intersection(text.split())
        if found:
            raise CorpusSchemaError(key, f"{where}: reserved token {min(found)!r} in {key!r}")
    return text


def _read_sentences(source) -> list[str]:
    """The lower-cased non-blank lines of a source file; a line holding a
    BOS or EOS token is a data error (`_words`)."""
    sentences = []
    for line_no, line in read_lines(source):
        sentence = _words(line.strip().lower(), "sentence", f"{source}:{line_no}")
        if sentence:
            sentences.append(sentence)
    return sentences


def corrupt(reference_words, channel: ChannelSpec, vocab: Vocabulary,
            utt_id: str = "", *, bits: np.random.PCG64 | None = None) -> list[str]:
    """Apply per-word substitution/deletion plus boundary insertions.

    Deterministic given (channel.seed, utt_id): the draws come from `bits`,
    the record's bit generator as `_record_bits` seeds a batch of ids
    (`generate_corpus` hands one over per call), or, if None, from a
    `PCG64` that numpy seeds to the same state. Substitutions are drawn
    from the kernel row of the source word, which never returns the
    original: an inverse-CDF lookup of one uniform in the row's cached
    cumulative sums (`_substitution_cdf`), the same draw, and the same
    generator state after it, as `rng.choice(n_words, p=kernel[wid])`.
    Inserted words are uniform over the word inventory. Every draw is
    decoded from one block of the record generator's raw words, 4 per
    reference word and 2 more, which hold a record's draws unless a
    bounded integer is rejected (`_Draws`); the stream is the one scalar
    `random` and `integers` calls make.
    """
    if bits is None:
        bits = np.random.PCG64(_record_seeds(channel.seed, [utt_id])[0])
    draws = _Draws(bits, 4 * len(reference_words) + 2)
    random, integers = draws.random, draws.integers
    n_words = vocab.size - 3
    cdf = _substitution_cdf(n_words, channel.concentration) if n_words > 1 else None
    out: list[str] = []
    for word in reference_words:
        if random() < channel.ins_rate and n_words > 0:
            out.append(vocab.token_of(3 + integers(n_words)))
        roll = random()
        if roll < channel.sub_rate:
            wid = vocab.id_of(word) - 3
            if cdf is not None and wid >= 0:
                out.append(vocab.token_of(
                    3 + int(cdf[wid].searchsorted(random(), side="right"))))
            else:
                out.append(word)
        elif roll < channel.sub_rate + channel.del_rate:
            continue
        else:
            out.append(word)
    if random() < channel.ins_rate and n_words > 0:
        out.append(vocab.token_of(3 + integers(n_words)))
    return out


def encode_observation(text: str, vocab: Vocabulary) -> TokenSeq:
    """The BOS-aligned observation of `text`, (BOS, *word ids, EOS): the
    id at position t is the one `AcousticChannel.row_key` reads for a
    history of t ids."""
    return (Vocabulary.BOS, *vocab.encode(text), Vocabulary.EOS)


def record_context(record: CorpusRecord, vocab: Vocabulary):
    """Decode-ready (UtteranceContext, reference_words) for one record;
    each text is split and encoded once."""
    encode = vocab.encode
    ctx = UtteranceContext(
        utt_id=record.id,
        nbest=tuple([encode(text, append_eos=True) for text, _score in record.nbest]),
        observation=encode_observation(record.observation, vocab),
    )
    return ctx, record.reference.split()


def generate_corpus(
    channel: ChannelSpec,
    n_train: int,
    n_val: int,
    n_test: int,
    source=None,
    beam_width: int = 8,
    n_best: int = 5,
    mean_len: float = 12.0,
):
    """Generate disjoint train/val/test splits of CorpusRecords.

    Returns (splits, vocab) where splits maps split name to records. Each
    record carries an N-best list produced by beam search over the
    channel's decoder matrix on one noise draw, and an independent second
    noise draw as the fusion-time observation. Every draw's bit generator
    is seeded in one batch (`_record_bits`), then every record's draws
    come, then one `beam_search` call per chunk (`SEARCH_CANDIDATES`)
    searches its utterances in lockstep, reading each decoder row once.
    """
    from .decoding import MAX_BEAM_WIDTH, beam_search

    for name, count in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test)):
        if not 1 <= count <= MAX_SPLIT_SIZE:
            raise InvalidParameterError(
                f"{name} must be in [1, {MAX_SPLIT_SIZE}], got {count}")
    if n_best < 5:
        raise InvalidParameterError(f"n_best must be >= 5, got {n_best}")
    if not n_best <= beam_width <= MAX_BEAM_WIDTH:
        raise InvalidParameterError(
            f"beam_width must be in [n_best, {MAX_BEAM_WIDTH}], got {beam_width}")

    if source is None:
        sentences, vocab = None, builtin_vocabulary()
    else:
        sentences = _read_sentences(source)
        if not sentences:
            raise InvalidInputError(f"source file {source} has no sentences")
        vocab = Vocabulary.from_words(w for line in sentences for w in line.split())
    decoder = AcousticChannel(vocab, decoder_confusion(vocab, channel))

    sizes = (("train", n_train), ("val", n_val), ("test", n_test))
    ids = [f"{split}-{i:05d}" for split, count in sizes for i in range(count)]
    references, observed, ctxs, caps = [], [], [], []
    bits = _record_bits(channel.seed, (utt_id + tag for utt_id in ids
                                        for tag in ("#nbest", "#obs")))
    for utt_id, reference in zip(ids, sample_references(sentences, len(ids), channel.seed,
                                                        mean_len=mean_len)):
        ref_words = reference.split()
        nbest_words = corrupt(ref_words, channel, vocab, bits=next(bits))
        references.append(" ".join(ref_words))
        observed.append(" ".join(corrupt(ref_words, channel, vocab, bits=next(bits))))
        ctxs.append(UtteranceContext(
            utt_id=utt_id, observation=encode_observation(" ".join(nbest_words), vocab)))
        caps.append(max(4, len(nbest_words) + 4))
    del bits  # the batch's seeding words: freed before the search, not held through it
    chunk = max(1, SEARCH_CANDIDATES // (beam_width * min(beam_width, vocab.size)))
    nbests = []
    for lo in range(0, len(ids), chunk):
        nbests += [tuple((vocab.decode(seq), score) for seq, score in hyps) for hyps in
                   beam_search(decoder, ctxs[lo:lo + chunk], beam_width, n_best,
                               caps[lo:lo + chunk])]
    records = list(map(CorpusRecord, ids, references, observed, nbests))
    ends = np.cumsum([count for _, count in sizes]).tolist()
    return {split: records[end - count:end] for (split, count), end in zip(sizes, ends)}, vocab


def save_corpus(records, path):
    """One JSON object per line: id, reference, observation, nbest."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps({
                "id": rec.id,
                "reference": rec.reference,
                "observation": rec.observation,
                "nbest": [{"text": t, "score": s} for t, s in rec.nbest],
            }) + "\n")


def load_corpus(path) -> list[CorpusRecord]:
    """Load newline-delimited records (`_record`). Hypotheses without a
    score get rank-derived fallbacks (0, -1, -2, ...); a missing
    observation defaults to the first hypothesis; an `id` that repeats an
    earlier record's is a data error."""
    records, first_line = [], {}
    for line_no, raw in read_json_lines(path):
        record = _record(raw, path, line_no)
        if record.id in first_line:
            raise CorpusSchemaError("id", (
                f"{path}:{line_no}: 'id' {record.id!r} repeats the record "
                f"on line {first_line[record.id]}"))
        first_line[record.id] = line_no
        records.append(record)
    return records


def read_json_lines(path):
    """(line number, JSON value) for each non-blank line of the file."""
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            value = loads(line)
        except ValueError as exc:
            raise CorpusParseError(path, line_no, f"invalid JSON: {exc}") from exc
        yield line_no, value


def _record(raw, path, line_no: int) -> CorpusRecord:
    """The record of one parsed line, its fields read in order: id,
    reference, nbest, each hypothesis, observation. A field of the form
    `save_corpus` writes passes a plain type test; any other goes through
    its check (`json_field`, `_words`), which reads the other forms or
    names the field, the file and the line (and the hypothesis's rank)."""
    if type(raw) is not dict:
        raise CorpusParseError(path, line_no, "a record must be a JSON object")
    utt_id = raw.get("id")
    if type(utt_id) is not str:
        utt_id = str(json_field(raw, "id", (str, int), where=f"{path}:{line_no}"))
    reference = raw.get("reference")
    if not (type(reference) is str and reference.strip() and "s>" not in reference):
        where = f"{path}:{line_no}"
        reference = _words(json_field(raw, "reference", (str,), str.strip,
                                      "a non-empty string", where), "reference", where)
    hyps = raw.get("nbest")
    if not (type(hyps) is list and hyps):  # the check raises
        hyps = json_field(raw, "nbest", (list,), len, "a non-empty list", f"{path}:{line_no}")
    nbest = []
    for rank, hyp in enumerate(hyps):
        if type(hyp) is dict:
            text, score = hyp.get("text"), hyp.get("score")
            if (type(text) is str and "s>" not in text
                    and type(score) is float and math.isfinite(score)):
                nbest.append((text, score))
                continue
        at = f"{path}:{line_no}: hypothesis {rank}"
        text = hyp if type(hyp) is str else json_field(hyp, "text", (str,), where=at)
        score = -float(rank)  # a plain string, or a hypothesis without a score
        if type(hyp) is dict and hyp.get("score") is not None:
            score = float(json_field(hyp, "score", (int, float), where=at))
        nbest.append((_words(text, "text", at), score))
    observation = raw.get("observation", nbest[0][0])  # the 1-best text, checked above
    if (type(observation) is not str or "s>" in observation) and "observation" in raw:
        where = f"{path}:{line_no}"
        observation = _words(json_field(raw, "observation", (str,), where=where),
                             "observation", where)
    return CorpusRecord(id=utt_id, reference=reference, observation=observation,
                        nbest=tuple(nbest))
