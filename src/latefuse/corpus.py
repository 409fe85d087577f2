"""Synthetic corpus generation and corpus-file serialization.

References come from a small template grammar (or a text file), pass
through a per-word noisy channel, and get an N-best list from beam
search over an analytically derived decoder matrix. The N-best noise
draw and the stored fusion-time observation are independent draws of
the same channel, so hypothesis evidence and the acoustic provider are
correlated but distinct. Everything is deterministic: per-record RNG
streams are derived from the corpus seed and the utterance id.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

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
        if not self.seed >= 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "sub_rate": self.sub_rate,
            "del_rate": self.del_rate,
            "ins_rate": self.ins_rate,
            "concentration": self.concentration,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    reference: str
    observation: str
    nbest: tuple = field(default_factory=tuple)  # ((text, score), ...) best-first


def _record_rng(seed: int, utt_id: str) -> np.random.Generator:
    digest = hashlib.sha256(utt_id.encode("utf-8")).digest()
    return np.random.default_rng((seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big"))


# Attractor structure of the substitution kernel: words form clusters of
# HUB_CLUSTER consecutive ids whose first member is the cluster's "hub",
# an acoustically central word that attracts HUB_PULL of its mates'
# substitution mass. Observing a hub is therefore weak evidence (many
# sources collapse into it), which is what makes some positions genuinely
# ambiguous instead of uniformly confident.
HUB_CLUSTER = 8
HUB_PULL = 0.55


@functools.lru_cache(maxsize=8)
def _substitution_kernel(n_words: int, concentration: float) -> np.ndarray:
    """Row-stochastic word-confusability kernel with zero diagonal.

    Each row mixes a pull toward the word's cluster hub with an
    exponential decay over cyclic id distance (sharpness = concentration),
    modulated so different word pairs have different margins (a constant
    profile would make all single-substitution beam candidates tie
    exactly). Built once per (n_words, concentration) and returned
    read-only, since every record's `corrupt` reads it.
    """
    idx = np.arange(n_words)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, n_words - dist)
    # the diagonal, zeroed below, decays from distance 1 too: exp(+concentration) overflows
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
    n_words = v - 3
    matrix = np.eye(v)
    if n_words > 1:
        kernel = _substitution_kernel(n_words, channel.concentration)
        keep = 1.0 - channel.sub_rate - channel.del_rate
        block = keep * np.eye(n_words) + channel.sub_rate * kernel.T
        matrix[3:, 3:] = block / block.sum(axis=1, keepdims=True)
    return matrix


def sample_references(sentences, n: int, seed: int, mean_len: float = 12.0) -> list[str]:
    """Draw `n` reference sentences from the grammar or a list of sentences.

    A list is sampled with replacement; the built-in grammar fills each
    sentence with whole phrases to an exact per-sentence target length
    drawn around `mean_len`.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not (math.isfinite(mean_len) and mean_len >= 0):
        raise InvalidParameterError(f"mean_len must be finite and >= 0, got {mean_len}")
    rng = np.random.default_rng(seed)
    if sentences is not None:
        return [sentences[int(rng.integers(len(sentences)))] for _ in range(n)]
    return [" ".join(_grammar_sentence(rng, mean_len)) for _ in range(n)]


def _grammar_sentence(rng: np.random.Generator, mean_len: float) -> list[str]:
    target = max(4, int(round(rng.normal(mean_len, mean_len / 4.0))))
    words: list[str] = []
    while len(words) < target:
        remaining = target - len(words)
        connector = bool(words) and remaining >= 3 and rng.random() < 0.2
        budget = remaining - (1 if connector else 0)
        options = [p for p in _PATTERNS if len(p) <= budget]
        pattern = options[int(rng.integers(len(options)))]
        if connector:
            pool = WORD_POOLS["conn"]
            words.append(pool[int(rng.integers(len(pool)))])
        for role in pattern:
            pool = WORD_POOLS[role]
            words.append(pool[int(rng.integers(len(pool)))])
    return words


def corrupt(reference_words, channel: ChannelSpec, vocab: Vocabulary,
            utt_id: str = "") -> list[str]:
    """Apply per-word substitution/deletion plus boundary insertions.

    Deterministic given (channel.seed, utt_id). Substitutions are drawn
    from the kernel row of the source word, which never returns the
    original; inserted words are uniform over the word inventory.
    """
    rng = _record_rng(channel.seed, utt_id)
    n_words = vocab.size - 3
    kernel = _substitution_kernel(n_words, channel.concentration) if n_words > 1 else None
    out: list[str] = []
    for word in reference_words:
        if rng.random() < channel.ins_rate and n_words > 0:
            out.append(vocab.token_of(3 + int(rng.integers(n_words))))
        roll = rng.random()
        if roll < channel.sub_rate:
            wid = vocab.id_of(word) - 3
            if kernel is not None and wid >= 0:
                out.append(vocab.token_of(3 + int(rng.choice(n_words, p=kernel[wid]))))
            else:
                out.append(word)
        elif roll < channel.sub_rate + channel.del_rate:
            continue
        else:
            out.append(word)
    if rng.random() < channel.ins_rate and n_words > 0:
        out.append(vocab.token_of(3 + int(rng.integers(n_words))))
    return out


def encode_observation(words, vocab: Vocabulary) -> TokenSeq:
    """BOS-aligned observation sequence: (BOS,) + word ids + (EOS,)."""
    return (Vocabulary.BOS,) + vocab.encode(" ".join(words)) + (Vocabulary.EOS,)


def record_context(record: CorpusRecord, vocab: Vocabulary):
    """Decode-ready (UtteranceContext, reference_words) for one record."""
    ctx = UtteranceContext(
        utt_id=record.id,
        nbest=tuple(vocab.encode(text, append_eos=True) for text, _score in record.nbest),
        observation=encode_observation(record.observation.split(), vocab),
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
    noise draw as the fusion-time observation.
    """
    from .decoding import beam_search

    for name, count in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test)):
        if count < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {count}")
    if n_best < 5:
        raise InvalidParameterError(f"n_best must be >= 5, got {n_best}")
    if beam_width < n_best:
        raise InvalidParameterError("beam_width must be >= n_best")

    if source is None:
        sentences, vocab = None, builtin_vocabulary()
    else:
        sentences = [line.strip().lower() for _, line in read_lines(source) if line.strip()]
        if not sentences:
            raise InvalidInputError(f"source file {source} has no sentences")
        vocab = Vocabulary.from_words(w for line in sentences for w in line.split())
    decoder = AcousticChannel(vocab, decoder_confusion(vocab, channel))

    total = n_train + n_val + n_test
    references = sample_references(sentences, total, channel.seed, mean_len=mean_len)
    splits: dict[str, list[CorpusRecord]] = {}
    cursor = 0
    for split, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        records = []
        for i in range(count):
            ref_words = references[cursor].split()
            cursor += 1
            utt_id = f"{split}-{i:05d}"
            nbest_words = corrupt(ref_words, channel, vocab, utt_id=utt_id + "#nbest")
            obs_words = corrupt(ref_words, channel, vocab, utt_id=utt_id + "#obs")
            ctx = UtteranceContext(
                utt_id=utt_id, observation=encode_observation(nbest_words, vocab)
            )
            hyps = beam_search(
                decoder, ctx, beam_width, n_best,
                max_len=max(4, len(nbest_words) + 4),
            )
            records.append(CorpusRecord(
                id=utt_id,
                reference=" ".join(ref_words),
                observation=" ".join(obs_words),
                nbest=tuple((vocab.decode(seq), score) for seq, score in hyps),
            ))
        splits[split] = records
    return splits, vocab


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


DEFAULT_FIELD_MAP = {
    "id": "id",
    "reference": "reference",
    "observation": "observation",
    "nbest": "nbest",
    "nbest_text": "text",
    "nbest_score": "score",
}


def load_corpus(path, field_map: dict | None = None) -> list[CorpusRecord]:
    """Load newline-delimited records, optionally remapping field names.

    `field_map` overrides DEFAULT_FIELD_MAP entries, so external
    hypotheses-transcription files (hypothesis array + transcription
    field) can be ingested directly. Hypotheses without a score field get
    rank-derived fallbacks (0, -1, -2, ...); a missing observation field
    defaults to the first hypothesis.
    """
    fmap = dict(DEFAULT_FIELD_MAP)
    fmap.update(field_map or {})
    records, first_line = [], {}
    for line_no, raw in read_json_lines(path):
        record = _record_from_raw(raw, fmap, path, line_no)
        if record.id in first_line:
            raise CorpusSchemaError(fmap["id"], (
                f"{path}:{line_no}: {fmap['id']!r} {record.id!r} repeats the record "
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


def _record_from_raw(raw, fmap: dict, path, line_no: int) -> CorpusRecord:
    if not isinstance(raw, dict):
        raise CorpusParseError(path, line_no, "a record must be a JSON object")
    where = f"{path}:{line_no}"
    utt_id = json_field(raw, fmap["id"], (str, int), where=where)
    reference = json_field(raw, fmap["reference"], (str,), str.strip, "a non-empty string", where)
    hyps = json_field(raw, fmap["nbest"], (list,), len, "a non-empty list", where)
    nbest = []
    for rank, hyp in enumerate(hyps):
        at = f"{where}: hypothesis {rank}"
        text = hyp if isinstance(hyp, str) else \
            json_field(hyp, fmap["nbest_text"], (str,), where=at)
        score = -float(rank)  # a plain string, or a hypothesis without a score
        if isinstance(hyp, dict) and hyp.get(fmap["nbest_score"]) is not None:
            score = float(json_field(hyp, fmap["nbest_score"], (int, float), where=at))
        nbest.append((text, score))
    observation = json_field(raw, fmap["observation"], (str,), where=where) \
        if fmap["observation"] in raw else nbest[0][0]
    return CorpusRecord(
        id=str(utt_id),
        reference=reference,
        observation=observation,
        nbest=tuple(nbest),
    )
