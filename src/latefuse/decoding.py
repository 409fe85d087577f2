"""Autoregressive decoding loops over logit providers.

One greedy loop, `fused_greedy_decode`, serves every fusion mode: each
step decides a token from the calibrated rows, and the mode only changes
how (one provider's argmax in mode llm or asr, a fused step in static or
uadf). `greedy_decode` is that loop in mode llm. Beam search generates
N-best lists. All decoders start the history at BOS, are deterministic,
and stop at EOS or a length cap. A provider with a `row_key` is read once
per key in a corpus's beam searches (`beam_search` with `rows`), where a
step scores the live beams x the top-ranked ids of that row, and once
per (key, temperature) in a decode set (`calibrated_row`). A corrector
with a `lattice` (`providers.NgramCorrector`) has its rows for an
utterance's N-best prefixes calibrated once per utterance of a decode
set, as one block (`calibrated_lattice`), which every config of that
utterance reads: a step's p_llm may then be a read-only row of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .core import (TokenSeq, Vocabulary, argmax_token, entropy, softmax_rows,
                   softmax_with_temperature)
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError
from .fusion import FusionConfig, decide, fuse_step
from .providers import UtteranceContext

# Length cap for decoding without a reference to scale against.
DEFAULT_MAX_LEN = 64
# Largest length factor: factor x (words + 1) must stay a finite float.
MAX_LEN_FACTOR = 1e30
# Widest beam `beam_search` runs. A step scores up to beam_width x V
# candidates (an unkeyed provider's step, or a widened one, scores all V
# ids per beam), so a wider beam only exhausts memory.
MAX_BEAM_WIDTH = 1024


@dataclass(frozen=True)
class DecodeResult:
    tokens: TokenSeq
    steps: tuple
    terminated: str  # "eos" | "max-length"


def calibrated_row(provider, history: TokenSeq, ctx: UtteranceContext, tau: float,
                   rows: dict | None = None) -> np.ndarray:
    """softmax_with_temperature(provider.next_logits(history, ctx), tau).

    A provider with a `row_key` (see `providers`) gives one row per key, so
    with a `rows` dict its row is read and normalised once per (provider,
    key, tau): the dict keeps the distribution, made read-only, and hands
    the same array out again. A provider without `row_key`, or a call
    without `rows`, is read and normalised on every call.
    """
    row_key = getattr(provider, "row_key", None)
    if row_key is None or rows is None:
        return softmax_with_temperature(provider.next_logits(history, ctx), tau)
    key = (id(provider), row_key(len(history), ctx), tau)
    dist = rows.get(key)
    if dist is None:
        dist = softmax_with_temperature(provider.next_logits(history, ctx), tau)
        dist.flags.writeable = False
        rows[key] = dist
    return dist


def calibrated_lattice(provider, ctx: UtteranceContext, tau: float, uadf: bool) -> dict:
    """The corrector's lattice for `ctx` (`provider.lattice`), calibrated as
    one block: {key: (p, u)}, p the row's softmax at `tau`, a read-only row
    of one read-only `(B, V)` array, and u its entropy if `uadf`, else None.

    A row that `softmax_rows` flags is left out, so nothing here raises for
    it: a step whose key it is reads the provider, and raises that check's
    error there.
    """
    keys, raw = provider.lattice(ctx)
    p = softmax_rows(raw, tau)
    kept = ~np.isnan(p[:, 0])
    if not kept.all():
        keys = [key for key, ok in zip(keys, kept.tolist()) if ok]
        p = p[kept]
    p.flags.writeable = False
    return dict(zip(keys, zip(p, entropy(p) if uadf else [None] * len(keys))))


def greedy_decode(provider, ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                  tau: float = 1.0, rows: dict | None = None) -> DecodeResult:
    """`fused_greedy_decode` in mode llm at `tau`, with no secondary."""
    return fused_greedy_decode(provider, None, FusionConfig(mode="llm", tau1=tau), ctx,
                               max_len, rows=rows)


def fused_greedy_decode(llm_provider, asr_provider, cfg: FusionConfig,
                        ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                        memo: dict | None = None, rows: dict | None = None,
                        lattice: dict | None = None) -> DecodeResult:
    """Greedy decoding in any of cfg's modes, with one shared history
    driving the providers.

    A step of mode llm or asr is the argmax of that provider's
    `calibrated_row` (at tau1 or tau2), and its recorded step is that
    distribution. A fused step (static or uadf) is a FusionStep. `memo`
    maps a history of this utterance to its fused step's (p_llm, p_asr,
    entropy of p_llm or None where no uadf step measured it); it is read
    and filled, so fused decodes of one utterance whose configs share tau1
    and tau2 (see `decode_eval_set`) run the providers and the softmaxes
    once per distinct history, and uadf ones the entropy too. The
    secondary's distribution comes from `calibrated_row` with `rows`,
    which can span utterances.

    `lattice`, given in modes llm, static and uadf only, is the corrector's
    `calibrated_lattice` for `ctx` at tau1, with entropies in mode uadf. A
    step whose history's key it holds (at a memo miss, in the fused modes)
    reads the corrector's p_llm, and its entropy, from it; any other step
    reads the corrector.
    """
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    fused = cfg.mode in ("static", "uadf")
    if not fused:
        provider, tau = (llm_provider, cfg.tau1) if cfg.mode == "llm" else (asr_provider, cfg.tau2)
    elif llm_provider.vocab is not asr_provider.vocab and \
            llm_provider.vocab != asr_provider.vocab:
        raise ConfigurationError("providers must share one vocabulary")

    memo = {} if memo is None else memo
    key_of = llm_provider.history_key if lattice else None
    history: TokenSeq = (Vocabulary.BOS,)
    steps = []
    for _ in range(max_len):
        if not fused:
            on_lattice = key_of and lattice.get(key_of(history, ctx))
            step = on_lattice[0] if on_lattice else calibrated_row(provider, history, ctx,
                                                                  tau, rows)
            token = argmax_token(step)
        else:
            inputs = memo.get(history)
            if inputs is None:
                on_lattice = key_of and lattice.get(key_of(history, ctx))
                if on_lattice:
                    p_llm, u = on_lattice
                    step = decide(p_llm, calibrated_row(asr_provider, history, ctx, cfg.tau2,
                                                        rows), u, cfg)
                else:
                    step = fuse_step(
                        llm_provider.next_logits(history, ctx),
                        calibrated_row(asr_provider, history, ctx, cfg.tau2, rows),
                        cfg,
                    )
                memo[history] = (step.p_llm, step.p_asr, step.measured_u)
            else:
                step = decide(*inputs, cfg)
            token = step.chosen
        steps.append(step)
        history += (token,)
        if token == Vocabulary.EOS:
            return DecodeResult(history[1:], tuple(steps), "eos")
    return DecodeResult(history[1:], tuple(steps), "max-length")


def _log_rows(provider, seqs, ctx: UtteranceContext, v: int) -> np.ndarray:
    """The provider's rows for `seqs`, log-normalised in a new float64 array.

    The normaliser is `math.log` of the row's sum of exponentials, taken in
    Python: `np.log` differs from it in the last bit on some inputs, which
    would change the N-best lists.
    """
    rows = np.array([provider.next_logits((Vocabulary.BOS,) + seq, ctx) for seq in seqs],
                    dtype=np.float64)
    if rows.shape != (len(seqs), v):
        raise InvalidInputError(f"logit rows must have vocabulary size {v}, got "
                                f"shape {rows.shape[1:]}")
    if not np.isfinite(rows).all():
        raise InvalidInputError("logit rows must be finite")
    rows -= rows.max(axis=1, keepdims=True)
    norms = [math.log(total) for total in np.exp(rows).sum(axis=1).tolist()]
    rows -= np.array(norms)[:, None]
    return rows


class _RankedRow:
    """One log-normalised row (shape 1 x V) ranked for `beam_search`: its ids
    by value descending, then by id ascending.
    `prefix(m)` gives the columns of the first m ranked ids and those ids,
    in ascending id order; each m is built once."""

    def __init__(self, logp: np.ndarray):
        self.logp = logp
        self.order = np.argsort(-logp[0], kind="stable")
        self.prefixes = {}

    def prefix(self, m: int):
        cached = self.prefixes.get(m)
        if cached is None:
            ids = np.sort(self.order[:m])
            cached = self.prefixes[m] = (self.logp[:, ids], ids.tolist())
        return cached


def beam_search(provider, ctx: UtteranceContext, beam_width: int, n_out: int,
                max_len: int, rows: dict | None = None) -> list[tuple[TokenSeq, float]]:
    """Beam search on total log-probability, with no length penalty.

    Hypotheses that emit EOS retire into the output pool; at the length
    cap the surviving beams join them. Ordering is by total ln-probability,
    ties broken lexicographically on the token sequence, which makes
    beam_width 1 coincide with greedy decoding.

    Each step runs on the whole beam at once: the beam scores are added to
    the log-normalised rows (`_log_rows`) by broadcasting, and the top
    beam_width candidates are selected with exact tie handling. A provider
    with a `row_key` (see `providers`) gives the same row to every live
    beam, since they all share one length: it is asked once per step, for
    the first live beam. Any other provider is asked once per live beam.
    Rows are copied, never normalised where the provider keeps them.

    With a `rows` dict, a keyed provider's row is read, checked,
    normalised and ranked (ids by value descending, then by id) once per
    key, for every search that shares the dict. A step then scores the
    live beams x the first m ranked ids only, m = min(beam_width, V) at
    first. If some beam's score plus the row's (m+1)-th ranked value
    reaches the selection boundary, m doubles, up to V, and the step
    selects again; otherwise every id left out scores strictly below the
    boundary, so the lists, scores included, equal the full step's bit for
    bit. Without `rows`, or for an unkeyed provider, every id is a
    candidate.
    """
    if not MAX_BEAM_WIDTH >= beam_width >= n_out >= 1:
        raise InvalidParameterError(
            f"need {MAX_BEAM_WIDTH} >= beam_width >= n_out >= 1, got ({beam_width}, {n_out})"
        )
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")

    live: list[tuple[TokenSeq, float]] = [((), 0.0)]  # lexicographically sorted
    pool: list[tuple[TokenSeq, float]] = []
    v = provider.vocab.size
    row_key = getattr(provider, "row_key", None)
    ranked = row_key is not None and rows is not None
    for _ in range(max_len):
        if not live:
            break
        seqs, beam_scores = zip(*live)
        base = np.array(beam_scores)
        if ranked:
            key = (id(provider), row_key(len(seqs[0]) + 1, ctx))
            row = rows.get(key)
            if row is None:
                row = rows[key] = _RankedRow(_log_rows(provider, seqs[:1], ctx, v))
            logp, m = row.logp, min(beam_width, v)
            best = max(beam_scores)
        else:
            logp, m = _log_rows(provider, seqs[:1] if row_key else seqs, ctx, v), v
        while True:
            cols, ids = (logp, range(v)) if m == v else row.prefix(m)
            scores = (base[:, None] + cols).ravel()
            # Ascending flat index is ascending lexicographic order of the
            # candidate sequences (`live` and `ids` are sorted); pick the
            # top beam_width by score with exact tie handling at the boundary.
            k = min(beam_width, scores.size)
            boundary = np.partition(scores, scores.size - k)[scores.size - k]
            # fl(s + r) is monotone in s and in r: if the best beam plus the
            # first id left out stays below the boundary, so does every
            # candidate left out
            if m == v or not best + logp[0, row.order[m]] >= boundary:
                break
            m = min(2 * m, v)
        chosen = (scores > boundary).nonzero()[0].tolist()
        chosen += (scores == boundary).nonzero()[0].tolist()[: k - len(chosen)]
        chosen.sort()

        next_live = []
        for flat in chosen:
            seq = seqs[flat // m] + (ids[flat % m],)
            entry = (seq, float(scores[flat]))
            if seq[-1] == Vocabulary.EOS:
                pool.append(entry)
            else:
                next_live.append(entry)
        live = next_live

    pool.extend(live)
    pool.sort(key=lambda item: (-item[1], item[0]))
    return pool[:n_out]


def check_max_len_factor(factor: float):
    """Refuse a length factor; a caller checks it before opening a provider."""
    if not 0 < factor <= MAX_LEN_FACTOR:
        raise InvalidParameterError(
            f"max_len_factor must be in (0, {MAX_LEN_FACTOR:g}], got {factor}")


def evaluation_max_len(reference_words, factor: float = 2.0) -> int:
    """Length cap for scoring runs: factor x (words + EOS), at least 2."""
    check_max_len_factor(factor)
    return max(2, math.ceil(factor * (len(reference_words) + 1)))


def decode_eval_set(llm_provider, asr_provider, cfgs, eval_set,
                    max_len_factor: float = 2.0):
    """Decode (ctx, reference_words) pairs at each of `cfgs`.

    For each utterance, in order, yields one DecodeResult per config, in
    config order. An utterance's decodes share one memo of step inputs,
    which is dropped before the next utterance, so the configs must share
    mode, tau1 and tau2. All decodes share one dict of `calibrated_row`s,
    so a keyed provider's row is normalised once per call of this
    function, not once per step. In modes llm, static and uadf, a
    corrector with a `lattice` gets one `calibrated_lattice` per utterance
    at the shared tau1, which all of the utterance's decodes read. The
    provider whose argmax the mode follows, the acoustic model in mode asr
    and the corrector in the others, is told the utterances first, in
    order, if it has a `prefetch` method (one served over the wire), so it
    can fetch the first rows of many of them per round trip, each with its
    argmax path.
    """
    if len({(c.mode, c.tau1, c.tau2) for c in cfgs}) > 1:
        raise InvalidParameterError("configs must share mode, tau1 and tau2")
    eval_set = list(eval_set)
    mode = cfgs[0].mode if cfgs else None
    primary = asr_provider if mode == "asr" else llm_provider
    if hasattr(primary, "prefetch"):
        primary.prefetch([(ctx, None) for ctx, _ in eval_set])
    rows = {}
    with_lattice = mode in ("llm", "static", "uadf") and hasattr(llm_provider, "lattice")
    for ctx, ref_words in eval_set:
        max_len = evaluation_max_len(ref_words, max_len_factor)
        memo = {}
        lattice = (calibrated_lattice(llm_provider, ctx, cfgs[0].tau1, uadf=mode == "uadf")
                   if with_lattice else None)
        for cfg in cfgs:
            yield fused_greedy_decode(llm_provider, asr_provider, cfg, ctx, max_len=max_len,
                                      memo=memo, rows=rows, lattice=lattice)


def sweep_wers(llm_provider, asr_provider, cfgs, eval_set,
               max_len_factor: float = 2.0) -> list[float]:
    """Corpus WER of `eval_set` decoded at each of `cfgs`, in order.

    The decodes come from `decode_eval_set`. A WER reads only S + I + D,
    so each distinct hypothesis of an utterance gets its edit distance
    (`metrics.distance_to`), with no alignment.
    """
    vocab = (llm_provider or asr_provider).vocab
    results = decode_eval_set(llm_provider, asr_provider, cfgs, eval_set, max_len_factor)
    edits = [0] * len(cfgs)
    n_words = 0
    for _ctx, ref_words in eval_set:
        distance = metrics.distance_to(ref_words)
        n_words += len(ref_words)
        seen = {}
        for k in range(len(cfgs)):
            hyp = vocab.decode(next(results).tokens)
            if hyp not in seen:
                seen[hyp] = distance(hyp.split())
            edits[k] += seen[hyp]
    if n_words == 0:
        raise InvalidInputError("no reference words to score")
    return [e / n_words for e in edits]
