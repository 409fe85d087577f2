"""Autoregressive decoding loops over logit providers.

One greedy loop, `fused_greedy_decode`, serves every fusion mode: each
step decides a token from the calibrated rows, and the mode only changes
how (one provider's argmax in mode llm or asr, a fused step in static or
uadf). `greedy_decode` is that loop in mode llm. Beam search generates
N-best lists. All decoders start the history at BOS, are deterministic,
and stop at EOS or a length cap. A provider with a `row_key` is read once
per key in a corpus's beam searches (`beam_search` with `rows`), where a
step scores the live beams x the top-ranked ids of that row, and once
per (key, temperature) in a decode set (`calibrated_row`).

A corrector with a `lattice` (`providers.NgramCorrector`) gives the rows
of an utterance's N-best prefixes, each keyed by its step count t and its
n-gram context. A step's inputs depend on nothing else, so in modes llm,
static and uadf (the fused ones with a keyed acoustic model) a decode set
decides every config's choice at every key of the utterance in one array
op (`choice_tables`), and each decode walks that table: a step whose
(t, context) it holds reads its choice there, and any other step reads
the providers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .core import (TokenSeq, Vocabulary, argmax_token, entropy, sigmoid, softmax_rows,
                   softmax_with_temperature)
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError
from .fusion import FusionConfig, FusionStep, decide, fuse_step
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


class ChoiceTable(NamedTuple):
    """One config's choices at the keys of one utterance's corrector lattice
    (see `choice_tables`): row i is the step after t tokens whose last
    order - 1 ids are `context`, where `index[(t, context)] == i`."""

    index: dict          # (t, context) -> row i
    start: tuple         # the context of the first step: BOS, order - 1 times
    p_llm: list          # row i's calibrated corrector row, read-only
    p_asr: list | None   # row i's calibrated acoustic row; None in mode llm
    u: list | None       # row i's entropy of p_llm in uadf, else None; None in mode llm
    w: list | None       # row i's weight of p_asr; None in mode llm
    chosen: list         # row i's choice


def _keyed_rows(provider, n: int, ctx: UtteranceContext, tau: float, rows: dict) -> list:
    """`calibrated_row` of a keyed provider for histories of 1 .. n ids, or
    None for one that raises a row's check: the step that reads it raises
    the error there, as it would without a table. A keyed row depends on
    the history only through its length, so BOS ids stand for any history."""
    dists = []
    for length in range(1, n + 1):
        try:
            dists.append(calibrated_row(provider, (Vocabulary.BOS,) * length, ctx, tau, rows))
        except (InvalidInputError, InvalidParameterError):
            dists.append(None)
    return dists


def choice_tables(llm_provider, asr_provider, cfgs, ctx: UtteranceContext,
                  rows: dict) -> list[ChoiceTable] | None:
    """One `ChoiceTable` per config of `cfgs` (which share mode, tau1 and
    tau2; mode llm, static or uadf), decided at once on the keys of the
    corrector's `lattice(ctx)`, or None when none of its rows is usable.

    The corrector's rows are calibrated as one block (`softmax_rows` at
    tau1, P) and, in uadf, take their entropies u as one block. In the
    fused modes, A holds the secondary's `calibrated_row` for each key's
    length t + 1 (it must have a `row_key`; read through `rows`), and W,
    `(K, B)`, each config's weight per row: w_asr, or sigmoid(u) - beta
    (`uadf_weight`), with `math`'s sigmoid and a float64 subtraction. The
    choices are then `argmax(P + W * A)` over the vocabulary, one op for
    every config and row, or `argmax(P)` in mode llm. Elementwise multiply
    and add are correctly rounded and argmax takes the first maximum, so
    every cell equals `fusion.decide`'s choice bit for bit.

    A row that `softmax_rows` flags, or whose acoustic row raises, is left
    out, so nothing here raises for it: the step that reads it reads the
    providers and raises that check's error there.
    """
    cfg = cfgs[0]
    keys, raw = llm_provider.lattice(ctx)
    start = (Vocabulary.BOS,) * len(keys[0][1])
    p = softmax_rows(raw, cfg.tau1)
    kept = ~np.isnan(p[:, 0])
    fused = cfg.mode != "llm"
    if fused:
        lengths = [t for t, _ in keys]
        dists = _keyed_rows(asr_provider, max(lengths) + 1, ctx, cfg.tau2, rows)
        kept &= np.array([dists[t] is not None for t in lengths])
    if not kept.all():
        keys = [key for key, ok in zip(keys, kept.tolist()) if ok]
        if not keys:
            return None
        p = p[kept]
    p.flags.writeable = False
    index = {key: i for i, key in enumerate(keys)}
    p_llm = list(p)
    if not fused:
        return [ChoiceTable(index, start, p_llm, None, None, None,
                            p.argmax(axis=1).tolist())] * len(cfgs)
    p_asr = [dists[t] for t, _ in keys]
    if cfg.mode == "uadf":
        u = entropy(p)
        w = np.array([sigmoid(h) for h in u]) - np.array([c.beta for c in cfgs], float)[:, None]
        ws = w.tolist()
    else:
        u = [None] * len(keys)
        w = np.array([c.w_asr for c in cfgs], float)[:, None]
        ws = [[c.w_asr] * len(keys) for c in cfgs]
    fused_rows = w[:, :, None] * np.array(p_asr)
    fused_rows += p
    chosen = fused_rows.argmax(axis=2).tolist()
    return [ChoiceTable(index, start, p_llm, p_asr, u, ws[k], chosen[k])
            for k in range(len(cfgs))]


def greedy_decode(provider, ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                  tau: float = 1.0, rows: dict | None = None) -> DecodeResult:
    """`fused_greedy_decode` in mode llm at `tau`, with no secondary."""
    return fused_greedy_decode(provider, None, FusionConfig(mode="llm", tau1=tau), ctx,
                               max_len, rows=rows)


def fused_greedy_decode(llm_provider, asr_provider, cfg: FusionConfig,
                        ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                        memo: dict | None = None, rows: dict | None = None,
                        table: ChoiceTable | None = None) -> DecodeResult:
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

    `table`, given in modes llm, static and uadf only, is cfg's
    `ChoiceTable` for `ctx` (see `choice_tables`). The decode then walks
    it: a step whose (t, context) it holds takes the table's choice, and
    its recorded step is built from the table's rows, equal to the step
    the providers would give; any other step reads them as above.
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
    if table is not None:
        return _walk(llm_provider, asr_provider, cfg, ctx, max_len, memo, rows, table)
    history: TokenSeq = (Vocabulary.BOS,)
    steps = []
    for _ in range(max_len):
        if not fused:
            step = calibrated_row(provider, history, ctx, tau, rows)
            token = argmax_token(step)
        else:
            inputs = memo.get(history)
            if inputs is None:
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


def _walk(llm_provider, asr_provider, cfg: FusionConfig, ctx: UtteranceContext,
          max_len: int, memo: dict, rows: dict | None, table: ChoiceTable) -> DecodeResult:
    """`fused_greedy_decode` along `table`. The state is the step count t
    and the last order - 1 ids, never the corrector's `history_key`: past
    the longest hypothesis, or with no N-best list, one key spans several
    lengths, and so several acoustic rows."""
    fused = cfg.mode != "llm"
    index, context, p_llm, p_asr, u, w, chosen = table
    tokens, steps = [], []
    for t in range(max_len):
        i = index.get((t, context))
        if i is not None:
            token = chosen[i]
            steps.append(FusionStep(p_llm[i], p_asr[i], u[i], w[i], token) if fused
                         else p_llm[i])
        else:
            history = (Vocabulary.BOS, *tokens)
            if not fused:
                step = calibrated_row(llm_provider, history, ctx, cfg.tau1, rows)
                token = argmax_token(step)
            else:
                inputs = memo.get(history)
                if inputs is None:
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
        tokens.append(token)
        if token == Vocabulary.EOS:
            return DecodeResult(tuple(tokens), tuple(steps), "eos")
        context = (*context, token)[1:]
    return DecodeResult(tuple(tokens), tuple(steps), "max-length")


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
    corrector with a `lattice` gets one set of `choice_tables` per
    utterance, which its decodes walk, if the mode is llm or the acoustic
    model has a `row_key` and the corrector's vocabulary. The provider
    whose argmax the mode follows, the acoustic model in mode asr and the
    corrector in the others, is told the utterances first, in order, if it
    has a `prefetch` method (one served over the wire), so it can fetch the
    first rows of many of them per round trip, each with its argmax path.
    """
    if len({(c.mode, c.tau1, c.tau2) for c in cfgs}) > 1:
        raise InvalidParameterError("configs must share mode, tau1 and tau2")
    eval_set = list(eval_set)
    mode = cfgs[0].mode if cfgs else None
    primary = asr_provider if mode == "asr" else llm_provider
    if hasattr(primary, "prefetch"):
        primary.prefetch([(ctx, None) for ctx, _ in eval_set])
    rows = {}
    with_tables = mode in ("llm", "static", "uadf") and hasattr(llm_provider, "lattice") and (
        mode == "llm" or getattr(asr_provider, "row_key", None) is not None
        and asr_provider.vocab == llm_provider.vocab)
    for ctx, ref_words in eval_set:
        max_len = evaluation_max_len(ref_words, max_len_factor)
        memo = {}
        tables = with_tables and choice_tables(llm_provider, asr_provider, cfgs, ctx, rows)
        for k, cfg in enumerate(cfgs):
            yield fused_greedy_decode(llm_provider, asr_provider, cfg, ctx, max_len=max_len,
                                      memo=memo, rows=rows, table=tables[k] if tables else None)


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
