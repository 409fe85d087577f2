"""Autoregressive decoding loops over logit providers.

One greedy loop, `fused_greedy_decode`, serves every fusion mode: each
step decides a token from the calibrated rows, and the mode only changes
how (one provider's argmax in mode llm or asr, a fused step in static or
uadf). `greedy_decode` is that loop in mode llm. Beam search generates
N-best lists. All decoders start the history at BOS, are deterministic,
and stop at EOS or a length cap. A provider with a `row_key` is read once
per beam step, and once per (key, temperature) in a decode set
(`calibrated_row`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .core import TokenSeq, Vocabulary, argmax_token, softmax_with_temperature
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError
from .fusion import FusionConfig, decide, fuse_step
from .providers import UtteranceContext

# Length cap for decoding without a reference to scale against.
DEFAULT_MAX_LEN = 64
# Widest beam `beam_search` runs. A step scores beam_width x V candidates,
# and live beams can grow as V^t, so a wider beam only exhausts memory.
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


def greedy_decode(provider, ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                  tau: float = 1.0, rows: dict | None = None) -> DecodeResult:
    """`fused_greedy_decode` in mode llm at `tau`, with no secondary."""
    return fused_greedy_decode(provider, None, FusionConfig(mode="llm", tau1=tau), ctx,
                               max_len, rows=rows)


def fused_greedy_decode(llm_provider, asr_provider, cfg: FusionConfig,
                        ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                        memo: dict | None = None, rows: dict | None = None) -> DecodeResult:
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


def beam_search(provider, ctx: UtteranceContext, beam_width: int,
                n_out: int, max_len: int) -> list[tuple[TokenSeq, float]]:
    """Beam search on total log-probability, with no length penalty.

    Hypotheses that emit EOS retire into the output pool; at the length
    cap the surviving beams join them. Ordering is by total ln-probability,
    ties broken lexicographically on the token sequence, which makes
    beam_width 1 coincide with greedy decoding.

    Each step runs on the whole beam at once. A provider with a `row_key`
    (see `providers`) gives the same row to every live beam, since they all
    share one length: it is asked once per step, for the first live beam,
    and that one row is normalised. Any other
    provider is asked once per live beam. The rows are copied into a
    float64 array, never normalised where the provider keeps them, and
    the beam scores are added by broadcasting. The per-row normaliser is
    `math.log` of the row's sum of exponentials, taken in Python: `np.log`
    differs from it in the last bit on some inputs, which would change the
    N-best lists.
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
    one_row = hasattr(provider, "row_key")
    for _ in range(max_len):
        if not live:
            break
        asked = live[:1] if one_row else live
        rows = np.array([provider.next_logits((Vocabulary.BOS,) + seq, ctx)
                         for seq, _ in asked], dtype=np.float64)
        if rows.shape != (len(asked), v):
            raise InvalidInputError(f"logit rows must have vocabulary size {v}, got "
                                    f"shape {rows.shape[1:]}")
        rows -= rows.max(axis=1, keepdims=True)
        norms = [math.log(total) for total in np.exp(rows).sum(axis=1).tolist()]
        rows -= np.array(norms)[:, None]
        scores = (np.array([s for _, s in live])[:, None] + rows).ravel()
        # `live` is sorted by sequence, so ascending flat index is ascending
        # lexicographic order of the candidate sequences; pick the top
        # beam_width by score with exact tie handling at the boundary.
        k = min(beam_width, scores.size)
        boundary = np.partition(scores, scores.size - k)[scores.size - k]
        chosen = (scores > boundary).nonzero()[0].tolist()
        chosen += (scores == boundary).nonzero()[0].tolist()[: k - len(chosen)]
        chosen.sort()

        next_live = []
        for flat in chosen:
            seq = live[flat // v][0] + (flat % v,)
            entry = (seq, float(scores[flat]))
            if seq[-1] == Vocabulary.EOS:
                pool.append(entry)
            else:
                next_live.append(entry)
        live = next_live

    pool.extend(live)
    pool.sort(key=lambda item: (-item[1], item[0]))
    return pool[:n_out]


def evaluation_max_len(reference_words, factor: float = 2.0) -> int:
    """Length cap for scoring runs: factor x (words + EOS), at least 2."""
    if not (math.isfinite(factor) and factor > 0):
        raise InvalidParameterError(f"max_len_factor must be finite and > 0, got {factor}")
    return max(2, math.ceil(factor * (len(reference_words) + 1)))


def decode_eval_set(llm_provider, asr_provider, cfgs, eval_set,
                    max_len_factor: float = 2.0):
    """Decode (ctx, reference_words) pairs at each of `cfgs`.

    For each utterance, in order, yields one DecodeResult per config, in
    config order. An utterance's decodes share one memo of step inputs,
    which is dropped before the next utterance, so the configs must share
    mode, tau1 and tau2. All decodes share one dict of `calibrated_row`s,
    so a keyed provider's row is normalised once per call of this
    function, not once per step.
    """
    if len({(c.mode, c.tau1, c.tau2) for c in cfgs}) > 1:
        raise InvalidParameterError("configs must share mode, tau1 and tau2")
    rows = {}
    for ctx, ref_words in eval_set:
        max_len = evaluation_max_len(ref_words, max_len_factor)
        memo = {}
        for cfg in cfgs:
            yield fused_greedy_decode(llm_provider, asr_provider, cfg, ctx,
                                      max_len=max_len, memo=memo, rows=rows)


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
