"""Autoregressive decoding loops over logit providers.

Greedy single-provider decoding, fused greedy decoding over a shared
history (static or uadf), and beam search for N-best generation. All
decoders start the history at BOS, are deterministic, and stop at EOS or
a length cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TokenSeq, Vocabulary, argmax_token, softmax_with_temperature
from .errors import ConfigurationError, InvalidParameterError
from .fusion import FusionConfig, fuse_step
from .metrics import corpus_wer
from .providers import UtteranceContext

# Length cap for decoding without a reference to scale against.
DEFAULT_MAX_LEN = 64


@dataclass(frozen=True)
class DecodeResult:
    tokens: TokenSeq
    steps: tuple
    terminated: str  # "eos" | "max-length"


def greedy_decode(provider, ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                  tau: float = 1.0) -> DecodeResult:
    """Append the argmax token until EOS or `max_len` emissions."""
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    history: TokenSeq = (Vocabulary.BOS,)
    tokens: TokenSeq = ()
    steps = []
    for _ in range(max_len):
        dist = softmax_with_temperature(provider.next_logits(history, ctx), tau)
        steps.append(dist)
        tok = argmax_token(dist)
        tokens += (tok,)
        history += (tok,)
        if tok == Vocabulary.EOS:
            return DecodeResult(tokens, tuple(steps), "eos")
    return DecodeResult(tokens, tuple(steps), "max-length")


def fused_greedy_decode(llm_provider, asr_provider, cfg: FusionConfig,
                        ctx: UtteranceContext,
                        max_len: int = DEFAULT_MAX_LEN) -> DecodeResult:
    """Greedy decoding with one shared history driving both providers."""
    cfg = cfg.normalized()
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    if cfg.mode == "llm-only":
        return greedy_decode(llm_provider, ctx, max_len, tau=cfg.tau1)
    if cfg.mode == "asr-only":
        return greedy_decode(asr_provider, ctx, max_len, tau=cfg.tau2)
    if llm_provider.vocab is not asr_provider.vocab and \
            llm_provider.vocab != asr_provider.vocab:
        raise ConfigurationError("providers must share one vocabulary")

    history: TokenSeq = (Vocabulary.BOS,)
    tokens: TokenSeq = ()
    steps = []
    for _ in range(max_len):
        step = fuse_step(
            llm_provider.next_logits(history, ctx),
            asr_provider.next_logits(history, ctx),
            cfg,
        )
        steps.append(step)
        tokens += (step.chosen,)
        history += (step.chosen,)
        if step.chosen == Vocabulary.EOS:
            return DecodeResult(tokens, tuple(steps), "eos")
    return DecodeResult(tokens, tuple(steps), "max-length")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - math.log(float(np.exp(shifted).sum()))


def beam_search(provider, ctx: UtteranceContext, beam_width: int,
                n_out: int, max_len: int) -> list[tuple[TokenSeq, float]]:
    """Length-unnormalized log-prob beam search.

    Hypotheses that emit EOS retire into the output pool; at the length
    cap the surviving beams join them. Ordering is by total ln-probability,
    ties broken lexicographically on the token sequence, which makes
    beam_width 1 coincide with greedy decoding.
    """
    if not beam_width >= n_out >= 1:
        raise InvalidParameterError(
            f"need beam_width >= n_out >= 1, got ({beam_width}, {n_out})"
        )
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")

    live: list[tuple[TokenSeq, float]] = [((), 0.0)]  # lexicographically sorted
    pool: list[tuple[TokenSeq, float]] = []
    for _ in range(max_len):
        if not live:
            break
        logps = np.stack([
            _log_softmax(provider.next_logits((Vocabulary.BOS,) + seq, ctx))
            for seq, _ in live
        ])
        scores = (np.array([s for _, s in live])[:, None] + logps).ravel()
        # `live` is sorted by sequence, so ascending flat index is ascending
        # lexicographic order of the candidate sequences; pick the top
        # beam_width by score with exact tie handling at the boundary.
        k = min(beam_width, scores.size)
        boundary = np.partition(scores, scores.size - k)[scores.size - k]
        chosen = np.flatnonzero(scores > boundary).tolist()
        chosen += np.flatnonzero(scores == boundary).tolist()[: k - len(chosen)]
        chosen.sort()

        v = logps.shape[1]
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


def decode_eval_set(llm_provider, asr_provider, cfg: FusionConfig, eval_set,
                    max_len_factor: float = 2.0):
    """Decode (ctx, reference_words) pairs to word lists, order preserved."""
    cfg = cfg.normalized()
    vocab = (llm_provider or asr_provider).vocab
    hyps = []
    for ctx, ref_words in eval_set:
        result = fused_greedy_decode(
            llm_provider, asr_provider, cfg, ctx,
            max_len=evaluation_max_len(ref_words, max_len_factor),
        )
        hyps.append(vocab.decode(result.tokens).split())
    return hyps


def eval_set_wer(llm_provider, asr_provider, cfg: FusionConfig, eval_set,
                 max_len_factor: float = 2.0) -> float:
    """Corpus WER of `decode_eval_set` against the pairs' references."""
    hyps = decode_eval_set(llm_provider, asr_provider, cfg, eval_set, max_len_factor)
    return corpus_wer([(hyp, ref) for hyp, (_ctx, ref) in zip(hyps, eval_set)])
