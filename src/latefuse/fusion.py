"""Step-level combination of two calibrated token distributions.

Both strategies pick the argmax of p_llm + w * p_asr over the two
temperature-scaled distributions. Static fusion holds the secondary
model's weight w fixed at w_asr; uadf (uncertainty-aware dynamic fusion)
sets it at each step to sigmoid(H) - beta with H the entropy of the
primary model's calibrated distribution. A confident primary (H -> 0,
beta = 0.5) therefore decides alone, and the secondary weight grows with
the primary's uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import argmax_token, entropy, sigmoid, softmax_with_temperature
from .errors import InvalidParameterError

MODES = ("llm", "asr", "static", "uadf")


@dataclass(frozen=True)
class FusionConfig:
    """A fused decode's settings, checked when the config is built."""

    mode: str = "uadf"
    w_asr: float = 0.25
    tau1: float = 1.0
    tau2: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"unknown fusion mode {self.mode!r}; expected one of {MODES}")
        if not all(0 < tau < math.inf for tau in (self.tau1, self.tau2)):
            raise InvalidParameterError("tau1 and tau2 must be finite and positive")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(f"beta must be in [0, 1], got {self.beta}")
        if self.mode == "static" and not 0 <= self.w_asr < math.inf:
            raise InvalidParameterError(f"w_asr must be finite and >= 0, got {self.w_asr}")


@dataclass(frozen=True)
class FusionStep:
    """Everything one fused decoding step saw and decided."""

    p_llm: np.ndarray
    p_asr: np.ndarray
    uncertainty: float
    w_asr_effective: float
    chosen: int

    def log_entry(self, step: int, vocab) -> dict:
        """Machine-readable per-step diagnostic (one JSON line per step)."""
        def top(p):
            order = np.argsort(-p, kind="stable")[:3]
            return [{"token": vocab.token_of(int(i)), "prob": float(p[i])} for i in order]

        return {
            "step": step,
            "u": self.uncertainty,
            "w_asr": self.w_asr_effective,
            "llm_top": top(self.p_llm),
            "asr_top": top(self.p_asr),
            "chosen": vocab.token_of(self.chosen),
        }


def uadf_weight(u: float, beta: float) -> float:
    """Secondary-model fusion weight: sigmoid(u) - beta."""
    return sigmoid(float(u)) - float(beta)


def step_inputs(logits_llm, logits_asr, cfg: FusionConfig) -> tuple:
    """(p_llm, p_asr, entropy of p_llm) of one step.

    This is the part of a fused step that reads the provider outputs, and
    it depends on cfg only through tau1 and tau2, so sweep points that
    share those can share it.
    """
    p_llm = softmax_with_temperature(logits_llm, cfg.tau1)
    p_asr = softmax_with_temperature(logits_asr, cfg.tau2)
    return p_llm, p_asr, entropy(p_llm)


def decide(p_llm: np.ndarray, p_asr: np.ndarray, u: float, cfg: FusionConfig) -> FusionStep:
    """The fused choice of one step, given its `step_inputs`: the argmax of
    p_llm + w * p_asr, with w = w_asr (static) or sigmoid(u) - beta (uadf).

    The sum is never rescaled into a distribution: dividing it by 1 + w
    would not move its argmax.
    """
    if cfg.mode == "uadf":
        w = uadf_weight(u, cfg.beta)
    elif cfg.mode == "static":
        w = cfg.w_asr
    else:
        raise InvalidParameterError(f"fuse_step handles static/uadf, not {cfg.mode!r}")
    return FusionStep(p_llm, p_asr, u, w, argmax_token(p_llm + w * p_asr))


def fuse_step(logits_llm, logits_asr, cfg: FusionConfig) -> FusionStep:
    """One fused step in cfg's mode (static or uadf)."""
    return decide(*step_inputs(logits_llm, logits_asr, cfg), cfg)

