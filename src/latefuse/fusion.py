"""Step-level combination of two calibrated token distributions.

Two strategies: a static weighted sum of the temperature-scaled
distributions, and uadf (uncertainty-aware dynamic fusion), where the
secondary model's weight at each step is sigmoid(H) - beta with H the
entropy of the primary model's calibrated distribution. A confident
primary (H -> 0, beta = 0.5) therefore decides alone, and the secondary
weight grows with the primary's uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import argmax_token, entropy, sigmoid, softmax_with_temperature
from .errors import InvalidParameterError

MODES = ("llm-only", "asr-only", "static", "uadf")
_MODE_ALIASES = {"llm": "llm-only", "asr": "asr-only"}
UNCERTAINTY_VARIANTS = ("entropy", "top1")


@dataclass(frozen=True)
class FusionConfig:
    mode: str = "uadf"
    w_llm: float = 1.0
    w_asr: float = 0.25
    tau1: float = 1.0
    tau2: float = 1.0
    beta: float = 0.5
    uncertainty: str = "entropy"

    def normalized(self) -> "FusionConfig":
        """Resolve mode aliases ("llm" -> "llm-only") and validate."""
        cfg = self
        if cfg.mode in _MODE_ALIASES:
            cfg = replace(cfg, mode=_MODE_ALIASES[cfg.mode])
        cfg.validate()
        return cfg

    def validate(self):
        mode = _MODE_ALIASES.get(self.mode, self.mode)
        if mode not in MODES:
            raise InvalidParameterError(f"unknown fusion mode {self.mode!r}")
        if not (self.tau1 > 0 and self.tau2 > 0):
            raise InvalidParameterError("tau1 and tau2 must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(f"beta must be in [0, 1], got {self.beta}")
        if self.uncertainty not in UNCERTAINTY_VARIANTS:
            raise InvalidParameterError(f"unknown uncertainty variant {self.uncertainty!r}")
        if mode == "static":
            if not all(0 <= w < math.inf for w in (self.w_llm, self.w_asr)):
                raise InvalidParameterError("static weights must be finite and >= 0")
            if self.w_llm == 0 and self.w_asr == 0:
                raise InvalidParameterError("static fusion needs at least one nonzero weight")


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


def _uncertainty(p_llm: np.ndarray, variant: str) -> float:
    if variant == "top1":
        pmax = float(p_llm.max())
        return -pmax * math.log(pmax) if pmax > 0.0 else 0.0
    return entropy(p_llm)


def _static_mix(p1: np.ndarray, p2: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    total = cfg.w_llm + cfg.w_asr
    if total <= 0:
        raise InvalidParameterError("static fusion needs at least one nonzero weight")
    return (cfg.w_llm * p1 + cfg.w_asr * p2) / total


def fuse_static(logits_llm, logits_asr, cfg: FusionConfig) -> np.ndarray:
    """w_llm * softmax(l1/tau1) + w_asr * softmax(l2/tau2), renormalized."""
    return _static_mix(softmax_with_temperature(logits_llm, cfg.tau1),
                       softmax_with_temperature(logits_asr, cfg.tau2), cfg)


def step_inputs(logits_llm, logits_asr, cfg: FusionConfig) -> tuple:
    """(p_llm, p_asr, uncertainty) of one step.

    This is the part of a fused step that reads the provider outputs, and
    it depends on cfg only through tau1, tau2 and the uncertainty variant
    (static steps always record the entropy). Sweep points that share
    those can therefore share it.
    """
    p_llm = softmax_with_temperature(logits_llm, cfg.tau1)
    p_asr = softmax_with_temperature(logits_asr, cfg.tau2)
    variant = cfg.uncertainty if cfg.mode == "uadf" else "entropy"
    return p_llm, p_asr, _uncertainty(p_llm, variant)


def decide(p_llm: np.ndarray, p_asr: np.ndarray, u: float, cfg: FusionConfig) -> FusionStep:
    """The fused choice of one step, given its `step_inputs`.

    uadf picks the argmax of p_llm + w * p_asr, which is never normalized
    into a distribution; static picks the argmax of the weighted mixture.
    """
    if cfg.mode == "uadf":
        w = uadf_weight(u, cfg.beta)
        return FusionStep(p_llm, p_asr, u, w, argmax_token(p_llm + w * p_asr))
    if cfg.mode == "static":
        return FusionStep(p_llm, p_asr, u, cfg.w_asr,
                          argmax_token(_static_mix(p_llm, p_asr, cfg)))
    raise InvalidParameterError(f"fuse_step handles static/uadf, not {cfg.mode!r}")


def fuse_step(logits_llm, logits_asr, cfg: FusionConfig) -> FusionStep:
    """One fused step in cfg's mode (static or uadf)."""
    return decide(*step_inputs(logits_llm, logits_asr, cfg), cfg)


def grid_search_static(
    llm_provider,
    asr_provider,
    eval_set,
    grid,
    tau1: float = 1.0,
    tau2: float = 1.0,
    max_len_factor: float = 2.0,
):
    """Decode `eval_set` at every (w_llm, w_asr) grid point and pick the
    lowest corpus WER (ties go to the smaller w_asr, then smaller w_llm).

    `eval_set` is a list of (UtteranceContext, reference_words) pairs.
    Returns ((w_llm, w_asr), table) where the table has one row per point.
    """
    from .decoding import sweep_wers

    grid = [(float(wl), float(wa)) for wl, wa in grid]
    if not grid or not eval_set:
        raise InvalidParameterError("grid and eval_set must be non-empty")
    cfgs = [FusionConfig(mode="static", w_llm=w_llm, w_asr=w_asr, tau1=tau1, tau2=tau2)
            for w_llm, w_asr in grid]
    wers = sweep_wers(llm_provider, asr_provider, cfgs, eval_set, max_len_factor)
    table = [{"w_llm": w_llm, "w_asr": w_asr, "wer": wer}
             for (w_llm, w_asr), wer in zip(grid, wers)]
    best = min(table, key=lambda row: (row["wer"], row["w_asr"], row["w_llm"]))
    return (best["w_llm"], best["w_asr"]), table
