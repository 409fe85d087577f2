"""Temperature-scaling calibration of one provider.

Confidence is the mean over teacher-forced steps of the max scaled
softmax probability; the token error rate is temperature-invariant
(argmax invariance), so the calibration target 1 - TER is a fixed
quantity and the fitted temperature is found by bisecting the
confidence-vs-target gap, which is monotone non-increasing in tau.
Teacher forcing conditions every step on the reference prefix, keeping
the fit independent of any fused decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TokenSeq, Vocabulary
from .errors import InvalidInputError, InvalidParameterError
from .providers import UtteranceContext

DEFAULT_BOUNDS = (1e-2, 1e2)
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 60
DEFAULT_BINS = 10


@dataclass(frozen=True)
class CalibrationReport:
    tau: float
    mean_confidence: float
    ter: float
    n_dec: int
    bins: tuple  # ((lo, hi, count, confidence, accuracy), ...)
    ece: float
    clamped: bool  # tau hit a search bound / tolerance was unreachable

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "mean_confidence": self.mean_confidence,
            "ter": self.ter,
            "n_dec": self.n_dec,
            "bins": [list(b) for b in self.bins],
            "ece": self.ece,
            "clamped": self.clamped,
        }


def teacher_forced_trace(provider, reference: TokenSeq, ctx: UtteranceContext) -> np.ndarray:
    """Raw logits per reference step, conditioned on the reference prefix.

    Row t is the provider's output given history BOS + reference[:t]; the
    trace has exactly one row per reference token (EOS included). A
    provider with a `prefetch` method (one served over the wire) is told
    the whole path first, so it can fetch the rows in few round trips.
    """
    reference = tuple(reference)
    if not reference or reference[-1] != Vocabulary.EOS:
        raise InvalidInputError("reference must be non-empty and EOS-terminated")
    history: TokenSeq = (Vocabulary.BOS,)
    if hasattr(provider, "prefetch"):
        provider.prefetch(history, reference[:-1], ctx)
    rows = []
    for tok in reference:
        rows.append(provider.next_logits(history, ctx))
        history += (tok,)
    return np.stack(rows)


def collect_traces(provider, dataset):
    """Stack teacher-forced logits and targets over (ctx, reference) pairs."""
    traces, targets = [], []
    for ctx, reference in dataset:
        traces.append(teacher_forced_trace(provider, reference, ctx))
        targets.extend(reference)
    if not traces:
        raise InvalidInputError("dataset is empty")
    return np.concatenate(traces, axis=0), np.asarray(targets, dtype=np.int64)


def _step_confidences(traces: np.ndarray, tau: float) -> np.ndarray:
    """Max of softmax(row / tau) per row; the max entry normalizes to
    1 / sum(exp((x - x_max) / tau))."""
    if not 0 < tau < math.inf:
        raise InvalidParameterError(f"tau must be finite and positive, got {tau}")
    shifted = (traces - traces.max(axis=1, keepdims=True)) / tau
    return 1.0 / np.exp(shifted).sum(axis=1)


def mean_confidence(traces: np.ndarray, tau: float) -> float:
    traces = np.asarray(traces, dtype=np.float64)
    if traces.size == 0:
        raise InvalidInputError("traces are empty")
    return float(_step_confidences(traces, tau).mean())


def reliability_bins(traces: np.ndarray, targets: np.ndarray, tau: float,
                     n_bins: int = DEFAULT_BINS):
    """Equal-width confidence bins on [0, 1] plus the expected calibration
    error; returns (bins, ece) with exactly n_bins rows."""
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    traces = np.asarray(traces, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    conf = _step_confidences(traces, tau)
    correct = traces.argmax(axis=1) == targets
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    bins = []
    ece = 0.0
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            bin_conf = float(conf[mask].mean())
            bin_acc = float(correct[mask].mean())
            ece += (count / conf.size) * abs(bin_conf - bin_acc)
        else:
            bin_conf = bin_acc = 0.0
        bins.append((b / n_bins, (b + 1) / n_bins, count, bin_conf, bin_acc))
    return tuple(bins), float(ece)


def fit_temperature(provider, dataset, tol: float = DEFAULT_TOL,
                    bounds=DEFAULT_BOUNDS, max_iter: int = DEFAULT_MAX_ITER,
                    n_bins: int = DEFAULT_BINS) -> CalibrationReport:
    """Bisect tau until mean confidence matches 1 - TER within tol.

    If the target lies outside the confidence range achievable on
    [tau_min, tau_max], the nearer bound is returned with the report
    flagged instead of raising.
    """
    tau_min, tau_max = float(bounds[0]), float(bounds[1])
    if not 0 < tau_min < tau_max < math.inf:
        raise InvalidParameterError(f"need 0 < tau_min < tau_max < inf, got {bounds}")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")

    traces, targets = collect_traces(provider, dataset)
    ter = float((traces.argmax(axis=1) != targets).mean())
    target = 1.0 - ter

    def gap(tau):
        return mean_confidence(traces, tau) - target

    gap_sharp, gap_flat = gap(tau_min), gap(tau_max)
    if gap_sharp <= 0.0:  # target at or above the reachable confidence peak
        tau, clamped = tau_min, True
    elif gap_flat >= 0.0:  # target at or below the reachable confidence floor
        tau, clamped = tau_max, True
    else:
        lo, hi = tau_min, tau_max  # gap(lo) > 0 > gap(hi)
        tau, clamped = None, False
        for _ in range(max_iter):
            mid = (lo + hi) / 2.0
            g = gap(mid)
            if abs(g) <= tol:
                tau = mid
                break
            if g > 0.0:
                lo = mid
            else:
                hi = mid
        if tau is None:
            tau = (lo + hi) / 2.0
            clamped = abs(gap(tau)) > tol

    bins, ece = reliability_bins(traces, targets, tau, n_bins=n_bins)
    return CalibrationReport(
        tau=float(tau),
        mean_confidence=mean_confidence(traces, tau),
        ter=ter,
        n_dec=int(targets.size),
        bins=bins,
        ece=ece,
        clamped=clamped,
    )


def export_bins_csv(bins, path):
    """Comma-separated reliability rows: bin_lo, bin_hi, count, confidence, accuracy."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin_lo,bin_hi,count,confidence,accuracy\n")
        for lo, hi, count, conf, acc in bins:
            f.write(f"{lo!r},{hi!r},{count},{conf!r},{acc!r}\n")
