"""Temperature-scaling calibration of one provider.

Confidence is the mean over teacher-forced steps of the max scaled
softmax probability; the token error rate is temperature-invariant
(argmax invariance), so the calibration target 1 - TER is a fixed
quantity and the fitted temperature is found by bisecting the
confidence-vs-target gap, which is monotone non-increasing in tau.
Teacher forcing conditions every step on the reference prefix, keeping
the fit independent of any fused decoding.

A keyed provider (the acoustic channel) is a block plus an index, so
`collect_traces` takes its block `log_rows` as the trace's rows and
records the key of each step, the row that step reads; it reads no row
through `next_logits`. Any other provider is read once per step. A fit
shifts those rows by their maxima once (`ShiftedTrace`), so each
bisection evaluation only divides, exponentiates and sums the rows into
one reused buffer, then gathers the result per step:
the mean sums the same per-step values in the same order, so the
confidences and the report come out bit for bit as shifting every row of
the full trace at every evaluation gives them. The same shifted trace
gives the report both reliability diagrams: its bins at tau 1, before
calibration, and at the fitted tau. The report is the one way results
leave this module: only the fit bins a trace, and `mean_confidence`
reads only the `ShiftedTrace` the fit builds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import TokenSeq, Vocabulary
from .errors import InvalidInputError, InvalidParameterError

DEFAULT_BOUNDS = (1e-2, 1e2)
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 60
DEFAULT_BINS = 10
# Most reliability bins a report holds. Binning makes one pass over
# the trace per bin, and the diagrams this bench draws use about ten; a
# thousand already leaves most bins empty on a validation split of a few
# thousand steps.
MAX_BINS = 1000
# log of the smallest normal float: a scaled entry below it exponentiates
# to a subnormal or to 0
LOG_TINY = math.log(sys.float_info.min)


@dataclass(frozen=True)
class CalibrationReport:
    tau: float
    mean_confidence: float
    ter: float
    n_dec: int
    bins: tuple  # ((lo, hi, count, confidence, accuracy), ...)
    ece: float
    clamped: bool  # tau hit a search bound / tolerance was unreachable
    bins_tau1: tuple  # the bins and ECE of the uncalibrated trace, at tau 1
    ece_tau1: float

    def to_dict(self) -> dict:
        return asdict(self)


def _checked_reference(reference) -> TokenSeq:
    reference = tuple(reference)
    if not reference or reference[-1] != Vocabulary.EOS:
        raise InvalidInputError("reference must be non-empty and EOS-terminated")
    return reference


def collect_traces(provider, dataset):
    """Teacher-forced logit rows, targets and the row of each step, over
    (ctx, reference) pairs.

    Returns `(rows, targets, steps)`: `targets` holds every reference id
    in order, one per step, and step i's raw logits are `rows[steps[i]]`,
    so `rows[steps]` is the full teacher-forced trace. A keyed provider's
    rows are its block `log_rows`, and step t of an utterance reads the
    row of `row_key(t + 1, ctx)`, the key of its history BOS +
    reference[:t]: no row is read through `next_logits`. Any other
    provider is read once per step, `rows` is the full trace and `steps`
    counts 0, 1, 2, ... Each utterance's rows are then copied into one
    block before the next utterance is read, so a row that views a bigger
    buffer (a wire reply) does not keep it alive.

    A provider with a `prefetch` method (one served over the wire) is told
    the whole set first, each reference but its EOS as the follow of its
    utterance, so it can fetch the rows of many references per round trip.
    """
    dataset = list(dataset)
    if hasattr(provider, "prefetch"):
        provider.prefetch([(ctx, tuple(reference)[:-1]) for ctx, reference in dataset])
    if not dataset:
        raise InvalidInputError("dataset is empty")
    row_key = getattr(provider, "row_key", None)
    blocks, keys = [], []
    for ctx, reference in dataset:
        reference = _checked_reference(reference)
        if row_key is None:
            blocks.append(np.stack([provider.next_logits((Vocabulary.BOS,) + reference[:t], ctx)
                                    for t in range(len(reference))]))
        else:
            keys += [row_key(t + 1, ctx) for t in range(len(reference))]
    targets = np.asarray([tok for _ctx, reference in dataset for tok in reference],
                         dtype=np.int64)
    if row_key is None:
        return np.concatenate(blocks), targets, np.arange(targets.size)
    return provider.log_rows, targets, np.asarray(keys, dtype=np.intp)


class ShiftedTrace:
    """A (rows, V) logit block less its row maxima, shifted once, and the
    row each step reads (`steps`).

    `confidences(tau)` gives the max of softmax(row / tau) per step: the
    max entry normalizes to 1 / sum(exp((x - x_max) / tau)). The shift is
    the same subtraction whichever tau follows, so it is done here and
    each call only divides, exponentiates and sums, in one buffer made on
    the first call and reused after, then gathers the result per step;
    every operation works row by row, so the result is bit for bit what
    shifting every step's row on every call gives. A tiny tau may take a
    shifted entry to -inf, whose exp is the limit 0.

    At a tau that scales the trace's floor below LOG_TINY, the scaled
    entries below it are set to -inf before the exp. Their exps, under
    2.3e-308, are subnormals, which numpy computes on a slow path: at tau
    0.01 they took one evaluation of a 1299 x 200 corrector trace from
    about 0.5 to 12 ms. Every row holds exp(0) = 1, so its sum is at least
    1 and they cannot move it. In numpy's pairwise sum (8 running sums
    per block of up to 128 entries, then the halves added), such an entry
    is under half an ulp of any running sum of 2^-969 or more and leaves
    it as it is. A running sum of smaller entries that it does change
    differs by under 2^-1021 per entry, and that difference reaches the
    row's sum, whose ulp is at least 2^-52, only if a rounding on the way
    lands within it of a midpoint. `TestSubnormalClamp` checks the
    confidences bit for bit against the exp of every entry.
    """

    __slots__ = ("rows", "steps", "_floor", "_buf")

    def __init__(self, traces: np.ndarray, steps: np.ndarray):
        traces = np.asarray(traces, dtype=np.float64)
        with np.errstate(over="ignore"):
            self.rows = traces - traces.max(axis=1, keepdims=True)
        self._floor = self.rows.min(initial=0.0)
        self.steps = steps
        self._buf = None

    def confidences(self, tau: float) -> np.ndarray:
        if not 0 < tau < math.inf:
            raise InvalidParameterError(f"tau must be finite and positive, got {tau}")
        if self._buf is None:
            self._buf = np.empty_like(self.rows)
        buf = self._buf
        with np.errstate(over="ignore"):
            np.divide(self.rows, tau, out=buf)
            clamp = self._floor / tau < LOG_TINY  # does any scaled entry fall below it
        if clamp:
            np.copyto(buf, -np.inf, where=buf < LOG_TINY)
        np.exp(buf, out=buf)
        conf = 1.0 / buf.sum(axis=1)
        return conf[self.steps]


def mean_confidence(shifted: ShiftedTrace, tau: float) -> float:
    """Mean over steps of the max scaled softmax probability."""
    return float(shifted.confidences(tau).mean())


def _bin(conf: np.ndarray, correct: np.ndarray, n_bins: int):
    """Equal-width bins of per-step confidences and hits, and the ECE."""
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


def check_fit_parameters(tol: float, bounds, max_iter: int, n_bins: int):
    """Refuse the parameters of `fit_temperature`, so that a caller can
    check them before it opens a provider."""
    tau_min, tau_max = float(bounds[0]), float(bounds[1])
    if not 0 < tau_min < tau_max < math.inf:
        raise InvalidParameterError(f"need 0 < tau_min < tau_max < inf, got {bounds}")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise InvalidParameterError(f"max_iter must be >= 0, got {max_iter}")
    if not 2 <= n_bins <= MAX_BINS:
        raise InvalidParameterError(f"n_bins must be in [2, {MAX_BINS}], got {n_bins}")


def fit_temperature(provider, dataset, tol: float = DEFAULT_TOL,
                    bounds=DEFAULT_BOUNDS, max_iter: int = DEFAULT_MAX_ITER,
                    n_bins: int = DEFAULT_BINS) -> CalibrationReport:
    """Bisect tau until mean confidence matches 1 - TER within tol.

    If the target lies outside the confidence range achievable on
    [tau_min, tau_max], the nearer bound is returned with the report
    flagged instead of raising. At most `max_iter` midpoints are tried;
    0 tries none, and the bracket's midpoint is returned, flagged unless
    it is within tol. The search also stops, flagged, at a midpoint that
    equals an end of its bracket: no later step could move it. Every
    parameter is checked (`check_fit_parameters`) before the trace is
    collected. Besides the bins at the fitted tau, the report holds those
    at tau 1, the provider's own confidences before calibration.
    """
    check_fit_parameters(tol, bounds, max_iter, n_bins)
    tau_min, tau_max = float(bounds[0]), float(bounds[1])

    rows, targets, steps = collect_traces(provider, dataset)
    correct = rows.argmax(axis=1)[steps] == targets
    ter = float((~correct).mean())
    target = 1.0 - ter
    shifted = ShiftedTrace(rows, steps)
    del rows  # the raw rows are not read again; free them before the buffer

    def gap(tau):
        return mean_confidence(shifted, tau) - target

    gap_sharp, gap_flat = gap(tau_min), gap(tau_max)
    if gap_sharp <= 0.0:  # target at or above the reachable confidence peak
        tau, clamped = tau_min, True
    elif gap_flat >= 0.0:  # target at or below the reachable confidence floor
        tau, clamped = tau_max, True
    else:
        lo, hi = tau_min, tau_max  # gap(lo) > 0 > gap(hi)
        for _ in range(max_iter):
            tau = (lo + hi) / 2.0
            g = gap(tau)
            if abs(g) <= tol or tau == lo or tau == hi:  # at an end, no later step moves it
                break
            if g > 0.0:
                lo = tau
            else:
                hi = tau
        else:  # out of tries, or none allowed: the last bracket's midpoint
            tau = (lo + hi) / 2.0
            g = gap(tau)
        clamped = abs(g) > tol

    bins, ece = _bin(shifted.confidences(tau), correct, n_bins)
    bins_tau1, ece_tau1 = _bin(shifted.confidences(1.0), correct, n_bins)
    return CalibrationReport(
        tau=float(tau),
        mean_confidence=mean_confidence(shifted, tau),
        ter=ter,
        n_dec=int(targets.size),
        bins=bins,
        ece=ece,
        clamped=clamped,
        bins_tau1=bins_tau1,
        ece_tau1=ece_tau1,
    )

