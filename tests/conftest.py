import math

import numpy as np
import pytest

from latefuse.core import Vocabulary
from latefuse.providers import UtteranceContext


@pytest.fixture
def abc_vocab():
    """Six-token vocabulary: specials plus a, b, c (ids 3, 4, 5)."""
    return Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c"))


@pytest.fixture
def empty_ctx():
    return UtteranceContext(utt_id="u0")


class ConstantProvider:
    """Same logits at every step."""

    def __init__(self, vocab, logits):
        self.vocab = vocab
        self.logits = np.asarray(logits, dtype=np.float64)

    def next_logits(self, history, ctx):
        return self.logits.copy()


@pytest.fixture
def constant_provider_cls():
    return ConstantProvider


# -- temperature fit as it was before the trace shift was hoisted; kept
# frozen so that `fit_temperature` can be compared with it bit for bit.


def _frozen_step_confidences(traces, tau):
    with np.errstate(over="ignore"):
        shifted = (traces - traces.max(axis=1, keepdims=True)) / tau
    return 1.0 / np.exp(shifted).sum(axis=1)


def _frozen_mean_confidence(traces, tau):
    traces = np.asarray(traces, dtype=np.float64)
    return float(_frozen_step_confidences(traces, tau).mean())


def _frozen_reliability_bins(traces, targets, tau, n_bins):
    traces = np.asarray(traces, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    conf = _frozen_step_confidences(traces, tau)
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


def teacher_forced_trace(provider, reference, ctx):
    """Raw logits per reference step, conditioned on the reference prefix:
    row t is the provider's row after BOS + reference[:t], one row per
    reference token (EOS included), each read anew."""
    return np.stack([provider.next_logits((Vocabulary.BOS,) + tuple(reference[:t]), ctx)
                     for t in range(len(reference))])


def _frozen_fit_temperature(provider, dataset, tol=1e-3, bounds=(1e-2, 1e2),
                            max_iter=60, n_bins=10):
    """The report `fit_temperature` gave, as a dict, and its evaluation
    count, from the full teacher-forced trace: one row read per step."""
    tau_min, tau_max = float(bounds[0]), float(bounds[1])
    traces = np.concatenate([teacher_forced_trace(provider, ref, ctx) for ctx, ref in dataset])
    targets = np.asarray([tok for _ctx, ref in dataset for tok in ref], dtype=np.int64)
    ter = float((traces.argmax(axis=1) != targets).mean())
    target = 1.0 - ter
    evals = [0]

    def gap(tau):
        evals[0] += 1
        return _frozen_mean_confidence(traces, tau) - target

    gap_sharp, gap_flat = gap(tau_min), gap(tau_max)
    if gap_sharp <= 0.0:
        tau, clamped = tau_min, True
    elif gap_flat >= 0.0:
        tau, clamped = tau_max, True
    else:
        lo, hi = tau_min, tau_max
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

    bins, ece = _frozen_reliability_bins(traces, targets, tau, n_bins)
    bins_tau1, ece_tau1 = _frozen_reliability_bins(traces, targets, 1.0, n_bins)
    evals[0] += 1
    report = {
        "tau": float(tau),
        "mean_confidence": _frozen_mean_confidence(traces, tau),
        "ter": ter,
        "n_dec": int(targets.size),
        "bins": [list(b) for b in bins],
        "ece": ece,
        "clamped": clamped,
        "bins_tau1": [list(b) for b in bins_tau1],
        "ece_tau1": ece_tau1,
    }
    return report, evals[0]


@pytest.fixture
def frozen_fit():
    """`fit_temperature` before the shift was hoisted and before a keyed
    provider's rows were read once per key: (report dict, number of
    mean-confidence evaluations)."""
    return _frozen_fit_temperature


@pytest.fixture
def full_trace():
    """`teacher_forced_trace`, the reference `collect_traces` must equal."""
    return teacher_forced_trace


@pytest.fixture
def frozen_bins():
    """`reliability_bins` as first written, shifting the trace per call:
    (bins, ece)."""
    return _frozen_reliability_bins


# -- n-gram rows, `encode` and `record_context` as they were before the
# context index and the one-pass encode; kept frozen so that the new code
# can be compared with them bit for bit.


def _frozen_cond_dist(model, history):
    """`NgramModel.cond_dist` as it probed every `ctx + (tok,)`, uncached,
    reading the counts the model writes to `lm.json`."""
    ctx = model._context(history)
    v = model.vocab.size
    ngram_counts = {tuple(key): count for key, count in model.to_dict()["ngrams"]}
    total = sum(count for key, count in ngram_counts.items() if key[:-1] == ctx)
    if total == 0 and model.smoothing == 0.0:
        return np.full(v, 1.0 / v)
    counts = np.zeros(v)
    for tok in range(v):
        c = ngram_counts.get(ctx + (tok,))
        if c:
            counts[tok] = c
    return (counts + model.smoothing) / (total + model.smoothing * v)


def _frozen_encode(vocab, text, append_eos=False):
    ids = tuple(vocab.id_of(w) for w in text.split())
    return ids + (vocab.EOS,) if append_eos else ids


def _frozen_record_context(record, vocab):
    words = record.observation.split()
    observation = (Vocabulary.BOS,) + _frozen_encode(vocab, " ".join(words)) + (Vocabulary.EOS,)
    ctx = UtteranceContext(
        utt_id=record.id,
        nbest=tuple(_frozen_encode(vocab, text, append_eos=True) for text, _ in record.nbest),
        observation=observation,
    )
    return ctx, record.reference.split()


@pytest.fixture
def frozen_cond_dist():
    """`NgramModel.cond_dist(model, history)` as the loop over every id
    computed it, reading the model's counts as they are now."""
    return _frozen_cond_dist


@pytest.fixture
def frozen_encode():
    """`Vocabulary.encode(vocab, text, append_eos)` as first written."""
    return _frozen_encode


@pytest.fixture
def frozen_record_context():
    """`corpus.record_context(record, vocab)` as first written."""
    return _frozen_record_context


# -- the corrector's vote rows and the row math as first written (`np.add.at`
# and boolean-mask copies; the `ndarray` reduction methods); kept frozen so
# that the one-pass vote rows and the direct ufunc reductions can be
# compared with them bit for bit.


def _frozen_vote_rows(corrector, nbest):
    """`NgramCorrector._vote_rows` as it counted with `np.add.at`."""
    v = corrector.vocab.size
    counts = np.zeros((max(map(len, nbest), default=0) + 1, v))
    np.add.at(counts, ([pos for hyp in nbest for pos in range(len(hyp))],
                       [tok for hyp in nbest for tok in hyp]), 1.0)
    covering = counts.sum(axis=1)
    vote = np.full(counts.shape, 1.0 / v)
    some = covering > 0
    vote[some] = counts[some] / covering[some, None]
    return list(corrector.vote_weight * vote)


def _frozen_softmax(logits, tau):
    """`softmax_with_temperature` on a valid row and tau, as first written."""
    arr = np.asarray(logits, dtype=np.float64)
    top = float(arr.max()) / tau
    scaled = arr / float(tau)
    scaled -= top
    np.exp(scaled, out=scaled)
    scaled /= scaled.sum()
    return scaled


def _frozen_entropy(dist):
    """`entropy` as first written: every row copied without its zeros."""
    p = np.asarray(dist)
    nz = p[p > 0.0]
    h = float(-(nz * np.log(nz)).sum())
    return min(max(h, 0.0), math.log(p.size))


@pytest.fixture
def frozen_vote_rows():
    """`NgramCorrector._vote_rows(corrector, nbest)` as first written."""
    return _frozen_vote_rows


@pytest.fixture
def frozen_softmax():
    """`softmax_with_temperature(logits, tau)` as first written."""
    return _frozen_softmax


@pytest.fixture
def frozen_entropy():
    """`entropy(dist)` as first written."""
    return _frozen_entropy
