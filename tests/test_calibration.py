import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from latefuse import calibration
from latefuse.calibration import (
    DEFAULT_BOUNDS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MAX_BINS,
    ShiftedTrace,
    check_fit_parameters,
    collect_traces,
    fit_temperature,
    mean_confidence,
)
from latefuse.core import Vocabulary
from latefuse.errors import InvalidInputError, InvalidParameterError
from latefuse.providers import AcousticChannel, UtteranceContext


@pytest.fixture
def identity_channel(abc_vocab):
    return AcousticChannel(abc_vocab, np.eye(abc_vocab.size))


def dataset_from_texts(vocab, texts):
    """Teacher-forcing pairs where the observation equals the reference."""
    out = []
    for i, text in enumerate(texts):
        ref = vocab.encode(text, append_eos=True)
        obs = (Vocabulary.BOS,) + ref
        out.append((UtteranceContext(utt_id=f"u{i}", observation=obs), ref))
    return out


class TestTeacherForcedTrace:
    """`collect_traces` gives the teacher-forced trace as `rows[steps]`."""

    def test_identity_channel_is_dirac_on_reference(self, abc_vocab, identity_channel):
        (ctx, ref), = dataset_from_texts(abc_vocab, ["a b c"])
        rows, targets, steps = collect_traces(identity_channel, [(ctx, ref)])
        trace = rows[steps]
        assert trace.shape == (len(ref), abc_vocab.size)
        np.testing.assert_array_equal(trace.argmax(axis=1), ref)
        assert targets.tolist() == list(ref)

    def test_trace_length_equals_reference_length(self, abc_vocab, identity_channel):
        rng = np.random.default_rng(3)
        for _ in range(20):
            words = " ".join(rng.choice(["a", "b", "c"], size=int(rng.integers(1, 7))))
            (ctx, ref), = dataset_from_texts(abc_vocab, [words])
            _rows, targets, steps = collect_traces(identity_channel, [(ctx, ref)])
            assert len(steps) == len(targets) == len(ref)

    def test_reference_must_end_with_eos(self, abc_vocab, identity_channel):
        ctx = UtteranceContext(utt_id="u0", observation=(0, 3, 1))
        with pytest.raises(InvalidInputError, match="EOS-terminated"):
            collect_traces(identity_channel, [(ctx, (3, 4))])


class TestMeanConfidence:
    def test_dirac_logits_give_one(self):
        traces = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        shifted = ShiftedTrace(traces, np.arange(len(traces)))
        assert mean_confidence(shifted, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_logits_give_uniform(self):
        shifted = ShiftedTrace(np.zeros((10, 4)), np.arange(10))
        for tau in (0.3, 1.0, 7.0):
            assert mean_confidence(shifted, tau) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_nonincreasing_in_tau(self):
        rng = np.random.default_rng(11)
        shifted = ShiftedTrace(rng.normal(scale=3.0, size=(50, 8)), np.arange(50))
        taus = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        confs = [mean_confidence(shifted, t) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(confs, confs[1:]))


class TestTokenErrorRate:
    def test_identity_channel_ter_is_zero(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a b", "c c a", "b"])
        assert fit_temperature(identity_channel, dataset).ter == 0.0

    def test_uniform_provider_picks_id_zero(self, abc_vocab, constant_provider_cls):
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        # argmax of constant zeros is id 0 = BOS, never a reference token here
        dataset = dataset_from_texts(abc_vocab, ["a", "b c"])
        assert fit_temperature(provider, dataset).ter == 1.0

    def test_constant_peaked_provider_by_hand(self, abc_vocab, constant_provider_cls):
        logits = np.zeros(abc_vocab.size)
        logits[3] = 5.0  # always predicts "a"
        provider = constant_provider_cls(abc_vocab, logits)
        # refs "a a b </s>"-style: steps = a a b EOS -> wrong at b and EOS
        dataset = dataset_from_texts(abc_vocab, ["a a b"])
        assert fit_temperature(provider, dataset).ter == pytest.approx(2.0 / 4.0)

    def test_ter_is_temperature_invariant(self, abc_vocab, constant_provider_cls):
        rng = np.random.default_rng(5)
        provider = constant_provider_cls(abc_vocab, rng.normal(size=abc_vocab.size))
        dataset = dataset_from_texts(abc_vocab, ["a b c", "c b"])
        traces, targets, _ = collect_traces(provider, dataset)
        base = (traces.argmax(axis=1) != targets).mean()
        for tau in (0.5, 5.0):
            scaled = traces / tau
            assert (scaled.argmax(axis=1) != targets).mean() == base


class _TraceProvider:
    """Plays back a fixed logit row per step, cycling over rows."""

    def __init__(self, vocab, rows):
        self.vocab = vocab
        self.rows = np.asarray(rows, dtype=np.float64)

    def next_logits(self, history, ctx):
        return self.rows[(len(history) - 1) % len(self.rows)].copy()


class TestFitTemperature:
    def test_already_calibrated_provider_fits_tau_near_one(self, abc_vocab):
        # peak ln 15 on UNK: conf(tau=1) = 15/20 = 0.75; refs make TER exactly 0.25
        rows = [[0.0, 0.0, math.log(15.0), 0.0, 0.0, 0.0]]
        provider = _TraceProvider(abc_vocab, rows)
        ref = (2, 2, 2, 1)  # unk unk unk EOS: 3 hits, 1 miss
        dataset = [(UtteranceContext(utt_id="u0"), ref)]
        report = fit_temperature(provider, dataset, tol=1e-3)
        assert not report.clamped
        assert abs(report.mean_confidence - (1.0 - report.ter)) <= 1e-3
        assert report.tau == pytest.approx(1.0, abs=0.01)

    def test_grid_sweep_oracle_agrees(self, abc_vocab):
        rng = np.random.default_rng(19)
        rows = rng.normal(scale=2.0, size=(12, abc_vocab.size))
        provider = _TraceProvider(abc_vocab, rows)
        ref = tuple(int(t) for t in rng.integers(2, 6, size=11)) + (1,)
        dataset = [(UtteranceContext(utt_id="u0"), ref)]
        report = fit_temperature(provider, dataset, tol=1e-4)
        traces, targets, _ = collect_traces(provider, dataset)
        target = 1.0 - (traces.argmax(axis=1) != targets).mean()
        grid = np.geomspace(1e-2, 1e2, 20001)
        shifted = ShiftedTrace(traces, np.arange(len(traces)))
        grid_gaps = [abs(mean_confidence(shifted, t) - target) for t in grid]
        assert abs(report.mean_confidence - target) <= min(grid_gaps) + 1e-4

    def test_overconfident_provider_fits_tau_above_one(self, abc_vocab):
        rows = [[0.0, 0.0, 12.0, 0.0, 0.0, 0.0]]  # conf ~ 0.99999
        provider = _TraceProvider(abc_vocab, rows)
        # 200 steps, wrong only at the 5 EOS steps: TER 0.025, conf >> 0.975
        dataset = []
        for i in range(5):
            dataset.append((UtteranceContext(utt_id=f"u{i}"), (2,) * 39 + (1,)))
        report = fit_temperature(provider, dataset)
        assert report.ter == pytest.approx(5.0 / 200.0)
        assert report.tau > 1.0
        assert not report.clamped
        assert abs(report.mean_confidence - (1.0 - report.ter)) <= 1e-3

    def test_zero_ter_clamps_to_tau_min_with_flag(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a b", "c"])
        report = fit_temperature(identity_channel, dataset)
        assert report.ter == 0.0
        assert report.tau == pytest.approx(1e-2)
        assert report.clamped

    def test_bad_bounds_rejected(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a"])
        with pytest.raises(InvalidParameterError):
            fit_temperature(identity_channel, dataset, bounds=(1.0, 0.5))

    def test_report_bin_counts_sum_to_n_dec(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a b c", "b", "c a"])
        report = fit_temperature(identity_channel, dataset)
        assert sum(b[2] for b in report.bins) == report.n_dec
        assert report.n_dec == 4 + 2 + 3


class TestReportBins:
    """The report's two reliability diagrams: equal-width confidence bins
    on [0, 1] and the expected calibration error, at tau 1 and at the
    fitted tau."""

    def test_perfect_provider_has_zero_ece(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a b c"])
        report = fit_temperature(identity_channel, dataset, n_bins=10)
        for bins, ece in ((report.bins_tau1, report.ece_tau1), (report.bins, report.ece)):
            occupied = [b for b in bins if b[2] > 0]
            assert len(occupied) == 1
            assert ece == pytest.approx(0.0, abs=1e-9)

    def test_counts_partition_steps(self):
        provider, dataset = matrix_case(23, steps=137, vocab=6)
        report = fit_temperature(provider, dataset, n_bins=7)
        assert report.n_dec == 137
        for bins in (report.bins, report.bins_tau1):
            assert len(bins) == 7
            assert sum(b[2] for b in bins) == 137

    def test_calibration_reduces_ece_for_overconfident_provider(self, abc_vocab):
        rows = [[0.0, 0.0, 9.0, 0.0, 0.0, 0.0]]
        provider = _TraceProvider(abc_vocab, rows)
        dataset = [(UtteranceContext(utt_id="u0"), (2,) * 15 + (1,) * 1),
                   (UtteranceContext(utt_id="u1"), (2,) * 12 + (1,))]
        report = fit_temperature(provider, dataset)
        assert report.ece < report.ece_tau1

    @pytest.mark.parametrize("seed", [0, 5])
    def test_equal_frozen_reliability_bins_at_the_fitted_tau(self, frozen_bins, seed):
        provider, dataset = matrix_case(seed, steps=300)
        report = fit_temperature(provider, dataset)
        traces, targets, _ = collect_traces(provider, dataset)
        assert (report.bins, report.ece) == frozen_bins(traces, targets, report.tau, 10)


class _MatrixProvider:
    """Plays back row offset + t of a fixed matrix at step t of the
    utterance whose id is `offset`."""

    def __init__(self, matrix):
        self.matrix = matrix

    def next_logits(self, history, ctx):
        return self.matrix[int(ctx.utt_id) + len(history) - 1].copy()


def matrix_case(seed, steps=1299, vocab=200, length=13, scale=3.0):
    """A provider and teacher-forcing set whose trace is a seeded
    (steps, vocab) logit matrix, references `length` tokens long."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(scale=scale, size=(steps, vocab))
    # make about two thirds of the steps hit, so the fit is not clamped
    targets = np.where(rng.random(steps) < 0.67, matrix.argmax(axis=1),
                       rng.integers(2, vocab, size=steps))
    dataset = []
    for offset in range(0, steps, length):
        n = min(length, steps - offset)
        ref = tuple(int(t) for t in targets[offset:offset + n - 1]) + (Vocabulary.EOS,)
        dataset.append((UtteranceContext(utt_id=str(offset)), ref))
    return _MatrixProvider(matrix), dataset


def fit_dict_and_evals(monkeypatch, provider, dataset, **kwargs):
    """`fit_temperature`'s report as a dict and its `mean_confidence` calls."""
    calls, original = [0], calibration.mean_confidence

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with monkeypatch.context() as patched:
        patched.setattr(calibration, "mean_confidence", counted)
        report = fit_temperature(provider, dataset, **kwargs)
    return report.to_dict(), calls[0]


class TestShiftedTraceMatchesPerCallShift:
    """Hoisting the row-max shift out of the bisection changes no bit."""

    @pytest.mark.parametrize("kwargs", [
        {}, {"tol": 1e-6}, {"n_bins": 7}, {"max_iter": 3}, {"max_iter": 0},
        {"bounds": (1e-320, 1e2)}, {"bounds": (0.5, 2.0)}, {"bounds": (30.0, 60.0)},
    ], ids=repr)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_equals_frozen_fit(self, monkeypatch, frozen_fit, seed, kwargs):
        provider, dataset = matrix_case(seed, steps=300)
        got, evals = fit_dict_and_evals(monkeypatch, provider, dataset, **kwargs)
        want, want_evals = frozen_fit(provider, dataset, **kwargs)
        assert json.dumps(got) == json.dumps(want)
        assert evals == want_evals

    def test_unreachable_tol_stops_where_bisection_stalls(self, monkeypatch, frozen_fit):
        """With tol below any gap the bisection reaches on this case, the
        midpoint stops moving; the fit stops there, with the report the
        full run of steps gives."""
        provider, dataset = matrix_case(4, steps=200)
        got, evals = fit_dict_and_evals(monkeypatch, provider, dataset,
                                        tol=1e-300, max_iter=10_000)
        want, want_evals = frozen_fit(provider, dataset, tol=1e-300, max_iter=400)
        assert json.dumps(got) == json.dumps(want)
        assert got["clamped"] and evals < want_evals

    def test_confidences_equal_per_call_shift(self):
        rng = np.random.default_rng(41)
        traces = rng.normal(scale=40.0, size=(97, 31))
        traces[5] = 0.0  # a uniform row
        traces[6, 3] = 1e300  # a row whose shifted entries overflow to -inf
        shifted = ShiftedTrace(traces, np.arange(len(traces)))
        for tau in (1e-320, 1e-5, 0.3, 1.0, 7.0, 1e5, 1e300):
            with np.errstate(over="ignore"):
                want = 1.0 / np.exp((traces - traces.max(axis=1, keepdims=True))
                                    / tau).sum(axis=1)
            assert shifted.confidences(tau).tobytes() == want.tobytes()
            assert mean_confidence(shifted, tau) == float(want.mean())

    def test_peak_memory_no_higher_than_frozen_fit(self, frozen_fit):
        provider, dataset = matrix_case(0)
        peaks = []
        tracemalloc.start()
        try:
            for fit in (fit_temperature, frozen_fit):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fit(provider, dataset)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert sum(len(ref) for _ctx, ref in dataset) == 1299
        assert peaks[0] <= peaks[1]


class TestTau1Bins:
    """The report's tau-1 diagram is that of the uncalibrated trace, binned
    from the shifted trace the fit already holds."""

    @pytest.mark.parametrize("n_bins", [2, 10, 37])
    def test_equal_frozen_reliability_bins_at_tau_1(self, frozen_bins, n_bins):
        provider, dataset = matrix_case(2, steps=300)
        report = fit_temperature(provider, dataset, n_bins=n_bins)
        traces, targets, _ = collect_traces(provider, dataset)
        bins, ece = frozen_bins(traces, targets, 1.0, n_bins)
        assert json.dumps([list(b) for b in report.bins_tau1]) == \
            json.dumps([list(b) for b in bins])
        assert report.ece_tau1.hex() == ece.hex()

    def test_independent_of_the_fitted_tau(self):
        provider, dataset = matrix_case(3, steps=200)
        wide = fit_temperature(provider, dataset)
        narrow = fit_temperature(provider, dataset, bounds=(30.0, 60.0))
        assert wide.tau != narrow.tau and wide.bins != narrow.bins
        assert wide.bins_tau1 == narrow.bins_tau1
        assert wide.ece_tau1 == narrow.ece_tau1

    def test_written_after_the_fitted_keys(self, abc_vocab, identity_channel):
        dataset = dataset_from_texts(abc_vocab, ["a b c", "c a"])
        report = fit_temperature(identity_channel, dataset).to_dict()
        assert list(report) == ["tau", "mean_confidence", "ter", "n_dec", "bins", "ece",
                                "clamped", "bins_tau1", "ece_tau1"]
        assert sum(b[2] for b in report["bins_tau1"]) == report["n_dec"]


class TestParameterBounds:
    """A bad bin count or iteration limit is refused before any trace."""

    @pytest.fixture
    def no_traces(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("collected a trace")

        monkeypatch.setattr(calibration, "collect_traces", refuse)

    @pytest.mark.parametrize("n_bins", [1, 0, -3, MAX_BINS + 1, 100_000_000])
    def test_bins_out_of_range(self, abc_vocab, identity_channel, no_traces, n_bins):
        dataset = dataset_from_texts(abc_vocab, ["a"])
        with pytest.raises(InvalidParameterError, match="n_bins"):
            fit_temperature(identity_channel, dataset, n_bins=n_bins)
        with pytest.raises(InvalidParameterError, match="n_bins"):
            check_fit_parameters(DEFAULT_TOL, DEFAULT_BOUNDS, DEFAULT_MAX_ITER, n_bins)

    def test_negative_max_iter(self, abc_vocab, identity_channel, no_traces):
        dataset = dataset_from_texts(abc_vocab, ["a"])
        with pytest.raises(InvalidParameterError, match="max_iter"):
            fit_temperature(identity_channel, dataset, max_iter=-5)

    def test_max_bins_is_accepted(self):
        provider, dataset = matrix_case(2, steps=50, vocab=6)
        report = fit_temperature(provider, dataset, n_bins=MAX_BINS)
        assert len(report.bins) == len(report.bins_tau1) == MAX_BINS

    def test_zero_max_iter_returns_the_flagged_midpoint(self):
        provider, dataset = matrix_case(3, steps=100)
        report = fit_temperature(provider, dataset, max_iter=0, bounds=(0.5, 2.0))
        assert report.tau == 1.25
        assert report.clamped == (abs(report.mean_confidence - (1 - report.ter)) > 1e-3)


class _Unkeyed:
    """A provider's rows without its `row_key`: read at every step."""

    def __init__(self, provider):
        self.vocab, self._provider = provider.vocab, provider

    def next_logits(self, history, ctx):
        return self._provider.next_logits(history, ctx)


class _ReplyViews:
    """An unkeyed provider whose rows of one utterance are views of one
    buffer, made at the utterance's first step, as the rows of a wire
    reply view its frame. `alive` counts, at each first step, the buffers
    of earlier utterances still alive."""

    def __init__(self, vocab):
        self.vocab, self.buffers, self.alive = vocab, [], []

    def next_logits(self, history, ctx):
        if len(history) == 1:
            self.alive.append(sum(ref() is not None for ref in self.buffers))
            buffer = np.arange(16.0 * self.vocab.size).reshape(16, -1) % 7 + len(self.buffers)
            self.buffers.append(weakref.ref(buffer))
            return buffer[0]
        return self.buffers[-1]()[len(history) - 1]


def channel_case(v, seed, n_utts=60):
    """An acoustic channel over V tokens and a teacher-forcing set whose
    references mostly follow the observation; about a third run one step
    past it, where the channel gives its EOS row (key -1)."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_words(f"w{i}" for i in range(v - 3))
    noise = rng.dirichlet(np.full(v, 0.3), size=v)
    channel = AcousticChannel(vocab, 0.6 * np.eye(v) + 0.4 * noise)
    dataset = []
    for i in range(n_utts):
        words = [int(w) for w in rng.integers(3, v, size=int(rng.integers(1, 12)))]
        ref = [w if rng.random() < 0.7 else int(rng.integers(3, v)) for w in words]
        if rng.random() < 0.35:
            ref.append(int(rng.integers(3, v)))
        obs = (Vocabulary.BOS, *words, Vocabulary.EOS)
        dataset.append((UtteranceContext(utt_id=f"u{i}", observation=obs),
                        (*ref, Vocabulary.EOS)))
    return channel, dataset


class TestKeyedRows:
    """A provider with a `row_key` is read by key alone: its trace is its
    block `log_rows` and each step's key, with no `next_logits` call, and
    the fit from it equals, field for field, the fit from the full trace;
    V = 13 and 203 leave SIMD tails in every row."""

    @staticmethod
    def counted_reads(monkeypatch):
        """Count every `AcousticChannel.next_logits` call."""
        reads, original = [], AcousticChannel.next_logits

        def counted(self, history, ctx):
            reads.append(len(history))
            return original(self, history, ctx)

        monkeypatch.setattr(AcousticChannel, "next_logits", counted)
        return reads

    @pytest.mark.parametrize("v", [6, 13, 200, 203])
    def test_rows_gathered_by_step_are_the_full_trace(self, monkeypatch, full_trace, v):
        channel, dataset = channel_case(v, seed=v)
        reads = self.counted_reads(monkeypatch)
        rows, targets, steps = collect_traces(channel, dataset)
        assert reads == [] and rows is channel.log_rows
        assert steps.tolist() == [channel.row_key(t + 1, ctx)
                                  for ctx, ref in dataset for t in range(len(ref))]
        assert -1 in steps.tolist()
        monkeypatch.undo()
        full = np.concatenate([full_trace(channel, ref, ctx) for ctx, ref in dataset])
        assert rows[steps].tobytes() == full.tobytes()
        unkeyed, full_targets, full_steps = collect_traces(_Unkeyed(channel), dataset)
        assert unkeyed.tobytes() == full.tobytes()
        assert targets.tobytes() == full_targets.tobytes()
        assert full_steps.tolist() == list(range(len(full)))

    @pytest.mark.parametrize("bounds", [(1e-2, 1e2), (1e-320, 1e2), (0.5, 2.0)],
                             ids=["default", "tiny", "narrow"])
    @pytest.mark.parametrize("v", [6, 13, 200, 203])
    def test_fit_equals_the_full_trace_fit(self, monkeypatch, frozen_fit, v, bounds):
        channel, dataset = channel_case(v, seed=v)
        got, evals = fit_dict_and_evals(monkeypatch, channel, dataset, bounds=bounds)
        full, full_evals = fit_dict_and_evals(monkeypatch, _Unkeyed(channel), dataset,
                                              bounds=bounds)
        want, _frozen_evals = frozen_fit(channel, dataset, bounds=bounds)
        assert json.dumps(got) == json.dumps(full) == json.dumps(want)
        assert evals == full_evals
        if bounds == (1e-2, 1e2):
            assert not got["clamped"]

    def test_calibrate_asr_reads_no_row_through_next_logits(self, tmp_path, monkeypatch,
                                                             frozen_fit):
        from latefuse import cli, corpus

        data = tmp_path / "data"
        assert cli.main(["simulate", "--out-dir", str(data), "--n-train", "10", "--n-val",
                         "30", "--n-test", "1", "--seed", "4"]) == 0
        vocab = Vocabulary.load(data / "vocab.txt")
        cal_set = cli._calibration_set(corpus.load_corpus(data / "val.jsonl"), vocab)
        channel = cli.build_provider(cli.ProviderSpec(
            "acoustic-channel", {"manifest_path": str(data / "manifest.json")}), vocab)
        want, _evals = frozen_fit(channel, cal_set)
        reads = self.counted_reads(monkeypatch)
        out = tmp_path / "cal-asr.json"
        assert cli.main(["calibrate", "--corpus", str(data / "val.jsonl"), "--vocab",
                         str(data / "vocab.txt"), "--which", "asr", "--manifest",
                         str(data / "manifest.json"), "--out", str(out)]) == 0
        assert reads == []
        assert json.loads(out.read_text()) == json.loads(json.dumps(want))

    def test_unkeyed_rows_free_each_utterance_before_the_next(self, abc_vocab, full_trace):
        """An unkeyed provider is read at every step, so its `steps` is
        `arange`; each utterance's rows are copied out before the next is
        read, so no earlier reply buffer is alive at a first step."""
        dataset = dataset_from_texts(abc_vocab, ["a b", "c", "b a c", "a", "c c"])
        provider = _ReplyViews(abc_vocab)
        rows, targets, steps = collect_traces(provider, dataset)
        assert provider.alive == [0, 0, 0, 0, 0]
        reference = _ReplyViews(abc_vocab)
        full = np.concatenate([full_trace(reference, ref, ctx) for ctx, ref in dataset])
        assert rows.tobytes() == full.tobytes()
        assert steps.tolist() == list(range(len(full))) == list(range(len(targets)))

    def test_keyed_errors_are_the_full_trace_errors(self, abc_vocab, identity_channel):
        good = (UtteranceContext(utt_id="u0", observation=(0, 3, 1)), (3, 1))
        cases = [
            ([good, (good[0], (3, 4))], "reference must be non-empty and EOS-terminated"),
            ([good, (good[0], ())], "reference must be non-empty and EOS-terminated"),
            ([good, (UtteranceContext(utt_id="u1"), (3, 1))],
             "utterance 'u1' has no observation"),
            ([], "dataset is empty"),
        ]
        for dataset, message in cases:
            for provider in (identity_channel, _Unkeyed(identity_channel)):
                with pytest.raises(InvalidInputError, match=f"^{message}$"):
                    collect_traces(provider, dataset)
