import ast
import contextlib
import json
import math
import re
import shlex
import socket
import warnings
from pathlib import Path

import pytest

from latefuse import calibration, cli, corpus, decoding, fusion, providers
from latefuse.cli import main
from latefuse.core import Vocabulary, entropy, softmax_with_temperature


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small simulated corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("simulate", "--out-dir", data, "--n-train", 40, "--n-val", 12,
               "--n-test", 10, "--seed", 3) == 0
    assert run("train-lm", "--corpus", data / "train.jsonl",
               "--vocab", data / "vocab.txt", "--out", root / "lm.json") == 0
    assert run("calibrate", "--corpus", data / "val.jsonl",
               "--vocab", data / "vocab.txt", "--which", "llm",
               "--lm-model", root / "lm.json",
               "--out", root / "calibration-llm.json") == 0
    assert run("calibrate", "--corpus", data / "val.jsonl",
               "--vocab", data / "vocab.txt", "--which", "asr",
               "--manifest", data / "manifest.json",
               "--out", root / "calibration-asr.json") == 0
    return root


@pytest.fixture
def no_channel_matrix(monkeypatch):
    """Fails a test that would reach the channel's first V x V allocation."""
    def eye(*args, **kwargs):
        raise AssertionError("the noisy channel allocated its matrices")
    monkeypatch.setattr(corpus.np, "eye", eye)


def decode_args(workspace, mode, out, **extra):
    data = workspace / "data"
    argv = ["decode", "--corpus", data / "test.jsonl", "--vocab", data / "vocab.txt",
            "--mode", mode, "--lm-model", workspace / "lm.json",
            "--manifest", data / "manifest.json",
            "--calibration-llm", workspace / "calibration-llm.json",
            "--calibration-asr", workspace / "calibration-asr.json",
            "--out", out]
    for key, value in extra.items():
        argv += [f"--{key}", value]
    return argv


class TestSimulate:
    def test_outputs_exist_with_requested_counts(self, workspace):
        data = workspace / "data"
        for split, count in (("train", 40), ("val", 12), ("test", 10)):
            lines = (data / f"{split}.jsonl").read_text().splitlines()
            assert len(lines) == count
        assert (data / "vocab.txt").exists()

    def test_manifest_records_channel(self, workspace):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["sub_rate"] == 0.15
        assert manifest["seed"] == 3
        assert manifest["vocab_size"] == 200

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert run("simulate", "--out-dir", again, "--n-train", 40, "--n-val", 12,
                   "--n-test", 10, "--seed", 3) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.txt",
                     "manifest.json"):
            assert (again / name).read_bytes() == \
                (workspace / "data" / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 5, "n_val": 2, "n_test": 2, "seed": 8}))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", out, "--n-test", 3) == 0
        resolved = json.loads((out / "simulate.config.json").read_text())
        assert resolved["n_train"] == 5   # from config file
        assert resolved["n_test"] == 3    # flag wins
        assert len((out / "test.jsonl").read_text().splitlines()) == 3

    def test_widest_beam_runs(self, tmp_path, monkeypatch):
        # at --beam 1024 a search call holds one utterance, whose steps score
        # up to 1024 x 200 candidates; the lists equal the serial search's
        from test_decoding import serial_searches

        out, serial = tmp_path / "wide", tmp_path / "serial"
        argv = ("--n-train", 3, "--n-val", 1, "--n-test", 1, "--beam", 1024, "--seed", 2)
        assert run("simulate", "--out-dir", out, *argv) == 0
        monkeypatch.setattr(decoding, "beam_search", serial_searches)
        assert run("simulate", "--out-dir", serial, *argv) == 0
        for split, count in (("train", 3), ("val", 1), ("test", 1)):
            lines = (out / f"{split}.jsonl").read_text().splitlines()
            assert len(lines) == count
            assert all(len(json.loads(line)["nbest"]) == 5 for line in lines)
            assert (out / f"{split}.jsonl").read_bytes() == \
                (serial / f"{split}.jsonl").read_bytes()

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trian": 5}))
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path / "x") == 2

    def test_missing_out_dir_is_config_error(self, tmp_path):
        assert run("simulate") == 2

    @pytest.mark.parametrize("flag, value", [
        ("mean-len", "-1"), ("mean-len", "nan"), ("mean-len", "inf"),
        ("concentration", "nan"), ("concentration", "inf"), ("seed", "-1"),
    ])
    def test_bad_generation_value_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 1, f"--{flag}", value) == 2
        assert flag.replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("beam", "1025", "beam_width"), ("beam", "100000000", "beam_width"),
        ("mean-len", "1001", "mean_len"), ("mean-len", "1e300", "mean_len"),
        ("n-train", str(corpus.MAX_SPLIT_SIZE + 1), "n_train"),
        ("n-train", "1000000000000", "n_train"),
        ("n-val", "1000000000000", "n_val"), ("n-test", "1000000000000", "n_test"),
    ])
    def test_generation_past_its_bound_is_refused_before_it_runs(
            self, tmp_path, capsys, monkeypatch, flag, value, named):
        def never(*args, **kwargs):
            raise AssertionError("generation ran past a refused bound")

        monkeypatch.setattr(decoding, "beam_search", never)
        monkeypatch.setattr(corpus, "_grammar_sentence", never)
        if named != "mean_len":  # sample_references checks the mean itself
            monkeypatch.setattr(corpus, "sample_references", never)
        out = tmp_path / "x"
        sizes = {"n-train": 2, "n-val": 1, "n-test": 1, flag: value}
        assert run("simulate", "--out-dir", out, *(item for name, size in sizes.items()
                                                    for item in (f"--{name}", size))) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_channel_without_a_decoder_is_config_error_before_anything_is_written(
            self, tmp_path, capsys):
        """With nothing kept or substituted, no observed word has a true
        word to decode to: refused, not written with empty N-best lists."""
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                       "--n-test", 3, "--sub-rate", 0, "--del-rate", 1, "--ins-rate", 0.9,
                       "--seed", 3) == 2
        err = capsys.readouterr().err
        assert "sub_rate 0.0 and del_rate 1.0" in err
        assert not out.exists()

    def test_largest_concentration_runs_with_warnings_as_errors(self, tmp_path):
        """A concentration near the float range overflows the kernel's
        exponents to -inf, whose exp, 0, is the intended limit: `simulate`
        and a `decode` that reads its manifest build the kernel warning-free."""
        data = tmp_path / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in (
                    ["simulate", "--out-dir", data, "--n-train", 3, "--n-val", 1,
                     "--n-test", 2, "--concentration", "1e308", "--seed", 3],
                    ["decode", "--corpus", data / "test.jsonl", "--vocab", data / "vocab.txt",
                     "--mode", "asr", "--manifest", data / "manifest.json",
                     "--out", tmp_path / "hyp.jsonl"]):
                corpus._substitution_kernel.cache_clear()  # built anew by each command
                assert run(*command) == 0
        assert json.loads((data / "manifest.json").read_text())["concentration"] == 1e308

    def test_rates_summing_to_one_make_a_corpus_train_lm_reads(self, tmp_path):
        out = tmp_path / "x"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 3, "--sub-rate", 0.9, "--del-rate", 0.1, "--seed", 3) == 0
        assert all(rec.nbest for rec in corpus.load_corpus(out / "train.jsonl"))
        assert run("train-lm", "--corpus", out / "train.jsonl", "--vocab", out / "vocab.txt",
                   "--out", out / "lm.json") == 0

    @pytest.mark.parametrize("line", ["<s> </s>", "show the </s> flight", "<S> show"])
    def test_source_with_a_reserved_token_is_data_error(self, tmp_path, capsys, line):
        source = tmp_path / "sentences.txt"
        source.write_text(f"show the flight\n{line}\n")
        out = tmp_path / "out"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 1, "--source", source) == 3
        assert f"{source}:2: reserved token" in capsys.readouterr().err
        assert not out.exists()

    def test_source_with_unk_is_read_as_the_unknown_word(self, tmp_path):
        source = tmp_path / "sentences.txt"
        source.write_text("show the <unk> flight\n")
        out = tmp_path / "out"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 1, "--source", source) == 0
        record = json.loads((out / "test.jsonl").read_text().splitlines()[0])
        assert record["reference"] == "show the <unk> flight"

    def test_source_over_the_channel_vocabulary_cap_is_data_error(
            self, tmp_path, capsys, no_channel_matrix):
        source = tmp_path / "sentences.txt"
        # with the three specials, one token over the cap
        words = [f"w{i}" for i in range(corpus.MAX_CHANNEL_VOCAB - 2)]
        source.write_text("\n".join(" ".join(words[i:i + 10]) for i in range(0, len(words), 10)))
        out = tmp_path / "out"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 1, "--source", source) == 3
        assert f"{corpus.MAX_CHANNEL_VOCAB + 1} tokens is over the noisy channel's cap" \
            in capsys.readouterr().err
        assert not out.exists()


class TestConfigDrivenRun:
    def test_decode_entirely_from_config_file(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "from-config.jsonl"
        cfg = tmp_path / "decode.json"
        cfg.write_text(json.dumps({
            "corpus": str(data / "test.jsonl"), "vocab": str(data / "vocab.txt"),
            "mode": "uadf", "lm_model": str(workspace / "lm.json"),
            "manifest": str(data / "manifest.json"), "out": str(out),
        }))
        assert run("decode", "--config", cfg) == 0
        # flags-only run with the same effective settings matches it
        unit = tmp_path / "tau-1.json"
        unit.write_text(json.dumps({"tau": 1.0}))
        flags_out = tmp_path / "from-flags.jsonl"
        assert run(*decode_args(workspace, "uadf", flags_out, **{
            "calibration-llm": unit, "calibration-asr": unit})) == 0
        assert out.read_bytes() == flags_out.read_bytes()


class TestCalibrate:
    def test_report_bins_sum_to_n_dec(self, workspace):
        report = json.loads((workspace / "calibration-llm.json").read_text())
        assert sum(b[2] for b in report["bins"]) == report["n_dec"]
        assert sum(b[2] for b in report["bins_tau1"]) == report["n_dec"]
        assert report["tau"] > 0

    def test_prints_both_eces(self, workspace, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert run(*which_llm_args("calibrate")(workspace, out)) == 0
        report = json.loads(out.read_text())
        assert f"ece_tau1={report['ece_tau1']:.4f} ece={report['ece']:.4f}" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["llm", "asr"])
    def test_report_bins_are_those_of_the_collected_trace(self, workspace, frozen_bins, which):
        """Both diagrams in a written report are the reference bins
        (`frozen_bins`) of the provider's teacher-forced trace, at tau 1 and
        at the fitted tau."""
        report = json.loads((workspace / f"calibration-{which}.json").read_text())
        data = workspace / "data"
        resolved = resolve(["calibrate", "--corpus", data / "val.jsonl",
                            "--vocab", data / "vocab.txt", "--which", which,
                            "--lm-model", workspace / "lm.json",
                            "--manifest", data / "manifest.json", "--out", "unused"])
        vocab = Vocabulary.load(resolved["vocab"])
        records = corpus.load_corpus(resolved["corpus"])
        with contextlib.ExitStack() as opened:
            rows, targets, steps = calibration.collect_traces(
                cli._build(resolved, which, vocab, opened), cli._calibration_set(records, vocab))
        traces = rows[steps]
        for tau, bins_key, ece_key in ((1.0, "bins_tau1", "ece_tau1"),
                                       (report["tau"], "bins", "ece")):
            bins, ece = frozen_bins(traces, targets, tau, resolved["bins"])
            assert report[bins_key] == [list(b) for b in bins]
            assert report[ece_key] == ece

    def test_identity_channel_clamps(self, tmp_path):
        data = tmp_path / "clean"
        assert run("simulate", "--out-dir", data, "--n-train", 3, "--n-val", 4,
                   "--n-test", 3, "--seed", 1, "--sub-rate", 0, "--del-rate", 0,
                   "--ins-rate", 0) == 0
        out = tmp_path / "cal.json"
        assert run("calibrate", "--corpus", data / "val.jsonl",
                   "--vocab", data / "vocab.txt", "--which", "asr",
                   "--manifest", data / "manifest.json", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["ter"] == 0.0
        assert report["clamped"] is True
        assert report["tau"] == pytest.approx(1e-2)


class TestDecode:
    def test_modes_share_record_ids(self, workspace, tmp_path):
        ids = {}
        for mode in ("llm", "asr", "uadf"):
            out = tmp_path / f"{mode}.jsonl"
            assert run(*decode_args(workspace, mode, out)) == 0
            assert (tmp_path / f"decode-{mode}.config.json").exists()
            ids[mode] = [json.loads(l)["id"] for l in out.read_text().splitlines()]
        assert ids["llm"] == ids["asr"] == ids["uadf"]

    def test_beta_defaults_to_half(self, workspace, tmp_path):
        out = tmp_path / "u.jsonl"
        assert run(*decode_args(workspace, "uadf", out)) == 0
        resolved = json.loads((tmp_path / "decode-uadf.config.json").read_text())
        assert resolved["beta"] == 0.5

    def test_steps_log_lines_per_step(self, workspace, tmp_path):
        out = tmp_path / "u.jsonl"
        log = tmp_path / "steps.jsonl"
        assert run(*decode_args(workspace, "uadf", out, **{"steps-log": log})) == 0
        entries = [json.loads(l) for l in log.read_text().splitlines()]
        assert entries, "expected at least one step entry"
        assert {"id", "step", "u", "w_asr", "llm_top", "asr_top", "chosen"} <= \
            set(entries[0])
        hyp_count = sum(len(json.loads(l)["text"].split()) + 1
                        for l in out.read_text().splitlines())
        assert len(entries) == hyp_count  # one line per emitted token incl. EOS

    @pytest.mark.parametrize("mode", ["llm", "asr"])
    def test_steps_log_in_a_single_model_mode_is_config_error(
            self, workspace, tmp_path, capsys, monkeypatch, mode):
        def never(*args, **kwargs):
            raise AssertionError("decoded despite a refused steps log")

        monkeypatch.setattr(decoding, "decode_eval_set", never)
        out, log = tmp_path / "x.jsonl", tmp_path / "steps.jsonl"
        assert run(*decode_args(workspace, mode, out, **{"steps-log": log})) == 2
        assert f"mode {mode!r}" in capsys.readouterr().err
        assert not out.exists() and not log.exists()

    def test_in_process_providers_print_no_wire_counters(self, workspace, tmp_path, capsys):
        assert run(*decode_args(workspace, "uadf", tmp_path / "u.jsonl")) == 0
        assert "over the wire" not in capsys.readouterr().out

    def test_vocabulary_over_the_channel_cap_is_data_error(self, workspace, tmp_path, capsys,
                                                           no_channel_matrix):
        words = (workspace / "data" / "vocab.txt").read_text().splitlines()
        words += [f"extra{i}" for i in range(corpus.MAX_CHANNEL_VOCAB + 1 - len(words))]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n")
        out = tmp_path / "out" / "hyp.jsonl"
        assert run(*decode_args(workspace, "asr", out, vocab=vocab)) == 3
        assert f"{corpus.MAX_CHANNEL_VOCAB + 1} tokens is over the noisy channel's cap" \
            in capsys.readouterr().err
        assert not out.parent.exists()

    def test_invalid_mode_flag_is_config_error(self, workspace, tmp_path):
        out = tmp_path / "x.jsonl"
        argv = decode_args(workspace, "uadf", out) + ["--beta", "1.4"]
        assert run(*argv) == 2

    def test_missing_corpus_is_data_error(self, workspace, tmp_path):
        argv = ["decode", "--corpus", tmp_path / "nope.jsonl",
                "--vocab", workspace / "data" / "vocab.txt", "--mode", "llm",
                "--lm-model", workspace / "lm.json", "--out", tmp_path / "x.jsonl"]
        assert run(*argv) == 3

    def test_unreachable_endpoint_is_provider_io_error(self, workspace, tmp_path):
        data = workspace / "data"
        argv = ["decode", "--corpus", data / "test.jsonl",
                "--vocab", data / "vocab.txt", "--mode", "llm",
                "--llm-endpoint", "127.0.0.1:9", "--timeout", "0.2",
                "--out", tmp_path / "x.jsonl"]
        assert run(*argv) == 4

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    @pytest.mark.parametrize("removed", [{"workers": 4}, {"combine": "renormalize"},
                                         {"uncertainty": "entropy"}, {"w_llm": 1},
                                         {"tau1": 1.0}, {"tau2": 1.0}])
    def test_removed_config_keys_are_config_errors(self, workspace, tmp_path,
                                                   command, removed):
        data = workspace / "data"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(
            removed, corpus=str(data / "test.jsonl"), vocab=str(data / "vocab.txt"),
            lm_model=str(workspace / "lm.json"), manifest=str(data / "manifest.json"),
            out=str(tmp_path / "x.out"))))
        assert run(command, "--config", cfg) == 2
        assert not (tmp_path / "x.out").exists()

    def test_removed_w_llm_flag_is_config_error(self, workspace, tmp_path):
        """Static fusion weights p_asr by w_asr against p_llm alone."""
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(*decode_args(workspace, "static", out, **{"w-llm": "1"}))
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, removed", [
        ("reliability", ["--tau", "1.0"]), ("decode", ["--tau1", "1.0"]),
        ("sweep", ["--tau2", "1.0"]),
    ])
    def test_removed_reliability_and_tau_flags_exit_2(self, workspace, tmp_path,
                                                      command, removed):
        """Reliability bins come from `calibrate`'s report, and a decode's
        temperatures from `--calibration-llm`/`--calibration-asr` only."""
        argv = {"reliability": which_llm_args("reliability"),
                "decode": lambda ws, out: decode_args(ws, "llm", out),
                "sweep": sweep_args}[command](workspace, tmp_path / "x.out")
        with pytest.raises(SystemExit) as exc:
            run(*argv, *removed)
        assert exc.value.code == 2
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    def test_one_line_reports_set_both_temperatures(self, workspace, tmp_path,
                                                    monkeypatch, command):
        """With the explicit tau flags gone, a report holding only a tau is
        how a run is given any temperature."""
        built, original = [], fusion.FusionConfig

        def recorded(**kwargs):
            built.append(kwargs)
            return original(**kwargs)

        monkeypatch.setattr(fusion, "FusionConfig", recorded)
        reports = {}
        for which, tau in (("llm", 0.375), ("asr", 2.5)):
            reports[which] = tmp_path / f"tau-{which}.json"
            reports[which].write_text(json.dumps({"tau": tau}))
        extra = {"calibration-llm": reports["llm"], "calibration-asr": reports["asr"]}
        out = tmp_path / "x.out"
        if command == "decode":
            argv = decode_args(workspace, "uadf", out, **extra)
        else:
            argv = sweep_args(workspace, out) + [
                item for key, value in extra.items() for item in (f"--{key}", value)]
        assert run(*argv) == 0
        assert built and all((cfg["tau1"], cfg["tau2"]) == (0.375, 2.5) for cfg in built)

    def test_empty_corpus_is_data_error_before_any_provider(
            self, workspace, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("opened a provider")

        monkeypatch.setattr(cli, "_build", refuse)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "nd" / "hyp.jsonl"
        assert run(*decode_args(workspace, "uadf", out, corpus=empty)) == 3
        assert f"{empty} holds no utterances to decode" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_static_steps_log_equals_the_log_that_measures_every_entropy(self, tmp_path):
        """A static step computes its entropy only when the log reads it; the
        log equals, byte for byte, the one written from steps that measure
        it on every step (seed-0 corpus)."""
        data, lm, out, log = (tmp_path / name for name in
                              ("data", "lm.json", "hyp.jsonl", "steps.jsonl"))
        assert run("simulate", "--out-dir", data, "--n-train", 60, "--n-val", 2,
                   "--n-test", 12, "--seed", 0) == 0
        assert run(*train_lm_args(tmp_path, lm)) == 0
        argv = ["decode", "--corpus", data / "test.jsonl", "--vocab", data / "vocab.txt",
                "--mode", "static", "--w-asr", "0.4", "--lm-model", lm,
                "--manifest", data / "manifest.json", "--steps-log", log, "--out", out]
        assert run(*argv) == 0

        vocab = Vocabulary.load(data / "vocab.txt")
        resolved = resolve(argv)
        with contextlib.ExitStack() as opened:
            llm = cli._build(resolved, "llm", vocab, opened)
            asr = cli._build(resolved, "asr", vocab, opened)
        cfg = fusion.FusionConfig(mode="static", w_asr=0.4)
        want = []
        for rec in corpus.load_corpus(data / "test.jsonl"):
            ctx, ref = corpus.record_context(rec, vocab)
            history = (Vocabulary.BOS,)
            for i in range(decoding.evaluation_max_len(ref)):
                p_llm = softmax_with_temperature(llm.next_logits(history, ctx), 1.0)
                p_asr = softmax_with_temperature(asr.next_logits(history, ctx), 1.0)
                step = fusion.decide(p_llm, p_asr, cfg)
                # the same step, with its entropy measured
                step = fusion.FusionStep(p_llm, p_asr, entropy(p_llm), step.w_asr_effective,
                                         step.chosen)
                want.append(json.dumps({"id": rec.id, **step.log_entry(i, vocab)}) + "\n")
                history += (step.chosen,)
                if step.chosen == Vocabulary.EOS:
                    break
        assert log.read_text() == "".join(want)

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    @pytest.mark.parametrize("factor", ["-1", "nan", "inf", "1e308"])
    def test_bad_max_len_factor_is_config_error(self, workspace, tmp_path, capsys, command,
                                                factor):
        """Nothing listens on the endpoint: a command that opened it before
        checking the factor would exit 4, not 2."""
        out = tmp_path / "x.jsonl"
        extra = {"max-len-factor": factor, "llm-endpoint": "127.0.0.1:9", "timeout": "0.2"}
        if command == "decode":
            argv = decode_args(workspace, "uadf", out, **extra)
        else:
            argv = [*sweep_args(workspace, out), "--axis", "beta",
                    *(item for key, value in extra.items() for item in (f"--{key}", value))]
        assert run(*argv) == 2
        assert "max_len_factor must be in" in capsys.readouterr().err
        assert not out.exists()


class TestEmptyCorpusBeforeAnyProvider:
    """`calibrate` and `sweep` share `decode`'s check: a corpus with no
    records is a data error naming the file, before a provider opens."""

    @pytest.mark.parametrize("command, purpose", [
        (["calibrate", "--which", "llm"], "to calibrate on"),
        (["sweep", "--axis", "static-grid"], "to sweep: no reference words to score"),
        (["sweep", "--axis", "beta"], "to sweep: no reference words to score"),
    ], ids=["calibrate", "sweep-static-grid", "sweep-beta"])
    def test_is_data_error_before_the_endpoint_is_opened(
            self, workspace, tmp_path, capsys, command, purpose):
        """Nothing listens on the endpoint: a command that opened it before
        reading the corpus would exit 4, not 3."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "nd" / "out.file"
        data = workspace / "data"
        argv = [*command, "--corpus", empty, "--vocab", data / "vocab.txt",
                "--llm-endpoint", "127.0.0.1:9", "--timeout", "0.2",
                "--manifest", data / "manifest.json", "--out", out]
        assert run(*argv) == 3
        assert f"{empty} holds no utterances {purpose}" in capsys.readouterr().err
        assert not out.parent.exists()


LLM_MISSING = "--lm-model (or --llm-endpoint) is required"
ASR_MISSING = "--manifest is required to build the acoustic provider"


class TestProviderSourceMissing:
    """A role a command needs, with neither its built-in source nor its
    endpoint set, is a configuration error naming the option, and the
    command writes nothing."""

    @pytest.mark.parametrize("command, omit, message", [
        (["calibrate", "--which", "llm"], "--lm-model", LLM_MISSING),
        (["calibrate", "--which", "asr"], "--manifest", ASR_MISSING),
        (["decode", "--mode", "uadf"], "--manifest", ASR_MISSING),
        (["decode", "--mode", "asr"], "--manifest", ASR_MISSING),
        (["sweep", "--axis", "beta"], "--lm-model", LLM_MISSING),
    ], ids=["calibrate-llm", "calibrate-asr", "decode-uadf", "decode-asr", "sweep"])
    def test_is_config_error(self, workspace, tmp_path, capsys, command, omit, message):
        data = workspace / "data"
        out = tmp_path / "nd" / "out.file"
        sources = {"--lm-model": workspace / "lm.json", "--manifest": data / "manifest.json"}
        argv = [*command, "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                *(item for flag, path in sources.items() if flag != omit for item in (flag, path)),
                "--out", out]
        assert run(*argv) == 2
        assert message in capsys.readouterr().err
        assert not out.parent.exists()


class TestCalibrationReadBeforeAnyProvider:
    """`decode` and `sweep` read their calibration reports before they open
    a provider: a malformed report is a data error naming it, whatever the
    endpoint would have said."""

    @pytest.mark.parametrize("flag", ["calibration-llm", "calibration-asr"])
    @pytest.mark.parametrize("command", [
        ["decode", "--mode", "uadf"],
        ["sweep", "--axis", "static-grid"],
        ["sweep", "--axis", "beta"],
    ], ids=["decode", "sweep-static-grid", "sweep-beta"])
    def test_bad_report_is_data_error_before_the_endpoint_is_opened(
            self, workspace, tmp_path, capsys, command, flag):
        """Nothing listens on the endpoint: a command that opened it before
        reading the report would exit 4, not 3."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tau": "x"}))
        out = tmp_path / "nd" / "out.file"
        data = workspace / "data"
        argv = [*command, "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                "--llm-endpoint", "127.0.0.1:9", "--timeout", "0.2",
                "--manifest", data / "manifest.json", f"--{flag}", bad, "--out", out]
        assert run(*argv) == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.parent.exists()


@pytest.fixture
def listener():
    """A listening socket that never accepts: a client's connection
    completes into its backlog, where `accepted` finds it."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock


def accepted(sock) -> int:
    """The connections waiting in `sock`'s backlog, each accepted and closed."""
    sock.setblocking(False)
    count = 0
    while True:
        try:
            conn, _ = sock.accept()
        except BlockingIOError:
            return count
        conn.close()
        count += 1


class TestLocalSourcesBeforeAnyEndpoint:
    """`decode` and `sweep` build every role without an endpoint before
    they open any endpoint: a missing or malformed local source fails with
    its own exit code and message, and no connection is attempted."""

    @pytest.mark.parametrize("command, served, sources, code, message", [
        (["decode", "--mode", "uadf"], "llm", {}, 2, ASR_MISSING),
        (["decode", "--mode", "uadf"], "llm", {"--manifest": "nope.json"}, 3, "nope.json"),
        (["decode", "--mode", "uadf"], "llm", {"--manifest": "bad.json"}, 3, "bad.json"),
        (["decode", "--mode", "static"], "asr", {}, 2, LLM_MISSING),
        (["sweep", "--axis", "beta"], "llm", {"--manifest": "nope.json"}, 3, "nope.json"),
        (["sweep", "--axis", "static-grid"], "llm", {}, 2, ASR_MISSING),
        (["sweep", "--axis", "beta"], "asr", {"--lm-model": "bad.json"}, 3, "bad.json"),
    ], ids=["decode-no-manifest", "decode-missing-manifest", "decode-bad-manifest",
            "decode-no-lm-model", "sweep-missing-manifest", "sweep-no-manifest",
            "sweep-bad-lm-model"])
    def test_local_error_before_any_connection(self, workspace, tmp_path, capsys, listener,
                                               command, served, sources, code, message):
        (tmp_path / "bad.json").write_text("{")
        data = workspace / "data"
        out = tmp_path / "nd" / "out.file"
        host, port = listener.getsockname()
        argv = [*command, "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                f"--{served}-endpoint", f"{host}:{port}", "--timeout", "0.2",
                *(item for flag, name in sources.items() for item in (flag, tmp_path / name)),
                "--out", out]
        assert run(*argv) == code
        assert message in capsys.readouterr().err
        assert accepted(listener) == 0
        assert not out.parent.exists()

    def test_the_listener_sees_a_command_that_connects(self, workspace, tmp_path, listener):
        """The check above can fail: with every local source in place, the
        command connects, gets no hello reply and exits 4."""
        host, port = listener.getsockname()
        argv = decode_args(workspace, "uadf", tmp_path / "out.jsonl",
                           **{"llm-endpoint": f"{host}:{port}", "timeout": 0.2})
        assert run(*argv) == 4
        assert accepted(listener) == 1


class TestEmptyCorpusNamed:
    """`train-lm` and `score` open no provider, and refuse an empty corpus
    the same way: a data error naming the file."""

    @pytest.mark.parametrize("command", ["train-lm", "score"])
    def test_is_data_error_naming_the_file(self, workspace, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "nd" / "out.json"
        if command == "train-lm":
            argv, purpose = [*train_lm_args(workspace, out), "--corpus", empty], "to train on"
        else:
            argv, purpose = ["score", "--corpus", empty, "--hyp", f"a={empty}",
                             "--out", out], "to score"
        assert run(*argv) == 3
        assert f"{empty} holds no utterances {purpose}" in capsys.readouterr().err
        assert not out.parent.exists()


def sweep_args(workspace, out):
    data = workspace / "data"
    return ["sweep", "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
            "--lm-model", workspace / "lm.json", "--manifest", data / "manifest.json",
            "--out", out]


def train_lm_args(workspace, out):
    data = workspace / "data"
    return ["train-lm", "--corpus", data / "train.jsonl", "--vocab", data / "vocab.txt",
            "--out", out]


def which_llm_args(command):
    def argv(workspace, out):
        data = workspace / "data"
        return [command, "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                "--which", "llm", "--lm-model", workspace / "lm.json", "--out", out]
    return argv


COMMAND_ARGS = {
    "decode": lambda ws, out: decode_args(ws, "static", out),
    "decode-uadf": lambda ws, out: decode_args(ws, "uadf", out),
    "decode-endpoint": lambda ws, out: decode_args(
        ws, "llm", out, **{"llm-endpoint": "127.0.0.1:9"}),
    "sweep": sweep_args,
    "train-lm": train_lm_args,
    "calibrate": which_llm_args("calibrate"),
}

NON_FINITE = [
    ("decode", "--w-asr", "nan", "w_asr"),
    ("decode", "--w-asr", "inf", "w_asr"),
    ("sweep", "--w-asr-values", "0,nan", "w_asr"),
    ("sweep", "--w-asr-values", "0,inf", "w_asr"),
    ("train-lm", "--smoothing", "nan", "smoothing"),
    ("train-lm", "--smoothing", "inf", "smoothing"),
    ("train-lm", "--smoothing", "1e306", "smoothing"),  # times V = 200 overflows
    ("calibrate", "--tol", "nan", "tol"),
    ("calibrate", "--tol", "inf", "tol"),
    ("calibrate", "--tau-max", "inf", "tau_max"),
    ("decode-endpoint", "--timeout", "nan", "timeout"),
    ("decode-endpoint", "--timeout", "-1", "timeout"),
    ("decode-endpoint", "--timeout", "0", "timeout"),
    ("decode-endpoint", "--timeout", "inf", "timeout"),
    ("decode-endpoint", "--timeout", "1e300", "timeout"),
    ("decode-endpoint", "--timeout", "9223372037", "timeout"),
    ("decode-endpoint", "--llm-endpoint", "127.0.0.1:\u00b2", "port"),
    ("decode-endpoint", "--llm-endpoint", "127.0.0.1:99999999999", "port"),
    ("decode-endpoint", "--llm-endpoint", "127.0.0.1:0", "port"),
    # options the command ignores: no check of their own runs
    ("decode-uadf", "--w-asr", "nan", "--w-asr"),
    ("decode", "--timeout", "inf", "--timeout"),
    ("sweep", "--beta-values", "0,nan", "--beta-values"),
]


BOUNDED = [
    ("calibrate", "--bins", "1", "n_bins"),
    ("calibrate", "--bins", "1001", "n_bins"),
    ("calibrate", "--bins", "100000000", "n_bins"),
    ("calibrate", "--max-iter", "-5", "max_iter"),
]


class TestCalibrationBounds:
    """`--bins` outside [2, calibration.MAX_BINS] and a negative
    `--max-iter` exit 2 before any provider is opened (an endpoint would
    be started or connected to) or any trace is collected."""

    @pytest.mark.parametrize("command, flag, value, named", BOUNDED,
                             ids=[f"{c}{f[1:]}={v}" for c, f, v, _ in BOUNDED])
    def test_is_config_error(self, workspace, tmp_path, capsys, monkeypatch,
                             command, flag, value, named):
        def refuse(*args):
            raise AssertionError("opened a provider or collected a trace")

        monkeypatch.setattr(calibration, "collect_traces", refuse)
        monkeypatch.setattr(cli, "_build", refuse)
        out = tmp_path / "out"
        assert run(*COMMAND_ARGS[command](workspace, out), flag, value) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_zero_max_iter_runs_no_bisection_step(self, workspace, tmp_path):
        out = tmp_path / "cal.json"
        argv = which_llm_args("calibrate")(workspace, out)
        assert run(*argv, "--max-iter", "0", "--tau-min", "0.5", "--tau-max", "2") == 0
        report = json.loads(out.read_text())
        assert report["tau"] == 1.25
        assert report["clamped"] is (abs(report["mean_confidence"] - 1 + report["ter"]) > 1e-3)


class TestNonFiniteValues:
    """A number that parses but is out of range is a config error naming it,
    and the command writes nothing."""

    @pytest.mark.parametrize("command, flag, value, named", NON_FINITE,
                             ids=[f"{c}{f[1:]}={v}" for c, f, v, _ in NON_FINITE])
    def test_is_config_error(self, workspace, tmp_path, capsys, command, flag, value, named):
        out = tmp_path / "out"
        assert run(*COMMAND_ARGS[command](workspace, out), flag, value) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("key", ["beta", "max_len_factor", "timeout", "w_asr"])
    def test_config_integer_past_float_range_is_config_error(self, workspace, tmp_path,
                                                             capsys, key):
        """A flag such as `--beta 1e400` parses to inf, which `_write_resolved`
        refuses; a JSON integer that large cannot become a float at all."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 10 ** 400}))
        out = tmp_path / "out"
        assert run(*decode_args(workspace, "uadf", out), "--config", cfg) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.glob("*.config.json"))

    def test_resolved_config_is_strict_json(self, workspace, tmp_path):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert run(*decode_args(workspace, "uadf", tmp_path / "out")) == 0
        resolved = json.loads((tmp_path / "decode-uadf.config.json").read_text(),
                              parse_constant=refuse)
        assert resolved["w_asr"] == 0.25 and resolved["timeout"] == 5.0


class TestSubnormalTau:
    """A tau so small that a logit / tau overflows is a config error in a
    decode; in calibration the shifted logits reach the limit
    exp(-inf) = 0. Neither warns."""

    @pytest.mark.parametrize("mode", ["uadf", "llm"])
    def test_decode_is_config_error(self, workspace, tmp_path, capsys, mode):
        report = tmp_path / "calibration-llm.json"
        report.write_text(json.dumps({"tau": 1e-320}))
        out = tmp_path / "out" / "hyp.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*decode_args(workspace, mode, out, **{"calibration-llm": report})) == 2
        assert "tau 1e-320 is too small" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_calibration_reaches_the_limit(self, workspace, tmp_path):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*which_llm_args("calibrate")(workspace, out), "--tau-min", "1e-320") == 0
        assert out.exists()


def with_byte_ff_on_line_2(path, out):
    """A copy of `path` at `out` whose second line holds the byte 0xff,
    which no UTF-8 text holds."""
    lines = path.read_bytes().splitlines(keepends=True)
    out.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
    return out


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a data error naming the file and line,
    and the command writes nothing."""

    @pytest.mark.parametrize("kind", ["corpus", "vocab", "hyp"])
    def test_read_file_is_data_error(self, workspace, tmp_path, capsys, kind):
        data = workspace / "data"
        out = tmp_path / "out" / "result"
        if kind == "hyp":
            hyp = tmp_path / "hyp.jsonl"
            assert run(*decode_args(workspace, "llm", hyp)) == 0
            broken = with_byte_ff_on_line_2(hyp, tmp_path / "broken.jsonl")
            argv = ["score", "--corpus", data / "test.jsonl", "--hyp", f"llm={broken}",
                    "--out", out]
        else:
            source = data / ("test.jsonl" if kind == "corpus" else "vocab.txt")
            broken = with_byte_ff_on_line_2(source, tmp_path / f"broken-{source.name}")
            argv = decode_args(workspace, "llm", out, **{kind: broken})
        assert run(*argv) == 3
        assert f"{broken}:2: not UTF-8" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_simulate_source_is_data_error(self, tmp_path, capsys):
        source = tmp_path / "sentences.txt"
        source.write_text("show the flight\nlist the fare\n")
        broken = with_byte_ff_on_line_2(source, tmp_path / "broken.txt")
        out = tmp_path / "out"
        assert run("simulate", "--out-dir", out, "--n-train", 2, "--n-val", 1,
                   "--n-test", 1, "--source", broken) == 3
        assert f"{broken}:2: not UTF-8" in capsys.readouterr().err
        assert not out.exists()


class TestMisreadableInput:
    """Input that token ids would misread is a data error naming the file
    and line, and `decode` writes nothing: a vocabulary whose first three
    tokens are not the specials, and corpus text holding BOS or EOS."""

    def test_vocabulary_without_the_specials_first(self, workspace, tmp_path, capsys):
        words = (workspace / "data" / "vocab.txt").read_text().splitlines()[3:]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n")
        out = tmp_path / "out" / "hyp.jsonl"
        assert run(*decode_args(workspace, "asr", out, vocab=vocab)) == 3
        assert f"{vocab}:1: token {words[0]!r} where '<s>' belongs" in capsys.readouterr().err
        assert not out.parent.exists()

    @staticmethod
    def with_word_in_line_2(workspace, tmp_path, field, word):
        """A copy of the test split whose second record's `field` (the text
        of its second hypothesis, for "text") holds `word` after two words."""
        lines = (workspace / "data" / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        holder = record["nbest"][1] if field == "text" else record
        words = holder[field].split()
        holder[field] = " ".join(words[:2] + [word] + words[2:])
        lines[1] = json.dumps(record)
        path = tmp_path / "test.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("field, word, named", [
        ("observation", "</s>", ""), ("reference", "<s>", ""),
        ("text", "</s>", " hypothesis 1:"),
    ])
    def test_reserved_token_in_corpus_text(self, workspace, tmp_path, capsys, field, word,
                                           named):
        broken = self.with_word_in_line_2(workspace, tmp_path, field, word)
        out = tmp_path / "out" / "hyp.jsonl"
        assert run(*decode_args(workspace, "asr", out, corpus=broken)) == 3
        assert f"{broken}:2:{named} reserved token {word!r} in {field!r}" \
            in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unknown_word_token_in_corpus_text_is_read(self, workspace, tmp_path):
        corpus_path = self.with_word_in_line_2(workspace, tmp_path, "observation", "<unk>")
        out = tmp_path / "hyp.jsonl"
        assert run(*decode_args(workspace, "asr", out, corpus=corpus_path)) == 0


class TestScore:
    def test_self_baseline_werr_zero_and_oracles(self, workspace, tmp_path):
        data = workspace / "data"
        hyp = tmp_path / "uadf.jsonl"
        assert run(*decode_args(workspace, "uadf", hyp)) == 0
        out = tmp_path / "scores.json"
        assert run("score", "--corpus", data / "test.jsonl",
                   "--hyp", f"uadf={hyp}", "--hyp", f"same={hyp}",
                   "--baseline", "uadf", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["systems"]["uadf"]["werr"] == 0.0
        assert doc["systems"]["same"]["werr"] == 0.0
        oracles = doc["oracles"]
        assert oracles["o_cp"] <= oracles["o_nb"] <= oracles["wer_1best"]

    def test_zero_wer_baseline_gives_null_werr(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        refs = tmp_path / "refs.jsonl"
        refs.write_text("".join(
            json.dumps({"id": rec["id"], "text": rec["reference"]}) + "\n"
            for rec in map(json.loads, (data / "test.jsonl").read_text().splitlines())))
        hyp = tmp_path / "uadf.jsonl"
        assert run(*decode_args(workspace, "uadf", hyp)) == 0
        out = tmp_path / "scores.json"
        assert run("score", "--corpus", data / "test.jsonl", "--hyp", f"refs={refs}",
                   "--hyp", f"uadf={hyp}", "--baseline", "refs", "--out", out) == 0
        systems = json.loads(out.read_text())["systems"]
        assert systems["refs"]["wer"] == 0.0 < systems["uadf"]["wer"]
        assert systems["refs"]["werr"] is None and systems["uadf"]["werr"] is None
        assert "werr" not in capsys.readouterr().out

    def test_unknown_baseline_is_config_error(self, workspace, tmp_path):
        data = workspace / "data"
        hyp = tmp_path / "h.jsonl"
        assert run(*decode_args(workspace, "llm", hyp)) == 0
        assert run("score", "--corpus", data / "test.jsonl", "--hyp", f"a={hyp}",
                   "--baseline", "missing", "--out", tmp_path / "s.json") == 2

    @pytest.mark.parametrize("line, field", [
        ({"text": "a b"}, "id"),
        ({"id": "test-00000"}, "text"),
        ({"id": "test-00000", "text": 7}, "text"),
        ({"id": 3, "text": "a b"}, "id"),
        (["test-00000", "a b"], "id"),
    ])
    def test_malformed_hypothesis_line_is_data_error(self, workspace, tmp_path,
                                                     capsys, line, field):
        hyp = tmp_path / "h.jsonl"
        hyp.write_text(json.dumps(line) + "\n")
        assert run("score", "--corpus", workspace / "data" / "test.jsonl",
                   "--hyp", f"a={hyp}", "--out", tmp_path / "s.json") == 3
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("names, named", [
        (("a", "a"), "'a' twice"), (("",), "name=path"),
    ], ids=["repeated", "empty"])
    def test_bad_system_name_is_config_error(self, workspace, tmp_path, capsys, names, named):
        hyps = []
        for name, mode in zip(names, ("llm", "asr")):
            hyp = tmp_path / f"{mode}.jsonl"
            assert run(*decode_args(workspace, mode, hyp)) == 0
            hyps += ["--hyp", f"{name}={hyp}"]
        out = tmp_path / "scores.json"
        assert run("score", "--corpus", workspace / "data" / "test.jsonl", *hyps,
                   "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_hypothesis_id_is_data_error(self, workspace, tmp_path, capsys):
        hyp = tmp_path / "h.jsonl"
        assert run(*decode_args(workspace, "llm", hyp)) == 0
        first = json.loads(hyp.read_text().splitlines()[0])
        with open(hyp, "a") as f:
            f.write(json.dumps({"id": first["id"], "text": "a b c"}) + "\n")
        assert run("score", "--corpus", workspace / "data" / "test.jsonl",
                   "--hyp", f"a={hyp}", "--out", tmp_path / "s.json") == 3
        assert f"{hyp}:11: 'id' {first['id']!r} repeats the hypothesis on line 1" \
            in capsys.readouterr().err

    def test_hypothesis_for_unknown_id_is_data_error(self, workspace, tmp_path, capsys):
        hyp = tmp_path / "h.jsonl"
        assert run(*decode_args(workspace, "llm", hyp)) == 0
        with open(hyp, "a") as f:
            f.write(json.dumps({"id": "nowhere-00000", "text": "a b c"}) + "\n")
        assert run("score", "--corpus", workspace / "data" / "test.jsonl",
                   "--hyp", f"a={hyp}", "--out", tmp_path / "s.json") == 3
        err = capsys.readouterr().err
        assert str(hyp) in err and "'nowhere-00000'" in err


class TestSweep:
    def test_static_grid_includes_llm_only_point(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "grid.csv"
        argv = ["sweep", "--axis", "static-grid", "--corpus", data / "val.jsonl",
                "--vocab", data / "vocab.txt", "--lm-model", workspace / "lm.json",
                "--manifest", data / "manifest.json",
                "--w-asr-values", "0,0.5", "--out", out]
        assert run(*argv) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "w_asr,wer"
        assert len(rows) == 3
        w0_wer = float(rows[1].split(",")[1])

        # w_asr = 0 matches a plain llm decode of the same split
        hyp = tmp_path / "llm-val.jsonl"
        argv = ["decode", "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                "--mode", "llm", "--lm-model", workspace / "lm.json", "--out", hyp]
        assert run(*argv) == 0
        score_out = tmp_path / "llm-val-score.json"
        assert run("score", "--corpus", data / "val.jsonl", "--hyp", f"llm={hyp}",
                   "--out", score_out) == 0
        llm_wer = json.loads(score_out.read_text())["systems"]["llm"]["wer"]
        assert w0_wer == pytest.approx(llm_wer, abs=1e-12)

    def test_beta_sweep_has_one_row_per_value(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "beta.csv"
        argv = ["sweep", "--axis", "beta", "--corpus", data / "val.jsonl",
                "--vocab", data / "vocab.txt", "--lm-model", workspace / "lm.json",
                "--manifest", data / "manifest.json",
                "--beta-values", "0,0.25,0.5,0.75", "--out", out]
        assert run(*argv) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "beta,wer"
        assert len(rows) == 5

    @pytest.mark.parametrize("axis", ["static-grid", "beta"])
    def test_empty_corpus_is_data_error(self, workspace, tmp_path, capsys, axis):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "nd" / "sweep.csv"
        assert run(*sweep_args(workspace, out), "--axis", axis, "--corpus", empty) == 3
        assert "no reference words to score" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_failed_sweep_leaves_no_output_directory(self, workspace, tmp_path):
        out = tmp_path / "nd" / "beta.csv"
        assert run(*sweep_args(workspace, out), "--axis", "beta", "--beta-values", "0,2") == 2
        assert not out.parent.exists()


def _decode_score_wer(workspace, tmp_path, mode, **extra):
    hyp = tmp_path / "point.jsonl"
    assert run(*decode_args(workspace, mode, hyp, **extra)) == 0
    scores = tmp_path / "point-scores.json"
    assert run("score", "--corpus", workspace / "data" / "test.jsonl",
               "--hyp", f"point={hyp}", "--out", scores) == 0
    return json.loads(scores.read_text())["systems"]["point"]["wer"]


class TestSweepMatchesDecode:
    """Each sweep row is the WER that decode + score give at that point,
    although the sweep shares step distributions across its points."""

    @pytest.mark.parametrize("axis, flag, values", [
        ("static-grid", "w-asr", ["0.0", "0.125", "0.25", "0.5", "1.0"]),
        ("beta", "beta", ["0.0", "0.25", "0.5", "0.75"]),
    ])
    def test_every_row_equals_decode_and_score(self, workspace, tmp_path,
                                               axis, flag, values):
        data = workspace / "data"
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--axis", axis, "--corpus", data / "test.jsonl",
                   "--vocab", data / "vocab.txt", "--lm-model", workspace / "lm.json",
                   "--manifest", data / "manifest.json",
                   "--calibration-llm", workspace / "calibration-llm.json",
                   "--calibration-asr", workspace / "calibration-asr.json",
                   f"--{flag}-values", ",".join(values), "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[-2] for row in rows] == values
        mode = "static" if axis == "static-grid" else "uadf"
        for value, row in zip(values, rows):
            want = _decode_score_wer(workspace, tmp_path, mode, **{flag: value})
            assert float(row[-1]) == want, (axis, value)


def without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def edit_json(edit):
    """Damage for a JSON side file: `edit` changes its parsed value in place."""
    def damage(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return damage


def setting(**values):
    """Damage for a JSON side file: set these top-level keys."""
    return edit_json(lambda data: data.update(values))


def set_first_ngram(key=None, count=None):
    """Replace the key (given the old key) or the count of the first n-gram."""
    def edit(data):
        old_key, old_count = data["ngrams"][0]
        data["ngrams"][0] = [old_key if key is None else key(old_key),
                             old_count if count is None else count]
    return edit_json(edit)


class TestSideFiles:
    @pytest.mark.parametrize("flag, source, damage", [
        ("lm-model", "lm.json", lambda text: text[:len(text) // 2]),
        ("lm-model", "lm.json", without("smoothing")),
        ("manifest", "data/manifest.json", without("sub_rate")),
        ("calibration-llm", "calibration-llm.json", without("tau")),
        ("corpus", "data/test.jsonl",
         lambda text: text.replace('"score": ', '"score": "high", "x": ', 1)),
        ("corpus", "data/test.jsonl", lambda text: re.sub(
            r'"nbest": \[.*?\]\}', '"nbest": "xy"}', text, count=1)),
        ("corpus", "data/test.jsonl", lambda text: re.sub(
            r'"reference": "[^"]*"', '"reference": ""', text, count=1)),
        ("lm-model", "lm.json", set_first_ngram(key=lambda k: k[:-1] + [math.inf])),
        ("lm-model", "lm.json", set_first_ngram(key=lambda k: k[:-1] + [-1])),
        ("lm-model", "lm.json", set_first_ngram(key=lambda k: k[:-1] + [10 ** 6])),
        ("lm-model", "lm.json", set_first_ngram(count=1.7)),
        ("lm-model", "lm.json", set_first_ngram(key=lambda k: k[-1:])),
        ("lm-model", "lm.json", setting(order=True)),
        ("lm-model", "lm.json", edit_json(lambda data: data["ngrams"].append(data["ngrams"][0]))),
        ("lm-model", "lm.json", setting(vote_weight=True)),
        ("lm-model", "lm.json", setting(vote_weight=10 ** 400)),
        ("lm-model", "lm.json", setting(smoothing=10 ** 400)),
        ("lm-model", "lm.json", set_first_ngram(count=10 ** 400)),
        ("calibration-llm", "calibration-llm.json", setting(tau=True)),
        ("calibration-llm", "calibration-llm.json", setting(tau=10 ** 400)),
        ("manifest", "data/manifest.json", setting(concentration=True)),
        ("manifest", "data/manifest.json", setting(concentration=10 ** 400)),
        ("manifest", "data/manifest.json", setting(seed=1.5)),
        ("corpus", "data/test.jsonl", lambda text: text.replace(
            '"score": ', '"score": ' + "9" * 5000 + ', "x": ', 1)),
        ("corpus", "data/test.jsonl", lambda text: text.replace(
            '"score": ', '"score": ' + "[" * 100000 + "]" * 100000 + ', "x": ', 1)),
        ("vocab", "data/vocab.txt", lambda text: text + text.splitlines()[-1] + "\n"),
        ("vocab", "data/vocab.txt", lambda text: "".join(text.splitlines(keepends=True)[:2])),
        ("vocab", "data/vocab.txt", lambda text: text + "two words\n"),
    ], ids=["lm-truncated", "lm-no-smoothing", "manifest-no-sub-rate", "calibration-no-tau",
            "corpus-text-score", "corpus-string-nbest", "corpus-empty-reference",
            "lm-infinite-token", "lm-negative-token", "lm-token-beyond-vocab",
            "lm-fractional-count", "lm-short-key", "lm-bool-order", "lm-repeated-key",
            "lm-bool-vote-weight", "lm-huge-vote-weight", "lm-huge-smoothing", "lm-huge-count",
            "calibration-bool-tau", "calibration-huge-tau", "manifest-bool-concentration",
            "manifest-huge-concentration", "manifest-fractional-seed", "corpus-5000-digits",
            "corpus-deep-nesting", "vocab-repeated-token", "vocab-two-lines",
            "vocab-whitespace-token"])
    def test_malformed_file_is_data_error_naming_it(self, workspace, tmp_path, capsys,
                                                     flag, source, damage):
        broken = tmp_path / Path(source).name
        broken.write_text(damage((workspace / source).read_text()))
        out = tmp_path / "x.jsonl"
        assert run(*decode_args(workspace, "uadf", out, **{flag: broken})) == 3
        assert str(broken) in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flag, source, key, value", [
        ("lm-model", "lm.json", "vote_weight", 2),
        ("lm-model", "lm.json", "smoothing", -1),
        ("lm-model", "lm.json", "order", 0),
        ("manifest", "data/manifest.json", "sub_rate", 2),
        ("manifest", "data/manifest.json", "concentration", 0),
        ("calibration-llm", "calibration-llm.json", "tau", -1.0),
        ("calibration-asr", "calibration-asr.json", "tau", 0),
    ])
    def test_out_of_range_value_is_data_error_naming_it(self, workspace, tmp_path, capsys,
                                                        flag, source, key, value):
        broken = tmp_path / Path(source).name
        data = json.loads((workspace / source).read_text())
        data[key] = value
        broken.write_text(json.dumps(data))
        out = tmp_path / "x.jsonl"
        assert run(*decode_args(workspace, "uadf", out, **{flag: broken})) == 3
        assert str(broken) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "calibrate"])
    def test_channel_without_a_decoder_is_data_error_naming_it(self, workspace, tmp_path,
                                                                capsys, command):
        broken = tmp_path / "manifest.json"
        broken.write_text(setting(sub_rate=0, del_rate=1)(
            (workspace / "data" / "manifest.json").read_text()))
        out = tmp_path / "x.jsonl"
        if command == "decode":
            argv = decode_args(workspace, "uadf", out, manifest=broken)
        else:
            data = workspace / "data"
            argv = ["calibrate", "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
                    "--which", "asr", "--manifest", broken, "--out", out]
        assert run(*argv) == 3
        assert f"{broken}: sub_rate 0 and del_rate 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("smoothing", [1e306, 10 ** 306], ids=["float", "int"])
    @pytest.mark.parametrize("command", ["decode", "calibrate"])
    def test_smoothing_that_overflows_is_data_error_naming_it(self, workspace, tmp_path,
                                                              capsys, command, smoothing):
        """smoothing * V past the float range would make every n-gram row
        all zeros; here V = 200."""
        broken = tmp_path / "lm.json"
        broken.write_text(setting(smoothing=smoothing)((workspace / "lm.json").read_text()))
        out = tmp_path / "x.jsonl"
        if command == "decode":
            argv = decode_args(workspace, "uadf", out, **{"lm-model": broken})
        else:
            argv = [*which_llm_args("calibrate")(workspace, out), "--lm-model", broken]
        assert run(*argv) == 3
        assert f"{broken}: smoothing 1e+306 times the vocabulary size 200 must be finite" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_corpus_id_is_data_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "data" / "test.jsonl").read_text().splitlines(keepends=True)
        broken = tmp_path / "test.jsonl"
        broken.write_text("".join(lines + lines[:1]))
        out = tmp_path / "x.jsonl"
        assert run(*decode_args(workspace, "uadf", out, corpus=broken)) == 3
        assert f"{broken}:{len(lines) + 1}:" in capsys.readouterr().err
        hyp = tmp_path / "h.jsonl"
        assert run(*decode_args(workspace, "llm", hyp)) == 0
        assert run("score", "--corpus", broken, "--hyp", f"a={hyp}",
                   "--out", tmp_path / "s.json") == 3
        assert not out.exists()


class TestNgramOrderBound:
    """An n-gram order outside [1, providers.MAX_ORDER] is refused before
    any context tuple is built: from a flag it is a config error, from an
    `lm.json` a data error naming the file."""

    @pytest.fixture
    def no_contexts(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an n-gram context")

        monkeypatch.setattr(providers.NgramModel, "_context", refuse)

    @pytest.mark.parametrize("order", ["0", str(providers.MAX_ORDER + 1),
                                       "10000000000000000000"])
    def test_train_lm_flag_is_config_error(self, workspace, tmp_path, capsys, no_contexts,
                                           order):
        out = tmp_path / "nd" / "lm.json"
        assert run(*train_lm_args(workspace, out), "--order", order) == 2
        assert f"order must be in [1, {providers.MAX_ORDER}], got {order}" \
            in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["calibrate", "decode"])
    def test_lm_file_is_data_error(self, workspace, tmp_path, capsys, no_contexts, command):
        lm = tmp_path / "lm.json"
        lm.write_text(json.dumps({"order": 2 ** 62, "smoothing": 0.1, "ngrams": [],
                                  "vote_weight": 0.85}))
        out = tmp_path / "nd" / "out.json"
        argv = (which_llm_args("calibrate")(workspace, out) if command == "calibrate"
                else decode_args(workspace, "llm", out))
        assert run(*argv, "--lm-model", lm) == 3
        assert f"{lm}: order must be in [1, {providers.MAX_ORDER}]" in capsys.readouterr().err
        assert not out.parent.exists()


def resolve(argv):
    args = cli.build_parser().parse_args([str(a) for a in argv])
    return cli._resolve(args, args.options)


def sample(opt):
    """A non-default value for `opt`: (flag argument, config-file value)."""
    if opt.choices:
        choice = next(c for c in opt.choices if c != opt.default)
        return choice, choice
    return {cli.text: ("x", "x"), cli.endpoint: ("127.0.0.1:9", "127.0.0.1:9"),
            cli.integer: ("7", 7), cli.number: ("0.375", 0.375),
            cli.numbers: ("0,0.5", "0,0.5"), cli.boolean: ("false", False)}[opt.type]


OPTION_CASES = [(command, key) for command, (_func, options, _help) in cli.COMMANDS.items()
                for key in options]


class TestOptionTable:
    @pytest.mark.parametrize("command, key", OPTION_CASES,
                             ids=[f"{c}-{k}" for c, k in OPTION_CASES])
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command, key):
        options = cli.COMMANDS[command][1]
        base = [command]
        for other, opt in options.items():
            if opt.required and other != key:
                base += [cli._flag(other), sample(opt)[0]]
        flag_arg, config_value = sample(options[key])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {key: [config_value] if options[key].repeat else config_value}))
        from_flag = resolve(base + [cli._flag(key), flag_arg])[key]
        from_config = resolve(base + ["--config", cfg])[key]
        assert from_flag == from_config
        assert type(from_flag) is type(from_config)
        assert from_flag != options[key].default

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_written_config_resolves_to_itself(self, tmp_path, command):
        options = cli.COMMANDS[command][1]
        argv = [command]
        for key, opt in options.items():
            if opt.required:
                argv += [cli._flag(key), sample(opt)[0]]
        resolved = resolve(argv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(resolved))  # as the command writes it, nulls included
        assert json.dumps(resolve([command, "--config", cfg])) == json.dumps(resolved)

    @pytest.mark.parametrize("command, key, value", [
        ("decode", "beta", "x"),
        ("calibrate", "tol", "abc"),
        ("simulate", "n_train", 2.7),
        ("decode", "max_len_factor", "abc"),
        ("sweep", "w_asr_values", "0,x"),
        ("sweep", "beta_values", ""),
        ("decode", "mode", "llm-only"),
        ("score", "lowercase", "no"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(command, "--config", cfg) == 2
        assert repr(key) in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(command, cli._flag(key), value if isinstance(value, str) else json.dumps(value))
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["llm_endpoint", "asr_endpoint"])
    @pytest.mark.parametrize("value", [[], ["a", 5], 5, {"host": "a"}],
                             ids=["empty-list", "non-string-argv", "number", "object"])
    def test_bad_endpoint_names_both_forms(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run("decode", "--config", cfg) == 2
        assert capsys.readouterr().err == (
            f"config error: config key {key!r}: expected a host:port string or a non-empty "
            f"list of argv strings, got {value!r}\n")

    @pytest.mark.parametrize("key, value", [
        ("mode", "uadf"), ("beta", 0.9), ("w_asr", 9), ("steps_log", "s.jsonl"),
    ])
    def test_sweep_takes_no_decode_only_option(self, workspace, tmp_path, key, value):
        data = workspace / "data"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            key: value, "corpus": str(data / "val.jsonl"), "vocab": str(data / "vocab.txt"),
            "lm_model": str(workspace / "lm.json"), "manifest": str(data / "manifest.json"),
            "out": str(tmp_path / "grid.csv")}))
        assert key not in cli.SWEEP
        assert run("sweep", "--config", cfg) == 2
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--config", cfg, cli._flag(key), value)
        assert exc.value.code == 2
        assert not (tmp_path / "grid.csv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _expand(line, loops):
    for var, values in loops.items():
        if f"${var}" in line:
            return [cmd for value in values
                    for cmd in _expand(line.replace(f"${var}", value), loops)]
    return [line]


def readme_commands():
    """Every `latefuse ...` line of README's shell blocks, `for` variables expanded."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        loops = {}
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            loop = re.match(r"for (\w+) in (.+); do$", line)
            if loop:
                loops[loop.group(1)] = loop.group(2).split()
            elif line.startswith("latefuse "):
                commands += _expand(line, loops)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9  # the walkthrough alone has nine
    for command in commands:
        try:
            cli.build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_imports_resolve():
    """Every name a README `python` block imports from latefuse exists there."""
    import latefuse

    names = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "latefuse":
                names += [alias.name for alias in node.names]
    assert "AcousticChannel" in names  # the library-surface block was found
    assert [name for name in names if not hasattr(latefuse, name)] == []
