"""Command-line bench: simulate, train-lm, calibrate, decode, sweep, score.

Each command declares its options once, in one table below: every entry
is both a `--key-with-dashes` flag and a `key_with_underscores` config
key, with one type and choices check for both. A command resolves them
as defaults <- config file <- explicit flags, runs deterministically from
the resolved values (seeds included), and drops a copy of the resolved
config next to its outputs. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 provider-io error. A command reads every local
input, the providers built from files included, before it opens any
endpoint, so a missing source or a bad input file exits 2 or 3 without
a connection.

`calibrate` is the one source of temperatures and reliability diagrams:
its report holds the fitted tau, with the bins at tau 1 and at that tau,
and `decode` and `sweep` read a report for its tau only.

Every command starts a fresh interpreter, so this module imports only
what a command without an endpoint runs: `build_provider` imports
`latefuse.wire` (socket, selectors, subprocess) when a command names an
`--llm-endpoint` or `--asr-endpoint`, and `simulate` imports hashlib
when it draws a corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from . import calibration, corpus, decoding, fusion, metrics
from .core import Vocabulary, json_field, loads
from .errors import (
    ConfigurationError,
    CorpusParseError,
    CorpusSchemaError,
    InvalidInputError,
    InvalidParameterError,
    ProviderIOError,
)
from .providers import (
    AcousticChannel,
    NgramCorrector,
    ProviderSpec,
    train_ngram_corrector,
)

# -- option types: each turns a flag string or a config-file JSON value
# into the typed value a command reads, or raises TypeError/ValueError.


def text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def number(value) -> float:
    if isinstance(value, bool) or isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a number within the float range, got {value!r:.40}")
    return float(value)


def integer(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def numbers(value) -> tuple:
    """Comma-separated numbers ("0,0.5"), or a JSON list in a config file
    (the resolved config a command writes holds one)."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list) or not items:
        raise TypeError(f"expected comma-separated numbers, got {value!r}")
    return tuple(number(v) for v in items)


def boolean(value) -> bool:
    if isinstance(value, bool) or value in ("true", "false"):
        return value in (True, "true")
    raise ValueError(f"expected true or false, got {value!r}")


def endpoint(value):
    """host:port; a config file may also give an argv list for a subprocess."""
    if isinstance(value, str) or (isinstance(value, list) and value
                                  and all(isinstance(v, str) for v in value)):
        return value
    raise TypeError("expected a host:port string or a non-empty list of argv strings, "
                    f"got {value!r}")


@dataclass(frozen=True)
class Option:
    """One option of one command: the flag `--key-with-dashes` and the
    config key `key_with_underscores`, checked the same way."""

    type: Callable = text
    default: object = None
    choices: tuple = ()
    required: bool = False
    repeat: bool = False  # the flag may repeat; a config file gives a list
    help: str | None = None

    def parse(self, value):
        """The typed value of one config-file entry."""
        if self.repeat:
            if not isinstance(value, list):
                raise TypeError(f"expected a list, got {value!r}")
            return [self.type(v) for v in value]
        value = self.type(value)
        if self.choices and value not in self.choices:
            raise ValueError(f"{value!r} is not one of {list(self.choices)}")
        return value


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# -- option tables: one per command, built from shared groups ----------

_FILES = {"corpus": Option(required=True), "vocab": Option(required=True),
          "out": Option(required=True)}
_PROVIDERS = {
    "lm_model": Option(), "manifest": Option(),
    "llm_endpoint": Option(endpoint), "asr_endpoint": Option(endpoint),
    "timeout": Option(number, 5.0),
}
_WHICH = {"which": Option(choices=("llm", "asr"), required=True)}
_FUSION = {
    "calibration_llm": Option(), "calibration_asr": Option(),
    "max_len_factor": Option(number, 2.0),
}

SIMULATE = {
    "out_dir": Option(required=True),
    "n_train": Option(integer, 2000), "n_val": Option(integer, 200),
    "n_test": Option(integer, 500),
    "sub_rate": Option(number, 0.15), "del_rate": Option(number, 0.02),
    "ins_rate": Option(number, 0.02), "concentration": Option(number, 1.0),
    "seed": Option(integer, 0), "beam": Option(integer, 8),
    "n_best": Option(integer, 5), "mean_len": Option(number, 12.0),
    "source": Option(help="optional text file of reference sentences"),
}
TRAIN_LM = {**_FILES, "order": Option(integer, 2), "smoothing": Option(number, 0.1),
            "vote_weight": Option(number, 0.85)}
CALIBRATE = {
    **_FILES, **_PROVIDERS, **_WHICH,
    "tol": Option(number, calibration.DEFAULT_TOL),
    "tau_min": Option(number, calibration.DEFAULT_BOUNDS[0]),
    "tau_max": Option(number, calibration.DEFAULT_BOUNDS[1]),
    "max_iter": Option(integer, calibration.DEFAULT_MAX_ITER),
    "bins": Option(integer, calibration.DEFAULT_BINS),
}
DECODE = {
    **_FILES, **_PROVIDERS, **_FUSION,
    "mode": Option(default="uadf", choices=fusion.MODES),
    "beta": Option(number, 0.5), "w_asr": Option(number, 0.25),
    "steps_log": Option(help="write per-step fusion diagnostics (JSON lines)"),
}
SWEEP = {
    **_FILES, **_PROVIDERS, **_FUSION,
    "axis": Option(default="static-grid", choices=("static-grid", "beta")),
    "w_asr_values": Option(numbers, (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)),
    "beta_values": Option(numbers, (0.0, 0.25, 0.5, 0.75)),
}
SCORE = {
    "corpus": Option(required=True),
    "hyp": Option(required=True, repeat=True, help="name=path of a decode output; repeatable"),
    "baseline": Option(help="system name WERR is computed against"),
    "lowercase": Option(boolean, True, help="true or false"),
    "out": Option(required=True),
}


def _resolve(args: argparse.Namespace, options: dict) -> dict:
    """defaults <- config file <- flags the user actually passed.

    A config value passes the same type and choices check as its flag
    (null leaves the default). An unknown key, a value that fails the
    check, or a required option left unset is a configuration error.
    """
    resolved = {key: opt.default for key, opt in options.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                loaded = loads(f.read())
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:  # not UTF-8 (UnicodeDecodeError), or not JSON
            raise ConfigurationError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {args.config} is not a JSON object")
        unknown = set(loaded) - set(options)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            try:
                if value is not None:
                    resolved[key] = options[key].parse(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"config key {key!r}: {exc}") from exc
    for key, opt in options.items():
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
        if opt.required and not resolved[key]:
            raise ConfigurationError(f"{_flag(key)} is required (flag or config key)")
    return resolved


def _write_resolved(resolved: dict, out_dir: Path, command: str):
    """Make `out_dir` and write the resolved options to it as strict JSON.
    A command calls this before it writes anything else: an option the
    command ignored is not range-checked, and a NaN or infinity in one is
    a configuration error here."""
    for key, value in resolved.items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigurationError(f"{_flag(key)} must be finite, got {value!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{command}.config.json", "w", encoding="utf-8") as f:
        json.dump(resolved, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _read_json(path, parse):
    """`parse` applied to the JSON value of a side file (lm, manifest, report);
    invalid JSON and a field `parse` refuses are data errors naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = loads(f.read())
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError), or not JSON
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(data)
    except InvalidParameterError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    except CorpusSchemaError as exc:
        raise CorpusSchemaError(exc.field, f"{path}: {exc}") from exc


# simulate's channel options, and the manifest fields `decode` reads
_CHANNEL_FIELDS = tuple(f.name for f in fields(corpus.ChannelSpec))


def build_provider(spec: ProviderSpec, vocab: Vocabulary):
    """Construct a concrete provider from its declarative spec."""
    params = spec.parameters
    if spec.kind == "ngram-corrector":
        return _read_json(params["model_path"], lambda data: NgramCorrector.from_dict(data, vocab))
    if spec.kind == "acoustic-channel":
        def confusion(data):  # a spec no decoder matrix fits is a data error naming the file
            return corpus.decoder_confusion(vocab, corpus.ChannelSpec(
                **{key: json_field(data, key, (int,) if key == "seed" else (int, float))
                   for key in _CHANNEL_FIELDS}))
        return AcousticChannel(vocab, _read_json(params["manifest_path"], confusion))
    # kind "external": imported here, so a command without an endpoint
    # never loads the wire; `connect_external` is read at each call
    from . import wire

    return wire.connect_external(params["endpoint"], vocab,
                                 timeout=float(params.get("timeout", 5.0)))


def _print_wire_counts(**providers):
    """One line of wire counters for each provider served over the wire:
    the one kind of provider that counts round trips."""
    for role, provider in providers.items():
        if hasattr(provider, "round_trips"):
            print(f"{role} over the wire: {provider.round_trips} round trips, "
                  f"{provider.rows_used} of {provider.rows_received} rows used")


def _build(resolved: dict, role: str, vocab: Vocabulary, opened: contextlib.ExitStack):
    """The provider of `role`, "llm" or "asr": served at the role's
    endpoint if one is set, else built from `lm_model` or `manifest`. A
    wire connection it opens is closed when `opened` exits, whether the
    command succeeds or fails."""
    endpoint = resolved[f"{role}_endpoint"]
    if endpoint:
        return opened.enter_context(build_provider(ProviderSpec(
            "external", {"endpoint": endpoint, "timeout": resolved["timeout"]}), vocab))
    path, kind, parameter, missing = (
        (resolved["lm_model"], "ngram-corrector", "model_path",
         "--lm-model (or --llm-endpoint) is required") if role == "llm" else
        (resolved["manifest"], "acoustic-channel", "manifest_path",
         "--manifest is required to build the acoustic provider"))
    if not path:
        raise ConfigurationError(missing)
    return build_provider(ProviderSpec(kind, {parameter: path}), vocab)


def _build_roles(resolved: dict, roles, vocab: Vocabulary, opened: contextlib.ExitStack):
    """The llm and asr providers (`_build`), None for a role not in
    `roles`. The roles without an endpoint are built first, so a missing
    or bad local source fails with its own exit code, 2 or 3, before any
    endpoint is opened."""
    built = {role: _build(resolved, role, vocab, opened)
             for role in sorted(roles, key=lambda role: bool(resolved[f"{role}_endpoint"]))}
    return built.get("llm"), built.get("asr")


def _tau_from(resolved: dict, report_key: str) -> float:
    """The tau of the calibration report `report_key` names, else 1.0."""
    if resolved[report_key]:  # a report is read for its tau only
        return float(_read_json(resolved[report_key], lambda data: json_field(
            data, "tau", (int, float), lambda tau: tau > 0, "a positive number")))
    return 1.0


def _load_records(resolved: dict, purpose: str):
    """The records of the corpus file, read before any provider is opened;
    a corpus with none is a data error naming the file."""
    records = corpus.load_corpus(resolved["corpus"])
    if not records:
        raise InvalidInputError(f"{resolved['corpus']} holds no utterances {purpose}")
    return records


def _calibration_set(records, vocab):
    return [
        (corpus.record_context(rec, vocab)[0], vocab.encode(rec.reference, append_eos=True))
        for rec in records
    ]


def cmd_simulate(resolved: dict):
    out_dir = Path(resolved["out_dir"])
    channel = corpus.ChannelSpec(**{key: resolved[key] for key in _CHANNEL_FIELDS})
    splits, vocab = corpus.generate_corpus(
        channel,
        n_train=resolved["n_train"], n_val=resolved["n_val"],
        n_test=resolved["n_test"], source=resolved["source"],
        beam_width=resolved["beam"], n_best=resolved["n_best"],
        mean_len=resolved["mean_len"],
    )
    _write_resolved(resolved, out_dir, "simulate")
    for split, records in splits.items():
        corpus.save_corpus(records, out_dir / f"{split}.jsonl")
    vocab.save(out_dir / "vocab.txt")
    manifest = channel.to_dict()
    manifest.update({key: resolved[key] for key in
                     ("n_train", "n_val", "n_test", "beam", "n_best", "mean_len")})
    manifest["vocab_size"] = vocab.size
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {sum(len(r) for r in splits.values())} records to {out_dir}")
    return 0


def cmd_train_lm(resolved: dict):
    vocab = Vocabulary.load(resolved["vocab"])
    records = _load_records(resolved, "to train on")
    references = [vocab.encode(rec.reference, append_eos=True) for rec in records]
    corrector = train_ngram_corrector(
        references, vocab, order=resolved["order"], smoothing=resolved["smoothing"],
        vote_weight=resolved["vote_weight"],
    )
    out = Path(resolved["out"])
    _write_resolved(resolved, out.parent, "train-lm")
    with open(out, "w", encoding="utf-8") as f:
        # `json.dumps` encodes in one C call; `json.dump` always takes the
        # pure-Python encoder. The bytes are the same.
        f.write(json.dumps(corrector.to_dict()) + "\n")
    print(f"trained order-{corrector.model.order} corrector on {len(references)} "
          f"references -> {out}")
    return 0


def cmd_calibrate(resolved: dict):
    fit = dict(tol=resolved["tol"], bounds=(resolved["tau_min"], resolved["tau_max"]),
               max_iter=resolved["max_iter"], n_bins=resolved["bins"])
    calibration.check_fit_parameters(**fit)  # before any provider is opened
    vocab = Vocabulary.load(resolved["vocab"])
    records = _load_records(resolved, "to calibrate on")
    which = resolved["which"]
    with contextlib.ExitStack() as opened:
        provider = _build(resolved, which, vocab, opened)
        report = calibration.fit_temperature(provider, _calibration_set(records, vocab), **fit)
    out = Path(resolved["out"])
    _write_resolved(resolved, out.parent, f"calibrate-{which}")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    flag = " (clamped)" if report.clamped else ""
    print(f"{which}: tau={report.tau:.6g} conf={report.mean_confidence:.4f} "
          f"ter={report.ter:.4f} ece_tau1={report.ece_tau1:.4f} ece={report.ece:.4f}{flag}")
    _print_wire_counts(**{which: provider})
    return 0


def cmd_decode(resolved: dict):
    decoding.check_max_len_factor(resolved["max_len_factor"])  # before any provider is opened
    cfg = fusion.FusionConfig(
        mode=resolved["mode"], w_asr=resolved["w_asr"],
        tau1=_tau_from(resolved, "calibration_llm"),
        tau2=_tau_from(resolved, "calibration_asr"), beta=resolved["beta"])
    steps_log = resolved["steps_log"]
    if steps_log and cfg.mode not in ("static", "uadf"):
        raise ConfigurationError(
            f"steps_log logs fused steps; mode {cfg.mode!r} has none (use static or uadf)")
    vocab = Vocabulary.load(resolved["vocab"])
    records = _load_records(resolved, "to decode")
    out = Path(resolved["out"])
    lines, log_lines = [], []  # kept as text: no DecodeResult outlives its utterance
    with contextlib.ExitStack() as opened:
        roles = (cfg.mode,) if cfg.mode in ("llm", "asr") else ("llm", "asr")
        llm, asr = _build_roles(resolved, roles, vocab, opened)
        eval_set = (corpus.record_context(rec, vocab) for rec in records)
        results = decoding.decode_eval_set(llm, asr, [cfg], eval_set,
                                           resolved["max_len_factor"])
        for rec, result in zip(records, results):
            lines.append(json.dumps({
                "id": rec.id,
                "text": vocab.decode(result.tokens),
                "terminated": result.terminated,
            }) + "\n")
            if steps_log:
                log_lines.extend(json.dumps({"id": rec.id, **step.log_entry(i, vocab)}) + "\n"
                                 for i, step in enumerate(result.steps))

    _write_resolved(resolved, out.parent, f"decode-{cfg.mode}")
    if steps_log:
        with open(steps_log, "w", encoding="utf-8") as f:
            f.writelines(log_lines)
    with open(out, "w", encoding="utf-8") as f:
        f.writelines(lines)
    print(f"decoded {len(records)} utterances in mode {cfg.mode} -> {out}")
    _print_wire_counts(llm=llm, asr=asr)
    return 0


def cmd_sweep(resolved: dict):
    decoding.check_max_len_factor(resolved["max_len_factor"])  # before any provider is opened
    tau1 = _tau_from(resolved, "calibration_llm")
    tau2 = _tau_from(resolved, "calibration_asr")
    axis = resolved["axis"]
    if axis == "static-grid":
        columns = ("w_asr",)
        cfgs = [fusion.FusionConfig(mode="static", w_asr=w_asr, tau1=tau1, tau2=tau2)
                for w_asr in resolved["w_asr_values"]]
    else:  # beta
        columns = ("beta",)
        cfgs = [fusion.FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2)
                for beta in resolved["beta_values"]]
    vocab = Vocabulary.load(resolved["vocab"])
    records = _load_records(resolved, "to sweep: no reference words to score")
    eval_set = [corpus.record_context(rec, vocab) for rec in records]
    out = Path(resolved["out"])
    with contextlib.ExitStack() as opened:
        llm, asr = _build_roles(resolved, ("llm", "asr"), vocab, opened)
        wers = decoding.sweep_wers(llm, asr, cfgs, eval_set, resolved["max_len_factor"])
    _write_resolved(resolved, out.parent, f"sweep-{axis}")
    with open(out, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + ",wer\n")
        for cfg, wer in zip(cfgs, wers):
            row = [getattr(cfg, column) for column in columns] + [wer]
            f.write(",".join(repr(value) for value in row) + "\n")
    print(f"sweep over {axis} -> {out}")
    _print_wire_counts(llm=llm, asr=asr)
    return 0


def _load_hypotheses(path) -> dict[str, str]:
    hyps, first_line = {}, {}
    for line_no, entry in corpus.read_json_lines(path):
        utt_id = json_field(entry, "id", (str,), where=f"{path}:{line_no}")
        if utt_id in first_line:
            raise CorpusSchemaError("id", (
                f"{path}:{line_no}: 'id' {utt_id!r} repeats the hypothesis "
                f"on line {first_line[utt_id]}"))
        first_line[utt_id] = line_no
        hyps[utt_id] = json_field(entry, "text", (str,), where=f"{path}:{line_no}")
    return hyps


def cmd_score(resolved: dict):
    records = _load_records(resolved, "to score")
    norm = lambda text: metrics.normalize_text(text, resolved["lowercase"])
    refs = {rec.id: norm(rec.reference) for rec in records}

    systems = {}
    aligned = {}  # each distinct (hypothesis, reference) pair is aligned once
    for pair in resolved["hyp"]:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise ConfigurationError(f"--hyp expects name=path, got {pair!r}")
        if name in systems:
            raise ConfigurationError(f"--hyp names system {name!r} twice")
        hyps = _load_hypotheses(path)
        missing = set(refs) - set(hyps)
        if missing:
            raise InvalidInputError(
                f"{path} lacks hypotheses for {len(missing)} utterances")
        unknown = set(hyps) - set(refs)
        if unknown:
            raise InvalidInputError(
                f"{path} has hypotheses for {len(unknown)} utterances not in the corpus, "
                f"e.g. {min(unknown)!r}")
        systems[name] = metrics.corpus_report(
            [(norm(hyps[utt_id]), ref) for utt_id, ref in refs.items()], aligned)

    baseline = resolved["baseline"]
    if baseline and baseline not in systems:
        raise ConfigurationError(f"baseline {baseline!r} is not among the systems")

    # a baseline that scores WER 0 leaves no relative reduction to report
    base_wer = systems[baseline].wer if baseline else 0.0
    document = {"systems": {}, "baseline": baseline}
    for name, report in systems.items():
        entry = report.to_dict()
        if baseline:
            entry["werr"] = metrics.werr(base_wer, report.wer) if base_wer > 0 else None
        document["systems"][name] = entry

    nbests = [[norm(t) for t, _ in rec.nbest] for rec in records]
    ref_list = [refs[rec.id] for rec in records]
    first = metrics.corpus_report([(nb[0], ref) for nb, ref in zip(nbests, ref_list)], aligned)
    o_nb = [metrics.oracle_nbest(nb, ref) for nb, ref in zip(nbests, ref_list)]
    o_cp = [metrics.oracle_compositional(nb, ref) for nb, ref in zip(nbests, ref_list)]
    n_ref = [len(ref) for ref in ref_list]
    weight = sum(n_ref)
    document["oracles"] = {
        "wer_1best": first.wer,
        "o_nb": sum(o * n for o, n in zip(o_nb, n_ref)) / weight,
        "o_cp": sum(o * n for o, n in zip(o_cp, n_ref)) / weight,
    }

    out = Path(resolved["out"])
    _write_resolved(resolved, out.parent, "score")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, entry in document["systems"].items():
        werr_txt = f" werr={entry['werr']:+.3%}" if entry.get("werr") is not None else ""
        print(f"{name}: wer={entry['wer']:.4f}{werr_txt}")
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, SIMULATE, "generate corpus splits and a vocabulary"),
    "train-lm": (cmd_train_lm, TRAIN_LM, "train the N-best corrector's n-gram"),
    "calibrate": (cmd_calibrate, CALIBRATE, "fit a provider temperature, report its bins"),
    "decode": (cmd_decode, DECODE, "decode a corpus in one fusion mode"),
    "sweep": (cmd_sweep, SWEEP, "decode the corpus across a parameter grid"),
    "score": (cmd_score, SCORE, "score hypothesis files against references"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMANDS entry, one flag per option of its table.

    Abbreviated flags are refused: `sweep --beta` must not pass for
    `--beta-values`.
    """
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Synthetic bench for decode-time fusion of two token predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, options, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, opt in options.items():
            p.add_argument(_flag(key), type=opt.type, choices=opt.choices or None,
                           action="append" if opt.repeat else "store", help=opt.help)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args, args.options))
    except (ConfigurationError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CorpusParseError, CorpusSchemaError, InvalidInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ProviderIOError as exc:
        print(f"provider-io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
