"""Command-line bench: simulate, train-lm, calibrate, decode, sweep, score,
reliability.

Every command resolves its options as defaults <- config file <- explicit
flags, runs deterministically from the resolved values (seeds included),
and drops a copy of the resolved config next to its outputs. Exit codes:
0 success, 2 configuration error, 3 data error, 4 provider-io error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import calibration, corpus, decoding, fusion, metrics, wire
from .core import Vocabulary
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
    NgramModel,
    ProviderSpec,
    train_ngram_corrector,
)

SIMULATE_DEFAULTS = {
    "n_train": 2000, "n_val": 200, "n_test": 500,
    "sub_rate": 0.15, "del_rate": 0.02, "ins_rate": 0.02,
    "concentration": 1.0, "seed": 0,
    "beam": 8, "n_best": 5, "mean_len": 12.0, "source": None,
}
TRAIN_LM_DEFAULTS = {"order": 2, "smoothing": 0.1, "vote_weight": 0.85}
CALIBRATE_DEFAULTS = {
    "tol": calibration.DEFAULT_TOL,
    "tau_min": calibration.DEFAULT_BOUNDS[0],
    "tau_max": calibration.DEFAULT_BOUNDS[1],
    "max_iter": calibration.DEFAULT_MAX_ITER,
    "bins": calibration.DEFAULT_BINS,
    "llm_endpoint": None, "asr_endpoint": None, "timeout": 5.0,
}
DECODE_DEFAULTS = {
    "mode": "uadf", "beta": 0.5, "uncertainty": "entropy", "w_llm": 1.0, "w_asr": 0.25,
    "tau1": None, "tau2": None, "max_len_factor": 2.0,
    "calibration_llm": None, "calibration_asr": None,
    "llm_endpoint": None, "asr_endpoint": None, "timeout": 5.0,
    "steps_log": None,
}
SWEEP_DEFAULTS = dict(DECODE_DEFAULTS, axis="static-grid",
                      w_asr_values="0,0.125,0.25,0.375,0.5,0.75,1.0",
                      beta_values="0,0.25,0.5,0.75")
RELIABILITY_DEFAULTS = {
    "tau": None, "calibration": None, "bins": calibration.DEFAULT_BINS,
    "llm_endpoint": None, "asr_endpoint": None, "timeout": 5.0,
}


def _resolve(args: argparse.Namespace, defaults: dict, paths=()) -> dict:
    """defaults <- config file <- flags the user actually passed.

    `paths` names the command's file/selector keys that have no default;
    anything else in the config file is rejected as a config error.
    """
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                loaded = json.load(f)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {config_path} is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(defaults) - set(paths)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if value is not None:
            resolved[key] = value
    return resolved


def _require(resolved: dict, *names):
    for name in names:
        if not resolved.get(name):
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"{flag} is required (flag or config key)")


def _write_resolved(resolved: dict, out_dir: Path, command: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{command}.config.json", "w", encoding="utf-8") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_vocab(resolved: dict) -> Vocabulary:
    path = resolved.get("vocab")
    if not path:
        raise ConfigurationError("--vocab is required")
    return Vocabulary.load(path)


def _load_manifest(path) -> dict:
    if not path:
        raise ConfigurationError("--manifest is required to build the acoustic provider")
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _channel_from_manifest(manifest: dict) -> corpus.ChannelSpec:
    return corpus.ChannelSpec(
        sub_rate=manifest["sub_rate"], del_rate=manifest["del_rate"],
        ins_rate=manifest["ins_rate"], concentration=manifest["concentration"],
        seed=manifest["seed"],
    )


def build_provider(spec: ProviderSpec, vocab: Vocabulary):
    """Construct a concrete provider from its declarative spec."""
    params = spec.parameters
    if spec.kind == "ngram-corrector":
        with open(params["model_path"], "r", encoding="utf-8") as f:
            data = json.load(f)
        model = NgramModel.from_dict(data, vocab)
        return NgramCorrector(model, vote_weight=float(data["vote_weight"]))
    if spec.kind == "acoustic-channel":
        if "confusion" in params:
            confusion = params["confusion"]
        else:
            channel = _channel_from_manifest(_load_manifest(params["manifest_path"]))
            confusion = corpus.decoder_confusion(vocab, channel)
        return AcousticChannel(vocab, confusion, floor=float(params.get("floor", 0.0)))
    return wire.connect_external(params["endpoint"], vocab,
                                 timeout=float(params.get("timeout", 5.0)))


def _build_llm(resolved: dict, vocab: Vocabulary):
    if resolved.get("llm_endpoint"):
        spec = ProviderSpec("external", {"endpoint": resolved["llm_endpoint"],
                                         "timeout": resolved.get("timeout", 5.0)})
    elif resolved.get("lm_model"):
        spec = ProviderSpec("ngram-corrector", {"model_path": resolved["lm_model"]})
    else:
        raise ConfigurationError("--lm-model (or --llm-endpoint) is required")
    return build_provider(spec, vocab)


def _build_asr(resolved: dict, vocab: Vocabulary):
    if resolved.get("asr_endpoint"):
        spec = ProviderSpec("external", {"endpoint": resolved["asr_endpoint"],
                                         "timeout": resolved.get("timeout", 5.0)})
    else:
        if not resolved.get("manifest"):
            raise ConfigurationError(
                "--manifest is required to build the acoustic provider")
        spec = ProviderSpec("acoustic-channel", {"manifest_path": resolved["manifest"]})
    return build_provider(spec, vocab)


def _build_which(resolved: dict, vocab: Vocabulary):
    """The one provider `--which` names, for calibrate and reliability."""
    which = resolved.get("which")
    if which == "llm":
        return which, _build_llm(resolved, vocab)
    if which == "asr":
        return which, _build_asr(resolved, vocab)
    raise ConfigurationError("--which must be llm or asr")


def _tau_from(resolved: dict, explicit_key: str, report_key: str) -> float:
    if resolved.get(explicit_key) is not None:
        return float(resolved[explicit_key])
    path = resolved.get(report_key)
    if path:
        with open(path, "r", encoding="utf-8") as f:
            return calibration.CalibrationReport.from_dict(json.load(f)).tau
    return 1.0


def _fusion_config(resolved: dict) -> fusion.FusionConfig:
    cfg = fusion.FusionConfig(
        mode=resolved["mode"],
        w_llm=float(resolved["w_llm"]),
        w_asr=float(resolved["w_asr"]),
        tau1=_tau_from(resolved, "tau1", "calibration_llm"),
        tau2=_tau_from(resolved, "tau2", "calibration_asr"),
        beta=float(resolved["beta"]),
        uncertainty=resolved["uncertainty"],
    )
    return cfg.normalized()


def _calibration_set(records, vocab):
    return [
        (corpus.record_context(rec, vocab)[0], vocab.encode(rec.reference, append_eos=True))
        for rec in records
    ]


def cmd_simulate(args):
    resolved = _resolve(args, SIMULATE_DEFAULTS, paths=("out_dir",))
    _require(resolved, "out_dir")
    out_dir = Path(resolved["out_dir"])
    channel = corpus.ChannelSpec(
        sub_rate=float(resolved["sub_rate"]), del_rate=float(resolved["del_rate"]),
        ins_rate=float(resolved["ins_rate"]),
        concentration=float(resolved["concentration"]), seed=int(resolved["seed"]),
    )
    splits, vocab = corpus.generate_corpus(
        channel,
        n_train=int(resolved["n_train"]), n_val=int(resolved["n_val"]),
        n_test=int(resolved["n_test"]), source=resolved["source"],
        beam_width=int(resolved["beam"]), n_best=int(resolved["n_best"]),
        mean_len=float(resolved["mean_len"]),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for split, records in splits.items():
        corpus.save_corpus(records, out_dir / f"{split}.jsonl")
    vocab.save(out_dir / "vocab.txt")
    manifest = dict(channel.to_dict())
    manifest.update({
        "n_train": int(resolved["n_train"]), "n_val": int(resolved["n_val"]),
        "n_test": int(resolved["n_test"]), "beam": int(resolved["beam"]),
        "n_best": int(resolved["n_best"]), "mean_len": float(resolved["mean_len"]),
        "vocab_size": vocab.size,
    })
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_resolved(resolved, out_dir, "simulate")
    print(f"wrote {sum(len(r) for r in splits.values())} records to {out_dir}")
    return 0


def cmd_train_lm(args):
    resolved = _resolve(args, TRAIN_LM_DEFAULTS, paths=("corpus", "vocab", "out"))
    _require(resolved, "corpus", "vocab", "out")
    vocab = _load_vocab(resolved)
    records = corpus.load_corpus(resolved["corpus"])
    pairs = [
        (tuple(vocab.encode(t, append_eos=True) for t, _ in rec.nbest),
         vocab.encode(rec.reference, append_eos=True))
        for rec in records
    ]
    corrector = train_ngram_corrector(
        pairs, vocab, order=int(resolved["order"]),
        smoothing=float(resolved["smoothing"]),
        vote_weight=float(resolved["vote_weight"]),
    )
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = corrector.model.to_dict()
    payload["vote_weight"] = corrector.vote_weight
    with open(out, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")
    _write_resolved(resolved, out.parent, "train-lm")
    print(f"trained order-{corrector.model.order} corrector on {len(pairs)} pairs -> {out}")
    return 0


def cmd_calibrate(args):
    resolved = _resolve(args, CALIBRATE_DEFAULTS,
                        paths=("corpus", "vocab", "which", "lm_model",
                               "manifest", "out"))
    _require(resolved, "corpus", "vocab", "out")
    vocab = _load_vocab(resolved)
    records = corpus.load_corpus(resolved["corpus"])
    which, provider = _build_which(resolved, vocab)
    report = calibration.fit_temperature(
        provider, _calibration_set(records, vocab),
        tol=float(resolved["tol"]),
        bounds=(float(resolved["tau_min"]), float(resolved["tau_max"])),
        max_iter=int(resolved["max_iter"]), n_bins=int(resolved["bins"]),
    )
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    _write_resolved(resolved, out.parent, f"calibrate-{which}")
    flag = " (clamped)" if report.clamped else ""
    print(f"{which}: tau={report.tau:.6g} conf={report.mean_confidence:.4f} "
          f"ter={report.ter:.4f} ece={report.ece:.4f}{flag}")
    return 0


def _providers_for_mode(resolved: dict, vocab: Vocabulary, mode: str):
    llm = _build_llm(resolved, vocab) if mode != "asr-only" else None
    asr = _build_asr(resolved, vocab) if mode != "llm-only" else None
    return llm, asr


def cmd_decode(args):
    resolved = _resolve(args, DECODE_DEFAULTS,
                        paths=("corpus", "vocab", "lm_model", "manifest", "out"))
    _require(resolved, "corpus", "vocab", "out")
    cfg = _fusion_config(resolved)
    vocab = _load_vocab(resolved)
    records = corpus.load_corpus(resolved["corpus"])
    llm, asr = _providers_for_mode(resolved, vocab, cfg.mode)
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)

    factor = float(resolved["max_len_factor"])
    results = []
    for rec in records:
        ctx, ref_words = corpus.record_context(rec, vocab)
        results.append(decoding.fused_greedy_decode(
            llm, asr, cfg, ctx,
            max_len=decoding.evaluation_max_len(ref_words, factor)))

    steps_log = resolved.get("steps_log")
    log_f = open(steps_log, "w", encoding="utf-8") if steps_log else None
    try:
        with open(out, "w", encoding="utf-8") as f:
            for rec, result in zip(records, results):
                f.write(json.dumps({
                    "id": rec.id,
                    "text": vocab.decode(result.tokens),
                    "terminated": result.terminated,
                }) + "\n")
                if log_f and cfg.mode in ("static", "uadf"):
                    for i, step in enumerate(result.steps):
                        entry = {"id": rec.id}
                        entry.update(step.log_entry(i, vocab))
                        log_f.write(json.dumps(entry) + "\n")
    finally:
        if log_f:
            log_f.close()
    _write_resolved(resolved, out.parent, f"decode-{cfg.mode}")
    print(f"decoded {len(records)} utterances in mode {cfg.mode} -> {out}")
    return 0


def cmd_sweep(args):
    resolved = _resolve(args, SWEEP_DEFAULTS,
                        paths=("corpus", "vocab", "lm_model", "manifest", "out"))
    _require(resolved, "corpus", "vocab", "out")
    vocab = _load_vocab(resolved)
    records = corpus.load_corpus(resolved["corpus"])
    eval_set = [corpus.record_context(rec, vocab) for rec in records]
    llm = _build_llm(resolved, vocab)
    asr = _build_asr(resolved, vocab)
    tau1 = _tau_from(resolved, "tau1", "calibration_llm")
    tau2 = _tau_from(resolved, "tau2", "calibration_asr")
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)

    axis = resolved["axis"]
    if axis == "static-grid":
        values = [float(v) for v in str(resolved["w_asr_values"]).split(",")]
        _best, table = fusion.grid_search_static(
            llm, asr, eval_set, [(1.0, w) for w in values],
            tau1=tau1, tau2=tau2,
            max_len_factor=float(resolved["max_len_factor"]),
        )
        with open(out, "w", encoding="utf-8") as f:
            f.write("w_llm,w_asr,wer\n")
            for row in table:
                f.write(f"{row['w_llm']!r},{row['w_asr']!r},{row['wer']!r}\n")
    elif axis == "beta":
        values = [float(v) for v in str(resolved["beta_values"]).split(",")]
        with open(out, "w", encoding="utf-8") as f:
            f.write("beta,wer\n")
            for beta in values:
                cfg = fusion.FusionConfig(mode="uadf", beta=beta, tau1=tau1, tau2=tau2,
                                          uncertainty=resolved["uncertainty"])
                wer = decoding.eval_set_wer(llm, asr, cfg, eval_set,
                                            float(resolved["max_len_factor"]))
                f.write(f"{beta!r},{wer!r}\n")
    else:
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    _write_resolved(resolved, out.parent, f"sweep-{axis}")
    print(f"sweep over {axis} -> {out}")
    return 0


def _load_hypotheses(path) -> dict[str, str]:
    hyps = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(path, line_no, f"invalid JSON: {exc}") from exc
            for field in ("id", "text"):
                if not isinstance(entry, dict) or not isinstance(entry.get(field), str):
                    raise CorpusSchemaError(
                        field, f"{path}:{line_no}: {field!r} missing or not a string")
            hyps[entry["id"]] = entry["text"]
    return hyps


def cmd_score(args):
    resolved = _resolve(args, {"baseline": None, "lowercase": True},
                        paths=("corpus", "hyp", "out"))
    _require(resolved, "corpus", "hyp", "out")
    records = corpus.load_corpus(resolved["corpus"])
    refs = {rec.id: metrics.normalize_text(rec.reference, resolved["lowercase"])
            for rec in records}

    systems = {}
    for pair in resolved["hyp"]:
        name, _, path = pair.partition("=")
        if not path:
            raise ConfigurationError(f"--hyp expects name=path, got {pair!r}")
        hyps = _load_hypotheses(path)
        missing = set(refs) - set(hyps)
        if missing:
            raise InvalidInputError(
                f"{path} lacks hypotheses for {len(missing)} utterances")
        pairs = [(metrics.normalize_text(hyps[utt_id], resolved["lowercase"]), ref)
                 for utt_id, ref in refs.items()]
        systems[name] = metrics.corpus_report(pairs)

    baseline = resolved.get("baseline")
    if baseline and baseline not in systems:
        raise ConfigurationError(f"baseline {baseline!r} is not among the systems")

    document = {"systems": {}, "baseline": baseline}
    for name, report in systems.items():
        entry = report.to_dict()
        if baseline and name != baseline:
            entry["werr"] = metrics.werr(systems[baseline].wer, report.wer)
        elif baseline:
            entry["werr"] = 0.0
        document["systems"][name] = entry

    if any(rec.nbest for rec in records):
        norm = lambda text: metrics.normalize_text(text, resolved["lowercase"])
        first = metrics.corpus_report(
            [(norm(rec.nbest[0][0]), refs[rec.id]) for rec in records if rec.nbest])
        o_nb = [metrics.oracle_nbest([norm(t) for t, _ in rec.nbest], refs[rec.id])
                for rec in records if rec.nbest]
        o_cp = [metrics.oracle_compositional(
                    [norm(t) for t, _ in rec.nbest], refs[rec.id])
                for rec in records if rec.nbest]
        n_ref = [len(refs[rec.id]) for rec in records if rec.nbest]
        weight = sum(n_ref)
        document["oracles"] = {
            "wer_1best": first.wer,
            "o_nb": sum(o * n for o, n in zip(o_nb, n_ref)) / weight,
            "o_cp": sum(o * n for o, n in zip(o_cp, n_ref)) / weight,
        }

    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_resolved({k: v for k, v in resolved.items()}, out.parent, "score")
    for name, entry in document["systems"].items():
        werr_txt = f" werr={entry['werr']:+.3%}" if "werr" in entry else ""
        print(f"{name}: wer={entry['wer']:.4f}{werr_txt}")
    return 0


def cmd_reliability(args):
    resolved = _resolve(args, RELIABILITY_DEFAULTS,
                        paths=("corpus", "vocab", "which", "lm_model",
                               "manifest", "out"))
    _require(resolved, "corpus", "vocab", "out")
    vocab = _load_vocab(resolved)
    records = corpus.load_corpus(resolved["corpus"])
    which, provider = _build_which(resolved, vocab)
    tau = _tau_from(resolved, "tau", "calibration")
    traces, targets = calibration.collect_traces(
        provider, _calibration_set(records, vocab))
    bins, ece = calibration.reliability_bins(
        traces, targets, tau, n_bins=int(resolved["bins"]))
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    calibration.export_bins_csv(bins, out)
    _write_resolved(resolved, out.parent, f"reliability-{which}")
    print(f"{which} @ tau={tau:.6g}: ece={ece:.4f} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Synthetic bench for decode-time fusion of two token predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, help="generate corpus splits and a vocabulary")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-val", dest="n_val", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--sub-rate", dest="sub_rate", type=float)
    p.add_argument("--del-rate", dest="del_rate", type=float)
    p.add_argument("--ins-rate", dest="ins_rate", type=float)
    p.add_argument("--concentration", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--beam", type=int)
    p.add_argument("--n-best", dest="n_best", type=int)
    p.add_argument("--mean-len", dest="mean_len", type=float)
    p.add_argument("--source", help="optional text file of reference sentences")

    p = add("train-lm", cmd_train_lm, help="train the N-best corrector's n-gram")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--order", type=int)
    p.add_argument("--smoothing", type=float)
    p.add_argument("--vote-weight", dest="vote_weight", type=float)
    p.add_argument("--out")

    p = add("calibrate", cmd_calibrate, help="fit a provider temperature")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--which", choices=["llm", "asr"])
    p.add_argument("--lm-model", dest="lm_model")
    p.add_argument("--manifest")
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--asr-endpoint", dest="asr_endpoint")
    p.add_argument("--tol", type=float)
    p.add_argument("--tau-min", dest="tau_min", type=float)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--out")

    def decode_like(p):
        p.add_argument("--corpus")
        p.add_argument("--vocab")
        p.add_argument("--lm-model", dest="lm_model")
        p.add_argument("--manifest")
        p.add_argument("--llm-endpoint", dest="llm_endpoint")
        p.add_argument("--asr-endpoint", dest="asr_endpoint")
        p.add_argument("--timeout", type=float)
        p.add_argument("--calibration-llm", dest="calibration_llm")
        p.add_argument("--calibration-asr", dest="calibration_asr")
        p.add_argument("--tau1", type=float)
        p.add_argument("--tau2", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--uncertainty", choices=list(fusion.UNCERTAINTY_VARIANTS))
        p.add_argument("--w-llm", dest="w_llm", type=float)
        p.add_argument("--w-asr", dest="w_asr", type=float)
        p.add_argument("--max-len-factor", dest="max_len_factor", type=float)
        p.add_argument("--out")

    p = add("decode", cmd_decode, help="decode a corpus in one fusion mode")
    p.add_argument("--mode", choices=["llm", "asr", "static", "uadf"])
    p.add_argument("--steps-log", dest="steps_log",
                   help="write per-step fusion diagnostics (JSON lines)")
    decode_like(p)

    p = add("sweep", cmd_sweep, help="decode the corpus across a parameter grid")
    p.add_argument("--axis", choices=["static-grid", "beta"])
    p.add_argument("--w-asr-values", dest="w_asr_values")
    p.add_argument("--beta-values", dest="beta_values")
    decode_like(p)

    p = add("score", cmd_score, help="score hypothesis files against references")
    p.add_argument("--corpus")
    p.add_argument("--hyp", action="append",
                   help="name=path of a decode output; repeatable")
    p.add_argument("--baseline", help="system name WERR is computed against")
    p.add_argument("--out")

    p = add("reliability", cmd_reliability, help="export reliability-diagram bins")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--which", choices=["llm", "asr"])
    p.add_argument("--lm-model", dest="lm_model")
    p.add_argument("--manifest")
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--asr-endpoint", dest="asr_endpoint")
    p.add_argument("--tau", type=float, help="explicit temperature (default 1.0)")
    p.add_argument("--calibration", help="calibration report supplying the temperature")
    p.add_argument("--bins", type=int)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
