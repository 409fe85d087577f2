"""Which latefuse entry points the traced run wraps, and the per-layer
metrics computed from the spans.

Each wrap names the attribute the caller actually looks up: `decoding`
imports `fuse_step` and `softmax_with_temperature` by name, so those are
wrapped in `decoding`'s namespace; `corpus.generate_corpus` imports
`beam_search` at call time, so wrapping `decoding.beam_search` reaches it.
"""

from __future__ import annotations

import json

import numpy as np

from latefuse import calibration, core, corpus, decoding, fusion, metrics, providers, wire

# The README walkthrough commands, in order; `cli.<stage>_s` per stage.
STAGES = (
    "simulate", "train-lm", "calibrate-llm", "calibrate-asr",
    "decode-llm", "decode-asr", "decode-static", "decode-uadf",
    "sweep-static-grid", "sweep-beta", "score",
)


def _count_records(tr, args, result):
    tr.counts["corpus.load.records"] += len(result)


def _count_decode(tr, args, result):
    tr.counts["decoding.greedy.steps"] += len(result.tokens)
    if result.terminated == "max-length":
        tr.counts["decoding.terminated_max_length"] += 1


def _probe_ngram_cache(tr, args):
    model, history = args[0], args[1]
    tr.counts["ngram.lookups"] += 1
    if model._context(history) in model._dist_cache:
        tr.counts["ngram.hits"] += 1


def _fusion_stats(tr, args, step):
    if args[2].mode == "uadf":
        tr.counts["fusion.uadf_steps"] += 1
        if step.chosen != int(np.argmax(step.p_llm)):
            tr.counts["fusion.overrides"] += 1
        tr.sample("fusion.w_asr", step.w_asr_effective)


def _count_trace_rows(tr, args, result):
    tr.counts["calibration.trace_rows"] += len(result[1])


def _keep_payload(tr, args):
    tr.sample("wire.payloads", args[1])


def _count_bytes_in(tr, args):
    tr.counts["wire.bytes_in"] += len(args[0])


def install(tr):
    """Wrap every layer boundary the per-layer metrics read."""
    tr.wrap(corpus, "generate_corpus", "corpus.generate")
    tr.wrap(corpus, "corrupt", "corpus.corrupt")
    tr.wrap(corpus, "save_corpus", "corpus.save")
    tr.wrap(corpus, "load_corpus", "corpus.load", after=_count_records)
    tr.wrap(decoding, "beam_search", "decoding.beam_search")
    tr.wrap(decoding, "fused_greedy_decode", "decoding.greedy", after=_count_decode)
    tr.wrap(decoding, "greedy_decode", "decoding.greedy_single")
    tr.wrap(providers.NgramCorrector, "next_logits", "providers.llm")
    tr.wrap(providers.NgramModel, "cond_dist", "providers.ngram.cond_dist",
            before=_probe_ngram_cache)
    tr.wrap(providers.AcousticChannel, "next_logits", "providers.asr")
    tr.wrap(decoding, "fuse_step", "fusion.fuse_step", after=_fusion_stats)
    tr.wrap(fusion, "softmax_with_temperature", "core.softmax")
    tr.wrap(decoding, "softmax_with_temperature", "core.softmax")
    tr.wrap(fusion, "entropy", "core.entropy")
    tr.wrap(core, "as_logits", "core.validate")
    tr.wrap(core, "as_prob_dist", "core.validate")
    tr.wrap(calibration, "fit_temperature", "calibration.fit")
    tr.wrap(calibration, "collect_traces", "calibration.collect_traces",
            after=_count_trace_rows)
    tr.wrap(calibration, "mean_confidence", "calibration.mean_confidence")
    tr.wrap(metrics, "wer", "metrics.wer")
    tr.wrap(metrics, "oracle_compositional", "metrics.oracle_compositional")
    tr.wrap(wire, "connect_external", "wire.connect")
    tr.wrap(wire.ExternalProvider, "next_logits", "wire.client")
    tr.wrap(wire._TcpTransport, "round_trip", "wire.round_trip", before=_keep_payload)
    tr.wrap(wire, "_parse_line", "wire.parse_line", before=_count_bytes_in)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tr, server: dict) -> dict:
    """Every per-layer metric of one traced phase (0 where a layer idled)."""
    spans = tr.summary()
    idle = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": np.zeros(0), "under": {}}

    def span(name):
        return spans.get(name, idle)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counts
    m = {f"cli.{stage}_s": span(f"cli.{stage}")["s"] for stage in STAGES}

    m["corpus.corrupt.calls"] = span("corpus.corrupt")["calls"]
    m["corpus.corrupt.self_s"] = span("corpus.corrupt")["self_s"]
    m["corpus.generate.self_s"] = span("corpus.generate")["self_s"]
    m["corpus.save.s"] = span("corpus.save")["s"]
    m["corpus.load.s"] = span("corpus.load")["s"]
    m["corpus.load.records"] = c["corpus.load.records"]

    beam = span("decoding.beam_search")
    m["decoding.beam_search.calls"] = beam["calls"]
    m["decoding.beam_search.self_s"] = beam["self_s"]
    m["decoding.beam_search.provider_calls"] = \
        span("providers.asr")["under"].get("decoding.beam_search", 0)
    greedy = span("decoding.greedy")
    utt_ms = greedy["durations"] * 1e3
    m["decoding.greedy.utts"] = greedy["calls"]
    m["decoding.greedy.steps"] = c["decoding.greedy.steps"]
    m["decoding.greedy.self_s"] = greedy["self_s"] + span("decoding.greedy_single")["self_s"]
    m["decoding.utt_ms_p50"] = _pct(utt_ms, 50)
    m["decoding.utt_ms_p98"] = _pct(utt_ms, 98)
    m["decoding.terminated_max_length"] = c["decoding.terminated_max_length"]

    for role in ("llm", "asr"):
        m[f"providers.{role}.calls"] = span(f"providers.{role}")["calls"]
        m[f"providers.{role}.s"] = span(f"providers.{role}")["s"]
    m["providers.ngram.cache_hit_ratio"] = ratio(c["ngram.hits"], c["ngram.lookups"])

    fuse = span("fusion.fuse_step")
    w_asr = tr.samples.get("fusion.w_asr", [])
    m["fusion.fuse_step.calls"] = fuse["calls"]
    m["fusion.fuse_step.self_s"] = fuse["self_s"]
    m["fusion.fuse_step.us_per_call"] = ratio(fuse["s"] * 1e6, fuse["calls"])
    m["fusion.override_ratio"] = ratio(c["fusion.overrides"], c["fusion.uadf_steps"])
    m["fusion.w_asr_p50"] = _pct(w_asr, 50)
    m["fusion.w_asr_p98"] = _pct(w_asr, 98)

    for name in ("softmax", "entropy", "validate"):
        m[f"core.{name}.calls"] = span(f"core.{name}")["calls"]
        m[f"core.{name}.s"] = span(f"core.{name}")["s"]

    m["calibration.collect_traces.s"] = span("calibration.collect_traces")["s"]
    m["calibration.trace_rows"] = c["calibration.trace_rows"]
    m["calibration.bisect_evals"] = span("calibration.mean_confidence")["calls"]
    m["calibration.fit.self_s"] = span("calibration.fit")["self_s"]

    m["metrics.wer.calls"] = span("metrics.wer")["calls"]
    m["metrics.wer.s"] = span("metrics.wer")["s"]
    m["metrics.oracle_compositional.s"] = span("metrics.oracle_compositional")["s"]

    rtt_us = span("wire.round_trip")["durations"] * 1e6
    client_s = span("wire.client")["s"]
    compute_s = server.get("compute_s", 0.0)
    m["wire.round_trips"] = span("wire.round_trip")["calls"]
    m["wire.client_s"] = client_s
    m["wire.server_compute_s"] = compute_s
    m["wire.wait_s"] = client_s - compute_s
    m["wire.rtt_us_p50"] = _pct(rtt_us, 50)
    m["wire.rtt_us_p99"] = _pct(rtt_us, 99)
    m["wire.bytes_out"] = sum(len(json.dumps(p)) + 1 for p in tr.samples.get("wire.payloads", []))
    m["wire.bytes_in"] = c["wire.bytes_in"]
    m["wire.errors"] = tr.errors["wire.client"] + tr.errors["wire.connect"]
    return m
