"""Serve the n-gram corrector over TCP loopback for the `wire` workload.

Usage: python3 bench/wire_server.py --data-dir DIR --lm-model lm.json

Knows the contexts of the val and test splits in DIR. Prints
{"address": "host:port"} once listening, serves until its stdin closes,
then prints {"compute_s": ..., "calls": ...}: the time spent inside the
provider's next_logits, so the client can split its round-trip time into
compute and wait. Run with PYTHONPATH pointing at the latefuse sources.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

from latefuse import cli, corpus, wire
from latefuse.core import Vocabulary
from latefuse.providers import ProviderSpec


class TimedProvider:
    """Delegates to a provider and sums the time of its next_logits calls."""

    def __init__(self, provider):
        self.vocab = provider.vocab
        self._provider = provider
        self._lock = threading.Lock()
        self.compute_s = 0.0
        self.calls = 0

    def next_logits(self, history, ctx):
        t0 = perf_counter()
        logits = self._provider.next_logits(history, ctx)
        dt = perf_counter() - t0
        with self._lock:
            self.compute_s += dt
            self.calls += 1
        return logits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--lm-model", required=True)
    args = parser.parse_args(argv)

    data = Path(args.data_dir)
    vocab = Vocabulary.load(data / "vocab.txt")
    provider = TimedProvider(cli.build_provider(
        ProviderSpec("ngram-corrector", {"model_path": args.lm_model}), vocab))
    contexts = {}
    for split in ("val", "test"):
        for rec in corpus.load_corpus(data / f"{split}.jsonl"):
            contexts[rec.id] = corpus.record_context(rec, vocab)[0]

    server = wire.ProviderServer(provider, contexts).start()
    try:
        print(json.dumps({"address": server.address}), flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    print(json.dumps({"compute_s": provider.compute_s, "calls": provider.calls}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
