"""What a command pays before it runs, and the names the package serves.

Each CLI command starts a fresh interpreter and imports `latefuse.cli`.
That import loads what a command without an endpoint runs, and no more:
`latefuse.wire` (with socket, selectors and subprocess) is imported when
a command names an endpoint, and hashlib when `simulate` draws a corpus.
The package serves the wire names through a module `__getattr__`, so
every name it exported before still resolves. Tests that need a fresh
interpreter start one, with PYTHONPATH set to this tree's `src`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latefuse
from latefuse import cli, wire

from test_wire import HASH_CONTEXTS, HashProvider, WatchedServer

SRC = Path(latefuse.__file__).resolve().parents[1]
DEFERRED = ("latefuse.wire", "socket", "selectors", "subprocess", "hashlib")
# what every command runs: the import probe must keep paying for these
EAGER = ("numpy", "argparse", "json", *(f"latefuse.{name}" for name in (
    "core", "corpus", "providers", "decoding", "fusion", "metrics", "calibration")))
WIRE_NAMES = ("ExternalProvider", "ProviderServer", "connect_external", "stdio_serve")
# every name `latefuse` bound before the wire names were served lazily
PUBLIC_NAMES = (
    "CalibrationReport", "fit_temperature", "TokenSeq", "Vocabulary", "argmax_token",
    "entropy", "softmax_with_temperature", "ChannelSpec", "CorpusRecord", "corrupt",
    "generate_corpus", "load_corpus", "sample_references", "save_corpus", "DecodeResult",
    "beam_search", "fused_greedy_decode", "greedy_decode", "FusionConfig", "FusionStep",
    "uadf_weight", "ScoreReport", "oracle_compositional", "oracle_nbest", "wer", "werr",
    "AcousticChannel", "NgramCorrector", "NgramModel", "ProviderSpec", "UtteranceContext",
    "train_ngram_corrector", *WIRE_NAMES, "__version__",
    "calibration", "core", "corpus", "decoding", "errors", "fusion", "metrics", "providers",
    "wire",
)


def fresh(code: str, *flags: str):
    """Run `code` in a fresh interpreter that imports latefuse from this
    tree; the JSON value of the last line it prints."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(names) -> str:
    """Code that prints which of `names` are in sys.modules."""
    return f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"


def decode_argv(endpoint, tmp_path, abc_vocab):
    abc_vocab.save(tmp_path / "vocab.txt")
    (tmp_path / "test.jsonl").write_text(json.dumps(
        {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
    return ["decode", "--mode", "llm", "--llm-endpoint", endpoint,
            "--corpus", str(tmp_path / "test.jsonl"), "--vocab", str(tmp_path / "vocab.txt"),
            "--timeout", "5", "--out", str(tmp_path / "out.jsonl")]


class TestStartup:
    @pytest.mark.parametrize("module", ["latefuse", "latefuse.cli"])
    def test_import_loads_no_wire_stack_and_no_hashlib(self, module):
        assert fresh(f"import json, sys, {module}\n" + loaded(DEFERRED)) == []

    def test_cli_import_loads_what_every_command_runs(self):
        assert fresh("import json, sys, latefuse.cli\n" + loaded(EAGER)) == list(EAGER)

    def test_commands_without_an_endpoint_load_no_wire_stack(self, tmp_path):
        d = tmp_path
        commands = [
            ["simulate", "--out-dir", d, "--n-train", "20", "--n-val", "3", "--n-test", "3"],
            ["train-lm", "--corpus", d / "train.jsonl", "--vocab", d / "vocab.txt",
             "--out", d / "lm.json"],
            ["decode", "--mode", "uadf", "--corpus", d / "test.jsonl", "--vocab", d / "vocab.txt",
             "--lm-model", d / "lm.json", "--manifest", d / "manifest.json",
             "--out", d / "uadf.jsonl"],
            ["score", "--corpus", d / "test.jsonl", "--hyp", f"uadf={d / 'uadf.jsonl'}",
             "--out", d / "score.json"],
        ]
        code = "\n".join([
            "import json, sys",
            "from latefuse import cli",
            "after = []",
            f"for argv in {[[str(arg) for arg in argv] for argv in commands]!r}:",
            "    assert cli.main(argv) == 0, argv",
            f"    after.append([m for m in {list(DEFERRED)!r} if m in sys.modules])",
            "print(json.dumps(after))",
        ])
        # simulate imports hashlib to seed each record; no command imports the wire
        assert fresh(code) == [["hashlib"]] * 4

    def test_endpoint_decode_imports_wire_and_closes_its_connection(self, abc_vocab, tmp_path):
        with WatchedServer(HashProvider(abc_vocab), {"u0": HASH_CONTEXTS["u0"]}) as server:
            code = "\n".join([
                "import json, sys",
                "from latefuse import cli",
                'before = "latefuse.wire" in sys.modules',
                f"code = cli.main({decode_argv(server.address, tmp_path, abc_vocab)!r})",
                'print(json.dumps([before, "latefuse.wire" in sys.modules, code]))',
            ])
            # a socket the command leaves open is an error on stderr here
            assert fresh(code, "-X", "dev", "-W", "error::ResourceWarning") == [False, True, 0]
            assert server.ended.acquire(timeout=10.0)

    def test_cli_connects_through_the_wire_module_at_call_time(self, abc_vocab, tmp_path,
                                                                monkeypatch):
        """A wrapper put on `wire.connect_external` (as the bench's tracer
        does) sees every connection a command opens."""
        calls = []
        connect = wire.connect_external
        monkeypatch.setattr(wire, "connect_external",
                            lambda *args, **kwargs: calls.append(args) or connect(*args, **kwargs))
        with WatchedServer(HashProvider(abc_vocab), {"u0": HASH_CONTEXTS["u0"]}) as server:
            assert cli.main(decode_argv(server.address, tmp_path, abc_vocab)) == 0
            assert server.ended.acquire(timeout=10.0)
            assert [endpoint for endpoint, _ in calls] == [server.address]


class TestPublicNames:
    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_resolves_by_getattr_and_by_from_import(self, name):
        namespace = {}
        exec(f"from latefuse import {name}", namespace)
        assert namespace[name] is getattr(latefuse, name)

    def test_wire_names_resolve_after_a_bare_import(self):
        code = "\n".join([
            "import json, sys, latefuse",
            'before = "latefuse.wire" in sys.modules',
            f"missing = sorted(set({list(WIRE_NAMES) + ['wire']!r}) - set(dir(latefuse)))",
            "wire = latefuse.wire",
            "from latefuse import ExternalProvider, ProviderServer, connect_external, stdio_serve",
            "same = [ExternalProvider is wire.ExternalProvider, ProviderServer is "
            "wire.ProviderServer, connect_external is wire.connect_external, "
            "stdio_serve is wire.stdio_serve]",
            "print(json.dumps([before, missing, wire.__name__, same]))",
        ])
        assert fresh(code) == [False, [], "latefuse.wire", [True] * 4]

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(latefuse))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="module 'latefuse' has no attribute 'nope'"):
            latefuse.nope
        assert not hasattr(latefuse, "ExternalProviders")
        with pytest.raises(ImportError, match="cannot import name 'nope'"):
            exec("from latefuse import nope", {})
