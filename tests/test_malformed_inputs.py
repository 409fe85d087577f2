"""Seeded mutation test of every JSON input file.

One node of a good file is replaced by a mutant value, or one key is
deleted, and the command that reads the file runs in-process. It must
exit 2 (config), 3 (data) or 4 (provider-io) and leave no output file,
unless the mutation is on HARMLESS, whose entries each say why the run
may succeed. No run may raise, print a traceback or emit a warning. The
seed and the number of cases are fixed, so the same cases run each time.
"""

import ast
import contextlib
import copy
import io
import json
import random
import traceback
import warnings
from pathlib import Path

import pytest

import latefuse
from latefuse.cli import main

SEED = 13
CASES_PER_FILE = 50

# name -> the JSON text put in place of the node
MUTANTS = {
    "null": "null", "true": "true", "-1": "-1", "1.5": "1.5", "2**70": str(2 ** 70),
    "401 digits": "9" * 401, "NaN": "NaN", "Infinity": "Infinity", '""': '""',
    "[]": "[]", "{}": "{}", "5000 digits": "9" * 5000, "2000 deep": "[" * 2000 + "]" * 2000,
}
DELETE = "delete"
ANY = None

# (file, path prefix, mutations or ANY, why the run may succeed); a path
# holds object keys, and "*" for any list index
HARMLESS = [
    ("corpus", ("id",), {"-1", "2**70"}, "an integer id is read as its decimal string"),
    ("corpus", ("id",), {'""'}, "an empty id is still a distinct string"),
    ("corpus", ("observation",), {'""'},
     "an empty observation is read as BOS and EOS; the acoustic channel then offers EOS"),
    ("corpus", ("observation",), {DELETE}, "a missing observation falls back to the 1-best"),
    ("corpus", ("nbest", "*"), {'""'}, "an empty plain-string hypothesis is an empty ASR output"),
    ("corpus", ("nbest", "*", "text"), {'""'}, "an empty hypothesis text is an empty ASR output"),
    ("corpus", ("nbest", "*", "score"), {"null", DELETE},
     "a hypothesis without a score gets its rank-derived fallback"),
    ("corpus", ("nbest", "*", "score"), {"-1", "1.5", "2**70"}, "any finite score is a score"),
    ("lm", ("smoothing",), {"1.5", "2**70"}, "a finite non-negative smoothing is in range"),
    ("lm", ("ngrams",), {"[]"}, "a model without n-grams is its smoothing alone"),
    *[("manifest", (key,), ANY, "decode reads only the five channel fields of a manifest")
      for key in ("n_train", "n_val", "n_test", "beam", "n_best", "mean_len", "vocab_size")],
    ("manifest", ("concentration",), {"1.5", "2**70"}, "a finite positive concentration"),
    ("manifest", ("seed",), {"2**70"}, "a non-negative integer seed"),
    *[("calibration", (key,), ANY, "a calibration report is read for its tau only")
      for key in ("mean_confidence", "ter", "n_dec", "bins", "ece", "clamped")],
    ("calibration", ("tau",), {"1.5", "2**70"}, "a positive finite temperature"),
    ("hyp", ("terminated",), ANY, "score reads only a hypothesis's id and text"),
    ("hyp", ("text",), {'""'}, "an empty hypothesis text is an empty output, read as EOS only"),
    ("config", (), {"null", DELETE}, "a config key that is null or left out keeps its default"),
    ("config", ("w_asr",), ANY, "uadf ignores the static weight"),
    ("config", ("timeout",), ANY, "no endpoint is set, so no timeout is used"),
    ("config", ("llm_endpoint",), {'""'}, "an empty endpoint is no endpoint"),
    ("config", ("asr_endpoint",), {'""'}, "an empty endpoint is no endpoint"),
    ("config", ("steps_log",), {'""'}, "an empty steps-log path writes no steps log"),
    ("config", ("calibration_llm",), {'""'}, "an empty report path leaves tau1 at 1"),
    ("config", ("calibration_asr",), {'""'}, "an empty report path leaves tau2 at 1"),
    ("config", ("tau1",), {"1.5", "2**70"}, "a positive finite tau1 overrides the report"),
    ("config", ("tau2",), {"1.5", "2**70"}, "a positive finite tau2 overrides the report"),
    ("config", ("max_len_factor",), {"1.5", "2**70"},
     "a finite positive length cap; each utterance still ends at EOS"),
]


def harmless(kind, path, mutation) -> bool:
    shape = tuple("*" if isinstance(key, int) else key for key in path)
    return any(file == kind and shape[:len(prefix)] == prefix
               and (mutations is ANY or mutation in mutations)
               for file, prefix, mutations, _reason in HARMLESS)


def run(argv):
    """(exit code, stderr, warnings) of one in-process command; an exception
    it raises reads as exit 1 with its traceback on stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except Exception:
            code = 1
            traceback.print_exc()
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 20/3/3 corpus and every JSON file made from it, as `decode` and
    `score` read them."""
    root = tmp_path_factory.mktemp("malformed")
    data = root / "data"
    steps = [
        ["simulate", "--out-dir", data, "--n-train", 20, "--n-val", 3, "--n-test", 3,
         "--seed", 2],
        ["train-lm", "--corpus", data / "train.jsonl", "--vocab", data / "vocab.txt",
         "--out", root / "lm.json"],
        ["calibrate", "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
         "--which", "llm", "--lm-model", root / "lm.json", "--out", root / "cal-llm.json"],
        ["calibrate", "--corpus", data / "val.jsonl", "--vocab", data / "vocab.txt",
         "--which", "asr", "--manifest", data / "manifest.json", "--out", root / "cal-asr.json"],
        decode_argv({}, root, root / "hyp.jsonl"),
    ]
    for argv in steps:
        assert run(argv)[0] == 0
    return root


def decode_argv(files, root, out):
    """decode --mode uadf, reading `files` (flag -> path) in place of the good ones."""
    data = root / "data"
    paths = {"corpus": data / "test.jsonl", "vocab": data / "vocab.txt",
             "lm-model": root / "lm.json", "manifest": data / "manifest.json",
             "calibration-llm": root / "cal-llm.json",
             "calibration-asr": root / "cal-asr.json", **files}
    return ["decode", "--mode", "uadf", "--out", out,
            *[arg for flag, path in paths.items() for arg in (f"--{flag}", path)]]


# file -> (its name, whether it holds JSON lines, the argv that reads `mutant`)
FILES = {
    "corpus": ("data/test.jsonl", True,
               lambda root, mutant, out: decode_argv({"corpus": mutant}, root, out)),
    "lm": ("lm.json", False,
           lambda root, mutant, out: decode_argv({"lm-model": mutant}, root, out)),
    "manifest": ("data/manifest.json", False,
                 lambda root, mutant, out: decode_argv({"manifest": mutant}, root, out)),
    "calibration": ("cal-llm.json", False,
                    lambda root, mutant, out: decode_argv({"calibration-llm": mutant}, root, out)),
    "hyp": ("hyp.jsonl", True,
            lambda root, mutant, out: ["score", "--corpus", root / "data" / "test.jsonl",
                                       "--hyp", f"a={mutant}", "--out", out]),
    "config": ("decode-uadf.config.json", False,
               lambda root, mutant, out: ["decode", "--config", mutant]),
}


def nodes(value, path=()):
    """Paths to `value` and each node below it; a list shows its first two items."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:2])
    else:
        children = ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(doc, path, mutation) -> str:
    """The JSON text of `doc` with the node at `path` replaced or deleted."""
    if not path:
        return MUTANTS[mutation]
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DELETE:
        del parent[path[-1]]
        return json.dumps(doc)
    mark = "@mutant@"
    parent[path[-1]] = mark
    return json.dumps(doc).replace(json.dumps(mark), MUTANTS[mutation])


@pytest.mark.parametrize("kind", list(FILES))
def test_mutated_file_fails_cleanly_or_is_harmless(inputs, tmp_path, kind):
    name, json_lines, argv = FILES[kind]
    good = (inputs / name).read_text(encoding="utf-8")
    docs = good.splitlines() if json_lines else [good]
    rng = random.Random(f"{SEED}:{kind}")
    failures = []
    for case in range(CASES_PER_FILE):
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        out = case_dir / "out.json"
        line = rng.randrange(len(docs))
        doc = json.loads(docs[line])
        if kind == "config":
            doc["out"] = str(out)
        path = rng.choice(list(nodes(doc)))
        mutation = rng.choice(list(MUTANTS) + ([DELETE] if path and isinstance(path[-1], str)
                                               else []))
        mutant = case_dir / f"mutant{Path(name).suffix}"
        lines = list(docs)
        lines[line] = mutate(doc, path, mutation)
        mutant.write_text("\n".join(lines) + "\n", encoding="utf-8")

        code, err, caught = run(argv(inputs, mutant, out))
        what = f"{kind} line {line} {list(path)} <- {mutation}: exit {code}"
        last = err.strip().rpartition("\n")[2]
        if caught or "Traceback" in err:
            failures.append(f"{what}, {caught or last}")
        elif code == 0 and not harmless(kind, path, mutation):
            failures.append(f"{what}, not on HARMLESS")
        elif code != 0 and (out.exists() or list(case_dir.glob("*.config.json"))):
            failures.append(f"{what}, but left {sorted(p.name for p in case_dir.iterdir())}")
    assert not failures, "\n".join(failures)


def test_core_loads_is_the_one_json_parse():
    """Every input file reaches JSON through `core.loads`, which turns each
    way parsing fails into a ValueError; no other code calls json.load(s)."""
    sites = []
    for path in sorted(Path(latefuse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                sites += [(path.name, f"from json import {a.name}") for a in node.names]
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                    and isinstance(node.value, ast.Name) and node.value.id == "json":
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                sites.append((path.name, getattr(scope, "name", "<module>")))
    assert sites == [("core.py", "loads")]
