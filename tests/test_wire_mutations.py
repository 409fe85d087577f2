"""Seeded mutation tests of the wire's step replies and requests.

A shim between the client and a real `ProviderServer` relays every
request and reply of one command, and changes one step reply with one
seeded mutation: a header node replaced by one of
`test_malformed_inputs.MUTANTS` or deleted; "logits_bytes" moved by 8 or
doubled; the frame cut short (and the connection closed) or extended; or
a "rows" count dropped, duplicated, moved by one, or set to 0 or
MAX_AHEAD + 1. The commands are a decode that announces its set
to a served corrector, a decode that does not announce it to a served
acoustic model, and a calibration of a served corrector. A mutated run
must exit 4 and leave no output file, unless its mutation is on HARMLESS,
whose entries each say why the run may succeed; its output must then
equal the unmutated run's byte for byte. No run may raise, print a
traceback or emit a warning. A step reply sent twice, or the reply to
another step request sent in its place, must fail the same way with exit
4: the reply's "id" does not pair with the request. So must a step reply
whose counts of two argmax entries are swapped: their rows no longer
stop where the server's argmax stops them.

The requests the shim relays on a clean run are mutated the same way,
one node each, and sent to the server after a hello. Each must get one
reply: an error header without a frame, or a step reply whose frame
holds the rows it counts. The unmutated request sent next must get
the bytes it gets on a fresh connection. The seeds and the numbers of
cases are fixed, so the same cases run each time.
"""

import contextlib
import json
import random
import socket
import threading
from dataclasses import fields

import pytest

from latefuse import corpus
from latefuse.core import Vocabulary
from latefuse.providers import AcousticChannel, NgramCorrector
from latefuse.wire import MAX_AHEAD, ProviderServer
from test_malformed_inputs import DELETE, MUTANTS, mutate, nodes, run

SEED = 29
CASES_PER_COMMAND = 15
REQUEST_CASES_PER_COMMAND = 50
# a mutated run waits this long for bytes a mutated header promised
TIMEOUT = "0.3"

# mutation kind -> (when a run it changes may succeed, given the reply's
# header and whether it is the run's last, and why)
HARMLESS = {
    "frame extended": (lambda header, last: last,
                       "bytes past the last reply of a run pair with no later request, "
                       "and every row the run used was its own"),
}


def harmless(kind, header: dict, last: bool) -> bool:
    return kind in HARMLESS and HARMLESS[kind][0](header, last)


class Shim:
    """A relay of one connection to the server at `upstream`. The reply to
    the step request numbered `target` (from 0) goes to `change`, which
    returns the bytes to send instead and whether to hang up after them.
    `requests` keeps each request line, the hello's first, and `headers`
    and `replies` the header and the bytes of each step reply as the
    server sent it."""

    def __init__(self, upstream: str, target=None, change=None):
        self._upstream = upstream
        self._target, self._change = target, change
        self.requests, self.headers, self.replies = [], [], []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()
        return f"{host}:{port}"

    def _serve(self):
        host, _, port = self._upstream.rpartition(":")
        try:
            conn, _ = self._sock.accept()
            with conn, conn.makefile("rb") as client, \
                    socket.create_connection((host, int(port)), timeout=10) as up, \
                    up.makefile("rb") as server:
                for line in client:
                    self.requests.append(line)
                    up.sendall(line)
                    head = server.readline()
                    header = json.loads(head)
                    reply, hang_up = head + server.read(header.get("logits_bytes", 0)), False
                    if json.loads(line)["op"] == "step":
                        self.replies.append(reply)
                        if len(self.headers) == self._target:
                            reply, hang_up = self._change(header, reply[len(head):])
                        self.headers.append(header)
                    conn.sendall(reply)
                    if hang_up:
                        return
        except OSError:
            pass  # the client went away
        finally:
            self._sock.close()

    def close(self):
        with contextlib.suppress(OSError):  # wakes an `accept` that no client answered
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def line(header: dict) -> bytes:
    return (json.dumps(header) + "\n").encode()


def choose_mutation(rng: random.Random, header: dict, frame: bytes, size: int):
    """(kind, what, reply, hang up) for one seeded mutation of the step
    reply `header` + `frame` over a vocabulary of `size` ids."""
    kind = rng.choice(["node", "logits_bytes", "frame", "rows"])
    if kind == "node":
        path = rng.choice(list(nodes(header)))
        mutation = rng.choice(list(MUTANTS) + [DELETE] * bool(path))
        return kind, f"{list(path)} <- {mutation}", \
            (mutate(header, path, mutation) + "\n").encode() + frame, False
    if kind == "logits_bytes":
        n = len(frame)
        new = rng.choice([n + 8, n - 8, 2 * n])
        return kind, f"logits_bytes {n} -> {new}", line({**header, "logits_bytes": new}) + \
            frame, False
    if kind == "frame":
        if rng.random() < 0.5:
            cut = rng.randrange(len(frame))
            return "frame cut", f"frame cut to {cut} of {len(frame)} bytes, then hang up", \
                line(header) + frame[:cut], True
        extra = rng.randbytes(rng.choice([1, 8, len(frame)]))
        return "frame extended", f"frame extended by {len(extra)} bytes", \
            line(header) + frame + extra, False
    rows = list(header["rows"])
    i = rng.randrange(len(rows))
    op = rng.choice(["drop", "duplicate", "+1", "-1", "0", "MAX_AHEAD + 1"])
    if op == "drop":
        del rows[i]
    elif op == "duplicate":
        rows.insert(i, rows[i])
    else:
        rows[i] = {"+1": rows[i] + 1, "-1": rows[i] - 1, "0": 0}.get(op, MAX_AHEAD + 1)
    return f"rows {op}", f"rows[{i}] {op}", line({**header, "rows": rows}) + frame, False


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A 20/20/20 corpus, its corrector and channel served by three
    ProviderServers, and the argv of each command, less its endpoint,
    output and timeout."""
    root = tmp_path_factory.mktemp("wire-mutations")
    data = root / "data"
    for argv in (["simulate", "--out-dir", data, "--n-train", 20, "--n-val", 20,
                  "--n-test", 20, "--seed", 2],
                 ["train-lm", "--corpus", data / "train.jsonl", "--vocab", data / "vocab.txt",
                  "--out", root / "lm.json"]):
        assert run(argv)[0] == 0
    vocab = Vocabulary.load(data / "vocab.txt")
    llm = NgramCorrector.from_dict(json.loads((root / "lm.json").read_text()), vocab)
    manifest = json.loads((data / "manifest.json").read_text())
    asr = AcousticChannel(vocab, corpus.decoder_confusion(vocab, corpus.ChannelSpec(
        **{f.name: manifest[f.name] for f in fields(corpus.ChannelSpec)})))
    records = corpus.load_corpus(data / "val.jsonl") + corpus.load_corpus(data / "test.jsonl")
    contexts = {rec.id: corpus.record_context(rec, vocab)[0] for rec in records}
    common = ["--vocab", data / "vocab.txt"]
    commands = {
        "announced-decode": (llm, ["decode", "--mode", "uadf", "--corpus", data / "test.jsonl",
                                   "--manifest", data / "manifest.json", *common,
                                   "--llm-endpoint"]),
        "unannounced-decode": (asr, ["decode", "--mode", "uadf", "--corpus",
                                     data / "test.jsonl", "--lm-model", root / "lm.json",
                                     *common, "--asr-endpoint"]),
        "calibration": (llm, ["calibrate", "--which", "llm", "--corpus", data / "val.jsonl",
                              *common, "--llm-endpoint"]),
    }
    servers = {name: ProviderServer(provider, contexts).start()
               for name, (provider, _) in commands.items()}
    yield vocab.size, {name: (servers[name].address, argv)
                       for name, (_, argv) in commands.items()}
    for server in servers.values():
        server.stop()


def run_through(shim: Shim, argv, out, timeout):
    """`run` the command `argv` through `shim`, then close the shim."""
    try:
        return run([*argv, shim.address, "--timeout", timeout, "--out", out])
    finally:
        shim.close()


@pytest.fixture(scope="module")
def clean_runs(served, tmp_path_factory):
    """command -> (its output, and the request lines, step reply headers
    and step replies of its run through a shim that changes nothing)."""
    _, commands = served
    root = tmp_path_factory.mktemp("clean")
    runs = {}
    for command, (upstream, argv) in commands.items():
        shim = Shim(upstream)
        code, err, caught = run_through(shim, argv, root / command, "10")
        assert (code, caught) == (0, []), err
        runs[command] = (root / command).read_bytes(), shim.requests, shim.headers, shim.replies
    return runs


COMMANDS = ["announced-decode", "unannounced-decode", "calibration"]


@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_reply_fails_cleanly_or_is_harmless(served, clean_runs, tmp_path, command):
    size, commands = served
    upstream, argv = commands[command]
    good, _, headers, _ = clean_runs[command]
    failures = []
    for case in range(CASES_PER_COMMAND):
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        rng = random.Random(f"{SEED}:{command}:{case}")
        target = rng.randrange(len(headers))
        mutation = {}

        def change(header, frame):
            kind, what, reply, hang_up = choose_mutation(rng, header, frame, size)
            mutation.update(kind=kind, what=what)
            return reply, hang_up

        code, err, caught = run_through(Shim(upstream, target, change), argv,
                                        case_dir / "out", TIMEOUT)
        what = f"reply {target} of {len(headers)}, {mutation.get('what')}: exit {code}"
        kind = mutation.get("kind")
        last = err.strip().rpartition("\n")[2]
        if caught or "Traceback" in err:
            failures.append(f"{what}, {caught or last}")
        elif code == 4:
            if list(case_dir.iterdir()):
                failures.append(f"{what}, but left {sorted(p.name for p in case_dir.iterdir())}")
        elif code != 0 or not harmless(kind, headers[target], target == len(headers) - 1):
            failures.append(f"{what}, not on HARMLESS")
        elif (case_dir / "out").read_bytes() != good:
            failures.append(f"{what}, harmless, but its output differs")
    assert not failures, "\n".join(failures)


UNPAIRED_CASES_PER_COMMAND = 6


@pytest.mark.parametrize("kind", ["sent twice", "to another request"])
@pytest.mark.parametrize("command", COMMANDS)
def test_unpaired_reply_exits_4(served, clean_runs, tmp_path, command, kind):
    """One step reply sent twice, or replaced by the clean run's reply to
    another step request: the run exits 4 and leaves no output file. A
    reply sent twice is not the run's last, whose copy no request reads."""
    _, commands = served
    upstream, argv = commands[command]
    _, _, headers, replies = clean_runs[command]
    failures = []
    for case in range(UNPAIRED_CASES_PER_COMMAND):
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        rng = random.Random(f"{SEED}:unpaired {kind}:{command}:{case}")
        if kind == "sent twice":
            target = rng.randrange(len(headers) - 1)
            sent = 2 * replies[target]
        else:
            target = rng.randrange(len(headers))
            other = rng.choice([i for i in range(len(headers)) if i != target])
            sent = replies[other]
        code, err, caught = run_through(Shim(upstream, target, lambda *_: (sent, False)), argv,
                                        case_dir / "out", TIMEOUT)
        what = f"reply {target} of {len(headers)} {kind}: exit {code}"
        if caught or "Traceback" in err:
            failures.append(f"{what}, {caught or err.strip().rpartition(chr(10))[2]}")
        elif code != 4:
            failures.append(what)
        elif list(case_dir.iterdir()):
            failures.append(f"{what}, but left {sorted(p.name for p in case_dir.iterdir())}")
    assert not failures, "\n".join(failures)


def test_swapped_argmax_counts_exit_4(served, clean_runs, tmp_path):
    """The first step reply of the announced decode whose argmax entries
    got different counts, with two of those counts swapped: each count is
    still in [1, MAX_AHEAD] and the frame still holds their sum, but the
    rows no longer stop where the server's argmax stops them."""
    _, commands = served
    upstream, argv = commands["announced-decode"]
    _, (_, *steps), headers, _ = clean_runs["announced-decode"]
    for target, (request, header) in enumerate(zip(steps, headers)):
        counts = {header["rows"][i]: i for i, entry in enumerate(json.loads(request)["entries"])
                  if "follow" not in entry}
        if len(counts) > 1:
            break
    else:
        pytest.fail("no step reply of the announced decode has two argmax counts that differ")
    i, j = list(counts.values())[:2]
    rows = list(header["rows"])
    rows[i], rows[j] = rows[j], rows[i]
    code, err, caught = run_through(
        Shim(upstream, target, lambda header, frame: (line({**header, "rows": rows}) + frame,
                                                      False)),
        argv, tmp_path / "out", TIMEOUT)
    assert (code, caught) == (4, []), err
    assert "must stop at the first whose argmax" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def exchange(address: str, lines) -> bytes:
    """Every byte the server at `address` sends on a fresh connection that
    sends `lines`, then shuts its side for writing."""
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"".join(lines))
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def split_reply(data: bytes, size: int):
    """(the first reply of `data`, the bytes after it) if that reply is an
    error header without a frame, or a step reply whose frame holds as
    many rows of `size` logits as its "rows" counts; else (None, why
    not)."""
    head, newline, rest = data.partition(b"\n")
    if not newline:
        return None, f"no reply line in {data[:200]!r}"
    header = json.loads(head)
    if set(header) == {"error"} and isinstance(header["error"], str):
        return header, rest
    rows = header.get("rows") if set(header) == {"id", "logits_bytes", "rows"} else None
    if not (isinstance(rows, list) and all(type(n) is int and n > 0 for n in rows)):
        return None, f"the reply {head[:200]!r}"
    n_bytes = 8 * size * sum(rows)
    if header["logits_bytes"] != n_bytes or len(rest) < n_bytes:
        return None, f"{len(rest)} bytes after the reply {head[:200]!r}"
    return header, rest[n_bytes:]


@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_request_gets_one_reply_and_the_next_is_served(served, clean_runs, command):
    size, commands = served
    upstream, _ = commands[command]
    _, (hello, *steps), _, _ = clean_runs[command]
    fresh = {}  # step request line -> what a fresh connection gets for a hello and it
    failures = []
    for case in range(REQUEST_CASES_PER_COMMAND):
        rng = random.Random(f"{SEED}:request:{command}:{case}")
        at = rng.randrange(len(steps))
        good = steps[at]
        doc = json.loads(good)
        path = rng.choice(list(nodes(doc)))
        mutation = rng.choice(list(MUTANTS) + [DELETE] * bool(path))
        mutant = (mutate(doc, path, mutation) + "\n").encode()
        if good not in fresh:
            fresh[good] = exchange(upstream, [hello, good])
        expected = fresh[good]
        greeting = expected[:expected.index(b"\n") + 1]
        got = exchange(upstream, [hello, mutant, good])
        what = f"request {at} of {len(steps)}, {list(path)} <- {mutation}"
        header, after = split_reply(got[len(greeting):], size) \
            if got.startswith(greeting) else (None, "no hello reply")
        if header is None:
            failures.append(f"{what}: {after}")
        elif after != expected[len(greeting):]:
            failures.append(f"{what}: {header!r:.200}, then the next reply differs")
    assert not failures, "\n".join(failures)
