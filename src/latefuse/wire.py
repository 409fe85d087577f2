"""Wire protocol for out-of-process providers: JSON request lines, and
replies that are a JSON header line, for a step followed by raw logits.

The client opens with a handshake
    {"op": "hello", "vocab_size": V, "vocab_hash": "<hex64>",
     "logits_encoding": "f64le-frame"}  ->  {"ok": true}
then sends step requests, each history starting with BOS
    {"op": "step", "utt": "<id>", "history": [ids]}  ->  {"logits_bytes": 8 * V}
A step reply's header line is followed by exactly "logits_bytes" bytes,
its frame: the V logits as little-endian float64s. These are the exact
values, so a served built-in provider decodes bit-identically to
in-process use. Header line and frame go out in one write. Hello and
error replies are header lines without a frame. The server refuses a
hello without that "logits_encoding", and ends the session after a
first request that is not a hello it accepts.

A step request may also carry "follow": [ids], tokens the client will
append, and "ahead": n, a number of tokens to extend past them along the
provider's own argmax of the raw logits (lowest id on ties), stopping once
that argmax is EOS. The server then replies with
{"logits_bytes": N, "path": [ids]} and a frame of one row of V logits for
history and one for each history + path[:i], at most MAX_AHEAD rows. A
reply without "path" is the one row for history, so a server that ignores
"follow" and "ahead" is served one step per round trip. The client keeps
the unread rows of its latest reply and answers later steps along the
path from them. It asks for as many argmax tokens as the decode has been
likely to take (see `_ahead`): a greedy decode that follows the provider's
argmax makes one round trip per utterance, plus one each time it leaves
it, and one that mostly leaves it soon sends plain one-row requests. This
relies on a served provider returning the same logits for the same
(utt, history).

Replies and requests are capped: a reply header longer than
MAX_HEADER_BYTES or announcing more than `max_logits_bytes(V)`, and a
request line longer than MAX_REQUEST_BYTES, end the exchange. Endpoints
are either "host:port" strings or argv lists for a subprocess bridged
over stdin/stdout.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import sys
import threading

import numpy as np

from .core import Vocabulary
from .errors import ConfigurationError, ProviderIOError
from .providers import UtteranceContext

# The hello's required "logits_encoding": a step reply's header line is
# followed by a frame of raw little-endian float64 logits.
LOGITS_ENCODING = "f64le-frame"
# The most rows of logits one step reply carries: the one for the request's
# history and one per token of its path.
MAX_AHEAD = 32
# The client asks for a row of the server's argmax path only while the
# chance that the decode takes it is at least this. A row the decode takes
# saves a round trip, and every row costs its encoding and decoding, so
# this pays while a row costs less than the rest of a round trip. On
# loopback, with the n-gram corrector served from a process sharing the
# client's one core, a row of 200 logits costs 20-26 us and a one-row
# round trip 130-150 us (2-core VM), so a row costs about a sixth of it.
MIN_TAKE_CHANCE = 0.5
# A request line longer than this, newline included, gets an error reply
# and ends the connection; the longest hello or step request is far shorter.
MAX_REQUEST_BYTES = 1 << 20
# The longest reply header line the client reads, newline excluded: far
# more than a path of MAX_AHEAD - 1 ids or an error message takes.
MAX_HEADER_BYTES = 4096


def max_logits_bytes(vocab_size: int) -> int:
    """The longest frame the client reads: MAX_AHEAD rows of float64s."""
    return 8 * MAX_AHEAD * vocab_size


class _LineChannel:
    """Request/reply framing over one byte stream: a request is one line,
    a reply one header line, then as many raw bytes as its "logits_bytes".

    Bytes read past a reply are kept, not dropped. A byte the provider
    sends beyond the one reply per request means replies no longer pair
    with requests, so the exchange fails with it. A header longer than
    MAX_HEADER_BYTES fails as soon as it is, unread to its end, and one
    whose "logits_bytes" is not an integer in [0, `max_frame`] fails
    before any byte of its frame is read.
    """

    def __init__(self, fd: int, recv, max_frame: int):
        self._fd = fd  # polled, without blocking, for bytes nobody asked for
        self._recv = recv  # the next chunk, b"" at end of stream
        self._max_frame = max_frame
        self._buffer = bytearray()

    def exchange(self, send, request: dict) -> tuple[dict, bytearray]:
        """Send `request` as one line through `send`; return the reply's
        parsed header and its frame, empty for a header without one."""
        try:
            if not self._buffer and select.select([self._fd], [], [], 0)[0]:
                self._buffer += self._recv()
            if self._buffer:
                raise ProviderIOError(
                    f"provider sent {len(self._buffer)} bytes no request asked for")
            send((json.dumps(request) + "\n").encode("utf-8"))
            # the first newline ends the header: JSON escapes every other one
            while ((end := self._buffer.find(b"\n", 0, MAX_HEADER_BYTES + 1)) < 0
                   and len(self._buffer) <= MAX_HEADER_BYTES):
                self._read()
            if end < 0:
                raise ProviderIOError(
                    f"provider reply header is longer than {MAX_HEADER_BYTES} bytes")
            header = _parse_line(bytes(self._buffer[:end + 1]))
            size = header.get("logits_bytes", 0)
            if type(size) is not int or not 0 <= size <= self._max_frame:
                raise ProviderIOError(f"'logits_bytes' must be an integer in "
                                      f"[0, {self._max_frame}], got {size!r:.200}")
            del self._buffer[:end + 1]
            while len(self._buffer) < size:
                self._read()
        except OSError as exc:
            raise ProviderIOError(f"transport failure: {exc}") from exc
        if len(self._buffer) > size:
            raise ProviderIOError("provider sent more than one reply for one request")
        frame, self._buffer = self._buffer, bytearray()
        return header, frame

    def _read(self):
        chunk = self._recv()
        if not chunk:
            raise ProviderIOError("provider closed its output")
        self._buffer += chunk


class _TcpTransport:
    def __init__(self, host: str, port: int, timeout: float, max_frame: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProviderIOError(f"cannot connect to {host}:{port}: {exc}") from exc
        # recv waits at most `timeout`, then raises (the socket keeps it)
        self._lines = _LineChannel(self._sock.fileno(), lambda: self._sock.recv(65536),
                                   max_frame)

    def round_trip(self, payload: dict) -> tuple[dict, bytearray]:
        return self._lines.exchange(self._sock.sendall, payload)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class _ProcTransport:
    def __init__(self, command: list[str], timeout: float, max_frame: int):
        self._timeout = timeout
        try:
            self._proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderIOError(f"cannot start {command!r}: {exc}") from exc
        self._lines = _LineChannel(self._proc.stdout.fileno(), self._recv, max_frame)

    def _send(self, data: bytes):
        self._proc.stdin.write(data)
        self._proc.stdin.flush()

    def _recv(self) -> bytes:
        fd = self._proc.stdout.fileno()
        if not select.select([fd], [], [], self._timeout)[0]:
            raise ProviderIOError(f"provider timed out after {self._timeout}s")
        return os.read(fd, 65536)

    def round_trip(self, payload: dict) -> tuple[dict, bytearray]:
        return self._lines.exchange(self._send, payload)

    def close(self):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
        self._proc.stdin.close()  # every request was flushed, so nothing is pending
        self._proc.stdout.close()


def _parse_line(line: bytes, kind: str = "response") -> dict:
    """The JSON object of one `kind` ("response" or "request") line."""
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProviderIOError(f"malformed {kind} line: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProviderIOError(f"expected a JSON object {kind}, got {type(msg).__name__}")
    return msg


def _is_token_id_list(value, size: int) -> bool:
    """A list of JSON integers in [0, size); a boolean is not one."""
    return isinstance(value, list) and all(type(t) is int and 0 <= t < size for t in value)


class ExternalProvider:
    """Client side of the wire protocol; validates every response.

    Only the unread rows of the latest step reply are kept, keyed by
    (utt, history); a step takes its row out, so callers that interleave
    utterances on one client evict each other's rows. A step the rows do
    not cover asks for the next stretch of the path `prefetch` announced,
    if the step is on it, or else for as many tokens of the provider's
    argmax path as `_ahead` gives for the rows the steps so far took and
    left. `round_trips`, `rows_received` and `rows_used` count step
    requests, the rows their replies carried and the rows a step read.
    """

    def __init__(self, transport, vocab: Vocabulary):
        self.vocab = vocab
        self._transport = transport
        self._rows = {}  # (utt, history) -> row of the latest reply no step has read
        self._plan = (None, ())  # (utt, history + follow) from `prefetch`, until fetched
        self._offered = 0  # rows of the latest reply along the server's argmax path
        self._taken = self._left = 0  # offered rows a step read; replies a step left early
        self._ahead = _ahead(0, 0)  # what the next request without a plan asks for
        self.round_trips = self.rows_received = self.rows_used = 0
        try:
            reply, _ = transport.round_trip(
                {"op": "hello", "vocab_size": vocab.size, "vocab_hash": vocab.content_hash(),
                 "logits_encoding": LOGITS_ENCODING}
            )
        except ProviderIOError:
            self.close()
            raise
        if reply.get("ok") is not True:
            self.close()
            raise ConfigurationError(
                f"provider refused handshake: {reply.get('error', reply)!r}"
            )

    def prefetch(self, history, follow, ctx: UtteranceContext):
        """Announce that `history` will be extended by `follow`: a later step
        along that path asks for the next MAX_AHEAD - 1 tokens of it."""
        self._plan = (ctx.utt_id, tuple(int(i) for i in (*history, *follow)))

    def next_logits(self, history, ctx: UtteranceContext) -> np.ndarray:
        key = (ctx.utt_id, tuple(history))
        row = self._rows.pop(key, None)
        if row is None:
            row = self._fetch(*key)
        self.rows_used += 1
        return row  # the client keeps no reference to it

    def _fetch(self, utt: str, history: tuple) -> np.ndarray:
        """One step round trip; its rows replace the kept ones. Returns the
        row for `history`."""
        if self._offered:  # the rows past the follow, those the steps may leave
            untaken = min(len(self._rows), self._offered)
            self._taken += self._offered - untaken
            self._left += bool(untaken)
            self._ahead = _ahead(self._taken, self._left)
        plan_utt, plan = self._plan
        on_plan = plan_utt == utt and plan[:len(history)] == history
        follow = list(plan[len(history):len(history) + MAX_AHEAD - 1]) if on_plan else []
        if not on_plan or len(history) + len(follow) == len(plan):
            self._plan = (None, ())  # the step left the plan, or fetches it to its end
        payload = {"op": "step", "utt": utt, "history": [int(i) for i in history]}
        if follow:
            payload["follow"] = follow
        elif self._ahead and not on_plan:  # the end of a plan asks for one row
            payload["ahead"] = self._ahead
        header, frame = self._transport.round_trip(payload)
        self.round_trips += 1
        rows, path = self._check_step_reply(header, frame, follow)
        self._rows = {(utt, history + tuple(path[:i])): rows[i] for i in range(1, len(rows))}
        self._offered = len(path[len(follow):])
        self.rows_received += len(rows)
        return rows[0]

    def _check_step_reply(self, header: dict, frame: bytearray, follow: list):
        """The (rows, V) logits and the path of a step reply; a reply
        without "path" carries the one row for the request's history."""
        if "logits_bytes" not in header:
            raise ProviderIOError(f"step reply carries no logits: {header!r}")
        size = self.vocab.size
        path = header.get("path", [])
        if "path" in header:
            if not _is_token_id_list(path, size):
                raise ProviderIOError(f"path must be a list of token ids in [0, {size}), "
                                      f"got {path!r}")
            if path[:len(follow)] != follow:
                raise ProviderIOError(
                    f"path {path!r} does not start with the follow {follow!r}")
        if len(frame) != (len(path) + 1) * size * 8:
            raise ProviderIOError(
                f"expected {len(path) + 1} x {size} logits, got {len(frame)} bytes")
        # a view of the frame, which no one else holds: writable, no copy
        logits = np.frombuffer(frame, dtype="<f8").astype(np.float64, copy=False)
        if not np.isfinite(logits).all():
            raise ProviderIOError("provider returned non-finite logits")
        return logits.reshape(len(path) + 1, size), path

    def close(self):
        self._transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _ahead(taken: int, left: int) -> int:
    """How many tokens of the server's argmax path to ask for, given that
    steps took `taken` offered rows and left `left` replies' paths early:
    as many as keep the chance of taking the last one, p ** n, at least
    MIN_TAKE_CHANCE. p, the chance of following the path one more step,
    is counted from the rows so far with a prior of 2 * MAX_AHEAD taken
    to 1 left, so the first request asks for a full reply. A decode that
    follows the path 3 steps in 4 comes to be offered 2 rows; one that
    follows it less than half the time, none, and then sends plain
    requests, as its counts no longer change."""
    p = (taken + 2 * MAX_AHEAD) / (taken + left + 2 * MAX_AHEAD + 1)
    return min(MAX_AHEAD - 1, int(math.log(MIN_TAKE_CHANCE) / math.log(p)))


def connect_external(endpoint, vocab: Vocabulary, timeout: float = 5.0) -> ExternalProvider:
    """Connect to "host:port" or spawn an argv-list subprocess endpoint."""
    if not 0 < timeout < math.inf:
        raise ConfigurationError(f"timeout must be finite and > 0, got {timeout}")
    max_frame = max_logits_bytes(vocab.size)
    if isinstance(endpoint, (list, tuple)):
        transport = _ProcTransport([str(c) for c in endpoint], timeout, max_frame)
    else:
        host, _, port = str(endpoint).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"endpoint must be host:port or argv list, got {endpoint!r}")
        transport = _TcpTransport(host, int(port), timeout, max_frame)
    return ExternalProvider(transport, vocab)


def _token_ids(msg: dict, field: str, size: int) -> tuple:
    value = msg.get(field, [])
    if not _is_token_id_list(value, size):
        raise ValueError(f"{field!r} must be a list of integer token ids in [0, {size}), "
                         f"got {value!r:.200}")
    return tuple(value)


def _lookahead(provider, history: tuple, follow: tuple, ahead: int,
               ctx: UtteranceContext):
    """Logits for `history` and for each longer history along the path:
    `follow`, then up to `ahead` argmax tokens short of EOS, at most
    MAX_AHEAD rows in all."""
    path = list(follow)
    rows = [provider.next_logits(history + tuple(path[:i]), ctx) for i in range(len(path) + 1)]
    n_rows = min(MAX_AHEAD, len(path) + 1 + ahead)
    while len(rows) < n_rows and (tok := int(np.argmax(rows[-1]))) != Vocabulary.EOS:
        path.append(tok)
        rows.append(provider.next_logits(history + tuple(path), ctx))
    return rows, path


def _hello_reply(msg: dict, vocab: Vocabulary) -> dict:
    if msg.get("vocab_size") != vocab.size:
        return {"ok": False, "error": "vocab_size mismatch"}
    if msg.get("vocab_hash") != vocab.content_hash():
        return {"ok": False, "error": "vocab_hash mismatch"}
    if msg.get("logits_encoding") != LOGITS_ENCODING:
        return {"ok": False, "error": f"'logits_encoding' must be {LOGITS_ENCODING!r}, "
                                      f"got {msg.get('logits_encoding')!r:.200}"}
    return {"ok": True}


def _handle_request(msg: dict, provider, contexts: dict[str, UtteranceContext],
                    greeted: bool) -> tuple[dict, bytes]:
    """The reply to one request: its header and, for a step, its frame. A
    bad request raises ValueError, whose message the error reply carries."""
    op = msg.get("op")
    if op == "hello":
        return _hello_reply(msg, provider.vocab), b""
    if not greeted:
        raise ValueError(f"the first request must be a hello, got op {op!r:.200}")
    if op != "step":
        raise ValueError(f"unknown op {op!r:.200}")
    ctx = contexts.get(msg.get("utt"))
    if ctx is None:
        raise ValueError(f"unknown utterance {msg.get('utt')!r:.200}")
    history = _token_ids(msg, "history", provider.vocab.size)
    if history[:1] != (Vocabulary.BOS,):
        raise ValueError(f"'history' must start with BOS ({Vocabulary.BOS}), "
                         f"got {list(history)!r:.200}")
    follow = _token_ids(msg, "follow", provider.vocab.size)
    if len(follow) >= MAX_AHEAD:
        raise ValueError(f"'follow' holds more than {MAX_AHEAD - 1} tokens")
    ahead = msg.get("ahead", 0)
    if type(ahead) is not int or ahead < 0:
        raise ValueError(f"'ahead' must be a non-negative integer, got {ahead!r:.200}")
    rows, path = _lookahead(provider, history, follow, ahead, ctx)
    frame = b"".join(np.asarray(row, dtype="<f8").tobytes() for row in rows)
    header = {"logits_bytes": len(frame)}
    if "follow" in msg or "ahead" in msg:  # a plain request gets a plain reply
        header["path"] = path
    return header, frame


def _serve_lines(reader, write, provider, contexts: dict[str, UtteranceContext]):
    """Answer each request line of `reader` through `write`, one call per
    reply: split writes of a header and its frame invite delayed-ACK stalls.

    Stops at EOF, after the reply to a first request that is not an
    accepted hello, after a refused hello, and after an over-long request
    line, which gets an error reply.
    """
    greeted = False
    while line := reader.readline(MAX_REQUEST_BYTES + 1):
        if len(line) > MAX_REQUEST_BYTES:
            write((json.dumps({"error": f"request line longer than {MAX_REQUEST_BYTES} bytes"})
                   + "\n").encode("utf-8"))
            return
        if not line.strip():
            continue
        try:
            reply, frame = _handle_request(_parse_line(line, "request"), provider, contexts,
                                           greeted)
        except Exception as exc:  # a bad request must not stop the server
            reply, frame = {"error": str(exc)}, b""
        write((json.dumps(reply) + "\n").encode("utf-8") + frame)
        greeted = greeted or reply.get("ok") is True
        if not greeted or reply.get("ok") is False:
            return


class ProviderServer:
    """Serve a built-in provider over TCP, one thread per connection."""

    def __init__(self, provider, contexts: dict[str, UtteranceContext],
                 host: str = "127.0.0.1", port: int = 0):
        self._provider = provider
        self._contexts = contexts
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()
        return f"{host}:{port}"

    def start(self) -> "ProviderServer":
        self._thread.start()
        return self

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket):
        with conn, conn.makefile("rb") as reader:
            try:
                _serve_lines(reader, conn.sendall, self._provider, self._contexts)
            except OSError:
                pass  # the client went away

    def stop(self):
        self._stopping.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def stdio_serve(provider, contexts: dict[str, UtteranceContext],
                stdin=None, stdout=None):
    """Serve over stdin/stdout; the loop ends at EOF or a failed handshake."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer

    def write(data: bytes):
        stdout.write(data)
        stdout.flush()

    _serve_lines(stdin, write, provider, contexts)
