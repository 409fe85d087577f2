"""Newline-delimited JSON wire protocol for out-of-process providers.

One JSON object per line. The client opens with a handshake
    {"op": "hello", "vocab_size": V, "vocab_hash": "<hex64>",
     "logits_encoding": "base64-f64le"}  ->  {"ok": true}
then sends step requests
    {"op": "step", "utt": "<id>", "history": [ids]}  ->  {"logits": "<base64>"}
The base64 string holds the V logits as little-endian float64, 8 bytes
each. A server that ignores "logits_encoding" replies with the list form
{"logits": [V floats]} instead, in shortest round-trip decimal form; the
client accepts either form on every reply. Both forms carry the exact
float64 values, so a served built-in provider decodes bit-identically to
in-process use.

A step request may also carry "follow": [ids], tokens the client will
append, and "ahead": n, a number of tokens to extend past them along the
provider's own argmax of the raw logits (lowest id on ties), stopping once
that argmax is EOS. A server on the base64 encoding then replies with
{"logits": "<base64>", "path": [ids]}: one row of V logits for history and
one for each history + path[:i], at most MAX_AHEAD rows. The client keeps
the unread rows of its latest reply and answers later steps along the path
from them. It asks for as many argmax tokens as the decode has been
likely to take (see `_ahead`): a greedy decode that follows the provider's
argmax makes one round trip per utterance, plus one each time it leaves
it, and one that mostly leaves it soon sends plain one-row requests. This
relies on a served provider returning the same logits for the same
(utt, history).

Lines are capped: a reply longer than `max_reply_bytes(V)`, a list-form
reply longer than `max_reply_bytes(V, rows=1)` and a request longer than
MAX_REQUEST_BYTES end the exchange. Endpoints are either
"host:port" strings or argv lists for a subprocess bridged over
stdin/stdout.
"""

from __future__ import annotations

import base64
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

# The hello's "logits_encoding": step replies carry base64 float64 logits.
LOGITS_ENCODING = "base64-f64le"
# The most rows of logits one step reply carries: the one for the request's
# history and one per token of its path.
MAX_AHEAD = 32
# The client asks for a row of the server's argmax path only while the
# chance that the decode takes it is at least this. A row the decode takes
# saves a round trip, and every row costs its encoding and decoding, so
# this pays while a row costs less than the rest of a round trip. On
# loopback, with either built-in provider, a row costs about half of it.
MIN_TAKE_CHANCE = 0.5
# A request line longer than this, newline included, gets an error reply
# and ends the connection; the longest hello or step request is far shorter.
MAX_REQUEST_BYTES = 1 << 20


def max_reply_bytes(vocab_size: int, rows: int = MAX_AHEAD) -> int:
    """The longest reply line the client reads, newline excluded, for a
    reply of one list-form row or up to `rows` base64 rows.

    64 bytes per logit hold any float of a list-form row (the longest
    shortest round-trip float64 takes 24 characters, plus ", "). Base64
    takes 32 characters per 3 logits, so 11 bytes per logit of each row.
    4 KiB cover the rest of the object, the path included. With `rows`
    1 this is the list-form limit, 64 * V + 4096.
    """
    return max(64, 11 * rows) * vocab_size + 4096


class _LineChannel:
    """Request/reply line framing over one byte stream.

    Bytes read past a reply's newline are kept, not dropped. A byte the
    provider sends beyond the one reply line per request means replies
    no longer pair with requests, so the exchange fails with it. A reply
    longer than `max_line` bytes fails as soon as it is, unread to its end,
    and one whose logits are a list fails if longer than `max_list_line`.
    """

    def __init__(self, fd: int, recv, max_line: int, max_list_line: int | None = None):
        self._fd = fd  # polled, without blocking, for bytes nobody asked for
        self._recv = recv  # the next chunk, b"" at end of stream
        self._max_line = max_line
        self._max_list_line = max_line if max_list_line is None else max_list_line
        self._buffer = bytearray()

    def exchange(self, send, payload: dict) -> dict:
        """Send `payload` as one line through `send`; parse the reply line."""
        try:
            if not self._buffer and select.select([self._fd], [], [], 0)[0]:
                self._buffer += self._recv()
            if self._buffer:
                raise ProviderIOError(
                    f"provider sent {len(self._buffer)} bytes no request asked for")
            send((json.dumps(payload) + "\n").encode("utf-8"))
            while ((end := self._buffer.find(b"\n")) < 0
                   and len(self._buffer) <= self._max_line):
                chunk = self._recv()
                if not chunk:
                    raise ProviderIOError("provider closed its output")
                self._buffer += chunk
        except OSError as exc:
            raise ProviderIOError(f"transport failure: {exc}") from exc
        if not 0 <= end <= self._max_line:
            raise ProviderIOError(f"provider reply is longer than {self._max_line} bytes")
        if end + 1 < len(self._buffer):
            raise ProviderIOError("provider sent more than one line for one request")
        line = bytes(self._buffer)
        self._buffer.clear()
        reply = _parse_line(line)
        if end > self._max_list_line and isinstance(reply.get("logits"), list):
            raise ProviderIOError(
                f"list-form reply is longer than {self._max_list_line} bytes")
        return reply


class _TcpTransport:
    def __init__(self, host: str, port: int, timeout: float, max_line: int,
                 max_list_line: int | None = None):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProviderIOError(f"cannot connect to {host}:{port}: {exc}") from exc
        # recv waits at most `timeout`, then raises (the socket keeps it)
        self._lines = _LineChannel(self._sock.fileno(), lambda: self._sock.recv(65536),
                                   max_line, max_list_line)

    def round_trip(self, payload: dict) -> dict:
        return self._lines.exchange(self._sock.sendall, payload)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class _ProcTransport:
    def __init__(self, command: list[str], timeout: float, max_line: int,
                 max_list_line: int | None = None):
        self._timeout = timeout
        try:
            self._proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderIOError(f"cannot start {command!r}: {exc}") from exc
        self._lines = _LineChannel(self._proc.stdout.fileno(), self._recv, max_line,
                                   max_list_line)

    def _send(self, data: bytes):
        self._proc.stdin.write(data)
        self._proc.stdin.flush()

    def _recv(self) -> bytes:
        fd = self._proc.stdout.fileno()
        if not select.select([fd], [], [], self._timeout)[0]:
            raise ProviderIOError(f"provider timed out after {self._timeout}s")
        return os.read(fd, 65536)

    def round_trip(self, payload: dict) -> dict:
        return self._lines.exchange(self._send, payload)

    def close(self):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
        self._proc.stdin.close()  # every request was flushed, so nothing is pending
        self._proc.stdout.close()


def _parse_line(line: bytes) -> dict:
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProviderIOError(f"malformed response line: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProviderIOError(f"expected a JSON object, got {type(msg).__name__}")
    return msg


def _decode_logits(value) -> np.ndarray:
    """A step reply's logits, in either wire form, as a new float64 array."""
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error included
            raise ProviderIOError(f"logits are not valid base64: {exc}") from exc
        if len(raw) % 8:
            raise ProviderIOError(f"base64 logits hold {len(raw)} bytes, not whole float64s")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if isinstance(value, list):
        if any(isinstance(item, (str, bool)) for item in value):
            raise ProviderIOError("logits list holds a string or a boolean, not only numbers")
        try:
            return np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderIOError(f"logits list is not numeric: {exc}") from exc
    raise ProviderIOError(
        f"logits must be a base64 string or a list, got {type(value).__name__}")


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
        self._lock = threading.Lock()  # guards the transport, the rows and the plan
        self._rows = {}  # (utt, history) -> row of the latest reply no step has read
        self._plan = (None, ())  # (utt, history + follow) from `prefetch`, until fetched
        self._offered = 0  # rows of the latest reply along the server's argmax path
        self._taken = self._left = 0  # offered rows a step read; replies a step left early
        self._ahead = _ahead(0, 0)  # what the next request without a plan asks for
        self.round_trips = self.rows_received = self.rows_used = 0
        try:
            reply = transport.round_trip(
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
        with self._lock:
            self._plan = (ctx.utt_id, tuple(int(i) for i in (*history, *follow)))

    def next_logits(self, history, ctx: UtteranceContext) -> np.ndarray:
        key = (ctx.utt_id, tuple(history))
        with self._lock:
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
        reply = self._transport.round_trip(payload)
        self.round_trips += 1
        rows, path = self._check_step_reply(reply, follow)
        self._rows = {(utt, history + tuple(path[:i])): rows[i] for i in range(1, len(rows))}
        self._offered = len(path[len(follow):])
        self.rows_received += len(rows)
        return rows[0]

    def _check_step_reply(self, reply: dict, follow: list):
        """The (rows, V) logits and the path of a step reply; a reply
        without "path" carries the one row for the request's history."""
        if "logits" not in reply:
            raise ProviderIOError(f"step reply carries no logits: {reply!r}")
        logits = _decode_logits(reply["logits"])
        size = self.vocab.size
        path = reply.get("path", [])
        if "path" in reply:
            if not _is_token_id_list(path, size):
                raise ProviderIOError(f"path must be a list of token ids in [0, {size}), "
                                      f"got {path!r}")
            if path[:len(follow)] != follow:
                raise ProviderIOError(
                    f"path {path!r} does not start with the follow {follow!r}")
            if path and isinstance(reply["logits"], list):
                raise ProviderIOError("a list-form reply carries one row, so no path")
        if logits.ndim != 1 or logits.size != (len(path) + 1) * size:
            raise ProviderIOError(
                f"expected {len(path) + 1} x {size} logits, got shape {logits.shape}"
            )
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
    limits = max_reply_bytes(vocab.size), max_reply_bytes(vocab.size, rows=1)
    if isinstance(endpoint, (list, tuple)):
        transport = _ProcTransport([str(c) for c in endpoint], timeout, *limits)
    else:
        host, _, port = str(endpoint).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"endpoint must be host:port or argv list, got {endpoint!r}")
        transport = _TcpTransport(host, int(port), timeout, *limits)
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


def _encode_rows(rows) -> str:
    """Rows of logits as one base64 string of little-endian float64s."""
    return base64.b64encode(
        b"".join(np.asarray(row, dtype="<f8").tobytes() for row in rows)).decode("ascii")


def _handle_request(msg: dict, provider, contexts: dict[str, UtteranceContext],
                    encoding: str | None) -> dict:
    op = msg.get("op")
    if op == "hello":
        if msg.get("vocab_size") != provider.vocab.size:
            return {"ok": False, "error": "vocab_size mismatch"}
        if msg.get("vocab_hash") != provider.vocab.content_hash():
            return {"ok": False, "error": "vocab_hash mismatch"}
        return {"ok": True}
    if op == "step":
        ctx = contexts.get(msg.get("utt"))
        if ctx is None:
            return {"error": f"unknown utterance {msg.get('utt')!r}"}
        history = _token_ids(msg, "history", provider.vocab.size)
        if "follow" in msg or "ahead" in msg:
            follow = _token_ids(msg, "follow", provider.vocab.size)
            if len(follow) >= MAX_AHEAD:
                return {"error": f"'follow' holds more than {MAX_AHEAD - 1} tokens"}
            ahead = msg.get("ahead", 0)
            if type(ahead) is not int or ahead < 0:
                return {"error": f"'ahead' must be a non-negative integer, got {ahead!r}"}
            if encoding == LOGITS_ENCODING:  # a list-form reply is the one row below
                rows, path = _lookahead(provider, history, follow, ahead, ctx)
                return {"logits": _encode_rows(rows), "path": path}
        logits = provider.next_logits(history, ctx)
        if encoding == LOGITS_ENCODING:
            return {"logits": _encode_rows([logits])}
        return {"logits": [float(x) for x in logits]}
    return {"error": f"unknown op {op!r}"}


def _serve_lines(reader, write, provider, contexts: dict[str, UtteranceContext]):
    """Answer each request line of `reader` through `write`.

    The "logits_encoding" of an accepted hello holds for the rest of the
    connection. Stops at EOF, after a refused handshake, and after an
    over-long request line, which gets an error reply.
    """
    encoding = None
    while line := reader.readline(MAX_REQUEST_BYTES + 1):
        if len(line) > MAX_REQUEST_BYTES:
            write((json.dumps({"error": f"request line longer than {MAX_REQUEST_BYTES} bytes"})
                   + "\n").encode("utf-8"))
            return
        if not line.strip():
            continue
        try:
            msg = _parse_line(line)
            reply = _handle_request(msg, provider, contexts, encoding)
        except Exception as exc:  # a bad request must not stop the server
            reply = {"error": str(exc)}
        write((json.dumps(reply) + "\n").encode("utf-8"))
        if reply.get("ok") is False:
            return
        if reply.get("ok") is True:
            encoding = msg.get("logits_encoding")


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
