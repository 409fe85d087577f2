"""Newline-delimited JSON wire protocol for out-of-process providers.

One JSON object per line. The client opens with a handshake
    {"op": "hello", "vocab_size": V, "vocab_hash": "<hex64>",
     "logits_encoding": "base64-f64le"}  ->  {"ok": true}
then issues one step request per decoding step
    {"op": "step", "utt": "<id>", "history": [ids]}  ->  {"logits": "<base64>"}
The base64 string holds the V logits as little-endian float64, 8 bytes
each. A server that ignores "logits_encoding" replies with the list form
{"logits": [V floats]} instead, in shortest round-trip decimal form; the
client accepts either form on every reply. Both forms carry the exact
float64 values, so a served built-in provider decodes bit-identically to
in-process use. Lines are capped: a reply longer than
`max_reply_bytes(V)` and a request longer than MAX_REQUEST_BYTES end the
exchange. Endpoints are either "host:port" strings or argv lists for a
subprocess bridged over stdin/stdout.
"""

from __future__ import annotations

import base64
import json
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
# A request line longer than this, newline included, gets an error reply
# and ends the connection; the longest hello or step request is far shorter.
MAX_REQUEST_BYTES = 1 << 20


def max_reply_bytes(vocab_size: int) -> int:
    """The longest reply line the client reads, newline excluded.

    64 bytes per logit hold any float in a list (the longest shortest
    round-trip float64 takes 24 characters, plus ", ") and its base64
    form (32 characters per 3 logits); 4 KiB cover the rest of the object.
    """
    return 64 * vocab_size + 4096


class _LineChannel:
    """Request/reply line framing over one byte stream.

    Bytes read past a reply's newline are kept, not dropped. A byte the
    provider sends beyond the one reply line per request means replies
    no longer pair with requests, so the exchange fails with it. A reply
    longer than `max_line` bytes fails as soon as it is, unread to its end.
    """

    def __init__(self, fd: int, recv, max_line: int):
        self._fd = fd  # polled, without blocking, for bytes nobody asked for
        self._recv = recv  # the next chunk, b"" at end of stream
        self._max_line = max_line
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
        return _parse_line(line)


class _TcpTransport:
    def __init__(self, host: str, port: int, timeout: float, max_line: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProviderIOError(f"cannot connect to {host}:{port}: {exc}") from exc
        # recv waits at most `timeout`, then raises (the socket keeps it)
        self._lines = _LineChannel(self._sock.fileno(), lambda: self._sock.recv(65536),
                                   max_line)

    def round_trip(self, payload: dict) -> dict:
        return self._lines.exchange(self._sock.sendall, payload)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class _ProcTransport:
    def __init__(self, command: list[str], timeout: float, max_line: int):
        self._timeout = timeout
        try:
            self._proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderIOError(f"cannot start {command!r}: {exc}") from exc
        self._lines = _LineChannel(self._proc.stdout.fileno(), self._recv, max_line)

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


class ExternalProvider:
    """Client side of the wire protocol; validates every response."""

    def __init__(self, transport, vocab: Vocabulary):
        self.vocab = vocab
        self._transport = transport
        self._lock = threading.Lock()
        try:
            reply = self._request(
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

    def _request(self, payload: dict) -> dict:
        with self._lock:
            return self._transport.round_trip(payload)

    def next_logits(self, history, ctx: UtteranceContext) -> np.ndarray:
        reply = self._request(
            {"op": "step", "utt": ctx.utt_id, "history": [int(i) for i in history]}
        )
        if "logits" not in reply:
            raise ProviderIOError(f"step reply carries no logits: {reply!r}")
        logits = _decode_logits(reply["logits"])
        if logits.ndim != 1 or logits.size != self.vocab.size:
            raise ProviderIOError(
                f"expected {self.vocab.size} logits, got shape {logits.shape}"
            )
        if not np.all(np.isfinite(logits)):
            raise ProviderIOError("provider returned non-finite logits")
        return logits

    def close(self):
        self._transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect_external(endpoint, vocab: Vocabulary, timeout: float = 5.0) -> ExternalProvider:
    """Connect to "host:port" or spawn an argv-list subprocess endpoint."""
    max_line = max_reply_bytes(vocab.size)
    if isinstance(endpoint, (list, tuple)):
        transport = _ProcTransport([str(c) for c in endpoint], timeout, max_line)
    else:
        host, _, port = str(endpoint).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"endpoint must be host:port or argv list, got {endpoint!r}")
        transport = _TcpTransport(host, int(port), timeout, max_line)
    return ExternalProvider(transport, vocab)


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
        history = tuple(int(i) for i in msg.get("history", []))
        logits = provider.next_logits(history, ctx)
        if encoding == LOGITS_ENCODING:
            return {"logits": base64.b64encode(
                np.asarray(logits, dtype="<f8").tobytes()).decode("ascii")}
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
