"""Newline-delimited JSON wire protocol for out-of-process providers.

One JSON object per line. The client opens with a handshake
    {"op": "hello", "vocab_size": V, "vocab_hash": "<hex64>"}  ->  {"ok": true}
then issues one step request per decoding step
    {"op": "step", "utt": "<id>", "history": [ids]}  ->  {"logits": [V floats]}
Floats are serialized in shortest round-trip decimal form (plain json),
so a served built-in provider decodes bit-identically to in-process use.
Endpoints are either "host:port" strings or argv lists for a subprocess
bridged over stdin/stdout.
"""

from __future__ import annotations

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


class _LineChannel:
    """Request/reply line framing over one byte stream.

    Bytes read past a reply's newline are kept, not dropped. A byte the
    provider sends beyond the one reply line per request means replies
    no longer pair with requests, so the exchange fails with it.
    """

    def __init__(self, fd: int, recv):
        self._fd = fd  # polled, without blocking, for bytes nobody asked for
        self._recv = recv  # the next chunk, b"" at end of stream
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
            while (end := self._buffer.find(b"\n")) < 0:
                chunk = self._recv()
                if not chunk:
                    raise ProviderIOError("provider closed its output")
                self._buffer += chunk
        except OSError as exc:
            raise ProviderIOError(f"transport failure: {exc}") from exc
        if end + 1 < len(self._buffer):
            raise ProviderIOError("provider sent more than one line for one request")
        line = bytes(self._buffer)
        self._buffer.clear()
        return _parse_line(line)


class _TcpTransport:
    def __init__(self, host: str, port: int, timeout: float):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProviderIOError(f"cannot connect to {host}:{port}: {exc}") from exc
        # recv waits at most `timeout`, then raises (the socket keeps it)
        self._lines = _LineChannel(self._sock.fileno(), lambda: self._sock.recv(65536))

    def round_trip(self, payload: dict) -> dict:
        return self._lines.exchange(self._sock.sendall, payload)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class _ProcTransport:
    def __init__(self, command: list[str], timeout: float):
        self._timeout = timeout
        try:
            self._proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderIOError(f"cannot start {command!r}: {exc}") from exc
        self._lines = _LineChannel(self._proc.stdout.fileno(), self._recv)

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


class ExternalProvider:
    """Client side of the wire protocol; validates every response."""

    def __init__(self, transport, vocab: Vocabulary):
        self.vocab = vocab
        self._transport = transport
        self._lock = threading.Lock()
        reply = self._request(
            {"op": "hello", "vocab_size": vocab.size, "vocab_hash": vocab.content_hash()}
        )
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
        logits = np.asarray(reply["logits"], dtype=np.float64)
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
    if isinstance(endpoint, (list, tuple)):
        transport = _ProcTransport([str(c) for c in endpoint], timeout)
    else:
        host, _, port = str(endpoint).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"endpoint must be host:port or argv list, got {endpoint!r}")
        transport = _TcpTransport(host, int(port), timeout)
    return ExternalProvider(transport, vocab)


def _handle_request(msg: dict, provider, contexts: dict[str, UtteranceContext]) -> dict:
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
        return {"logits": [float(x) for x in logits]}
    return {"error": f"unknown op {op!r}"}


def _serve_lines(lines, write, provider, contexts: dict[str, UtteranceContext]):
    """Answer each request line through `write`; stop after a refused handshake."""
    for line in lines:
        if not line.strip():
            continue
        try:
            reply = _handle_request(_parse_line(line), provider, contexts)
        except Exception as exc:  # a bad request must not stop the server
            reply = {"error": str(exc)}
        write((json.dumps(reply) + "\n").encode("utf-8"))
        if reply.get("ok") is False:
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
