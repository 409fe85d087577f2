"""Wire protocol for out-of-process providers: JSON request lines, and
replies that are a JSON header line, for a step followed by raw logits.

The client opens with a handshake
    {"op": "hello", "vocab_size": V, "vocab_hash": "<hex64>",
     "logits_encoding": "f64le-frame"}  ->  {"ok": true, "echoes": ["id"]}
then sends step requests of 1 to MAX_ENTRIES entries, each history
starting with BOS
    {"op": "step", "id": n, "entries": [{"utt": "<id>", "history": [ids]}, ...]}
      ->  {"id": n, "logits_bytes": N, "rows": [counts]}
A step request's "id" counts the step requests sent before it on the
connection, and its reply echoes it, so the client refuses a reply to
another request, a stale one or one sent twice included; the hello reply
states that the server echoes it, so a server that does not fails at the
hello.

An entry may carry "follow": [ids], tokens the client will append ([]
included); its rows are those for history and for each history +
follow[:i]. An entry without a follow gets the rows along the provider's
own argmax of the raw logits (lowest id on ties), at most MAX_AHEAD,
stopping once that argmax is EOS. "rows" counts each entry's rows, and
the header line is followed by exactly "logits_bytes" bytes, its frame:
those rows, entry by entry, as little-endian float64s. These are the
exact values, so a served built-in provider decodes bit-identically to
in-process use. Header line and frame go out in one write (over TCP
both ends set TCP_NODELAY); hello and error replies have no frame. The
server refuses a hello without that "logits_encoding", and ends the
session after a first request that is not a hello it accepts. The
client refuses a count other than 1 +
len(follow), or, for an argmax entry, other than the server's stop rule
gives for its rows, and takes an argmax entry's path from the argmax of
its rows, all but the last. All this
relies on a served provider giving the same logits for one (utt,
history).

A caller that knows the utterances it will step through announces them
(`ExternalProvider.prefetch`), each with the follow it will take from
BOS: None for a decode, the reference for teacher forcing. Announcing
decides what a step asks for past its own row: a step of an announced
utterance that leaves its follow, or has none, asks for the argmax rows,
so a greedy decode that follows the provider's argmax needs no request
past an utterance's first, plus one each time it leaves the path; a step
of an utterance nobody announced sends "follow": [] for its one row.
The request for an announced utterance's first row also lists the
announced utterances after it that no request has named yet, up to
MAX_ENTRIES entries in all, so a decode set that follows the served
argmax makes one round trip per MAX_ENTRIES utterances. The client keeps
the unread rows of each utterance it fetched and answers later steps
from them, and a fetch drops those of every utterance but the
MAX_ENTRIES - 1 announced after its own. A decode set reads the path
held from BOS for each of a chunk of utterances as one block
(`ExternalProvider.lattices`) and decides its steps on them at once
(`decoding.choice_tables`); only a step off its utterance's path reads a
row, and it makes the request it would make without them.

Replies and requests are capped: a reply header longer than
MAX_HEADER_BYTES or announcing more rows than its request asked for, and
a request line longer than MAX_REQUEST_BYTES, end the exchange.
Endpoints are either "host:port" strings or argv lists for a subprocess
whose stdin and stdout are one end of a socket pair: the client talks to
either over one socket.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import threading

import numpy as np

from .core import Vocabulary, argmax_token, is_token_id_list, json_field, loads
from .errors import ConfigurationError, ProviderIOError
from .providers import UtteranceContext

# The hello's required "logits_encoding": a step reply's header line is
# followed by a frame of raw little-endian float64 logits.
LOGITS_ENCODING = "f64le-frame"
# The most rows of logits one entry of a step reply carries: the one for
# its history and one per token of its follow, or of its argmax path.
MAX_AHEAD = 32
# A request line longer than this, newline included, gets an error reply
# and ends the connection; the longest hello or step request is far shorter.
MAX_REQUEST_BYTES = 1 << 20
# The most entries one step request lists.
MAX_ENTRIES = 16
# The longest reply header line the client reads, newline excluded: a
# step reply's counts take at most MAX_ENTRIES * 4 bytes, and an error
# message the rest.
MAX_HEADER_BYTES = 4096


def _rows_asked(payload: dict) -> int:
    """The most rows a reply to the request `payload` may carry: for each
    of its "entries", 1 + len(follow), or MAX_AHEAD for one without a
    follow. A hello asks for none."""
    return sum(1 + len(entry["follow"]) if "follow" in entry else MAX_AHEAD
               for entry in payload.get("entries", ()))


class _TcpTransport:
    """Request/reply framing over one connected socket: a TCP connection,
    or one end of a socket pair whose other end is the stdin and stdout of
    the subprocess `proc`, which `close` stops. A request is one line, a
    reply one header line, then as many raw bytes as its "logits_bytes".
    The socket's timeout bounds each send and each receive.

    Bytes read past a reply are kept, not dropped. A byte the provider
    sends beyond the one reply per request means replies no longer pair
    with requests, so the exchange fails with it. A header longer than
    MAX_HEADER_BYTES fails as soon as it is, unread to its end, and one
    whose "logits_bytes" is not an integer in [0, 8 * vocab_size * rows],
    where rows is what the request asked for (`_rows_asked`), fails before
    any byte of its frame is read.

    It keeps its name and `round_trip` for the bench's layer tracer, which
    wraps `_TcpTransport.round_trip` through the class `__dict__`.
    """

    def __init__(self, sock: socket.socket, vocab_size: int, proc=None):
        self._sock = sock
        self._row_bytes = 8 * vocab_size
        self._proc = proc
        self._buffer = bytearray()

    def round_trip(self, payload: dict) -> tuple[dict, bytearray]:
        """Send `payload` as one line; return the reply's parsed header and
        its frame, empty for a header without one."""
        try:
            # polled, without blocking, for bytes nobody asked for
            if not self._buffer and select.select([self._sock], [], [], 0)[0]:
                self._buffer += self._sock.recv(65536)
            if self._buffer:
                raise ProviderIOError(
                    f"provider sent {len(self._buffer)} bytes no request asked for")
            self._sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            max_frame = self._row_bytes * _rows_asked(payload)
            # the first newline ends the header: JSON escapes every other one
            while ((end := self._buffer.find(b"\n", 0, MAX_HEADER_BYTES + 1)) < 0
                   and len(self._buffer) <= MAX_HEADER_BYTES):
                self._read()
            if end < 0:
                raise ProviderIOError(
                    f"provider reply header is longer than {MAX_HEADER_BYTES} bytes")
            header = _parse_line(bytes(self._buffer[:end + 1]))
            size = header.get("logits_bytes", 0)
            if type(size) is not int or not 0 <= size <= max_frame:
                raise ProviderIOError(f"'logits_bytes' must be an integer in "
                                      f"[0, {max_frame}], got {size!r:.200}")
            del self._buffer[:end + 1]
            while len(self._buffer) < size:
                self._read()
        except TimeoutError as exc:
            raise ProviderIOError(
                f"provider timed out after {self._sock.gettimeout()}s") from exc
        except OSError as exc:
            raise ProviderIOError(f"transport failure: {exc}") from exc
        if len(self._buffer) > size:
            raise ProviderIOError("provider sent more than one reply for one request")
        frame, self._buffer = self._buffer, bytearray()
        return header, frame

    def _read(self):
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ProviderIOError("provider closed its output")
        self._buffer += chunk

    def close(self):
        self._sock.close()
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def _parse_line(line: bytes, kind: str = "response") -> dict:
    """The JSON object of one `kind` ("response" or "request") line."""
    try:
        msg = loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one
        raise ProviderIOError(f"malformed {kind} line: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProviderIOError(f"expected a JSON object {kind}, got {type(msg).__name__}")
    return msg


class ExternalProvider:
    """Client side of the wire protocol; validates every response.

    The unread rows of the step replies are kept by utterance, then by
    history. A step takes its row out; `lattices` reads the rows of a whole
    path from BOS and leaves them in. A step the rows do not cover asks
    for the next stretch of the follow `prefetch` announced for its
    utterance, if the step is on it, or else for the rows along the
    provider's argmax if its utterance was announced, and for its one row
    if not. The request for the first row of an announced utterance
    also lists the announced utterances after it (see the module
    docstring). A fetch for an utterance replaces its rows and drops
    those of every other except the MAX_ENTRIES - 1 announced after it,
    so callers that interleave unannounced utterances on one client drop
    each other's rows. `round_trips`, `rows_received` and `rows_used`
    count step requests, the rows their replies carried and the rows a
    step or a table read.
    """

    def __init__(self, transport, vocab: Vocabulary):
        self.vocab = vocab
        self._transport = transport
        self._rows = {}  # utt -> {history: row of a reply that no step has read}
        self._plans = {}  # utt -> BOS + follow from `prefetch`, until fetched or left
        self._announced = []  # the announced utts, in order
        self._order = {}  # announced utt -> its place in `_announced`
        self._next = 0  # the first place no request has named since `prefetch`
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
        if reply.get("echoes") != ["id"]:
            self.close()
            raise ConfigurationError(
                f"provider does not echo step request ids: its hello reply is {reply!r:.200}")

    def prefetch(self, entries):
        """Announce the utterances the next steps go through, in order, as
        (ctx, follow) pairs: `follow` is the tokens the steps will append
        to BOS (empty for a reference of EOS alone), or None for a decode,
        whose tokens are not known. Drops every kept row; an utterance
        announced twice keeps its first place and follow."""
        self._rows, self._plans, self._order = {}, {}, {}
        for ctx, follow in entries:
            if ctx.utt_id not in self._order:
                self._order[ctx.utt_id] = len(self._order)
                if follow is not None:
                    self._plans[ctx.utt_id] = (Vocabulary.BOS, *(int(i) for i in follow))
        self._announced = list(self._order)
        self._next = 0

    def next_logits(self, history, ctx: UtteranceContext) -> np.ndarray:
        utt, history = ctx.utt_id, tuple(history)
        rows = self._rows.get(utt)
        row = rows.pop(history, None) if rows else None
        if row is None:
            self._fetch(utt, history)
            row = self._rows[utt].pop(history)
        self.rows_used += 1
        return row  # the client keeps no reference to it

    def lattices(self, ctxs) -> tuple[list, np.ndarray]:
        """The keys of the argmax path held for each utterance of `ctxs`
        from BOS, and the raw rows of all of them, in order, as one new
        `(B, V)` array (see `decoding.choice_tables`). The row for a
        history h is keyed (t, the last MAX_AHEAD ids of
        (BOS,) * MAX_AHEAD + h[1:]), t = len(h) - 1: a path holds at most
        MAX_AHEAD rows, so that window is the whole history.

        Makes at most the one fetch that the first step of the first
        utterance would make: if its first row is not held. An utterance
        whose first row is not held then gets None, and its steps read
        `next_logits`. The rows stay held, so the requests that the steps
        off a path make are the ones they would make without a table.
        """
        bos = (Vocabulary.BOS,)
        if ctxs and bos not in self._rows.get(ctxs[0].utt_id, ()):
            self._fetch(ctxs[0].utt_id, bos)
        pad, lattices, rows = bos * MAX_AHEAD, [], []
        for ctx in ctxs:
            held = self._rows.get(ctx.utt_id, {})
            if bos in held:  # then every row held comes from a fetch at BOS, BOS's first
                lattices.append([(len(h) - 1, (pad + h[1:])[-MAX_AHEAD:]) for h in held])
                rows += held.values()
            else:
                lattices.append(None)
        self.rows_used += len(rows)
        return lattices, np.array(rows).reshape(len(rows), self.vocab.size)

    def _entry(self, utt: str, history: tuple) -> dict:
        """The request entry for the rows of `utt` from `history` on: it
        follows the next stretch of its plan, if `history` is on it, or
        else the argmax if `utt` was announced, and [] if not. The end of a
        plan follows []."""
        entry = {"utt": utt, "history": [int(i) for i in history]}
        plan = self._plans.get(utt, ())
        if plan[:len(history)] == history:
            entry["follow"] = list(plan[len(history):len(history) + MAX_AHEAD - 1])
        elif utt not in self._order:
            entry["follow"] = []
        return entry

    def _fetch(self, utt: str, history: tuple):
        """One step round trip, whose rows replace those kept for `utt`
        (the other utterances it lists have none); the first of them is the
        row for `history`. First drops the rows of `utt` and of every
        utterance but the MAX_ENTRIES - 1 announced after it."""
        place = self._order.get(utt)
        after = range(place + 1, place + MAX_ENTRIES) if place is not None else range(0)
        self._rows = {u: rows for u, rows in self._rows.items() if self._order.get(u) in after}
        asked = [(utt, history)]
        if place is not None and history == (Vocabulary.BOS,):
            first = max(self._next, place + 1)
            self._next = max(self._next, place + MAX_ENTRIES)
            asked += [(later, history) for later in self._announced[first:self._next]]
        entries = [self._entry(*key) for key in asked]
        # the id of a step request is the number of step requests before it
        header, frame = self._transport.round_trip(
            {"op": "step", "id": self.round_trips, "entries": entries})
        rows, tracks = self._check_step_reply(
            header, frame, [entry.get("follow") for entry in entries])
        self.round_trips += 1
        self.rows_received += len(rows)
        at = 0  # where the next entry's rows start in the frame
        for (u, h), track in zip(asked, tracks):
            plan = self._plans.get(u)
            if plan is not None and (plan[:len(h)] != h or len(h) + len(track) == len(plan)):
                del self._plans[u]  # the step left the plan, or fetches it to its end
            self._rows[u] = {h + tuple(track[:i]): rows[at + i] for i in range(len(track) + 1)}
            at += len(track) + 1

    def _check_step_reply(self, header: dict, frame: bytearray, follows: list):
        """The (rows, V) logits of a step reply and the tokens each entry's
        rows follow, for a request whose follows are `follows`, None for an
        argmax entry: its follow, or the argmax of its rows but the last.
        The reply echoes the request's id, `round_trips`, and counts
        1 + len(follow) rows for an entry with a follow and, for an argmax
        entry, the rows up to the first whose argmax is EOS, at most
        MAX_AHEAD, as the server's stop rule gives them."""
        if "logits_bytes" not in header:
            raise ProviderIOError(f"step reply carries no logits: {header!r}")
        reply_id = header.get("id")
        if type(reply_id) is not int or reply_id != self.round_trips:
            raise ProviderIOError(f"step reply has id {reply_id!r:.200}, but its request "
                                  f"has id {self.round_trips}")
        size = self.vocab.size
        counts = header.get("rows")
        if not (isinstance(counts, list) and len(counts) == len(follows) and all(
                type(n) is int and (1 <= n <= MAX_AHEAD if f is None else n == 1 + len(f))
                for n, f in zip(counts, follows))):
            asked = ", ".join(f"1 to {MAX_AHEAD}" if f is None else str(1 + len(f))
                              for f in follows)
            raise ProviderIOError(f"'rows' must count [{asked}] rows, got {counts!r:.200}")
        n_rows = sum(counts)
        if len(frame) != n_rows * size * 8:
            raise ProviderIOError(
                f"expected {n_rows} x {size} logits, got {len(frame)} bytes")
        # a view of the frame, which no one else holds: writable, no copy
        logits = np.frombuffer(frame, dtype="<f8").astype(np.float64, copy=False)
        if not np.isfinite(logits).all():
            raise ProviderIOError("provider returned non-finite logits")
        logits = logits.reshape(n_rows, size)
        tracks, at = [], 0
        for k, (n, follow) in enumerate(zip(counts, follows)):
            if follow is None:
                tokens = logits[at:at + n].argmax(axis=1).tolist()
                if n != (tokens.index(Vocabulary.EOS) + 1 if Vocabulary.EOS in tokens
                         else MAX_AHEAD):
                    raise ProviderIOError(
                        f"entry {k}'s rows must stop at the first whose argmax is EOS "
                        f"({Vocabulary.EOS}), or at {MAX_AHEAD}; the {n} sent have argmax "
                        f"{tokens!r:.200}")
                follow = tokens[:-1]
            tracks.append(follow)
            at += n
        return logits, tracks

    def close(self):
        self._transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect_external(endpoint, vocab: Vocabulary, timeout: float = 5.0) -> ExternalProvider:
    """Connect to "host:port", or start an argv-list subprocess endpoint
    whose stdin and stdout are one end of a socket pair."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:
        raise ConfigurationError(
            f"timeout must be in (0, {threading.TIMEOUT_MAX}] seconds, got {timeout}")
    if isinstance(endpoint, (list, tuple)):
        command = [str(c) for c in endpoint]
        sock, theirs = socket.socketpair()
        with theirs:  # close_fds keeps `sock` out of the child, so it sees end of stream
            try:
                proc = subprocess.Popen(command, stdin=theirs, stdout=theirs)
            except (OSError, ValueError) as exc:  # ValueError: a NUL in an argument
                sock.close()
                raise ProviderIOError(f"cannot start {command!r}: {exc}") from exc
        sock.settimeout(timeout)
        transport = _TcpTransport(sock, vocab.size, proc)
    else:
        host, _, port = str(endpoint).rpartition(":")
        if not (host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
            raise ConfigurationError("endpoint must be host:port with a port in [1, 65535], "
                                     f"or an argv list, got {endpoint!r}")
        sock = None
        try:
            sock = socket.create_connection((host, int(port)), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as the server's end
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ProviderIOError(f"cannot connect to {host}:{port}: {exc}") from exc
        transport = _TcpTransport(sock, vocab.size)
    return ExternalProvider(transport, vocab)


def _token_ids(msg: dict, field: str, size: int, where: str):
    """The ids in `field` as a tuple, None if the request leaves it out."""
    return tuple(json_field(msg, field, (list,), lambda ids: is_token_id_list(ids, size),
                            f"a list of integer token ids in [0, {size})",
                            where)) if field in msg else None


def _step_entry(msg: dict, contexts: dict[str, UtteranceContext], size: int, where: str):
    """The (history, follow, ctx) a step request's entry `msg` asks for,
    follow None without one; `where` names the entry in an error."""
    if type(msg) is not dict:
        raise ValueError(f"{where} must be an object, got {msg!r:.200}")
    prefix = f"{where}: "
    utt = json_field(msg, "utt", (str,), where=where)
    ctx = contexts.get(utt)
    if ctx is None:
        raise ValueError(f"{prefix}unknown utterance {utt!r:.200}")
    history = _token_ids(msg, "history", size, where) or ()
    if history[:1] != (Vocabulary.BOS,):
        raise ValueError(f"{prefix}'history' must start with BOS ({Vocabulary.BOS}), "
                         f"got {list(history)!r:.200}")
    follow = _token_ids(msg, "follow", size, where)
    if follow is not None and len(follow) >= MAX_AHEAD:
        raise ValueError(f"{prefix}'follow' holds more than {MAX_AHEAD - 1} tokens")
    return history, follow, ctx


def _entry_rows(provider, history: tuple, follow, ctx: UtteranceContext) -> list:
    """Logits for `history` and for each longer history along `follow`,
    or, if it is None, along the provider's argmax (lowest id on ties), at
    most MAX_AHEAD rows, stopping once the argmax is EOS."""
    if follow is not None:
        return [provider.next_logits(history + follow[:i], ctx) for i in range(len(follow) + 1)]
    rows = [provider.next_logits(history, ctx)]
    while len(rows) < MAX_AHEAD and (tok := argmax_token(rows[-1])) != Vocabulary.EOS:
        history += (tok,)
        rows.append(provider.next_logits(history, ctx))
    return rows


def _hello_reply(msg: dict, vocab: Vocabulary) -> dict:
    if msg.get("vocab_size") != vocab.size:
        return {"ok": False, "error": "vocab_size mismatch"}
    if msg.get("vocab_hash") != vocab.content_hash():
        return {"ok": False, "error": "vocab_hash mismatch"}
    if msg.get("logits_encoding") != LOGITS_ENCODING:
        return {"ok": False, "error": f"'logits_encoding' must be {LOGITS_ENCODING!r}, "
                                      f"got {msg.get('logits_encoding')!r:.200}"}
    return {"ok": True, "echoes": ["id"]}


def _handle_request(msg: dict, provider, contexts: dict[str, UtteranceContext],
                    greeted: bool) -> tuple[dict, bytes]:
    """The reply to one request: its header and, for a step, its frame. A
    bad request raises ValueError, or CorpusSchemaError for a bad field,
    whose message the error reply carries."""
    op = msg.get("op")
    if op == "hello":
        return _hello_reply(msg, provider.vocab), b""
    if not greeted:
        raise ValueError(f"the first request must be a hello, got op {op!r:.200}")
    if op != "step":
        raise ValueError(f"unknown op {op!r:.200}")
    request_id = json_field(msg, "id", (int,), lambda n: n >= 0, "a non-negative integer")
    entries = json_field(msg, "entries", (list,), lambda e: 0 < len(e) <= MAX_ENTRIES,
                         f"a list of 1 to {MAX_ENTRIES} objects")
    entries = [_step_entry(entry, contexts, provider.vocab.size, f"'entries'[{i}]")
               for i, entry in enumerate(entries)]
    looked = [_entry_rows(provider, *entry) for entry in entries]
    frame = b"".join(np.asarray(row, dtype="<f8").tobytes() for rows in looked for row in rows)
    return {"id": request_id, "logits_bytes": len(frame),
            "rows": [len(rows) for rows in looked]}, frame


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
        # SO_REUSEADDR is set, and the socket closed if bind or listen fails
        self._sock = socket.create_server((host, port))
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
                # Nagle's algorithm would hold a reply's last segment until
                # the client, delaying its ACK, acknowledged the ones before
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
