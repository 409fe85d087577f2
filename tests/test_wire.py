import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import random
import re
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import latefuse
from latefuse import cli, corpus, decoding, wire
from latefuse.core import Vocabulary
from latefuse.calibration import collect_traces
from latefuse.decoding import (decode_eval_set, evaluation_max_len, fused_greedy_decode,
                               greedy_decode)
from latefuse.errors import ConfigurationError, ProviderIOError
from latefuse.fusion import FusionConfig
from latefuse.providers import (AcousticChannel, ProviderSpec, UtteranceContext,
                                train_ngram_corrector)
from latefuse.wire import (LOGITS_ENCODING, MAX_HEADER_BYTES, MAX_REQUEST_BYTES,
                           ExternalProvider, ProviderServer, _TcpTransport, connect_external,
                           stdio_serve)
from test_decoding import decode_fields, small_walkthrough, step_bytes, walk_kind


def bare_frame(logits, **header):
    """A reply: a header line announcing `logits` as little-endian float64s,
    unless `header` sets another "logits_bytes", then those bytes."""
    raw = np.asarray(logits, dtype="<f8").tobytes()
    return (json.dumps({"logits_bytes": len(raw), **header}) + "\n").encode() + raw


def frame(logits, **header):
    """A step reply: `bare_frame` with the "rows" of one entry of one row,
    [1], unless `header` sets other rows."""
    return bare_frame(logits, **{"rows": [1], **header})


def step_request(*entries, request_id=0):
    return {"op": "step", "id": request_id, "entries": list(entries)}


# the hello reply of a server that echoes each step request's id
HELLO_OK = {"ok": True, "echoes": ["id"]}


def echo_id(reply, msg):
    """`reply` as a server sends it to the request `msg`: bytes whose
    header line is a JSON object without an "id" get the request's id,
    as the first field, if `msg` has one; any other reply is left as it
    is, so a test can send a reply with a wrong id, or one that is no
    JSON object."""
    if not isinstance(reply, bytes) or "id" not in msg:
        return reply
    head, newline, rest = reply.partition(b"\n")
    try:
        header = json.loads(head)
    except (ValueError, RecursionError):
        return reply
    if not newline or not isinstance(header, dict) or "id" in header:
        return reply
    return (json.dumps({"id": msg["id"], **header}) + "\n").encode() + rest


def read_replies(data):
    """(header, logits) of each reply in a server's output; logits is None
    for a header line without a frame."""
    replies = []
    while data:
        line, _, data = data.partition(b"\n")
        header = json.loads(line)
        size = header.get("logits_bytes")
        replies.append((header, None if size is None else np.frombuffer(data[:size], "<f8")))
        data = data[size or 0:]
    return replies


class LineServer:
    """Raw scripted TCP server for protocol-violation tests. A reply is a
    dict, sent as a JSON line, bytes, sent as they are, or a list of these,
    sent in one write; None, alone or ending the list, hangs up."""

    def __init__(self, reply_fn):
        self.reply_fn = reply_fn
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def address(self):
        host, port = self.sock.getsockname()
        return f"{host}:{port}"

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                reply = self.reply_fn(json.loads(line))
                replies = reply if isinstance(reply, list) else [reply]
                conn.sendall(b"".join(r if isinstance(r, bytes) else (json.dumps(r) + "\n").encode()
                                      for r in replies if r is not None))
                if None in replies:
                    return

    def close(self):
        self.sock.close()


def one_hot(index, size):
    return [1.0 if i == index else 0.0 for i in range(size)]


def assert_steps_stay_paired(provider, ctx):
    """The provider answers history h with argmax 3 + len(h), then sends one
    unsolicited reply (argmax 3). Every reply read must be the one asked
    for, and the stray reply must end the exchange as a ProviderIOError."""
    with pytest.raises(ProviderIOError):
        for history in ((0,), (0, 4), (0, 4, 5)):
            assert int(np.argmax(provider.next_logits(history, ctx))) == 3 + len(history)


def scripted(replies_by_op):
    """The replies by request op, each a reply or a function of the
    request, with the request's id echoed (`echo_id`)."""
    def reply(msg):
        got = replies_by_op[msg["op"]]
        got = got(msg) if callable(got) else got
        return [echo_id(r, msg) for r in got] if isinstance(got, list) else echo_id(got, msg)
    return reply


class TestExternalProvider:
    def test_echo_server_fixed_logits(self, abc_vocab, empty_ctx):
        fixed = frame([1.0] + [0.0] * (abc_vocab.size - 1))
        server = LineServer(scripted({"hello": HELLO_OK, "step": fixed}))
        provider = connect_external(server.address, abc_vocab, timeout=2.0)
        try:
            for history in ((0,), (0, 3), (0, 3, 4)):
                logits = provider.next_logits(history, empty_ctx)
                assert int(np.argmax(logits)) == 0
        finally:
            provider.close()
            server.close()

    def test_short_logits_vector_is_protocol_error(self, abc_vocab, empty_ctx):
        short = frame([0.0] * (abc_vocab.size - 1))
        server = LineServer(scripted({"hello": HELLO_OK, "step": short}))
        provider = connect_external(server.address, abc_vocab, timeout=2.0)
        try:
            with pytest.raises(ProviderIOError):
                provider.next_logits((0,), empty_ctx)
        finally:
            provider.close()
            server.close()

    def test_handshake_mismatch_is_configuration_error(self, abc_vocab):
        server = LineServer(scripted({"hello": {"ok": False, "error": "vocab_hash mismatch"}}))
        with pytest.raises(ConfigurationError):
            connect_external(server.address, abc_vocab, timeout=2.0)
        server.close()

    @pytest.mark.parametrize("transport", ["tcp", "stdio"])
    def test_timeout_is_provider_io_error(self, abc_vocab, empty_ctx, transport):
        with scripted_endpoint(transport, b"") as endpoint, \
                connect_external(endpoint, abc_vocab, timeout=0.5) as remote:  # never answers
            start = time.monotonic()
            with pytest.raises(ProviderIOError, match=r"provider timed out after 0\.5s"):
                remote.next_logits((0,), empty_ctx)
            assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("transport", ["tcp", "stdio"])
    def test_longest_timeout_is_accepted(self, abc_vocab, empty_ctx, transport):
        with scripted_endpoint(transport, frame(ZEROS)) as endpoint, \
                connect_external(endpoint, abc_vocab, timeout=threading.TIMEOUT_MAX) as remote:
            assert remote.next_logits((0,), empty_ctx).tolist() == ZEROS

    def test_unsolicited_line_is_provider_io_error(self, empty_ctx):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c", "d"))
        server = LineServer(scripted({
            "hello": HELLO_OK,
            "step": lambda msg: [frame(one_hot(3 + len(msg["entries"][0]["history"]),
                                                vocab.size)),
                                 frame(one_hot(3, vocab.size))],
        }))
        provider = connect_external(server.address, vocab, timeout=2.0)
        try:
            assert_steps_stay_paired(provider, empty_ctx)
        finally:
            provider.close()
            server.close()

    def test_bad_endpoint_string(self, abc_vocab):
        with pytest.raises(ConfigurationError):
            connect_external("nonsense", abc_vocab)

    def test_failed_handshake_closes_the_transport(self, abc_vocab, monkeypatch):
        opened = []

        class RecordedTransport(wire._TcpTransport):
            def __init__(self, *args):
                super().__init__(*args)
                opened.append(self)

        monkeypatch.setattr(wire, "_TcpTransport", RecordedTransport)
        server = LineServer(scripted({"hello": None}))  # hangs up on the hello
        try:
            with pytest.raises(ProviderIOError):
                connect_external(server.address, abc_vocab, timeout=2.0)
        finally:
            server.close()
        assert opened[0]._sock.fileno() == -1

    @pytest.mark.parametrize("reply", [frame([0.0] * 6, ok=True),
                                       {"ok": True, "logits_bytes": 8}], ids=["row", "8-bytes"])
    def test_hello_reply_with_a_frame_is_provider_io_error(self, abc_vocab, reply):
        """A hello asks for no rows, so its reply may announce no frame."""
        server = LineServer(scripted({"hello": reply}))
        try:
            with pytest.raises(ProviderIOError, match=r"'logits_bytes' must be an integer "
                                                      r"in \[0, 0\]"):
                connect_external(server.address, abc_vocab, timeout=2.0)
        finally:
            server.close()


class TestProviderServer:
    def test_failed_bind_closes_the_socket(self, abc_vocab):
        with ProviderServer(HashProvider(abc_vocab), {}) as taken:
            host, _, port = taken.address.rpartition(":")
            with pytest.raises(OSError):
                ProviderServer(HashProvider(abc_vocab), {}, host, int(port))
        gc.collect()  # an unclosed socket warns as it is collected

    def test_vocab_hash_guard(self, abc_vocab, constant_provider_cls):
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        other = Vocabulary(tokens=("<s>", "</s>", "<unk>", "x", "y", "z"))
        with ProviderServer(provider, {}) as server:
            with pytest.raises(ConfigurationError):
                connect_external(server.address, other, timeout=2.0)

    def test_loopback_decode_bit_identical(self, abc_vocab):
        refs = [abc_vocab.encode("a b c", append_eos=True),
                abc_vocab.encode("b c", append_eos=True),
                abc_vocab.encode("c a", append_eos=True)]
        corrector = train_ngram_corrector(refs, abc_vocab, order=2,
                                          smoothing=0.2, vote_weight=0.6)
        contexts = {}
        for i, text in enumerate(["a b", "b c a", "c", "a c b", "b b"]):
            ctx = UtteranceContext(
                utt_id=f"u{i}",
                nbest=(abc_vocab.encode(text, append_eos=True),
                       abc_vocab.encode("a", append_eos=True)),
            )
            contexts[ctx.utt_id] = ctx

        with ProviderServer(corrector, contexts) as server:
            remote = connect_external(server.address, abc_vocab, timeout=5.0)
            try:
                for ctx in contexts.values():
                    local_res = greedy_decode(corrector, ctx, max_len=8)
                    remote_res = greedy_decode(remote, ctx, max_len=8)
                    assert remote_res.tokens == local_res.tokens
                    # raw logits survive the wire bit-exactly
                    raw_local = corrector.next_logits((0,), ctx)
                    raw_remote = remote.next_logits((0,), ctx)
                    np.testing.assert_array_equal(raw_local, raw_remote)
            finally:
                remote.close()

    def test_both_ends_of_a_tcp_connection_set_nodelay(self, abc_vocab, constant_provider_cls,
                                                       monkeypatch):
        # a large reply's last segment must not wait on Nagle's algorithm
        accepted, serve = [], ProviderServer._serve_connection

        def recording(server, conn):
            accepted.append(conn)
            serve(server, conn)

        monkeypatch.setattr(ProviderServer, "_serve_connection", recording)
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        with ProviderServer(provider, {}) as server:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                # the hello has had its reply, so the server's end is set up
                ends = [remote._transport._sock, *accepted]
                assert [end.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                        for end in ends] == [True, True]

    def test_a_refused_socket_option_is_a_provider_io_error(self, abc_vocab,
                                                            constant_provider_cls, monkeypatch):
        # as any other connect failure, and the connected socket is closed
        refused = []

        def refuse(sock, *args):
            if threading.current_thread() is threading.main_thread():
                refused.append(sock)
            raise OSError("connection reset by peer")

        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        with ProviderServer(provider, {}) as server:
            monkeypatch.setattr(socket.socket, "setsockopt", refuse)
            with pytest.raises(ProviderIOError, match="cannot connect to .*connection reset"):
                connect_external(server.address, abc_vocab, timeout=2.0)
            monkeypatch.undo()
        assert len(refused) == 1 and refused[0].fileno() == -1

    def test_unknown_utterance_becomes_provider_io_error(self, abc_vocab, constant_provider_cls):
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        with ProviderServer(provider, {}) as server:
            remote = connect_external(server.address, abc_vocab, timeout=2.0)
            try:
                with pytest.raises(ProviderIOError):
                    remote.next_logits((0,), UtteranceContext(utt_id="missing"))
            finally:
                remote.close()


def scripted_stdio(step, hang_up=False, **names):
    """argv of a subprocess that accepts a hello and answers each step with
    the bytes of the expression `step`, evaluated with the request as
    `msg` and `names` in scope, with the request's id echoed (`echo_id`);
    with `hang_up`, it exits after that reply."""
    return [sys.executable, "-c", "\n".join([
        "import json, sys",
        inspect.getsource(echo_id),
        *(f"{name} = {value!r}" for name, value in names.items()),
        "out = sys.stdout.buffer",
        "for line in sys.stdin.buffer:",
        "    msg = json.loads(line)",
        "    hello = msg['op'] == 'hello'",
        f"    out.write({(json.dumps(HELLO_OK) + chr(10)).encode()!r} if hello "
        f"else echo_id({step}, msg))",
        "    out.flush()",
        f"    if {hang_up} and not hello:",
        "        break",
    ])]


class TestSubprocessEndpoint:
    @pytest.mark.parametrize("argv", [["/nonexistent/provider"], [sys.executable, "-c\0"]],
                             ids=["missing", "nul"])
    def test_command_that_cannot_start_is_provider_io_error(self, abc_vocab, argv):
        with pytest.raises(ProviderIOError, match="cannot start"):
            connect_external(argv, abc_vocab)
        gc.collect()  # an unclosed socket warns as it is collected

    def test_subprocess_echo(self, abc_vocab, empty_ctx):
        script = scripted_stdio("reply", reply=frame(one_hot(0, abc_vocab.size)))
        provider = connect_external(script, abc_vocab, timeout=5.0)
        try:
            logits = provider.next_logits((0,), empty_ctx)
            assert int(np.argmax(logits)) == 0
        finally:
            provider.close()

    def test_unsolicited_line_is_provider_io_error(self, empty_ctx):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c", "d"))
        script = scripted_stdio("hot[3 + len(msg['entries'][0]['history'])] + hot[3]",
                                hot=[frame(one_hot(i, vocab.size)) for i in range(vocab.size)])
        provider = connect_external(script, vocab, timeout=5.0)
        try:
            assert_steps_stay_paired(provider, empty_ctx)
        finally:
            provider.close()


class TestStdioServe:
    def test_serves_handshake_and_steps(self, abc_vocab, constant_provider_cls):
        import io

        provider = constant_provider_cls(abc_vocab, np.arange(abc_vocab.size, dtype=float))
        ctx = UtteranceContext(utt_id="u0")
        hello = json.dumps({"op": "hello", "vocab_size": abc_vocab.size,
                            "vocab_hash": abc_vocab.content_hash(),
                            "logits_encoding": LOGITS_ENCODING})
        step = json.dumps(step_request({"utt": "u0", "history": [0], "follow": []}))
        stdin = io.BytesIO((hello + "\n" + step + "\n").encode())
        stdout = io.BytesIO()
        stdio_serve(provider, {"u0": ctx}, stdin=stdin, stdout=stdout)
        (hello, no_frame), (step, logits) = read_replies(stdout.getvalue())
        assert hello == HELLO_OK and no_frame is None
        assert step == {"id": 0, "logits_bytes": 8 * abc_vocab.size, "rows": [1]}
        assert logits.tolist() == list(range(abc_vocab.size))


class HashProvider:
    """Full-mantissa logits seeded by (utterance, history). Ids 0 and 2
    carry -0.0 and the smallest subnormal, which a lossy encoding changes."""

    def __init__(self, vocab):
        self.vocab = vocab

    def next_logits(self, history, ctx):
        digest = hashlib.sha256(f"{ctx.utt_id}:{tuple(history)}".encode()).digest()
        logits = np.random.default_rng(int.from_bytes(digest[:8], "little")).normal(
            scale=4.0, size=self.vocab.size)
        logits[[0, 2]] = (-0.0, 5e-324)
        return logits


HASH_CONTEXTS = {f"u{i}": UtteranceContext(utt_id=f"u{i}") for i in range(4)}
# a step entry that asks for its one row
ONE_ROW = {"utt": "u0", "history": [0, 3], "follow": []}


def stdio_endpoint(vocab, utts=tuple(HASH_CONTEXTS)):
    """argv of a subprocess serving HashProvider through `stdio_serve`, for
    the utterances `utts` of HASH_CONTEXTS."""
    src = str(Path(latefuse.__file__).resolve().parents[1])
    return [sys.executable, "-c", "\n".join([
        f"import sys; sys.path.insert(0, {src!r})",
        "import hashlib",
        "import numpy as np",
        "from latefuse.core import Vocabulary",
        "from latefuse.providers import UtteranceContext",
        "from latefuse.wire import stdio_serve",
        textwrap.dedent(inspect.getsource(HashProvider)),
        f"stdio_serve(HashProvider(Vocabulary(tokens={vocab.tokens!r})),",
        f"            {{u: UtteranceContext(utt_id=u) for u in {list(utts)!r}}})",
    ])]


def assert_serves_like_in_process(remote, local):
    for ctx in HASH_CONTEXTS.values():
        assert greedy_decode(remote, ctx, max_len=8).tokens == \
            greedy_decode(local, ctx, max_len=8).tokens
        for history in ((0,), (0, 3), (0, 5, 4, 3)):
            raw = remote.next_logits(history, ctx)
            assert raw.dtype == np.float64 and raw.flags.writeable
            assert raw.tobytes() == local.next_logits(history, ctx).tobytes()


class TestLogitsEncoding:
    @pytest.mark.parametrize("encoding", [LOGITS_ENCODING, None, "base64-f64le"])
    def test_hello_must_ask_for_frames(self, abc_vocab, encoding):
        """A hello without the frame encoding is refused and ends the session."""
        provider = HashProvider(abc_vocab)
        hello = {"op": "hello", "vocab_size": abc_vocab.size,
                 "vocab_hash": abc_vocab.content_hash()}
        if encoding is not None:
            hello["logits_encoding"] = encoding
        step = step_request(ONE_ROW)
        stdin = io.BytesIO("".join(json.dumps(m) + "\n" for m in (hello, step, step)).encode())
        stdout = io.BytesIO()
        stdio_serve(provider, HASH_CONTEXTS, stdin=stdin, stdout=stdout)
        replies = read_replies(stdout.getvalue())
        if encoding == LOGITS_ENCODING:
            assert replies[0] == (HELLO_OK, None) and len(replies) == 3
            expected = provider.next_logits((0, 3), HASH_CONTEXTS["u0"])
            for _, logits in replies[1:]:
                assert logits.tobytes() == expected.tobytes()
        else:
            (reply, _), = replies
            assert reply["ok"] is False and "'logits_encoding'" in reply["error"]

    def test_tcp_is_bit_identical_to_in_process(self, abc_vocab):
        local = HashProvider(abc_vocab)
        with ProviderServer(local, HASH_CONTEXTS) as server:
            with connect_external(server.address, abc_vocab, timeout=5.0) as remote:
                assert_serves_like_in_process(remote, local)

    def test_stdio_is_bit_identical_to_in_process(self, abc_vocab):
        with connect_external(stdio_endpoint(abc_vocab), abc_vocab, timeout=10.0) as remote:
            assert_serves_like_in_process(remote, HashProvider(abc_vocab))


def header_line(**fields):
    return (json.dumps(fields) + "\n").encode()


ZEROS = [0.0] * 6  # a row of logits of the 6-token `abc_vocab`
EOS_ROW = one_hot(Vocabulary.EOS, 6)  # a row whose argmax is EOS, where argmax rows stop

# (id, step reply, whether the provider hangs up after it, the error it gives)
BAD_FRAMES = [
    ("frame-cut-then-eof", frame(ZEROS)[:-4], True, "closed its output"),
    ("header-then-eof", frame(ZEROS)[:-48], True, "closed its output"),
    # refused before a frame byte is read: none is sent, and none is awaited
    ("size-bool", header_line(logits_bytes=True), False, "'logits_bytes'"),
    ("size-negative", header_line(logits_bytes=-8), False, "'logits_bytes'"),
    ("size-float", header_line(logits_bytes=48.0), False, "'logits_bytes'"),
    ("size-string", header_line(logits_bytes="48"), False, "'logits_bytes'"),
    ("size-null", header_line(logits_bytes=None), False, "'logits_bytes'"),
    ("size-list", header_line(logits_bytes=[48]), False, "'logits_bytes'"),
    ("size-over-cap", header_line(logits_bytes=8 * 6 * wire.MAX_AHEAD + 8), False,
     "'logits_bytes'"),
    ("5-logits", frame(ZEROS[:5]), False, "expected 1 x 6"),
    ("7-logits", frame(ZEROS + [0.0]), False, "expected 1 x 6"),
    ("not-whole-float64s", frame(ZEROS, logits_bytes=45)[:-3], False, "expected 1 x 6"),
    ("2-rows-for-a-count-of-1", frame(ZEROS * 2), False, "expected 1 x 6"),
    ("trailing-newline", frame(ZEROS) + b"\n", False, "more than one reply|no request"),
    ("trailing-frame", frame(ZEROS) * 2, False, "more than one reply|no request"),
    ("nan", frame(ZEROS[:5] + [np.nan]), False, "non-finite"),
    ("inf", frame(ZEROS[:5] + [np.inf]), False, "non-finite"),
    ("-inf", frame([-np.inf] + ZEROS[:5]), False, "non-finite"),
    ("header-over-cap", frame(ZEROS, pad="x" * MAX_HEADER_BYTES), False, "longer than"),
    ("header-never-ends", b'{"pad": "' + b"x" * (2 * MAX_HEADER_BYTES), False, "longer than"),
    ("list-form-logits", header_line(logits=ZEROS), False, "carries no logits"),
    ("base64-logits", header_line(logits="AAAAAAAAAAA="), False, "carries no logits"),
    ("error-reply", header_line(error="boom"), False, "carries no logits"),
    ("header-not-json", b"{\n", False, "malformed response line"),
    ("header-not-object", b"[]\n", False, "JSON object response"),
    ("header-too-deep", b"[" * 2000 + b"]" * 2000 + b"\n", False, "nested too deeply"),
]


@contextlib.contextmanager
def scripted_endpoint(transport, reply, hang_up=False):
    """An endpoint, over TCP or a stdio subprocess, that accepts a hello and
    answers each step with the bytes `reply`."""
    if transport == "stdio":
        yield scripted_stdio("reply", hang_up, reply=reply)
        return
    server = LineServer(scripted({"hello": HELLO_OK,
                                  "step": [reply, None] if hang_up else reply}))
    try:
        yield server.address
    finally:
        server.close()


@pytest.mark.parametrize("transport", ["tcp", "stdio"])
class TestFrames:
    @pytest.mark.parametrize("reply, hang_up, error", [case[1:] for case in BAD_FRAMES],
                             ids=[case[0] for case in BAD_FRAMES])
    def test_bad_frame_is_provider_io_error(self, abc_vocab, empty_ctx, transport, reply,
                                            hang_up, error):
        with scripted_endpoint(transport, reply, hang_up) as endpoint, \
                connect_external(endpoint, abc_vocab, timeout=5.0) as remote:
            remote.prefetch([(empty_ctx, None)])  # its requests ask for 32 rows
            with pytest.raises(ProviderIOError, match=error):
                for history in ((0,), (0, 3)):  # stray bytes fail the next exchange
                    remote.next_logits(history, empty_ctx)

    def test_frame_of_newline_bytes_is_read_whole(self, abc_vocab, empty_ctx, transport):
        """0x0A ends the header line, but not a frame that is full of it.
        Its rows are equal, so their argmax, id 0, is never EOS, and an
        argmax entry gets MAX_AHEAD of them."""
        newlines = b"\n" * (wire.MAX_AHEAD * 8 * abc_vocab.size)
        reply = header_line(logits_bytes=len(newlines), rows=[wire.MAX_AHEAD]) + newlines
        with scripted_endpoint(transport, reply) as endpoint, \
                connect_external(endpoint, abc_vocab, timeout=5.0) as remote:
            remote.prefetch([(empty_ctx, None)])
            for history in ((0,), (0, 0), (0,)):
                assert remote.next_logits(history, empty_ctx).tobytes() == newlines[:48]
            assert (remote.round_trips, remote.rows_used, remote.rows_received) == \
                (2, 3, 2 * wire.MAX_AHEAD)


@pytest.mark.parametrize("reply", [case[1] for case in BAD_FRAMES if not case[2]]
                         + [frame(ZEROS[:2]), frame([np.nan] * 6)],
                         ids=[case[0] for case in BAD_FRAMES if not case[2]]
                         + ["2-logits", "all-nan"])
def test_decode_against_a_bad_server_exits_4(abc_vocab, tmp_path, reply):
    abc_vocab.save(tmp_path / "vocab.txt")
    (tmp_path / "test.jsonl").write_text(json.dumps(
        {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
    with scripted_endpoint("tcp", reply) as endpoint:
        assert cli.main([
            "decode", "--corpus", str(tmp_path / "test.jsonl"),
            "--vocab", str(tmp_path / "vocab.txt"), "--mode", "llm",
            "--llm-endpoint", endpoint, "--timeout", "2",
            "--out", str(tmp_path / "hyp.jsonl")]) == 4


def random_sizes(rng, total):
    """Chunk sizes adding up to at least `total`: 1-byte chunks, or random ones."""
    if rng.random() < 0.25:
        return [1] * total
    sizes = []
    while sum(sizes) < total:
        sizes.append(rng.randint(1, max(1, total // rng.choice((2, 5, 40)))))
    return sizes


class ScriptedSocket:
    """The four socket methods `_TcpTransport` uses: `fileno` and `close`
    of the real socket `sock`, and `recv` and `sendall` as the test scripts
    them; `recv` ignores the size asked for."""

    def __init__(self, sock, recv, sendall=lambda data: None):
        self._sock, self._recv, self._sendall = sock, recv, sendall

    def fileno(self):
        return self._sock.fileno()

    def recv(self, bufsize):
        return self._recv()

    def sendall(self, data):
        self._sendall(data)

    def close(self):
        self._sock.close()


class TestLineChannel:
    """`_TcpTransport`'s framing over a socket pair. The test plays the
    provider, whose whole reply is pending once the request is sent, and
    picks the size of every chunk the transport receives. Rows are of
    200 logits."""


    @staticmethod
    def exchanges(replies, sizes):
        client, peer = socket.socketpair()
        replies, sizes = iter(replies), iter(sizes)
        channel = _TcpTransport(ScriptedSocket(client, lambda: client.recv(next(sizes, 65536)),
                                               lambda data: peer.sendall(next(replies, b""))),
                                200)
        try:
            while True:
                yield channel.round_trip(step_request({}))  # MAX_AHEAD rows asked
        finally:
            channel.close()
            peer.close()

    @staticmethod
    def reply_frames(seed):
        """A one-row reply and an argmax reply of 3 rows, the first of
        them as 0x0A bytes, as (bytes, header, logits)."""
        logits = np.random.default_rng(seed).normal(scale=10.0, size=600)
        logits[:200] = np.frombuffer(b"\n" * 1600, "<f8")
        return [(frame(rows, **header), {"logits_bytes": 8 * len(rows), **header}, rows)
                for rows, header in ((logits[:200], {"rows": [1]}), (logits, {"rows": [3]}))]

    @pytest.mark.parametrize("seed", range(25))
    def test_split_reply_parses_like_the_whole_frame(self, seed):
        rng = random.Random(seed)
        for data, header, logits in self.reply_frames(seed):
            sizes = random_sizes(rng, len(data))
            got_header, got_frame = next(self.exchanges([data], sizes))
            assert got_header == header
            assert bytes(got_frame) == logits.tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_any_byte_after_the_frame_is_provider_io_error(self, seed):
        rng = random.Random(seed)
        for data, _, _ in self.reply_frames(seed):
            extra = rng.choice([b"\n", b" ", b"{", data, rng.randbytes(rng.randint(1, 300))])
            sizes = random_sizes(rng, len(data) + len(extra))
            with pytest.raises(ProviderIOError):
                for _ in zip(range(2), self.exchanges([data + extra], sizes)):
                    pass  # the stray bytes fail this exchange or the next one

    @pytest.mark.parametrize("length, ok", [(MAX_HEADER_BYTES, True),
                                            (MAX_HEADER_BYTES + 1, False)])
    def test_header_line_cap(self, length, ok):
        line = b'{"p": "' + b"a" * (length - 9) + b'"}'
        assert len(line) == length
        replies = self.exchanges([line + b"\n"], random_sizes(random.Random(length), length))
        if ok:
            assert next(replies) == ({"p": "a" * (length - 9)}, bytearray())
        else:
            with pytest.raises(ProviderIOError, match=f"longer than {MAX_HEADER_BYTES} bytes"):
                next(replies)

    def test_endless_header_fails_without_reading_it_all(self):
        client, peer = socket.socketpair()
        chunks = []

        def recv():
            chunks.append(b"a" * 100)
            return chunks[-1]

        try:
            channel = _TcpTransport(ScriptedSocket(client, recv), 200)
            with pytest.raises(ProviderIOError, match=f"longer than {MAX_HEADER_BYTES} bytes"):
                channel.round_trip(step_request({}))
        finally:
            client.close()
            peer.close()
        assert len(chunks) == MAX_HEADER_BYTES // 100 + 1

    # (step request, the most rows its reply may carry)
    ASKED_ROWS = [
        ({"op": "hello"}, 0),
        (step_request({"follow": []}), 1),
        (step_request({}), wire.MAX_AHEAD),
        (step_request({"follow": [3, 4]}), 3),
        (step_request({"follow": [3] * 31}), wire.MAX_AHEAD),
        (step_request({}, {"follow": [3]}, {"follow": []}), wire.MAX_AHEAD + 3),
        (step_request(*[{}] * 16), 16 * wire.MAX_AHEAD),
    ]

    @pytest.mark.parametrize("size, ok", [(1000, True), (1001, False), (-1, False),
                                          (True, False), (8.0, False)])
    def test_frame_size_is_checked_before_the_frame_is_read(self, size, ok):
        """The header comes in one chunk; each later chunk is one frame byte.
        A one-row request over a vocabulary of 125 asks for 1000 bytes."""
        one_row = step_request({"follow": []})
        client, peer = socket.socketpair()
        chunks = [header_line(logits_bytes=size)]

        def recv():
            chunks.append(b"\n")
            return chunks[-2]

        try:
            channel = _TcpTransport(ScriptedSocket(client, recv), 125)
            if ok:
                assert channel.round_trip(one_row) == \
                    ({"logits_bytes": size}, bytearray(b"\n" * size))
            else:
                with pytest.raises(ProviderIOError, match="'logits_bytes' must be an integer "
                                                          r"in \[0, 1000\]"):
                    channel.round_trip(one_row)
        finally:
            client.close()
            peer.close()
        assert len(chunks) == (1 + size + 1 if ok else 2)

    @pytest.mark.parametrize("payload, rows", ASKED_ROWS, ids=lambda v: repr(v)[:60])
    @pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
    def test_frame_is_capped_by_the_rows_asked(self, payload, rows, extra, ok):
        """A reply may carry the rows its request asked for and no byte more;
        a larger "logits_bytes" fails before any frame byte is read."""
        size = 8 * 200 * rows + extra
        client, peer = socket.socketpair()
        chunks = [header_line(logits_bytes=size)]

        def recv():
            chunks.append(b"\n" * 8)
            return chunks[-2]

        try:
            channel = _TcpTransport(ScriptedSocket(client, recv), 200)
            if ok:
                assert channel.round_trip(payload)[1] == bytearray(b"\n" * size)
            else:
                with pytest.raises(ProviderIOError, match=r"'logits_bytes' must be an integer "
                                                          rf"in \[0, {size - 1}\]"):
                    channel.round_trip(payload)
                assert len(chunks) == 2
        finally:
            client.close()
            peer.close()

    @pytest.mark.parametrize("vocab_size", [3, 200, 50_000, 10 ** 7, 10 ** 9])
    def test_header_cap_fits_the_longest_valid_reply(self, vocab_size):
        """The longest legal step reply header: MAX_ENTRIES counts of
        MAX_AHEAD rows, the frame size of their rows and a large id, what
        a request of MAX_ENTRIES argmax entries may get. The header is
        built, not the frame: at the largest V it would take gigabytes."""
        n_rows = wire.MAX_ENTRIES * wire.MAX_AHEAD
        header = header_line(id=10 ** 12, logits_bytes=8 * n_rows * vocab_size,
                             rows=[wire.MAX_AHEAD] * wire.MAX_ENTRIES)
        assert len(header) - 1 <= MAX_HEADER_BYTES
        assert wire._rows_asked(self.ASKED_ROWS[-1][0]) == n_rows


def step_line(length):
    """A step request for one row of exactly `length` bytes, newline included."""
    line = json.dumps(step_request(ONE_ROW))
    return (line + " " * (length - len(line) - 1) + "\n").encode()


class TestRequestLineCap:
    def test_over_long_request_ends_the_stdio_session(self, abc_vocab):
        provider = HashProvider(abc_vocab)
        stdin = io.BytesIO((json.dumps(hello_request(abc_vocab)) + "\n").encode()
                           + step_line(MAX_REQUEST_BYTES) + step_line(MAX_REQUEST_BYTES + 1)
                           + step_line(100))
        stdout = io.BytesIO()
        stdio_serve(provider, HASH_CONTEXTS, stdin=stdin, stdout=stdout)
        _, (_, first), (second, _) = read_replies(stdout.getvalue())
        assert first.size == abc_vocab.size  # a line at the cap is served
        assert second == {"error": f"request line longer than {MAX_REQUEST_BYTES} bytes"}

    def test_over_long_request_closes_the_connection(self, abc_vocab):
        with ProviderServer(HashProvider(abc_vocab), HASH_CONTEXTS) as server:
            host, _, port = server.address.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=5.0) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(b"[" * (MAX_REQUEST_BYTES + 1))
                assert b"longer than" in reader.readline()
                assert reader.read() == b""


class WatchedServer(ProviderServer):
    """A ProviderServer that counts the connections whose requests ended."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ended = threading.Semaphore(0)

    def _serve_connection(self, conn):
        super()._serve_connection(conn)
        self.ended.release()


class TestCommandsCloseTheirConnections:
    """Each command closes its wire connections before it returns, also
    when it fails; the garbage collector is off, so nothing else does."""

    @pytest.mark.parametrize("argv, served, code, connections", [
        (["decode", "--mode", "llm", "--llm-endpoint"], ["u0"], 0, 1),
        (["decode", "--mode", "llm", "--llm-endpoint"], [], 4, 1),
        (["calibrate", "--which", "llm", "--llm-endpoint"], ["u0"], 0, 1),
        (["calibrate", "--which", "asr", "--asr-endpoint"], ["u0"], 0, 1),
        (["sweep", "--axis", "beta", "--beta-values", "0,0.5",
          "--asr-endpoint", "{}", "--llm-endpoint"], ["u0"], 0, 2),
    ], ids=["decode", "decode-exits-4", "calibrate", "calibrate-asr", "sweep"])
    def test_server_reads_end_of_stream(self, abc_vocab, tmp_path, argv, served, code,
                                        connections):
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(json.dumps(
            {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
        contexts = {utt: HASH_CONTEXTS[utt] for utt in served}
        gc.disable()
        try:
            with WatchedServer(HashProvider(abc_vocab), contexts) as server:
                assert cli.main([arg.format(server.address) for arg in argv] + [
                    server.address, "--corpus", str(tmp_path / "test.jsonl"),
                    "--vocab", str(tmp_path / "vocab.txt"), "--timeout", "2",
                    "--out", str(tmp_path / "out")]) == code
                for _ in range(connections):
                    assert server.ended.acquire(timeout=5.0)
        finally:
            gc.enable()

    @pytest.mark.parametrize("served, code", [(["u0"], 0), ([], 4)],
                             ids=["decode", "decode-exits-4"])
    def test_subprocess_is_stopped(self, abc_vocab, tmp_path, monkeypatch, served, code):
        started = []

        class RecordedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(wire.subprocess, "Popen", RecordedPopen)
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(json.dumps(
            {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"llm_endpoint": stdio_endpoint(abc_vocab, served)}))
        gc.disable()
        try:
            assert cli.main([
                "decode", "--mode", "llm", "--config", str(tmp_path / "cfg.json"),
                "--corpus", str(tmp_path / "test.jsonl"), "--vocab", str(tmp_path / "vocab.txt"),
                "--timeout", "10", "--out", str(tmp_path / "out")]) == code
            (proc,) = started
            assert proc.returncode is not None
        finally:
            gc.enable()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_protocol_messages():
    """(direction, JSON object) for each `->`/`<-` line of README's wire
    protocol section; a `...` outside a JSON string stands for numbers."""
    section = README.read_text().split("## Wire protocol", 1)[1].split("\n## ", 1)[0]
    messages = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line[:3] in ("-> ", "<- "):
                parts = line[3:].split('"')
                parts[::2] = [p.replace("...", "0.0") for p in parts[::2]]
                messages.append((line[:2], json.loads('"'.join(parts))))
    return messages


def test_readme_protocol_block_matches_the_client(abc_vocab, empty_ctx):
    """Every request the client sends, and every one of its entries, has
    the fields of README's example: an unannounced step, then the first
    step of an announced decode set and of an announced calibration set.
    The example's reply counts the rows of each entry, 1 + len(follow)
    for one with a follow and 1 to MAX_AHEAD for an argmax entry, and its
    frame holds them at V = 200."""
    messages = readme_protocol_messages()
    assert all(isinstance(m, dict) for _, m in messages)
    sent = []

    class RecordingTransport:
        def round_trip(self, payload):  # an argmax entry gets one row, of argmax EOS
            sent.append(payload)
            if payload["op"] == "hello":
                return HELLO_OK, bytearray()
            rows = [1 + len(entry.get("follow", ())) for entry in payload["entries"]]
            frame = np.tile(one_hot(Vocabulary.EOS, abc_vocab.size), sum(rows)).astype("<f8")
            return {"id": payload["id"], "logits_bytes": frame.nbytes, "rows": rows}, \
                bytearray(frame.tobytes())

        def close(self):
            pass

    remote = ExternalProvider(RecordingTransport(), abc_vocab)
    remote.next_logits((0,), empty_ctx)
    for follows in ([None, None], [(3,), (4, 5)]):
        remote.prefetch(list(zip([HASH_CONTEXTS["u1"], HASH_CONTEXTS["u2"]], follows)))
        remote.next_logits((0,), HASH_CONTEXTS["u1"])
    assert [direction for direction, _ in messages] == ["->", "<-", "->", "<-"]
    (_, hello), (_, ok), (_, request), (_, reply) = messages
    assert hello["logits_encoding"] == LOGITS_ENCODING and ok == HELLO_OK
    steps = sent[1:]
    assert {frozenset(p) for p in steps} == {frozenset(request)} == \
        {frozenset({"op", "id", "entries"})}
    assert [p["id"] for p in steps] == list(range(len(steps)))
    assert {frozenset(e) for p in steps for e in p["entries"]} == \
        {frozenset(e) for e in request["entries"]}
    assert max(len(p["entries"]) for p in steps) > 1
    assert [e.get("follow") for e in sent[1]["entries"]] == [[]]  # the unannounced step
    assert [] in [e.get("follow") for e in request["entries"]]
    assert set(reply) == {"id", "logits_bytes", "rows"} and reply["id"] == request["id"]
    assert len(reply["rows"]) == len(request["entries"])
    for n, entry in zip(reply["rows"], request["entries"]):
        assert n == 1 + len(entry["follow"]) if "follow" in entry else 1 <= n <= wire.MAX_AHEAD
    assert reply["logits_bytes"] == 8 * 200 * sum(reply["rows"])


def test_readme_names_resolve_in_their_modules():
    """Each `module.name` or `latefuse.module.name` of README.md, call
    parentheses aside, where module is a latefuse module, names something
    that module has, so the README names nothing the code removed."""
    modules = {path.stem for path in Path(latefuse.__file__).parent.glob("*.py")}
    refs = [(module, names.split(".")[1:]) for module, names in re.findall(
        r"`(?:latefuse\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", README.read_text())
        if module in modules]
    assert len(refs) >= 16
    missing = []
    for module, names in refs:
        value = importlib.import_module(f"latefuse.{module}")
        for name in names:
            value = getattr(value, name, missing)
        if value is missing:
            missing.append(".".join([module, *names]))
    assert not missing


def hello_request(vocab):
    return {"op": "hello", "vocab_size": vocab.size, "vocab_hash": vocab.content_hash(),
            "logits_encoding": LOGITS_ENCODING}


def served_steps(vocab, steps, hello=True, provider=None):
    """The (header, logits) replies of `stdio_serve` (`provider`, by default
    HashProvider) to `steps`."""
    head = [hello_request(vocab)] if hello else []
    stdin = io.BytesIO("".join(json.dumps(m) + "\n" for m in head + steps).encode())
    stdout = io.BytesIO()
    stdio_serve(provider or HashProvider(vocab), HASH_CONTEXTS, stdin=stdin, stdout=stdout)
    return read_replies(stdout.getvalue())[len(head):]


def argmax_path(provider, history, ctx):
    """The tokens the rows of an argmax entry at `history` follow: the
    provider's argmax, short of EOS, at most MAX_AHEAD - 1 of them."""
    path = []
    while len(path) < wire.MAX_AHEAD - 1:
        tok = int(np.argmax(provider.next_logits(tuple(history) + tuple(path), ctx)))
        if tok == Vocabulary.EOS:
            break
        path.append(tok)
    return path


class TestServerChecksRequests:
    @pytest.mark.parametrize("field", ["history", "follow"])
    @pytest.mark.parametrize("ids", [
        [0, 99], [0, 6], [0, -1], [0, 1.7], [0, 1.0], [0, "3"], [0, True], [0, None],
        [0, [3]], "0 3", 3, {"0": 3},
    ], ids=repr)
    def test_malformed_ids_get_an_error_naming_the_field(self, abc_vocab, field, ids):
        bad = step_request({"utt": "u0", "history": [0], field: ids})
        good = step_request(ONE_ROW)
        (error, _), (_, served) = served_steps(abc_vocab, [bad, good])
        assert set(error) == {"error"} and error["error"].startswith(f"'entries'[0]: {field!r}")
        assert served.size == abc_vocab.size  # the server keeps serving
        # without a hello, the first request gets an error and ends the session
        (error, logits), = served_steps(abc_vocab, [bad, good], hello=False)
        assert error == {"error": "the first request must be a hello, got op 'step'"}
        assert logits is None

    @pytest.mark.parametrize("utt", [["x"], {"a": 1}, 3, None], ids=repr)
    def test_malformed_utt_gets_an_error_naming_it(self, abc_vocab, utt):
        (error, _), (_, served) = served_steps(abc_vocab, [
            step_request({"utt": utt, "history": [0]}), step_request(ONE_ROW)])
        assert set(error) == {"error"} and error["error"].startswith("'entries'[0]: 'utt'")
        assert served.size == abc_vocab.size  # the server keeps serving

    @pytest.mark.parametrize("line, error", [
        (b"{\n", "malformed request line: "),
        (b"[]\n", "expected a JSON object request, got list"),
    ], ids=repr)
    def test_unparsable_request_gets_a_request_error(self, abc_vocab, line, error):
        hello = (json.dumps(hello_request(abc_vocab)) + "\n").encode()
        step = (json.dumps(step_request(ONE_ROW)) + "\n").encode()
        stdout = io.BytesIO()
        stdio_serve(HashProvider(abc_vocab), HASH_CONTEXTS,
                    stdin=io.BytesIO(hello + line + step), stdout=stdout)
        _, (reply, _), (_, served) = read_replies(stdout.getvalue())
        assert set(reply) == {"error"} and reply["error"].startswith(error)
        assert served.size == abc_vocab.size  # the server keeps serving

    def test_follow_longer_than_the_row_cap_is_an_error(self, abc_vocab):
        (at_cap, _), (over, _) = served_steps(abc_vocab, [
            step_request({"utt": "u0", "history": [0], "follow": [3] * n})
            for n in (wire.MAX_AHEAD - 1, wire.MAX_AHEAD)])
        assert at_cap["rows"] == [wire.MAX_AHEAD]
        assert set(over) == {"error"} and "'follow'" in over["error"]

    @pytest.mark.parametrize("first", [
        b'{"op": "step", "entries": [{"utt": "u0", "history": [0]}]}\n',
        b'{"op": "bye"}\n', b"[]\n", b"{\n"], ids=repr)
    def test_a_first_request_other_than_a_hello_ends_the_connection(self, abc_vocab, first):
        with ProviderServer(HashProvider(abc_vocab), HASH_CONTEXTS) as server:
            host, _, port = server.address.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=5.0) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(first + (json.dumps(hello_request(abc_vocab)) + "\n").encode())
                assert set(json.loads(reader.readline())) == {"error"}
                assert reader.read() == b""  # the hello after it is not served

    def test_client_sending_a_bad_id_gets_provider_io_error(self, abc_vocab):
        with ProviderServer(HashProvider(abc_vocab), HASH_CONTEXTS) as server:
            with connect_external(server.address, abc_vocab, timeout=5.0) as remote:
                with pytest.raises(ProviderIOError, match="'history'"):
                    remote.next_logits((0, 99), HASH_CONTEXTS["u0"])

    def test_lookahead_rows_follow_the_path(self, abc_vocab):
        """An entry's rows follow its follow, [] included, or without one
        the provider's argmax, short of EOS and at most MAX_AHEAD rows."""
        provider, ctx = HashProvider(abc_vocab), HASH_CONTEXTS["u1"]
        plain, followed, argmax = served_steps(abc_vocab, [
            step_request({"utt": "u1", "history": [0, 4], "follow": []}),
            step_request({"utt": "u1", "history": [0, 4], "follow": [5, 3, 3]}),
            step_request({"utt": "u1", "history": [0, 4]}),
        ])
        history, taken = (0, 4), argmax_path(provider, (0, 4), ctx)
        assert plain[0] == {"id": 0, "logits_bytes": 8 * abc_vocab.size, "rows": [1]}
        assert followed[0]["rows"] == [4]
        assert argmax[0]["rows"] == [len(taken) + 1]
        for (_, logits), path in zip((plain, followed, argmax), ([], [5, 3, 3], taken)):
            rows = logits.reshape(-1, abc_vocab.size)
            assert len(rows) == len(path) + 1
            for i, row in enumerate(rows):
                assert row.tobytes() == provider.next_logits(
                    history + tuple(path[:i]), ctx).tobytes()

    def test_argmax_rows_stop_at_max_ahead(self, abc_vocab, constant_provider_cls):
        """A provider whose argmax is never EOS: an argmax entry gets
        MAX_AHEAD rows."""
        provider = constant_provider_cls(abc_vocab, np.arange(abc_vocab.size, dtype=float))
        (header, logits), = served_steps(abc_vocab, [step_request({"utt": "u0", "history": [0]})],
                                         provider=provider)
        assert header["rows"] == [wire.MAX_AHEAD]
        assert logits.size == wire.MAX_AHEAD * abc_vocab.size

    def test_lookahead_follows_the_lower_of_tied_ids(self, abc_vocab):
        """Rows tie ids 3 and 5 until the history holds 4 ids, then offer
        EOS: the path takes id 3, as `argmax_token` does, and each row is
        the one that path's history gets. The client takes the same path
        from the tied rows: it serves each of them with no request more."""

        class TiedProvider:
            vocab = abc_vocab

            def next_logits(self, history, ctx):
                row = np.zeros(abc_vocab.size)
                if len(history) < 4:
                    row[[3, 5]] = 1.0
                    row[4] = 0.1 * history.count(3)  # the two paths' rows differ
                else:
                    row[Vocabulary.EOS] = 1.0
                return row

        provider, ctx = TiedProvider(), HASH_CONTEXTS["u0"]
        (header, logits), = served_steps(abc_vocab, [
            step_request({"utt": "u0", "history": [0]})], provider=provider)
        assert header["rows"] == [4]
        rows = logits.reshape(-1, abc_vocab.size)
        expected = [provider.next_logits((0,) + (3,) * i, ctx).tobytes() for i in range(4)]
        assert [row.tobytes() for row in rows] == expected
        with ProviderServer(provider, HASH_CONTEXTS) as server, \
                connect_external(server.address, abc_vocab, timeout=5.0) as remote:
            remote.prefetch([(ctx, None)])
            assert [remote.next_logits((0,) + (3,) * i, ctx).tobytes()
                    for i in range(4)] == expected
            assert (remote.round_trips, remote.rows_received) == (1, 4)

    U1 = {"utt": "u1", "history": [0]}

    @pytest.mark.parametrize("msg, error", [
        ({"op": "step", "id": 0}, "'entries' is a required field and is missing"),
        ({"op": "step", "id": 0, "utt": "u0", "history": [0]},
         "'entries' is a required field and is missing"),
        ({"op": "step", "id": 0, "utt": "u0", "history": [0], "more": [U1]},
         "'entries' is a required field and is missing"),
        (step_request(), f"'entries' must be a list of 1 to {wire.MAX_ENTRIES} objects"),
        (step_request(*[U1] * (wire.MAX_ENTRIES + 1)),
         f"'entries' must be a list of 1 to {wire.MAX_ENTRIES} objects"),
        ({"op": "step", "id": 0, "entries": 3}, "'entries' must be a list of 1 to"),
        ({"op": "step", "id": 0, "entries": U1}, "'entries' must be a list of 1 to"),
        ({"op": "step", "entries": [U1]}, "'id' is a required field and is missing"),
        (step_request(U1, request_id=-1), "'id' must be a non-negative integer"),
        (step_request(U1, request_id=True), "'id' must be a non-negative integer"),
        (step_request(U1, request_id=1.0), "'id' must be a non-negative integer"),
        (step_request(U1, request_id="0"), "'id' must be a non-negative integer"),
        (step_request(U1, request_id=None), "'id' must be a non-negative integer"),
        (step_request(U1, [0]), "'entries'[1] must be an object"),
        (step_request(U1, "u2"), "'entries'[1] must be an object"),
        (step_request(U1, {"utt": "nobody", "history": [0]}),
         "'entries'[1]: unknown utterance 'nobody'"),
        (step_request({"utt": 3, "history": [0]}), "'entries'[0]: 'utt'"),
        (step_request({"history": [0]}), "'entries'[0]: 'utt' is a required field"),
        (step_request({"utt": "u1"}), "'entries'[0]: 'history' must start with BOS"),
        (step_request({"utt": "u1", "history": [3]}),
         "'entries'[0]: 'history' must start with BOS"),
        (step_request({"utt": "u1", "history": [0, 99]}), "'entries'[0]: 'history' must be"),
        (step_request(U1, {"utt": "u1", "history": [0], "follow": [3] * wire.MAX_AHEAD}),
         "'entries'[1]: 'follow' holds more than"),
    ], ids=lambda v: repr(v)[:40])
    def test_malformed_entries_get_an_error_naming_them(self, abc_vocab, msg, error):
        (reply, logits), (_, served) = served_steps(abc_vocab, [msg, step_request(ONE_ROW)])
        assert set(reply) == {"error"} and reply["error"].startswith(error), reply
        assert logits is None
        assert served.size == abc_vocab.size  # the server keeps serving

    def test_rows_follow_each_entry_in_order(self, abc_vocab):
        provider = HashProvider(abc_vocab)
        entries = [ONE_ROW,
                   {"utt": "u1", "history": [0, 4], "follow": [5, 3]},
                   {"utt": "u2", "history": [0], "follow": []},
                   {"utt": "u3", "history": [0]}]
        (header, logits), (full, full_logits) = served_steps(abc_vocab, [
            step_request(*entries),
            step_request(*[{"utt": "u2", "history": [0], "follow": []}] * wire.MAX_ENTRIES)])
        assert set(header) == {"id", "logits_bytes", "rows"}
        paths = [[], [5, 3], [], argmax_path(provider, (0,), HASH_CONTEXTS["u3"])]
        assert header["rows"] == [len(path) + 1 for path in paths]
        rows = iter(logits.reshape(-1, abc_vocab.size))
        for entry, path in zip(entries, paths):
            for i in range(len(path) + 1):
                expected = provider.next_logits((*entry["history"], *path[:i]),
                                                HASH_CONTEXTS[entry["utt"]])
                assert next(rows).tobytes() == expected.tobytes()
        assert next(rows, None) is None
        # a request may list MAX_ENTRIES entries, one utterance's included
        assert full["rows"] == [1] * wire.MAX_ENTRIES
        assert full_logits.tobytes() == \
            provider.next_logits((0,), HASH_CONTEXTS["u2"]).tobytes() * wire.MAX_ENTRIES

    @pytest.mark.parametrize("history", [[], [3], [3, 0]], ids=repr)
    def test_history_must_start_with_bos(self, abc_vocab, history):
        (error, _), (_, served) = served_steps(abc_vocab, [
            step_request({"utt": "u0", "history": history}), step_request(ONE_ROW)])
        assert set(error) == {"error"} and "'entries'[0]: 'history'" in error["error"]
        assert served.size == abc_vocab.size  # the server keeps serving


def rows_reply(n_rows, rows, **header):
    """A reply of `n_rows` rows of 6 logits, 0, 1, 2, ... in order, whose
    "rows" counts are `rows`."""
    return frame(np.arange(n_rows * 6, dtype=float), rows=rows, **header)


ONE_REFERENCE = json.dumps({"id": "u0", "reference": "a b",
                            "nbest": [{"text": "a b", "score": 0.0}]}) + "\n"


class TestClientChecksLookaheadReplies:
    """The client announces its utterance with follow [3, 4], and sends it,
    or as a decode, and sends an argmax entry; each reply below is a
    ProviderIOError."""

    @pytest.mark.parametrize("with_follow, reply", [
        # counts that are no integers
        (False, frame(ZEROS, rows=["1"])),
        (False, frame(ZEROS, rows=[None])),
        (False, frame(ZEROS, rows=[[1]])),
        (False, frame(ZEROS, rows=[True])),
        (False, frame(ZEROS, rows=[1.0])),
        # an argmax entry's count outside [1, MAX_AHEAD]
        (False, rows_reply(0, [0])),
        (False, rows_reply(wire.MAX_AHEAD, [wire.MAX_AHEAD + 1])),
        (False, rows_reply(2, [-1])),
        # a frame of other than the rows counted
        (False, frame(ZEROS * 2)),
        (False, rows_reply(3, [2])),
        (False, header_line(logits=ZEROS * 2, rows=[2])),
        # "rows" missing, not a list, or not one count per entry
        (False, bare_frame(ZEROS)),
        (False, bare_frame(ZEROS, row=[1])),  # "row" in place of "rows"
        (False, frame(ZEROS, rows=None)),
        (False, frame(ZEROS, rows=1)),
        (False, frame(ZEROS, rows="[1]")),
        (False, frame(ZEROS, rows={"0": 1})),
        (False, frame(ZEROS, rows=[])),
        (False, rows_reply(2, [1, 1])),
        # a follow of 2 tokens: 3 rows, no fewer and no more
        (True, rows_reply(2, [2])),
        (True, rows_reply(1, [1])),
        (True, rows_reply(3, [4])),
        (True, rows_reply(3, [3.0])),
        (True, rows_reply(3, ["3"])),
        (True, rows_reply(2, [3])),
        (True, bare_frame(np.arange(18.0), path=[3, 4])),
        (True, frame(ZEROS * 2 + ZEROS[:5] + [np.nan], rows=[3])),
    ], ids=lambda v: repr(v)[:40])
    def test_bad_lookahead_reply_is_provider_io_error(self, abc_vocab, empty_ctx, with_follow,
                                                      reply):
        sent = []
        server = LineServer(scripted({"hello": HELLO_OK,
                                      "step": lambda msg: sent.append(msg) or reply}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(empty_ctx, (3, 4) if with_follow else None)])
                with pytest.raises(ProviderIOError):
                    remote.next_logits((0,), empty_ctx)
        finally:
            server.close()
        (entry,) = sent[0]["entries"]
        assert entry == {"utt": empty_ctx.utt_id, "history": [0],
                         **({"follow": [3, 4]} if with_follow else {})}

    def test_good_lookahead_reply_serves_its_rows(self, abc_vocab, empty_ctx):
        sent = []
        # 4 rows for the follow, else an argmax path of rows 0, 1, 2, ...: 5, 5, 5,
        # then a row whose argmax is EOS
        rows = np.arange(24.0).reshape(4, 6)
        rows[3] = EOS_ROW
        server = LineServer(scripted({"hello": HELLO_OK, "step": lambda msg: sent.append(msg)
                                      or frame(rows, rows=[4])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(empty_ctx, (3, 4, 5))])
                served = [remote.next_logits(history, empty_ctx)
                          for history in [(0,), (0, 3), (0, 3, 4), (0, 3, 4, 5)]]
                for row, logits in enumerate(served):
                    logits[:] = -1.0  # writable, and no other row changes
                    assert all(other.tolist() == rows[i].tolist()
                               for i, other in enumerate(served) if i > row)
                assert (remote.round_trips, remote.rows_used, remote.rows_received) == (1, 4, 4)
                # each kept row is handed out once: reading it again asks again
                assert remote.next_logits((0, 3), empty_ctx).tolist() == list(range(6))
                assert (remote.round_trips, remote.rows_used, remote.rows_received) == (2, 5, 8)
                assert remote.next_logits((0, 3, 5, 5, 5), empty_ctx).tolist() == EOS_ROW
                assert remote.round_trips == 2
        finally:
            server.close()
        assert len(sent) == 2 and "follow" not in sent[1]["entries"][0]

    # announced (follow) of u0, u1 and u2; the client lists all three in
    # the request for u0's first row
    ANNOUNCED = {"u0": (3, 4), "u1": (4,), "u2": None}

    @pytest.mark.parametrize("reply", [
        rows_reply(5, [3, 2]),
        rows_reply(11, [3, 2, 3, 3]),
        rows_reply(3, [3]),
        rows_reply(8, "[3, 2, 3]"),
        rows_reply(8, None),
        rows_reply(8, [3, 3, 2]),
        rows_reply(7, [3, 1, 3]),
        rows_reply(8, [2, 3, 3]),
        rows_reply(8, [3, 2, "3"]),
        rows_reply(8, [3, 2, 3.0]),
        rows_reply(8, [3, 2, [3]]),
        rows_reply(5, [3, 2, 0]),
        rows_reply(37, [3, 2, wire.MAX_AHEAD + 1]),
        rows_reply(7, [3, 2, 3]),
        rows_reply(9, [3, 2, 3]),
        bare_frame(np.arange(48.0), row=[3], more_rows=[2, 3]),
    ], ids=lambda v: repr(v)[:60])
    def test_bad_reply_to_several_entries_is_provider_io_error(self, abc_vocab, reply):
        sent = []
        server = LineServer(scripted({"hello": HELLO_OK,
                                      "step": lambda msg: sent.append(msg) or reply}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], f) for u, f in self.ANNOUNCED.items()])
                with pytest.raises(ProviderIOError):
                    remote.next_logits((0,), HASH_CONTEXTS["u0"])
        finally:
            server.close()
        assert sent[0]["entries"] == [
            {"utt": "u0", "history": [0], "follow": [3, 4]},
            {"utt": "u1", "history": [0], "follow": [4]},
            {"utt": "u2", "history": [0]}]

    def test_argmax_count_past_max_ahead_is_provider_io_error(self, abc_vocab):
        """Two announced decodes may get 2 * MAX_AHEAD rows, but neither
        more than MAX_AHEAD: a frame of the rows counted does not hide it."""
        server = LineServer(scripted({"hello": HELLO_OK, "step": rows_reply(
            wire.MAX_AHEAD + 2, [wire.MAX_AHEAD + 1, 1])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], None) for u in ("u0", "u1")])
                with pytest.raises(ProviderIOError, match="'rows' must count"):
                    remote.next_logits((0,), HASH_CONTEXTS["u0"])
        finally:
            server.close()

    @pytest.mark.parametrize("tokens, counts", [
        # u0's rows have argmax 3, 3, 3, EOS and u1's 4, EOS: their counts swapped
        ([3, 3, 3, 1, 4, 1], [2, 4]),
        ([3, 3, 4, 1], [2, 2]),  # u0's stop short of EOS
        ([3] * (wire.MAX_AHEAD - 1) + [4, 1], [wire.MAX_AHEAD - 1, 2]),
        ([3, 1, 3, 1, 4, 1], [4, 2]),  # u0's go on past EOS
        ([1, 3, 1, 4, 1], [3, 2]),
        ([3, 1, 4, 4], [2, 2]),  # u1's stop short of EOS
    ], ids=lambda v: repr(v)[:40])
    def test_argmax_count_off_the_stop_rule_is_provider_io_error(self, abc_vocab, tokens,
                                                                 counts):
        """Counts that are each in [1, MAX_AHEAD] and add up to the frame,
        over rows whose argmax `tokens` say where the server stops: at the
        first row whose argmax is EOS, or after MAX_AHEAD rows."""
        reply = frame([one_hot(t, abc_vocab.size) for t in tokens], rows=counts)
        server = LineServer(scripted({"hello": HELLO_OK, "step": reply}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], None) for u in ("u0", "u1")])
                with pytest.raises(ProviderIOError, match="must stop at the first whose argmax"):
                    remote.next_logits((0,), HASH_CONTEXTS["u0"])
                assert (remote.round_trips, remote.rows_received) == (0, 0)
        finally:
            server.close()

    def test_argmax_rows_stop_at_eos_or_at_max_ahead(self, abc_vocab):
        """u0's rows never have argmax EOS, so it gets MAX_AHEAD of them,
        and u1's end at their first of argmax EOS: each row is keyed along
        the argmax of those before it."""
        tokens = [3] * wire.MAX_AHEAD + [4, 1]
        server = LineServer(scripted({"hello": HELLO_OK, "step": frame(
            [one_hot(t, abc_vocab.size) for t in tokens], rows=[wire.MAX_AHEAD, 2])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], None) for u in ("u0", "u1")])
                assert [int(np.argmax(remote.next_logits((0,) + (3,) * i, HASH_CONTEXTS["u0"])))
                        for i in range(wire.MAX_AHEAD)] == [3] * wire.MAX_AHEAD
                assert remote.next_logits((0, 4), HASH_CONTEXTS["u1"]).tolist() == EOS_ROW
                assert (remote.round_trips, remote.rows_received) == (1, wire.MAX_AHEAD + 2)
        finally:
            server.close()

    def test_good_reply_to_several_entries_serves_every_entry(self, abc_vocab):
        sent = []
        rows = np.arange(48.0).reshape(8, 6)
        rows[7] = EOS_ROW  # u2's argmax rows: 5, 5, then EOS
        server = LineServer(scripted({"hello": HELLO_OK, "step": lambda msg: sent.append(msg)
                                      or frame(rows, rows=[3, 2, 3])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], f) for u, f in self.ANNOUNCED.items()])
                served = [remote.next_logits(history, HASH_CONTEXTS[utt]).tolist()
                          for utt, history in [("u0", (0,)), ("u0", (0, 3)), ("u0", (0, 3, 4)),
                                               ("u1", (0,)), ("u1", (0, 4)),
                                               ("u2", (0,)), ("u2", (0, 5)), ("u2", (0, 5, 5))]]
                assert served == rows.tolist()
                assert (remote.round_trips, remote.rows_used, remote.rows_received) == (1, 8, 8)
        finally:
            server.close()
        assert len(sent) == 1

    def test_argmax_entries_are_keyed_along_their_rows(self, abc_vocab):
        """A served reply to four announced decodes: the client keys each
        utterance's rows along the argmax of those rows, so a step along
        the provider's argmax reads them, and no request more."""
        local, utts = HashProvider(abc_vocab), list(HASH_CONTEXTS)
        (header, logits), = served_steps(abc_vocab, [step_request(
            *[{"utt": u, "history": [0]} for u in utts])])
        server = LineServer(scripted({"hello": HELLO_OK, "step": frame(logits, **header)}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(HASH_CONTEXTS[u], None) for u in utts])
                for u, n in zip(utts, header["rows"]):
                    ctx, history = HASH_CONTEXTS[u], (0,)
                    for _ in range(n):
                        row = remote.next_logits(history, ctx)
                        assert row.tobytes() == local.next_logits(history, ctx).tobytes()
                        history += (int(np.argmax(row)),)
                assert remote.round_trips == 1
                assert remote.rows_used == remote.rows_received == sum(header["rows"]) > 4
        finally:
            server.close()

    @pytest.mark.parametrize("command, reply", [
        ("decode", bare_frame(ZEROS)),
        ("decode", frame(ZEROS, rows="none")),
        ("decode", frame(ZEROS, rows=1)),
        ("decode", frame(ZEROS, rows=[])),
        ("decode", rows_reply(2, [1, 1])),
        ("decode", frame(ZEROS, rows=[True])),
        ("decode", rows_reply(2, [1.5])),
        ("decode", frame(ZEROS, rows=["1"])),
        ("decode", rows_reply(0, [0])),
        ("decode", rows_reply(wire.MAX_AHEAD, [wire.MAX_AHEAD + 1])),
        ("decode", rows_reply(3, [2])),
        ("decode", rows_reply(1, [2])),
        # argmax rows 5, 5, 5 that stop short of EOS, and rows past an argmax of EOS
        ("decode", rows_reply(3, [3])),
        ("decode", frame(EOS_ROW * 2, rows=[2])),
        # calibration follows "a b": 3 rows
        ("calibrate", rows_reply(2, [2])),
        ("calibrate", rows_reply(3, [4])),
    ], ids=lambda v: repr(v)[:40])
    def test_command_against_a_bad_lookahead_server_exits_4(self, abc_vocab, tmp_path, command,
                                                             reply):
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(ONE_REFERENCE)
        server = LineServer(scripted({"hello": HELLO_OK, "step": reply}))
        argv = ["decode", "--mode", "llm"] if command == "decode" else \
            ["calibrate", "--which", "llm"]
        try:
            assert cli.main(argv + [
                "--corpus", str(tmp_path / "test.jsonl"), "--vocab", str(tmp_path / "vocab.txt"),
                "--llm-endpoint", server.address, "--timeout", "2",
                "--out", str(tmp_path / "out")]) == 4
        finally:
            server.close()
        assert not (tmp_path / "out").exists()

    def test_reply_at_both_caps_is_read(self, abc_vocab):
        """A header line of MAX_HEADER_BYTES with a frame of MAX_AHEAD rows
        for each of MAX_ENTRIES announced utterances, the most rows they
        may get."""
        contexts = [UtteranceContext(utt_id=f"v{i}") for i in range(wire.MAX_ENTRIES)]
        path = [5] * (wire.MAX_AHEAD - 1)  # the argmax of each row
        logits = np.arange(wire.MAX_ENTRIES * wire.MAX_AHEAD * abc_vocab.size, dtype=float)
        rows = [wire.MAX_AHEAD] * wire.MAX_ENTRIES
        header = {"id": 0, "logits_bytes": logits.nbytes, "rows": rows, "pad": ""}
        header["pad"] = "x" * (MAX_HEADER_BYTES - len(json.dumps(header)))
        assert len(json.dumps(header)) == MAX_HEADER_BYTES
        server = LineServer(scripted({"hello": HELLO_OK, "step": frame(
            logits, id=0, rows=rows, pad=header["pad"])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(ctx, None) for ctx in contexts])
                assert remote.next_logits((0,), contexts[0]).tolist() == list(range(6))
                last = remote.next_logits((0, *path), contexts[-1])
                assert last.tolist() == logits[-6:].tolist()
                assert remote.rows_received == wire.MAX_ENTRIES * wire.MAX_AHEAD
                assert remote.round_trips == 1
        finally:
            server.close()

    @pytest.mark.parametrize("length, code", [(MAX_HEADER_BYTES, 0),
                                              (MAX_HEADER_BYTES + 1, 4)])
    def test_header_one_byte_past_the_cap_exits_4(self, abc_vocab, tmp_path, length, code):
        header = {"id": 0, "logits_bytes": 8 * abc_vocab.size, "rows": [1], "pad": ""}
        header["pad"] = "x" * (length - len(json.dumps(header)))
        assert frame(EOS_ROW, id=0, pad=header["pad"]).index(b"\n") == length
        reply = lambda msg: frame(EOS_ROW, id=msg["id"], pad=header["pad"])  # ids below 10
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(ONE_REFERENCE)
        server = LineServer(scripted({"hello": HELLO_OK, "step": reply}))
        try:
            assert cli.main([
                "decode", "--corpus", str(tmp_path / "test.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"), "--mode", "llm",
                "--llm-endpoint", server.address, "--timeout", "2",
                "--out", str(tmp_path / "hyp.jsonl")]) == code
        finally:
            server.close()

    def test_a_plan_ends_once_fetched_or_left(self, abc_vocab, empty_ctx):
        sent = []

        def step(msg):  # the rows of the follow, or one argmax row, each of argmax EOS
            sent.append(msg)
            n_rows = 1 + len(msg["entries"][0].get("follow", []))
            return frame(EOS_ROW * n_rows, rows=[n_rows])

        server = LineServer(scripted({"hello": HELLO_OK, "step": step}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch([(empty_ctx, (3, 4))])
                remote.next_logits((0, 5), empty_ctx)  # leaves the plan
                remote.next_logits((0,), empty_ctx)
                remote.prefetch([(empty_ctx, (3,))])
                remote.next_logits((0,), empty_ctx)  # fetches the plan to its end
                remote.next_logits((0,), empty_ctx)
        finally:
            server.close()
        assert [[entry.get("follow") for entry in msg["entries"]] for msg in sent] == \
            [[None], [None], [[3]], [None]]


class CountingTransport:
    """A transport that counts the step requests passing through it."""

    def __init__(self, transport):
        self._transport = transport
        self.steps = 0

    def round_trip(self, payload):
        self.steps += payload["op"] == "step"
        return self._transport.round_trip(payload)

    def close(self):
        self._transport.close()


def counted_connection(address, vocab):
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    transport = CountingTransport(wire._TcpTransport(sock, vocab.size))
    return ExternalProvider(transport, vocab), transport


def recorded_connection(address, vocab):
    """A client of `address`, past its hello, and the list of the requests
    it sends from then on."""
    remote, transport = counted_connection(address, vocab)
    sent = []
    transport.round_trip = lambda payload, rt=transport.round_trip: \
        sent.append(payload) or rt(payload)
    return remote, sent


def take_the_argmin(remote, local, contexts, n_steps=8):
    """Step each of `contexts` `n_steps` times along the argmin of the rows
    `remote` serves, each checked against `local`; the number of steps."""
    steps = 0
    for ctx in contexts:
        history = (Vocabulary.BOS,)
        for _ in range(n_steps):
            row = remote.next_logits(history, ctx)
            assert row.tobytes() == local.next_logits(history, ctx).tobytes()
            history += (int(np.argmin(row)),)
            steps += 1
    return steps


class TieFreeHashProvider(HashProvider):
    """HashProvider without its -0.0 and subnormal entries, which the
    softmax turns into a tie the raw logits do not have."""

    def next_logits(self, history, ctx):
        logits = super().next_logits(history, ctx)
        logits[[0, 2]] = (-1.5, -2.5)
        return logits


class RolledHashProvider(TieFreeHashProvider):
    """TieFreeHashProvider's logits rolled by one id: another argmax."""

    def next_logits(self, history, ctx):
        return np.roll(super().next_logits(history, ctx), 1)


def hash_references(vocab, lengths, contexts=HASH_CONTEXTS):
    """(ctx, EOS-terminated reference) pairs over `contexts`."""
    rng = random.Random(7)
    return [(ctx, tuple(rng.randint(3, vocab.size - 1) for _ in range(n - 1)) + (1,))
            for ctx, n in zip(contexts.values(), lengths)]


def plain_request(msg) -> bool:
    """Whether `msg` is a step request of one entry that asks for one row."""
    return set(msg) == {"op", "id", "entries"} and len(msg["entries"]) == 1 and \
        set(msg["entries"][0]) == {"utt", "history", "follow"} and \
        msg["entries"][0]["follow"] == []


MANY_CONTEXTS = {f"m{i}": UtteranceContext(utt_id=f"m{i}") for i in range(40)}


def lookahead_round_trips(provider, ctx, tokens):
    """Round trips of a decode of at most MAX_AHEAD steps that emits
    `tokens`: one, plus one after each token other than the argmax of the
    raw logits, the server's path."""
    history, trips = (Vocabulary.BOS,), 1
    for tok in tokens[:-1]:
        trips += tok != int(np.argmax(provider.next_logits(history, ctx)))
        history += (tok,)
    return trips


class TestRoundTrips:
    """Count-based guards on the lookahead: no timing, exact counts."""

    def test_greedy_decode_makes_one_round_trip_per_utterance(self, abc_vocab):
        local = TieFreeHashProvider(abc_vocab)
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                for ctx in HASH_CONTEXTS.values():
                    remote.prefetch([(ctx, None)])
                    served = greedy_decode(remote, ctx, max_len=wire.MAX_AHEAD)
                    here = greedy_decode(local, ctx, max_len=wire.MAX_AHEAD)
                    assert served.tokens == here.tokens
                    assert all(a.tobytes() == b.tobytes()
                               for a, b in zip(served.steps, here.steps))
        assert transport.steps == remote.round_trips == len(HASH_CONTEXTS)

    @pytest.mark.parametrize("asr", [None, RolledHashProvider],
                             ids=["greedy-with-softmax-ties", "fused-with-overrides"])
    def test_leaving_the_raw_argmax_adds_one_round_trip(self, abc_vocab, asr):
        if asr is None:
            local = HashProvider(abc_vocab)
            decode = lambda llm, ctx: greedy_decode(llm, ctx, max_len=16)
        else:
            local, asr = TieFreeHashProvider(abc_vocab), asr(abc_vocab)
            cfg = FusionConfig(mode="static", w_asr=1.0)
            decode = lambda llm, ctx: fused_greedy_decode(llm, asr, cfg, ctx, max_len=16)
        expected = 0
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                for ctx in HASH_CONTEXTS.values():
                    remote.prefetch([(ctx, None)])
                    served, here = decode(remote, ctx), decode(local, ctx)
                    assert served.tokens == here.tokens
                    expected += lookahead_round_trips(local, ctx, served.tokens)
        assert expected > len(HASH_CONTEXTS)
        assert transport.steps == remote.round_trips == expected

    def test_announced_decode_asks_for_a_full_path_on_every_request(self, abc_vocab):
        """Steps that always take the served argmin, never the argmax: the
        utterances were announced, so every entry of every request asks for
        the argmax rows all the same."""
        local = TieFreeHashProvider(abc_vocab)
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, sent = recorded_connection(server.address, abc_vocab)
            with remote:
                remote.prefetch([(ctx, None) for ctx in HASH_CONTEXTS.values()])
                steps = take_the_argmin(remote, local, HASH_CONTEXTS.values())
        assert all(set(entry) == {"utt", "history"} for msg in sent for entry in msg["entries"])
        assert [len(msg["entries"]) for msg in sent[:2]] == [len(HASH_CONTEXTS), 1]
        # the first request brings every first row; every other step left a path
        assert remote.round_trips == len(sent) == steps - (len(HASH_CONTEXTS) - 1)
        assert remote.rows_used == steps

    def test_unannounced_steps_send_plain_requests(self, abc_vocab):
        """Steps of utterances nobody announced, whether they take the served
        argmin or follow the argmax, ask for their one row each, one entry
        of "follow": [] per request."""
        local = TieFreeHashProvider(abc_vocab)
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, sent = recorded_connection(server.address, abc_vocab)
            with remote:
                steps = take_the_argmin(remote, local, HASH_CONTEXTS.values())
                for ctx in HASH_CONTEXTS.values():
                    served = greedy_decode(remote, ctx, max_len=8)
                    assert served.tokens == greedy_decode(local, ctx, max_len=8).tokens
                    steps += len(served.steps)
        assert all(plain_request(msg) for msg in sent)
        assert remote.round_trips == len(sent) == steps
        assert remote.rows_received == remote.rows_used == steps

    @pytest.mark.parametrize("n", [1, wire.MAX_ENTRIES, wire.MAX_ENTRIES + 1, 40])
    def test_calibration_makes_one_round_trip_per_block_of_references(self, abc_vocab, n):
        """References of 1 to MAX_AHEAD tokens, announced by `collect_traces`:
        MAX_ENTRIES of them per round trip, and every row is used."""
        local = HashProvider(abc_vocab)
        lengths = [1, 7, wire.MAX_AHEAD, 5] * 10
        dataset = hash_references(abc_vocab, lengths[:n], MANY_CONTEXTS)
        with ProviderServer(local, MANY_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                traces, targets, _ = collect_traces(remote, dataset)
        here, _, _ = collect_traces(local, dataset)
        assert traces.tobytes() == here.tobytes()
        assert transport.steps == remote.round_trips == math.ceil(n / wire.MAX_ENTRIES)
        assert remote.rows_used == remote.rows_received == len(targets)

    @pytest.mark.parametrize("n", [1, wire.MAX_ENTRIES, wire.MAX_ENTRIES + 1, 40])
    def test_announced_decode_set_makes_one_round_trip_per_block(self, abc_vocab, n):
        """`decode_eval_set` announces its utterances: a decode set that
        follows the served argmax makes one round trip per MAX_ENTRIES."""
        local = TieFreeHashProvider(abc_vocab)
        eval_set = [(ctx, ["w"] * 10) for ctx in list(MANY_CONTEXTS.values())[:n]]
        cfgs = [FusionConfig(mode="llm")]
        with ProviderServer(local, MANY_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                served = list(decode_eval_set(remote, None, cfgs, eval_set))
        here = list(decode_eval_set(local, None, cfgs, eval_set))
        assert [r.tokens for r in served] == [r.tokens for r in here]
        assert all(a.tobytes() == b.tobytes()
                   for x, y in zip(served, here) for a, b in zip(x.steps, y.steps))
        assert transport.steps == remote.round_trips == math.ceil(n / wire.MAX_ENTRIES)

    def test_each_detour_of_an_announced_decode_adds_one_round_trip(self, abc_vocab):
        local, asr = TieFreeHashProvider(abc_vocab), RolledHashProvider(abc_vocab)
        eval_set = [(ctx, ["w"] * 3) for ctx in list(MANY_CONTEXTS.values())[:20]]
        cfgs = [FusionConfig(mode="static", w_asr=1.0)]
        with ProviderServer(local, MANY_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                served = list(decode_eval_set(remote, asr, cfgs, eval_set))
        here = list(decode_eval_set(local, asr, cfgs, eval_set))
        assert [r.tokens for r in served] == [r.tokens for r in here]
        detours = sum(lookahead_round_trips(local, ctx, r.tokens) - 1
                      for (ctx, _), r in zip(eval_set, served))
        assert detours > len(eval_set)
        assert transport.steps == remote.round_trips == \
            math.ceil(len(eval_set) / wire.MAX_ENTRIES) + detours

    @pytest.mark.parametrize("n", [1, wire.MAX_ENTRIES + 1, 40])
    def test_served_channel_is_announced_in_mode_asr_only(self, abc_vocab, n):
        """Mode asr follows the acoustic model's argmax, so `decode_eval_set`
        announces its set to a served channel: one round trip per
        MAX_ENTRIES utterances. A fused decode leaves that argmax, so it
        does not announce it, and each of its steps asks for one row."""
        noisy = np.full((6, 6), 0.05)
        np.fill_diagonal(noisy, 0.75)
        channel = AcousticChannel(abc_vocab, noisy / noisy.sum(axis=1, keepdims=True))
        rng = random.Random(n)
        eval_set = []
        for i in range(n):
            words = [rng.choice("abc") for _ in range(rng.randint(1, 8))]
            ref = abc_vocab.encode(" ".join(words), append_eos=True)
            eval_set.append((UtteranceContext(utt_id=f"c{i}", observation=(0,) + ref), words))
        contexts = {ctx.utt_id: ctx for ctx, _ in eval_set}
        llm = TieFreeHashProvider(abc_vocab)
        for cfg in (FusionConfig(mode="asr"), FusionConfig(mode="uadf")):
            with ProviderServer(channel, contexts) as server:
                remote, sent = recorded_connection(server.address, abc_vocab)
                with remote:
                    served = list(decode_eval_set(llm, remote, [cfg], eval_set))
            here = list(decode_eval_set(llm, channel, [cfg], eval_set))
            assert [r.tokens for r in served] == [r.tokens for r in here]
            assert [list(map(step_bytes, r.steps)) for r in served] == \
                [list(map(step_bytes, r.steps)) for r in here]
            if cfg.mode == "asr":
                assert remote.round_trips == len(sent) == math.ceil(n / wire.MAX_ENTRIES)
            else:
                assert all(plain_request(msg) for msg in sent)
                assert remote.round_trips == remote.rows_received == remote.rows_used

    def test_client_keeps_the_rows_of_at_most_max_entries_utterances(self, abc_vocab):
        local, asr = TieFreeHashProvider(abc_vocab), RolledHashProvider(abc_vocab)
        eval_set = [(ctx, ["w"] * 5) for ctx in MANY_CONTEXTS.values()]
        dataset = hash_references(abc_vocab, [9, 3, 40] * 13, MANY_CONTEXTS)
        kept = []
        with ProviderServer(local, MANY_CONTEXTS) as server:
            remote, _ = counted_connection(server.address, abc_vocab)
            step = remote.next_logits

            def next_logits(history, ctx):
                row = step(history, ctx)
                kept.append(len(remote._rows))
                return row

            remote.next_logits = next_logits
            with remote:
                for _ in decode_eval_set(remote, asr, [FusionConfig(mode="uadf")], eval_set):
                    pass
                collect_traces(remote, dataset)
        assert max(kept) == wire.MAX_ENTRIES

    def test_long_reference_is_sent_in_stretches(self, abc_vocab):
        local = HashProvider(abc_vocab)
        dataset = hash_references(abc_vocab, [2 * wire.MAX_AHEAD + 1])
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                traces, _, _ = collect_traces(remote, dataset)
        assert traces.tobytes() == collect_traces(local, dataset)[0].tobytes()
        assert transport.steps == 3

class Untabled:
    """A served corrector without `lattices`: it forwards `next_logits` and
    `prefetch`, so a decode set reads it at every step. The oracle of the
    decodes, and of the requests, of a served corrector's tables."""

    def __init__(self, remote):
        self.vocab = remote.vocab
        self.next_logits = remote.next_logits
        self.prefetch = remote.prefetch


def served_decode_set(address, llm, asr, cfgs, eval_set, oracle=False):
    """The results of a decode set whose corrector `llm` is served at
    `address`, through `Untabled` if `oracle`; the step requests it sent;
    its client's (round_trips, rows_received, rows_used); and the number
    of rows its `lattices` calls returned, and the lattices, one per
    utterance."""
    remote, sent = recorded_connection(address, llm.vocab)
    lattices, table_rows = [], [0]
    if not oracle:
        read = remote.lattices

        def recorded(ctxs):
            keys, raw = read(ctxs)
            lattices.extend(keys)
            table_rows[0] += len(raw)
            return keys, raw

        remote.lattices = recorded
    with remote:
        results = list(decode_eval_set(Untabled(remote) if oracle else remote, asr, cfgs,
                                       eval_set))
    counters = remote.round_trips, remote.rows_received, remote.rows_used
    return results, sent, counters, table_rows[0], lattices


class TestServedTables:
    """A served corrector's `lattices` are the argmax paths its client holds
    from BOS, so a decode set decides their steps in `choice_tables`, and
    decodes, and sends its requests, exactly as one that reads a row at
    every step."""

    @staticmethod
    def served(small_walkthrough):
        vocab, train, asr, val, test = small_walkthrough
        llm = train_ngram_corrector(train, vocab, order=2, smoothing=0.1, vote_weight=0.85)
        return llm, asr, test, ProviderServer(llm, {ctx.utt_id: ctx for ctx, _ in test})

    @pytest.mark.parametrize("mode", ["llm", "static", "uadf"])
    def test_table_decode_equals_the_step_by_step_decode(self, small_walkthrough, mode):
        llm, asr, test, server = self.served(small_walkthrough)
        cfgs = [FusionConfig(mode=mode, tau1=0.8, tau2=1.2, w_asr=0.5)]
        with server:
            results, sent, counters, table_rows, lattices = served_decode_set(
                server.address, llm, asr, cfgs, test)
            oracle, oracle_sent, oracle_counters, _, _ = served_decode_set(
                server.address, llm, asr, cfgs, test, oracle=True)
        fields = [decode_fields(r) for r in results]
        assert fields == [decode_fields(r) for r in oracle]
        assert fields == [decode_fields(r) for r in decode_eval_set(llm, asr, cfgs, test)]
        assert sent == oracle_sent
        assert counters[:2] == oracle_counters[:2]
        kinds = [walk_kind(step) for r in results for step in r.steps]
        assert all(keys is not None for keys in lattices) and kinds.count("hit") > len(test)
        # rows used: the rows a step or a table read
        assert counters[2] == table_rows + kinds.count("miss")
        assert oracle_counters[2] == len(kinds)
        if mode == "llm":  # every row received is on a path that a table reads
            assert counters[2] == counters[1] == table_rows

    def test_a_later_utterance_without_rows_decodes_step_by_step(self, small_walkthrough,
                                                                 monkeypatch):
        """Chunks of 3 utterances: the 16 the first request lists end inside
        the chunk of the 16th to 18th, so its lattices hold only the 16th's
        path, and the 17th and 18th decode step by step; the 17th's first
        step makes the request it makes without tables. So does the 33rd,
        the last of its chunk."""
        monkeypatch.setattr(decoding, "CHUNK_UTTERANCES", 3)
        llm, asr, test, server = self.served(small_walkthrough)
        cfgs = [FusionConfig(mode="uadf", tau1=0.8, tau2=1.2)]
        with server:
            results, sent, counters, _, lattices = served_decode_set(
                server.address, llm, asr, cfgs, test)
            oracle, oracle_sent, oracle_counters, _, _ = served_decode_set(
                server.address, llm, asr, cfgs, test, oracle=True)
        cut = wire.MAX_ENTRIES
        # an utterance is listed by the request for the first of every 16,
        # and held from its chunk's lattices on if that is its chunk's
        assert [u for u, keys in enumerate(lattices) if keys is None] == \
            [u for u in range(len(test)) if u // cut * cut > u // 3 * 3] == [cut, cut + 1, 32]
        assert [walk_kind(step) for step in results[cut].steps] == \
            ["miss"] * len(results[cut].steps)
        assert [decode_fields(r) for r in results] == [decode_fields(r) for r in oracle]
        assert sent == oracle_sent and counters[:2] == oracle_counters[:2]
        assert [u["utt"] for u in sent[0]["entries"]] == [ctx.utt_id for ctx, _ in test[:cut]]

    def test_sweep_over_the_wire_writes_the_in_process_csv(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        for argv in (["simulate", "--out-dir", data, "--n-train", 40, "--n-val", 5,
                      "--n-test", 30, "--seed", 4],
                     ["train-lm", "--corpus", data / "train.jsonl",
                      "--vocab", data / "vocab.txt", "--out", tmp_path / "lm.json"]):
            assert cli.main([str(a) for a in argv]) == 0
        vocab = Vocabulary.load(data / "vocab.txt")
        llm = cli.build_provider(
            ProviderSpec("ngram-corrector", {"model_path": str(tmp_path / "lm.json")}), vocab)
        contexts = {rec.id: corpus.record_context(rec, vocab)[0]
                    for rec in corpus.load_corpus(data / "test.jsonl")}
        tables = []
        read = ExternalProvider.lattices
        monkeypatch.setattr(ExternalProvider, "lattices",
                            lambda self, ctxs: tables.append(len(ctxs)) or read(self, ctxs))
        argv = ["sweep", "--axis", "beta", "--beta-values", "0,0.25,0.5,0.75",
                "--corpus", data / "test.jsonl", "--vocab", data / "vocab.txt",
                "--manifest", data / "manifest.json"]
        with ProviderServer(llm, contexts) as server:
            assert cli.main([str(a) for a in argv] + [
                "--llm-endpoint", server.address, "--out", str(tmp_path / "served.csv")]) == 0
        assert cli.main([str(a) for a in argv] + [
            "--lm-model", str(tmp_path / "lm.json"), "--out", str(tmp_path / "local.csv")]) == 0
        assert (tmp_path / "served.csv").read_bytes() == (tmp_path / "local.csv").read_bytes()
        assert sum(tables) == len(contexts)


class TestWireCounters:
    @pytest.mark.parametrize("argv, role, rows", [
        (["decode", "--mode", "llm", "--llm-endpoint"], "llm", None),
        (["calibrate", "--which", "llm", "--llm-endpoint"], "llm", 3),
        (["calibrate", "--which", "asr", "--asr-endpoint"], "asr", 3),
    ], ids=["decode", "calibrate", "calibrate-asr"])
    def test_command_prints_its_wire_counters(self, abc_vocab, tmp_path, capsys, argv, role,
                                              rows):
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(json.dumps(
            {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
        with ProviderServer(HashProvider(abc_vocab), HASH_CONTEXTS) as server:
            assert cli.main(argv + [
                server.address, "--corpus", str(tmp_path / "test.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"), "--timeout", "5",
                "--out", str(tmp_path / "out")]) == 0
        if rows is None:  # the path a table read, one row per decoded token
            rows = len(greedy_decode(HashProvider(abc_vocab), HASH_CONTEXTS["u0"],
                                     evaluation_max_len(["a", "b"])).tokens)
        line = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(rf"{role} over the wire: 1 round trips, {rows} of (\d+) rows used",
                             line)
        assert match and int(match.group(1)) >= rows, line

    def test_sweep_prints_a_line_per_wire_provider(self, abc_vocab, tmp_path, capsys):
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(json.dumps(
            {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
        with ProviderServer(HashProvider(abc_vocab), HASH_CONTEXTS) as server:
            assert cli.main([
                "sweep", "--axis", "beta", "--beta-values", "0,0.5",
                "--llm-endpoint", server.address, "--asr-endpoint", server.address,
                "--corpus", str(tmp_path / "test.jsonl"), "--vocab", str(tmp_path / "vocab.txt"),
                "--timeout", "5", "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()[-2:]
        for role, line in zip(("llm", "asr"), lines):
            match = re.fullmatch(rf"{role} over the wire: (\d+) round trips, "
                                 r"(\d+) of (\d+) rows used", line)
            assert match, line
            trips, used, received = map(int, match.groups())
            assert 1 <= trips <= used <= received
