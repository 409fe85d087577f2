import contextlib
import gc
import hashlib
import inspect
import io
import json
import random
import re
import socket
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import latefuse
from latefuse import cli, wire
from latefuse.core import Vocabulary
from latefuse.calibration import collect_traces
from latefuse.decoding import evaluation_max_len, fused_greedy_decode, greedy_decode
from latefuse.errors import ConfigurationError, ProviderIOError
from latefuse.fusion import FusionConfig
from latefuse.providers import UtteranceContext, train_ngram_corrector
from latefuse.wire import (LOGITS_ENCODING, MAX_HEADER_BYTES, MAX_REQUEST_BYTES,
                           ExternalProvider, ProviderServer, _LineChannel, connect_external,
                           max_logits_bytes, stdio_serve)


def frame(logits, **header):
    """A step reply: a header line announcing `logits` as little-endian
    float64s, unless `header` sets another "logits_bytes", then those bytes."""
    raw = np.asarray(logits, dtype="<f8").tobytes()
    return (json.dumps({"logits_bytes": len(raw), **header}) + "\n").encode() + raw


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
    def reply(msg):
        return replies_by_op[msg["op"]](msg) if callable(replies_by_op[msg["op"]]) \
            else replies_by_op[msg["op"]]
    return reply


class TestExternalProvider:
    def test_echo_server_fixed_logits(self, abc_vocab, empty_ctx):
        fixed = frame([1.0] + [0.0] * (abc_vocab.size - 1))
        server = LineServer(scripted({"hello": {"ok": True}, "step": fixed}))
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
        server = LineServer(scripted({"hello": {"ok": True}, "step": short}))
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

    def test_timeout_is_provider_io_error(self, abc_vocab, empty_ctx):
        server = LineServer(scripted({"hello": {"ok": True},
                                      "step": lambda msg: None}))  # never answers
        provider = connect_external(server.address, abc_vocab, timeout=0.2)
        try:
            with pytest.raises(ProviderIOError):
                provider.next_logits((0,), empty_ctx)
        finally:
            provider.close()
            server.close()

    def test_unsolicited_line_is_provider_io_error(self, empty_ctx):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c", "d"))
        server = LineServer(scripted({
            "hello": {"ok": True},
            "step": lambda msg: [frame(one_hot(3 + len(msg["history"]), vocab.size)),
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


class TestProviderServer:
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
    `msg` and `names` in scope; with `hang_up`, it exits after that reply."""
    return [sys.executable, "-c", "\n".join([
        "import json, sys",
        *(f"{name} = {value!r}" for name, value in names.items()),
        "out = sys.stdout.buffer",
        "for line in sys.stdin.buffer:",
        "    msg = json.loads(line)",
        "    hello = msg['op'] == 'hello'",
        f"    out.write(b'{{\"ok\": true}}\\n' if hello else {step})",
        "    out.flush()",
        f"    if {hang_up} and not hello:",
        "        break",
    ])]


class TestSubprocessEndpoint:
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
        script = scripted_stdio("hot[3 + len(msg['history'])] + hot[3]",
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
        step = json.dumps({"op": "step", "utt": "u0", "history": [0]})
        stdin = io.BytesIO((hello + "\n" + step + "\n").encode())
        stdout = io.BytesIO()
        stdio_serve(provider, {"u0": ctx}, stdin=stdin, stdout=stdout)
        (hello, no_frame), (step, logits) = read_replies(stdout.getvalue())
        assert hello == {"ok": True} and no_frame is None
        assert step == {"logits_bytes": 8 * abc_vocab.size}
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


def stdio_endpoint(vocab):
    """argv of a subprocess serving HashProvider through `stdio_serve`."""
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
        f"            {{u: UtteranceContext(utt_id=u) for u in {list(HASH_CONTEXTS)!r}}})",
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
        step = {"op": "step", "utt": "u0", "history": [0, 3]}
        stdin = io.BytesIO("".join(json.dumps(m) + "\n" for m in (hello, step, step)).encode())
        stdout = io.BytesIO()
        stdio_serve(provider, HASH_CONTEXTS, stdin=stdin, stdout=stdout)
        replies = read_replies(stdout.getvalue())
        if encoding == LOGITS_ENCODING:
            assert replies[0] == ({"ok": True}, None) and len(replies) == 3
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
    ("size-over-cap", header_line(logits_bytes=max_logits_bytes(6) + 8), False,
     "'logits_bytes'"),
    ("5-logits", frame(ZEROS[:5]), False, "expected 1 x 6"),
    ("7-logits", frame(ZEROS + [0.0]), False, "expected 1 x 6"),
    ("not-whole-float64s", frame(ZEROS, logits_bytes=45)[:-3], False, "expected 1 x 6"),
    ("2-rows-without-path", frame(ZEROS * 2), False, "expected 1 x 6"),
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
    server = LineServer(scripted({"hello": {"ok": True},
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
            with pytest.raises(ProviderIOError, match=error):
                for history in ((0,), (0, 3)):  # stray bytes fail the next exchange
                    remote.next_logits(history, empty_ctx)

    def test_frame_of_newline_bytes_is_read_whole(self, abc_vocab, empty_ctx, transport):
        """0x0A ends the header line, but not a frame that is full of it."""
        newlines = b"\n" * (2 * 8 * abc_vocab.size)
        reply = header_line(logits_bytes=len(newlines), path=[3]) + newlines
        with scripted_endpoint(transport, reply) as endpoint, \
                connect_external(endpoint, abc_vocab, timeout=5.0) as remote:
            for history in ((0,), (0, 3), (0,)):
                assert remote.next_logits(history, empty_ctx).tobytes() == newlines[:48]
            assert (remote.round_trips, remote.rows_used, remote.rows_received) == (2, 3, 4)


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


class TestLineChannel:
    """`_LineChannel` over a socket pair. The test plays the provider, whose
    whole reply is pending once the request is sent, and picks the size of
    every chunk the channel receives."""

    @staticmethod
    def exchanges(replies, sizes, max_frame=1 << 20):
        client, peer = socket.socketpair()
        replies, sizes = iter(replies), iter(sizes)
        channel = _LineChannel(client.fileno(), lambda: client.recv(next(sizes, 65536)),
                               max_frame)
        try:
            while True:
                yield channel.exchange(lambda data: peer.sendall(next(replies, b"")),
                                       {"op": "step"})
        finally:
            client.close()
            peer.close()

    @staticmethod
    def reply_frames(seed):
        """A one-row reply and a lookahead reply of 3 rows, the first of
        them as 0x0A bytes, as (bytes, header, logits)."""
        logits = np.random.default_rng(seed).normal(scale=10.0, size=600)
        logits[:200] = np.frombuffer(b"\n" * 1600, "<f8")
        return [(frame(rows, **header), {"logits_bytes": 8 * len(rows), **header}, rows)
                for rows, header in ((logits[:200], {}), (logits, {"path": [5, 7]}))]

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
            channel = _LineChannel(client.fileno(), recv, max_frame=1000)
            with pytest.raises(ProviderIOError, match=f"longer than {MAX_HEADER_BYTES} bytes"):
                channel.exchange(lambda data: None, {"op": "step"})
        finally:
            client.close()
            peer.close()
        assert len(chunks) == MAX_HEADER_BYTES // 100 + 1

    @pytest.mark.parametrize("size, ok", [(1000, True), (1001, False), (-1, False),
                                          (True, False), (8.0, False)])
    def test_frame_size_is_checked_before_the_frame_is_read(self, size, ok):
        """The header comes in one chunk; each later chunk is one frame byte."""
        client, peer = socket.socketpair()
        chunks = [header_line(logits_bytes=size)]

        def recv():
            chunks.append(b"\n")
            return chunks[-2]

        try:
            channel = _LineChannel(client.fileno(), recv, max_frame=1000)
            if ok:
                assert channel.exchange(lambda data: None, {"op": "step"}) == \
                    ({"logits_bytes": size}, bytearray(b"\n" * size))
            else:
                with pytest.raises(ProviderIOError, match="'logits_bytes' must be an integer "
                                                          r"in \[0, 1000\]"):
                    channel.exchange(lambda data: None, {"op": "step"})
        finally:
            client.close()
            peer.close()
        assert len(chunks) == (1 + size + 1 if ok else 2)

    @pytest.mark.parametrize("vocab_size", [3, 200, 50_000])
    def test_caps_fit_the_longest_valid_replies(self, vocab_size):
        rows = np.full((wire.MAX_AHEAD, vocab_size), -2.2250738585072014e-308)
        data = frame(rows, path=[vocab_size - 1] * (wire.MAX_AHEAD - 1))
        header, _, logits = data.partition(b"\n")
        assert len(header) <= MAX_HEADER_BYTES
        assert len(logits) == max_logits_bytes(vocab_size)


def step_line(length):
    """A step request of exactly `length` bytes, newline included."""
    line = json.dumps({"op": "step", "utt": "u0", "history": [0]})
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
        (["reliability", "--which", "llm", "--llm-endpoint"], ["u0"], 0, 1),
        (["sweep", "--axis", "beta", "--beta-values", "0,0.5",
          "--asr-endpoint", "{}", "--llm-endpoint"], ["u0"], 0, 2),
    ], ids=["decode", "decode-exits-4", "calibrate", "reliability", "sweep"])
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
    messages = readme_protocol_messages()
    assert all(isinstance(m, dict) for _, m in messages)
    sent = []

    class RecordingTransport:
        def round_trip(self, payload):
            sent.append(payload)
            return {"ok": True, "logits_bytes": 8 * abc_vocab.size}, bytearray(8 * abc_vocab.size)

        def close(self):
            pass

    ExternalProvider(RecordingTransport(), abc_vocab).next_logits((0,), empty_ctx)
    assert {m["op"]: set(m) for direction, m in messages if direction == "->"} == \
        {p["op"]: set(p) for p in sent}
    hello = next(m for direction, m in messages if m.get("op") == "hello")
    assert hello["logits_encoding"] == LOGITS_ENCODING
    replies = [m for direction, m in messages if direction == "<-" and "ok" not in m]
    assert replies and all(type(m["logits_bytes"]) is int for m in replies)


def hello_request(vocab):
    return {"op": "hello", "vocab_size": vocab.size, "vocab_hash": vocab.content_hash(),
            "logits_encoding": LOGITS_ENCODING}


def served_steps(vocab, steps, hello=True):
    """The (header, logits) replies of `stdio_serve` (HashProvider) to `steps`."""
    head = [hello_request(vocab)] if hello else []
    stdin = io.BytesIO("".join(json.dumps(m) + "\n" for m in head + steps).encode())
    stdout = io.BytesIO()
    stdio_serve(HashProvider(vocab), HASH_CONTEXTS, stdin=stdin, stdout=stdout)
    return read_replies(stdout.getvalue())[len(head):]


class TestServerChecksRequests:
    @pytest.mark.parametrize("field", ["history", "follow"])
    @pytest.mark.parametrize("ids", [
        [0, 99], [0, 6], [0, -1], [0, 1.7], [0, 1.0], [0, "3"], [0, True], [0, None],
        [0, [3]], "0 3", 3, {"0": 3},
    ], ids=repr)
    def test_malformed_ids_get_an_error_naming_the_field(self, abc_vocab, field, ids):
        bad = {"op": "step", "utt": "u0", "history": [0], field: ids}
        good = {"op": "step", "utt": "u0", "history": [0, 3]}
        (error, _), (_, served) = served_steps(abc_vocab, [bad, good])
        assert set(error) == {"error"} and repr(field) in error["error"]
        assert served.size == abc_vocab.size  # the server keeps serving
        # without a hello, the first request gets an error and ends the session
        (error, logits), = served_steps(abc_vocab, [bad, good], hello=False)
        assert error == {"error": "the first request must be a hello, got op 'step'"}
        assert logits is None

    @pytest.mark.parametrize("ahead", [-1, True, 1.5, "3", None, [2]], ids=repr)
    def test_malformed_ahead_gets_an_error_naming_it(self, abc_vocab, ahead):
        (error, _), = served_steps(abc_vocab, [
            {"op": "step", "utt": "u0", "history": [0], "ahead": ahead}])
        assert set(error) == {"error"} and "'ahead'" in error["error"]

    @pytest.mark.parametrize("line, error", [
        (b"{\n", "malformed request line: "),
        (b"[]\n", "expected a JSON object request, got list"),
    ], ids=repr)
    def test_unparsable_request_gets_a_request_error(self, abc_vocab, line, error):
        hello = (json.dumps(hello_request(abc_vocab)) + "\n").encode()
        step = (json.dumps({"op": "step", "utt": "u0", "history": [0]}) + "\n").encode()
        stdout = io.BytesIO()
        stdio_serve(HashProvider(abc_vocab), HASH_CONTEXTS,
                    stdin=io.BytesIO(hello + line + step), stdout=stdout)
        _, (reply, _), (_, served) = read_replies(stdout.getvalue())
        assert set(reply) == {"error"} and reply["error"].startswith(error)
        assert served.size == abc_vocab.size  # the server keeps serving

    def test_follow_longer_than_the_row_cap_is_an_error(self, abc_vocab):
        (at_cap, _), (over, _) = served_steps(abc_vocab, [
            {"op": "step", "utt": "u0", "history": [0], "follow": [3] * n}
            for n in (wire.MAX_AHEAD - 1, wire.MAX_AHEAD)])
        assert at_cap["path"] == [3] * (wire.MAX_AHEAD - 1)
        assert set(over) == {"error"} and "'follow'" in over["error"]

    @pytest.mark.parametrize("first", [b'{"op": "step", "utt": "u0", "history": [0]}\n',
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
        provider, ctx = HashProvider(abc_vocab), HASH_CONTEXTS["u1"]
        plain, followed, ahead, both = served_steps(abc_vocab, [
            {"op": "step", "utt": "u1", "history": [0, 4]},
            {"op": "step", "utt": "u1", "history": [0, 4], "follow": [5, 3, 3]},
            {"op": "step", "utt": "u1", "history": [0, 4], "ahead": 500},
            {"op": "step", "utt": "u1", "history": [0, 4], "follow": [1], "ahead": 2},
        ])
        assert set(plain[0]) == {"logits_bytes"}
        assert followed[0]["path"] == [5, 3, 3]
        history, argmax_path = (0, 4), []
        while len(argmax_path) < wire.MAX_AHEAD - 1:
            tok = int(np.argmax(provider.next_logits(history + tuple(argmax_path), ctx)))
            if tok == Vocabulary.EOS:
                break
            argmax_path.append(tok)
        assert ahead[0]["path"] == argmax_path
        assert both[0]["path"][0] == 1 and len(both[0]["path"]) <= 3
        for header, logits in (plain, followed, ahead, both):
            path = header.get("path", [])
            rows = logits.reshape(-1, abc_vocab.size)
            assert len(rows) == len(path) + 1
            for i, row in enumerate(rows):
                assert row.tobytes() == provider.next_logits(
                    history + tuple(path[:i]), ctx).tobytes()

    @pytest.mark.parametrize("history", [[], [3], [3, 0]], ids=repr)
    def test_history_must_start_with_bos(self, abc_vocab, history):
        (error, _), (_, served) = served_steps(abc_vocab, [
            {"op": "step", "utt": "u0", "history": history},
            {"op": "step", "utt": "u0", "history": [0, 3]}])
        assert set(error) == {"error"} and "'history'" in error["error"]
        assert served.size == abc_vocab.size  # the server keeps serving


def rows_reply(n_rows, path):
    """A reply of `n_rows` rows of 6 logits, 0, 1, 2, ... in order."""
    return frame(np.arange(n_rows * 6, dtype=float), path=path)


class TestClientChecksLookaheadReplies:
    """The client sends follow [3, 4] (announced by `prefetch`) or, without
    it, ahead; each reply below is a ProviderIOError."""

    @pytest.mark.parametrize("prefetch, reply", [
        (False, frame(ZEROS, path="3")),
        (False, frame(ZEROS, path=None)),
        (False, frame(ZEROS, path={"0": 3})),
        (False, rows_reply(2, [True])),
        (False, rows_reply(2, [1.0])),
        (False, rows_reply(2, ["3"])),
        (False, rows_reply(2, [-1])),
        (False, rows_reply(2, [6])),
        (False, rows_reply(2, [None])),
        (False, rows_reply(1, [3])),
        (False, rows_reply(3, [3])),
        (False, rows_reply(2, [])),
        (False, frame(ZEROS * 2)),
        (False, header_line(logits=ZEROS * 2, path=[3])),
        (True, rows_reply(3, [4, 3])),
        (True, rows_reply(2, [3])),
        (True, rows_reply(1, [])),
        (True, rows_reply(4, [3, 5, 4])),
        (True, rows_reply(2, [3, 4])),
        (True, frame(ZEROS * 3 + ZEROS[:5] + [np.nan], path=[3, 4, 5])),
    ], ids=lambda v: repr(v)[:40])
    def test_bad_lookahead_reply_is_provider_io_error(self, abc_vocab, empty_ctx, prefetch,
                                                      reply):
        sent = []
        server = LineServer(scripted({"hello": {"ok": True},
                                      "step": lambda msg: sent.append(msg) or reply}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                if prefetch:
                    remote.prefetch((0,), (3, 4), empty_ctx)
                with pytest.raises(ProviderIOError):
                    remote.next_logits((0,), empty_ctx)
        finally:
            server.close()
        assert sent[0].get("follow") == ([3, 4] if prefetch else None)
        assert sent[0].get("ahead") == (None if prefetch else wire.MAX_AHEAD - 1)

    def test_good_lookahead_reply_serves_its_rows(self, abc_vocab, empty_ctx):
        sent = []
        server = LineServer(scripted({"hello": {"ok": True},
                                      "step": lambda msg: sent.append(msg)
                                      or rows_reply(4, [3, 4, 5])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch((0,), (3, 4), empty_ctx)
                served = [remote.next_logits(history, empty_ctx)
                          for history in [(0,), (0, 3), (0, 3, 4), (0, 3, 4, 5)]]
                for row, logits in enumerate(served):
                    logits[:] = -1.0  # writable, and no other row changes
                    assert all(other.tolist() == list(range(6 * i, 6 * i + 6))
                               for i, other in enumerate(served) if i > row)
                assert (remote.round_trips, remote.rows_used, remote.rows_received) == (1, 4, 4)
                # each kept row is handed out once: reading it again asks again
                assert remote.next_logits((0, 3), empty_ctx).tolist() == list(range(6))
                assert (remote.round_trips, remote.rows_used, remote.rows_received) == (2, 5, 8)
        finally:
            server.close()
        assert len(sent) == 2 and "follow" not in sent[1]

    @pytest.mark.parametrize("reply", [
        rows_reply(2, [1.5]), rows_reply(3, [3]), rows_reply(1, [3]),
        frame(ZEROS, path="none")], ids=lambda v: repr(v)[:40])
    def test_decode_against_a_bad_lookahead_server_exits_4(self, abc_vocab, tmp_path, reply):
        abc_vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "test.jsonl").write_text(json.dumps(
            {"id": "u0", "reference": "a b", "nbest": [{"text": "a b", "score": 0.0}]}) + "\n")
        server = LineServer(scripted({"hello": {"ok": True}, "step": reply}))
        try:
            assert cli.main([
                "decode", "--corpus", str(tmp_path / "test.jsonl"),
                "--vocab", str(tmp_path / "vocab.txt"), "--mode", "llm",
                "--llm-endpoint", server.address, "--timeout", "2",
                "--out", str(tmp_path / "hyp.jsonl")]) == 4
        finally:
            server.close()

    def test_reply_at_both_caps_is_read(self, abc_vocab, empty_ctx):
        """A header line of MAX_HEADER_BYTES with a frame of MAX_AHEAD rows."""
        path = [3] * (wire.MAX_AHEAD - 1)
        logits = np.arange(wire.MAX_AHEAD * abc_vocab.size, dtype=float)
        header = {"logits_bytes": logits.nbytes, "path": path, "pad": ""}
        header["pad"] = "x" * (MAX_HEADER_BYTES - len(json.dumps(header)))
        assert len(json.dumps(header)) == MAX_HEADER_BYTES
        assert logits.nbytes == max_logits_bytes(abc_vocab.size)
        server = LineServer(scripted({"hello": {"ok": True},
                                      "step": frame(logits, path=path, pad=header["pad"])}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                assert remote.next_logits((0,), empty_ctx).tolist() == list(range(6))
                assert remote.rows_received == wire.MAX_AHEAD
        finally:
            server.close()

    def test_a_plan_ends_once_fetched_or_left(self, abc_vocab, empty_ctx):
        sent = []
        server = LineServer(scripted({"hello": {"ok": True}, "step": lambda msg: sent.append(msg)
                                      or frame(ZEROS)}))
        try:
            with connect_external(server.address, abc_vocab, timeout=2.0) as remote:
                remote.prefetch((0,), (3, 4), empty_ctx)
                remote.next_logits((0, 5), empty_ctx)  # leaves the plan
                remote.next_logits((0,), empty_ctx)
                remote.prefetch((0,), (3,), empty_ctx)
                remote.next_logits((0,), empty_ctx)  # fetches the plan to its end
                remote.next_logits((0,), empty_ctx)
        finally:
            server.close()
        assert [set(msg) - {"op", "utt", "history"} for msg in sent] == [
            {"ahead"}, {"ahead"}, {"follow"}, {"ahead"}]


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
    transport = CountingTransport(wire._TcpTransport(host, int(port), 5.0,
                                                     max_logits_bytes(vocab.size)))
    return ExternalProvider(transport, vocab), transport


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


def hash_references(vocab, lengths):
    """(ctx, EOS-terminated reference) pairs over HASH_CONTEXTS."""
    rng = random.Random(7)
    return [(ctx, tuple(rng.randint(3, vocab.size - 1) for _ in range(n - 1)) + (1,))
            for ctx, n in zip(HASH_CONTEXTS.values(), lengths)]


def lookahead_round_trips(provider, ctx, tokens):
    """Round trips of a decode of at most MAX_AHEAD steps that emits
    `tokens`: one, plus one after each token other than the argmax of the
    raw logits, the server's path."""
    history, trips = (Vocabulary.BOS,), 1
    for tok in tokens[:-1]:
        trips += tok != int(np.argmax(provider.next_logits(history, ctx)))
        history += (tok,)
    return trips


class TestLookaheadLength:
    def test_first_request_and_a_decode_that_always_follows_ask_for_a_full_reply(self):
        assert [wire._ahead(taken, 0) for taken in (0, 1, 31, 10_000)] == \
            [wire.MAX_AHEAD - 1] * 4

    @pytest.mark.parametrize("follows, ahead", [(0.99, wire.MAX_AHEAD - 1), (0.9, 6),
                                                (0.75, 2), (0.6, 1), (0.45, 0), (0.0, 0)])
    def test_length_follows_the_share_of_rows_taken(self, follows, ahead):
        taken = round(100_000 * follows)
        assert wire._ahead(taken, 100_000 - taken) == ahead

    def test_leaving_shortens_and_taking_lengthens(self):
        assert [wire._ahead(0, left) for left in (0, 1, 2, 10, 63, 64)] == \
            [31, 22, 15, 4, 1, 0]
        assert [wire._ahead(taken, 64) for taken in (0, 64, 640)] == [0, 1, 7]


class TestRoundTrips:
    """Count-based guards on the lookahead: no timing, exact counts."""

    def test_greedy_decode_makes_one_round_trip_per_utterance(self, abc_vocab):
        local = TieFreeHashProvider(abc_vocab)
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                for ctx in HASH_CONTEXTS.values():
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
                    served, here = decode(remote, ctx), decode(local, ctx)
                    assert served.tokens == here.tokens
                    expected += lookahead_round_trips(local, ctx, served.tokens)
        assert expected > len(HASH_CONTEXTS)
        assert transport.steps == remote.round_trips == expected

    def test_decode_that_never_follows_the_path_soon_sends_plain_requests(self, abc_vocab):
        """Steps that always take the served argmin, never the argmax: the
        client stops asking for rows it would not take."""
        local = TieFreeHashProvider(abc_vocab)
        sent = []
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            transport.round_trip = lambda payload, rt=transport.round_trip: \
                sent.append(payload) or rt(payload)
            with remote:
                steps = 0
                for ctx in list(HASH_CONTEXTS.values()) * 40:
                    history = (Vocabulary.BOS,)
                    for _ in range(8):
                        row = remote.next_logits(history, ctx)
                        assert row.tobytes() == local.next_logits(history, ctx).tobytes()
                        history += (int(np.argmin(row)),)
                        steps += 1
        asks = ["ahead" in msg for msg in sent if msg["op"] == "step"]
        assert remote.round_trips == remote.rows_used == steps == len(asks)
        n_asks = asks.index(False)
        # 2 * MAX_AHEAD paths left, plus replies whose path was empty (argmax EOS)
        assert not any(asks[n_asks:]) and n_asks <= 4 * wire.MAX_AHEAD
        assert steps - n_asks > 400  # most of the decode sends plain requests
        assert remote.rows_received - remote.rows_used < 8 * wire.MAX_AHEAD

    def test_calibration_makes_one_round_trip_per_reference(self, abc_vocab):
        local = HashProvider(abc_vocab)
        dataset = hash_references(abc_vocab, [1, 7, wire.MAX_AHEAD, 5])
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                traces, targets = collect_traces(remote, dataset)
        here, _ = collect_traces(local, dataset)
        assert traces.tobytes() == here.tobytes()
        assert transport.steps == remote.round_trips == len(dataset)
        assert remote.rows_used == remote.rows_received == len(targets)

    def test_long_reference_is_sent_in_stretches(self, abc_vocab):
        local = HashProvider(abc_vocab)
        dataset = hash_references(abc_vocab, [2 * wire.MAX_AHEAD + 1])
        with ProviderServer(local, HASH_CONTEXTS) as server:
            remote, transport = counted_connection(server.address, abc_vocab)
            with remote:
                traces, _ = collect_traces(remote, dataset)
        assert traces.tobytes() == collect_traces(local, dataset)[0].tobytes()
        assert transport.steps == 3

    def test_server_ignoring_lookahead_is_served_one_step_per_round_trip(self, abc_vocab):
        local = HashProvider(abc_vocab)

        def step(msg):
            return frame(local.next_logits(tuple(msg["history"]), HASH_CONTEXTS[msg["utt"]]))

        server = LineServer(scripted({"hello": {"ok": True}, "step": step}))
        dataset = hash_references(abc_vocab, [3, wire.MAX_AHEAD + 5, 1, 9])
        try:
            with connect_external(server.address, abc_vocab, timeout=5.0) as remote:
                steps = 0
                for ctx in HASH_CONTEXTS.values():
                    served = greedy_decode(remote, ctx, max_len=12)
                    assert served.tokens == greedy_decode(local, ctx, max_len=12).tokens
                    steps += len(served.tokens)
                assert remote.round_trips == steps
                traces, targets = collect_traces(remote, dataset)
                assert traces.tobytes() == collect_traces(local, dataset)[0].tobytes()
                assert remote.round_trips == steps + len(targets)
                assert remote.rows_used == remote.rows_received == remote.round_trips
        finally:
            server.close()


class TestWireCounters:
    @pytest.mark.parametrize("argv, role, rows", [
        (["decode", "--mode", "llm", "--llm-endpoint"], "llm", None),
        (["calibrate", "--which", "llm", "--llm-endpoint"], "llm", 3),
        (["reliability", "--which", "asr", "--asr-endpoint"], "asr", 3),
    ], ids=["decode", "calibrate", "reliability"])
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
        if rows is None:  # one row per decoded token
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
