import json
import socket
import sys
import threading

import numpy as np
import pytest

from latefuse.core import Vocabulary
from latefuse.decoding import greedy_decode
from latefuse.errors import ConfigurationError, ProviderIOError
from latefuse.providers import UtteranceContext, train_ngram_corrector
from latefuse.wire import ProviderServer, connect_external, stdio_serve


class LineServer:
    """Raw scripted TCP server for protocol-violation tests; a reply that is
    a list is sent as that many lines in one write."""

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
                if reply is None:
                    return
                replies = reply if isinstance(reply, list) else [reply]
                conn.sendall("".join(json.dumps(r) + "\n" for r in replies).encode())

    def close(self):
        self.sock.close()


def one_hot(index, size):
    return [1.0 if i == index else 0.0 for i in range(size)]


def assert_steps_stay_paired(provider, ctx):
    """The provider answers history h with argmax 3 + len(h), then sends one
    unsolicited line (argmax 3). Every reply read must be the one asked
    for, and the stray line must end the exchange as a ProviderIOError."""
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
        fixed = [1.0] + [0.0] * (abc_vocab.size - 1)
        server = LineServer(scripted({"hello": {"ok": True}, "step": {"logits": fixed}}))
        provider = connect_external(server.address, abc_vocab, timeout=2.0)
        try:
            for history in ((0,), (0, 3), (0, 3, 4)):
                logits = provider.next_logits(history, empty_ctx)
                assert int(np.argmax(logits)) == 0
        finally:
            provider.close()
            server.close()

    def test_short_logits_vector_is_protocol_error(self, abc_vocab, empty_ctx):
        short = [0.0] * (abc_vocab.size - 1)
        server = LineServer(scripted({"hello": {"ok": True}, "step": {"logits": short}}))
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
            "step": lambda msg: [{"logits": one_hot(3 + len(msg["history"]), vocab.size)},
                                 {"logits": one_hot(3, vocab.size)}],
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


class TestProviderServer:
    def test_vocab_hash_guard(self, abc_vocab, constant_provider_cls):
        provider = constant_provider_cls(abc_vocab, np.zeros(abc_vocab.size))
        other = Vocabulary(tokens=("<s>", "</s>", "<unk>", "x", "y", "z"))
        with ProviderServer(provider, {}) as server:
            with pytest.raises(ConfigurationError):
                connect_external(server.address, other, timeout=2.0)

    def test_loopback_decode_bit_identical(self, abc_vocab):
        pairs = [((), abc_vocab.encode("a b c", append_eos=True)),
                 ((), abc_vocab.encode("b c", append_eos=True)),
                 ((), abc_vocab.encode("c a", append_eos=True))]
        corrector = train_ngram_corrector(pairs, abc_vocab, order=2,
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


class TestSubprocessEndpoint:
    def test_subprocess_echo(self, abc_vocab, empty_ctx):
        script = (
            "import json,sys\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    if msg['op'] == 'hello':\n"
            "        print(json.dumps({'ok': True}), flush=True)\n"
            "    else:\n"
            f"        print(json.dumps({{'logits': [1.0] + [0.0] * {abc_vocab.size - 1}}}), flush=True)\n"
        )
        provider = connect_external([sys.executable, "-c", script], abc_vocab, timeout=5.0)
        try:
            logits = provider.next_logits((0,), empty_ctx)
            assert int(np.argmax(logits)) == 0
        finally:
            provider.close()

    def test_unsolicited_line_is_provider_io_error(self, empty_ctx):
        vocab = Vocabulary(tokens=("<s>", "</s>", "<unk>", "a", "b", "c", "d"))
        script = (
            "import json,sys\n"
            f"def hot(i): return [1.0 if j == i else 0.0 for j in range({vocab.size})]\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    if msg['op'] == 'hello':\n"
            "        print(json.dumps({'ok': True}), flush=True)\n"
            "    else:\n"
            "        reply = json.dumps({'logits': hot(3 + len(msg['history']))})\n"
            "        stray = json.dumps({'logits': hot(3)})\n"
            "        sys.stdout.write(reply + '\\n' + stray + '\\n')\n"
            "        sys.stdout.flush()\n"
        )
        provider = connect_external([sys.executable, "-c", script], vocab, timeout=5.0)
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
                            "vocab_hash": abc_vocab.content_hash()})
        step = json.dumps({"op": "step", "utt": "u0", "history": [0]})
        stdin = io.BytesIO((hello + "\n" + step + "\n").encode())
        stdout = io.BytesIO()
        stdio_serve(provider, {"u0": ctx}, stdin=stdin, stdout=stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert replies[0] == {"ok": True}
        assert replies[1]["logits"] == list(range(abc_vocab.size))
