"""The wire client against a scripted NDJSON listener.

No daemon runs here: :class:`ScriptedDaemon` answers each request line
with frames built by :mod:`repro.serve.protocol`, so every terminal
status -- including EOF and silence, which a healthy daemon never
produces on purpose -- is reached deliberately.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import client, protocol
from repro.serve.client import Client
from repro.serve.top import poll_ops
from tests.test_serve_telemetry import _gc_closed_sockets

#: ends a script: hang up after the frames before it
CLOSE = object()
#: stop reading this connection: every later client send fails (EPIPE)
DEAF = object()


class ScriptedDaemon:
    """Answers every request line with ``respond(message)``'s frames.

    Connections are served one at a time on a background thread; a
    script that returns no frames leaves the client waiting.
    """

    def __init__(self, path, respond):
        self.address = f"unix:{path}"
        self.respond = respond
        self.received = []
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_UNIX)
        self._listener.bind(str(path))
        self._listener.listen()
        self._listener.settimeout(0.05)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            try:
                with conn, conn.makefile("rwb") as stream:
                    self._converse(conn, stream)
            except OSError:
                pass  # the client hung up first (closing flushes too)

    def _converse(self, conn, stream):
        for line in stream:
            message = json.loads(line)
            self.received.append(message)
            for frame in self.respond(message):
                if frame is CLOSE:
                    return
                if frame is DEAF:
                    conn.shutdown(socket.SHUT_RD)
                    continue
                stream.write(protocol.encode(frame))
                stream.flush()

    def close(self):
        self._stop.set()
        self._thread.join(5)
        self._listener.close()
        assert not self._thread.is_alive(), \
            "a scripted conversation is still open"


@pytest.fixture
def scripted(tmp_path):
    daemons = []

    def start(respond):
        daemon = ScriptedDaemon(tmp_path / f"s{len(daemons)}.sock",
                                respond)
        daemons.append(daemon)
        return daemon

    yield start
    for daemon in daemons:
        daemon.close()


def _request(rid="r1", **extra):
    return {"op": "schedule", "id": rid,
            "workload": {"kernel": "daxpy", "copies": 2}, **extra}


def _block(rid, index, trace=None):
    return protocol.block_frame(rid, {"index": index}, trace=trace)


def _exchange(address, message, timeout_s=5.0, **kwargs):
    """One async exchange on a fresh connection."""
    return asyncio.run(client.request(address, message, timeout_s,
                                      **kwargs))


class TestTerminalStatuses:
    def test_done_counts_blocks_sheds_and_the_summary(self, scripted):
        daemon = scripted(lambda m: [
            protocol.accepted_frame(m["id"], 0),
            _block(m["id"], 0),
            protocol.shed_frame(m["id"], 1, protocol.SHED_DEADLINE),
            protocol.done_frame(m["id"], {"deadline_met": False})])
        reply = _exchange(daemon.address, _request())
        assert reply.status == "ok"
        assert reply.accepted
        assert (reply.blocks, reply.shed) == (1, {"deadline": 1})
        assert reply.deadline_met is False
        assert not reply.deduped
        assert reply.frame["type"] == "done"
        assert [f["type"] for f in reply.frames] \
            == ["accepted", "block", "shed", "done"]
        assert daemon.received == [_request()]

    def test_deduped_done(self, scripted):
        daemon = scripted(lambda m: [
            protocol.done_frame(m["id"], {}, deduped=True)])
        assert _exchange(daemon.address, _request()).deduped

    def test_rejected_carries_reason_and_retry_hint(self, scripted):
        daemon = scripted(lambda m: [protocol.rejected_frame(
            m["id"], protocol.REJECT_QUEUE_FULL, retry_after_s=0.25)])
        reply = _exchange(daemon.address, _request())
        assert reply.status == "rejected"
        assert reply.reason == "queue-full"
        assert reply.retry_after_s == 0.25
        assert not reply.accepted

    def test_error(self, scripted):
        daemon = scripted(lambda m: [protocol.error_frame(
            m["id"], "unknown-machine", "no such machine")])
        reply = _exchange(daemon.address, _request())
        assert reply.status == "error"
        assert reply.reason is None
        assert reply.frame["error"] == "unknown-machine"

    def test_eof_before_a_terminal_frame_is_disconnected(self,
                                                         scripted):
        daemon = scripted(lambda m: [
            protocol.accepted_frame(m["id"], 0), _block(m["id"], 0),
            CLOSE])
        reply = _exchange(daemon.address, _request())
        assert reply.status == "disconnected"
        assert reply.accepted and reply.blocks == 1
        assert reply.frame is None

    def test_silence_is_a_client_timeout(self, scripted):
        daemon = scripted(
            lambda m: [protocol.accepted_frame(m["id"], 0)])
        reply = _exchange(daemon.address, _request(), timeout_s=0.2)
        assert reply.status == "client-timeout"
        assert reply.accepted
        assert 0.2 <= reply.latency_s < 5.0


class TestStreams:
    def test_frames_for_other_ids_are_skipped(self, scripted):
        daemon = scripted(lambda m: [
            _block("other", 0),
            protocol.accepted_frame(m["id"], 0),
            protocol.done_frame("other", {}),
            protocol.error_frame(None, "ProtocolError", "bad line"),
            _block(m["id"], 0),
            protocol.done_frame(m["id"], {})])
        reply = _exchange(daemon.address, _request())
        assert reply.status == "ok"
        assert reply.blocks == 1
        assert {f["id"] for f in reply.frames} == {"r1"}

    def test_trace_echoes_and_mismatches_are_counted(self, scripted):
        daemon = scripted(lambda m: [
            protocol.accepted_frame(m["id"], 0, trace=m["trace"]),
            _block(m["id"], 0, trace=m["trace"]),
            _block(m["id"], 1, trace="someone-else"),
            protocol.done_frame(m["id"], {})])
        reply = _exchange(daemon.address, _request(trace="t-1"))
        assert (reply.traced, reply.mismatched) == (2, 2)

    def test_untraced_request_counts_nothing(self, scripted):
        daemon = scripted(lambda m: [
            _block(m["id"], 0, trace="t"),
            protocol.done_frame(m["id"], {})])
        reply = _exchange(daemon.address, _request())
        assert (reply.traced, reply.mismatched) == (0, 0)

    @pytest.mark.parametrize("first", ["block", "shed"])
    def test_hang_up_after_the_first_streamed_frame(self, scripted,
                                                    first):
        def respond(m):
            streamed = _block(m["id"], 0) if first == "block" else \
                protocol.shed_frame(m["id"], 0, protocol.SHED_DEADLINE)
            return [protocol.accepted_frame(m["id"], 0), streamed,
                    _block(m["id"], 1), protocol.done_frame(m["id"], {})]

        daemon = scripted(respond)
        reply = _exchange(daemon.address, _request(), hang_up=True)
        assert reply.status == "disconnected"
        assert reply.accepted
        assert reply.blocks + sum(reply.shed.values()) == 1
        assert reply.frame is None

    def test_pipelined_exchanges_share_a_connection(self, scripted):
        daemon = scripted(lambda m: [protocol.done_frame(m["id"], {})])

        async def run():
            reader, writer = await client.connect(daemon.address)
            try:
                return [await client.exchange(reader, writer,
                                              _request(rid), 5.0)
                        for rid in ("a", "b")]
            finally:
                await client.close(writer)

        assert [r.status for r in asyncio.run(run())] == ["ok", "ok"]
        assert [m["id"] for m in daemon.received] == ["a", "b"]


def _stats(occupancy, accounted=True):
    return {"type": "stats", "server": {"accounted": accounted},
            "admission": {"occupancy": occupancy}}


class TestOps:
    def test_op_is_one_round_trip(self, scripted):
        daemon = scripted(lambda m: [_stats(0)])
        assert asyncio.run(client.op(daemon.address, "stats")) \
            == _stats(0)
        assert daemon.received == [{"op": "stats"}]

    def test_op_on_a_hang_up_is_typed(self, scripted):
        daemon = scripted(lambda m: [CLOSE])
        with pytest.raises(ServeError, match="hung up"):
            asyncio.run(client.op(daemon.address, "stats"))

    def test_op_on_silence_is_typed(self, scripted):
        daemon = scripted(lambda m: [])
        with pytest.raises(ServeError, match="did not answer"):
            asyncio.run(client.op(daemon.address, "stats",
                                  timeout_s=0.1))

    def test_settle_waits_for_idle_and_accounted(self, scripted,
                                                 monkeypatch):
        monkeypatch.setattr(client, "SETTLE_INTERVAL_S", 0.0)
        answers = iter([_stats(2), _stats(0, accounted=False),
                        _stats(0)])
        daemon = scripted(lambda m: [next(answers)])
        assert asyncio.run(client.settle(daemon.address)) == _stats(0)
        assert len(daemon.received) == 3

    def test_settle_gives_up_with_the_last_frame(self, scripted,
                                                 monkeypatch):
        monkeypatch.setattr(client, "SETTLE_INTERVAL_S", 0.0)
        monkeypatch.setattr(client, "SETTLE_POLLS", 2)
        daemon = scripted(lambda m: [_stats(1)])
        assert asyncio.run(client.settle(daemon.address)) == _stats(1)
        assert len(daemon.received) == 3


class TestSyncClient:
    def test_ops_and_exchange_on_one_connection(self, scripted):
        def respond(message):
            if message["op"] == "health":
                return [{"type": "health", "ok": True}]
            return [protocol.accepted_frame(message["id"], 0),
                    _block(message["id"], 0, trace="t"),
                    protocol.done_frame(message["id"], {}, trace="t")]

        daemon = scripted(respond)
        with Client(daemon.address) as conn:
            assert conn.op("health") == {"type": "health", "ok": True}
            reply = conn.exchange(_request(trace="t"))
            assert reply.status == "ok"
            assert (reply.blocks, reply.traced, reply.mismatched) \
                == (1, 2, 1)
            conn.send(_request("r2"))
            assert conn.recv()["type"] == "accepted"
            assert [f["type"] for f in conn.reply("r2").frames] \
                == ["block", "done"]

    def test_bytes_go_out_verbatim(self, scripted):
        daemon = scripted(lambda m: [{"type": "echo", "id": m["id"]}])
        with Client(daemon.address) as conn:
            conn.send(b'{"id": "raw"}\n')
            assert conn.recv() == {"type": "echo", "id": "raw"}

    def test_recv_after_a_hang_up_is_typed(self, scripted):
        daemon = scripted(lambda m: [CLOSE])
        with Client(daemon.address) as conn:
            with pytest.raises(ServeError, match="hung up"):
                conn.op("stats")

    def test_send_to_a_gone_daemon_stays_typed_through_close(
            self, scripted):
        # The daemon answers one op and hangs up (a drain race): the
        # next send fails, and closing the connection must not raise
        # a bare OSError over the typed error while flushing the
        # bytes that send left behind.
        daemon = scripted(lambda m: [DEAF, {"type": "health"}, CLOSE])
        with pytest.raises(ReproError, match="sending to the daemon"):
            poll_ops(daemon.address, ("health", "stats"))

    def test_eof_and_silence_statuses(self, scripted):
        daemon = scripted(lambda m: [CLOSE] if m["id"] == "eof"
                          else [])
        with Client(daemon.address) as conn:
            assert conn.exchange(_request("eof")).status \
                == "disconnected"
        with Client(daemon.address, timeout_s=0.1) as conn:
            assert conn.exchange(_request("quiet")).status \
                == "client-timeout"


class TestUnreachable:
    """An absent daemon is a typed error, and no socket is left for
    the garbage collector to close."""

    def test_sync_client(self, tmp_path):
        absent = f"unix:{tmp_path}/absent.sock"
        with pytest.raises(ReproError, match="cannot connect"):
            Client(absent)
        assert _gc_closed_sockets(lambda: Client(absent)) == []

    def test_tcp_sync_client(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on the port now
        with pytest.raises(ServeError, match="cannot connect"):
            Client(f"127.0.0.1:{port}", timeout_s=1.0)

    def test_request_and_op(self, tmp_path):
        absent = f"unix:{tmp_path}/absent.sock"
        with pytest.raises(ServeError, match="cannot connect"):
            asyncio.run(client.request(absent, _request(), 1.0))
        assert _gc_closed_sockets(
            lambda: asyncio.run(client.op(absent, "stats"))) == []
