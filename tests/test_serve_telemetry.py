"""The live telemetry plane: ``metrics`` op, HTTP exposition
endpoint, the S2 health additions, and ``repro top``.

Everything here drives a real in-process daemon (BackgroundServer)
through real sockets; the HTTP endpoint is scraped with a raw socket
client so the test pins the wire format, not an HTTP library's
tolerance.
"""

import gc
import io
import json
import socket
import sys
import warnings

import pytest

from repro.errors import ReproError
from repro.obs.expo import parse_exposition
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import Client
from repro.serve.protocol import parse_address
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.top import poll_ops, render_top, run_top


def _workload_message(rid="r", copies=4, **extra):
    return {"op": "schedule", "id": rid,
            "workload": {"kernel": "daxpy", "copies": copies}, **extra}


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(address=f"unix:{tmp_path}/serve.sock",
                         workers=2, max_queued=4, drain_grace_s=5.0,
                         telemetry="127.0.0.1:0")
    background = BackgroundServer(config).start()
    yield background
    if background._thread.is_alive():
        background.drain()


def _http_get(address, path):
    """Raw HTTP/1.1 GET: returns (status, headers, body)."""
    _, host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Connection: close\r\n\r\n".encode())
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode()


def _run_one(server, rid="tel-1"):
    client = Client(server.address)
    try:
        client.send(_workload_message(rid))
        reply = client.reply(rid)
    finally:
        client.close()
    assert reply.status == "ok"
    return reply.frames


class TestMetricsOp:
    def test_metrics_frame_shape(self, server):
        _run_one(server)
        client = Client(server.address)
        try:
            client.send({"op": "metrics", "id": "m1"})
            frame = client.recv()
        finally:
            client.close()
        assert frame["type"] == "metrics"
        assert frame["content_type"].startswith("text/plain")
        families, samples = parse_exposition(frame["exposition"])
        assert families["repro_requests_total"] == "counter"
        assert frame["window"]["requests"] >= 1
        assert frame["window"]["p50_s"] is not None

    def test_window_tracks_latency_and_queue(self, server):
        for i in range(3):
            _run_one(server, rid=f"tel-w{i}")
        client = Client(server.address)
        try:
            client.send({"op": "metrics", "id": "m2"})
            window = client.recv()["window"]
        finally:
            client.close()
        assert window["requests"] >= 3
        assert window["ok"] >= 3
        assert window["latency_sum_s"] > 0


class TestHttpEndpoint:
    def test_scrape_parses_with_core_series(self, server):
        _run_one(server)
        address = server.server.bound_telemetry_address()
        assert address is not None
        status, headers, body = _http_get(address, "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        families, samples = parse_exposition(body)
        # core series: cumulative registry + sliding window + server
        assert families["repro_requests_total"] == "counter"
        assert "repro_window_request_p50_seconds" in families
        assert "repro_window_request_p99_seconds" in families
        assert "repro_serve_uptime_seconds" in families
        assert samples["repro_serve_draining"] == 0
        ok_series = [v for k, v in samples.items()
                     if k.startswith("repro_requests_total{")
                     and 'status="ok"' in k]
        assert sum(ok_series) >= 1

    def test_healthz(self, server):
        status, _, body = _http_get(
            server.server.bound_telemetry_address(), "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["type"] == "health"
        assert health["draining"] is False

    def test_unknown_path_404(self, server):
        status, _, _ = _http_get(
            server.server.bound_telemetry_address(), "/nope")
        assert status == 404

    def test_non_loopback_telemetry_bind_refused(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/s.sock",
                             telemetry="0.0.0.0:0")
        with pytest.raises(ReproError, match="loopback"):
            BackgroundServer(config).start()

    def test_no_telemetry_no_endpoint(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/s.sock")
        background = BackgroundServer(config).start()
        try:
            assert background.server.bound_telemetry_address() is None
        finally:
            background.drain()


class TestHealthDetails:
    """S2: health reports per-thread caches and no columnar flag."""

    def test_columnar_flag_and_cache_threads(self, server):
        _run_one(server)
        client = Client(server.address)
        try:
            client.send({"op": "health", "id": "h1"})
            health = client.recv()
        finally:
            client.close()
        assert "columnar" not in health
        threads = health["cache_threads"]
        assert threads, "warm caches should exist after a request"
        for row in threads:
            assert set(row) >= {"thread", "machine", "hits", "misses",
                                "bundle_hits", "entries",
                                "max_entries"}
            assert row["machine"] == "generic"

    def test_each_server_reports_only_its_own_caches(self, tmp_path):
        # Warm caches belong to their server: daemons run one after
        # another in one process must not report each other's.
        caches = []
        for i in range(3):
            config = ServeConfig(address=f"unix:{tmp_path}/c{i}.sock",
                                 workers=1)
            background = BackgroundServer(config).start()
            try:
                with Client(background.address) as conn:
                    for n in range(4):
                        reply = conn.exchange(_workload_message(f"w{n}"))
                        assert reply.status == "ok"
                    health = conn.op("health")
            finally:
                background.drain()
            assert [row["thread"] for row in health["cache_threads"]] \
                == ["repro-serve_0"]
            caches.append(health["cache"])
        assert caches[0]["caches"] == 1
        assert caches[0] == caches[1] == caches[2]


class TestTop:
    def test_poll_and_render(self, server):
        _run_one(server)
        frames = poll_ops(server.address)
        assert set(frames) == {"health", "stats", "metrics"}
        panel = render_top(frames, server.address)
        assert "repro top" in panel
        assert "serving" in panel
        assert "p50" in panel
        assert "warm caches:" in panel

    def test_run_top_once(self, server):
        out = io.StringIO()
        run_top(server.address, once=True, out=out)
        assert "repro top" in out.getvalue()

    def test_render_is_pure_and_total(self):
        # Renders a panel even from empty frames (daemon mid-start).
        panel = render_top({}, "unix:x.sock")
        assert "repro top" in panel

    def test_unreachable_daemon_is_typed_error(self, tmp_path):
        with pytest.raises(ReproError, match="connect"):
            poll_ops(f"unix:{tmp_path}/absent.sock")


def _gc_closed_sockets(case) -> list[str]:
    """Run ``case`` and collect; what the collector had to close.

    ``ResourceWarning`` is an error while the case runs, so an unclosed
    socket's finalizer raises; finalizer exceptions are unraisable, so
    they are caught through ``sys.unraisablehook``.
    """
    seen: list[str] = []
    previous = sys.unraisablehook
    sys.unraisablehook = lambda unraisable: seen.append(
        repr(unraisable.exc_value))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            try:
                case()
            except ReproError:
                pass
            gc.collect()
    finally:
        sys.unraisablehook = previous
    return seen


class TestNoLeakedSockets:
    def test_unreachable_daemon_poll_closes_its_socket(self, tmp_path):
        assert _gc_closed_sockets(
            lambda: poll_ops(f"unix:{tmp_path}/absent.sock")) == []

    def test_refused_telemetry_closes_the_listener(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/s.sock",
                             telemetry="0.0.0.0:0")
        assert _gc_closed_sockets(
            lambda: BackgroundServer(config).start()) == []


class TestOneSource:
    """The exposition reads the state the stats and health frames
    report, so the three cannot disagree."""

    def test_exposition_agrees_with_frames(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/one.sock",
                             workers=2, max_queued=8,
                             wal_dir=str(tmp_path / "wal"))
        background = BackgroundServer(config,
                                      metrics=MetricsRegistry()).start()
        client = Client(background.address)
        try:
            # four pipelined requests across two machines
            messages = [_workload_message(f"p{i}", machine=machine)
                        for i, machine in enumerate(
                            ("generic", "sparc", "generic", "sparc"))]
            messages[0]["key"] = "resend-me"
            for message in messages:
                client.send(message)
            pending = {m["id"] for m in messages}
            while pending:
                frame = client.recv()
                if frame["type"] in ("done", "rejected", "error"):
                    assert frame["type"] == "done", frame
                    pending.discard(frame["id"])
            client.send(_workload_message("bad", copies=3,
                                          chain=["nope"]))
            assert client.reply("bad").status == "error"
            client.send(dict(messages[0], id="again"))
            assert client.reply("again").deduped
            frames = {}
            for op in ("metrics", "stats", "health"):
                client.send({"op": op, "id": op})
                frames[op] = client.recv()
        finally:
            client.close()
            background.drain()
        _, samples = parse_exposition(frames["metrics"]["exposition"])
        server = frames["stats"]["server"]
        assert server["shed_by_reason"]["error"] == 3
        assert samples.get('repro_shed_blocks_total{reason="error"}') \
            == server["shed_by_reason"]["error"]
        assert samples["repro_cache_entries"] \
            == frames["health"]["cache"]["entries"]
        assert samples["repro_queue_depth_max"] \
            == samples["repro_serve_occupancy"] == 0
        assert samples["repro_wal_deduped_requests_total"] \
            == server["requests_deduped"] == 1
