"""Tests for the serve layer: protocol, admission, deadline
propagation, the live daemon, loadtest, and serve chaos."""

import json
import socket
import time

import pytest

from repro.errors import ProtocolError, ReproError, RequestRejected
from repro.machine.presets import generic_risc
from repro.obs.metrics import MetricsRegistry
from repro.runner import CircuitBreaker, run_batch
from repro.serve import protocol
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.engine import request_blocks, run_request
from repro.serve.loadtest import (
    LoadtestConfig,
    generate_mix,
    mix_fingerprint,
    render_loadtest_report,
    run_loadtest,
)
from repro.serve.protocol import ScheduleRequest, parse_address
from repro.serve.server import BackgroundServer, ServeConfig
from repro.workloads import kernel_source


class FakeClock:
    """Deterministic monotonic clock: advances ``step`` per call."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("127.0.0.1:88") == ("tcp", "127.0.0.1", 88)
        assert parse_address("4242") == ("tcp", "127.0.0.1", 4242)

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            parse_address("not-an-address")
        with pytest.raises(ProtocolError):
            parse_address("host:notaport")

    def test_bind_requires_loopback(self):
        # Connect side may name any host; bind side must be local.
        assert parse_address("0.0.0.0:9000") == ("tcp", "0.0.0.0", 9000)
        for ok in ("127.0.0.1:0", "localhost:0", "127.1.2.3:0", "0"):
            assert parse_address(ok, bind=True)[0] == "tcp"
        assert parse_address("unix:/tmp/x.sock", bind=True)[0] == "unix"
        with pytest.raises(ProtocolError, match="loopback"):
            parse_address("0.0.0.0:9000", bind=True)
        with pytest.raises(ProtocolError, match="loopback"):
            parse_address("192.168.1.7:9000", bind=True)

    def test_encode_decode_roundtrip(self):
        frame = protocol.done_frame("r1", {"n_blocks": 3})
        assert protocol.decode(protocol.encode(frame)) == frame

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"not json\n")

    def test_schedule_request_needs_exactly_one_payload(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            ScheduleRequest.from_message({"id": "a"})
        with pytest.raises(ProtocolError, match="exactly one"):
            ScheduleRequest.from_message(
                {"id": "a", "asm": "nop",
                 "workload": {"kernel": "daxpy"}})

    def test_schedule_request_validates_fields(self):
        with pytest.raises(ProtocolError, match="'id'"):
            ScheduleRequest.from_message({"asm": "nop"})
        with pytest.raises(ProtocolError, match="deadline_s"):
            ScheduleRequest.from_message(
                {"id": "a", "asm": "nop", "deadline_s": -1})
        with pytest.raises(ProtocolError, match="window"):
            ScheduleRequest.from_message(
                {"id": "a", "asm": "nop", "window": 0})
        with pytest.raises(ProtocolError, match="tenant"):
            ScheduleRequest.from_message(
                {"id": "a", "asm": "nop", "tenant": ""})

    def test_rejection_reasons_are_a_closed_set(self):
        assert len(protocol.REJECT_REASONS) == 7
        assert len(set(protocol.REJECT_REASONS)) == 7
        assert protocol.REJECT_DUPLICATE in protocol.REJECT_REASONS
        assert protocol.REJECT_OVERLOAD in protocol.REJECT_REASONS


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_acquire() is None

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available == pytest.approx(3.0)


class TestAdmission:
    def controller(self, **kwargs):
        kwargs.setdefault("clock", FakeClock())
        return AdmissionController(**kwargs)

    def test_admits_and_releases_occupancy(self):
        ctrl = self.controller(max_active=1, max_queued=0)
        ticket = ctrl.admit("t", 3)
        assert ctrl.occupancy == 1
        ticket.release()
        ticket.release()  # idempotent
        assert ctrl.occupancy == 0

    def test_queue_full_is_typed(self):
        ctrl = self.controller(max_active=1, max_queued=1)
        ctrl.admit("t", 1)
        ctrl.admit("t", 1)
        with pytest.raises(RequestRejected) as info:
            ctrl.admit("t", 1)
        assert info.value.reason == "queue-full"

    def test_rate_limit_reports_retry_after(self):
        clock = FakeClock()
        ctrl = self.controller(tenant_rate=1.0, tenant_burst=1.0,
                               clock=clock)
        ctrl.admit("t", 1).release()
        with pytest.raises(RequestRejected) as info:
            ctrl.admit("t", 1)
        assert info.value.reason == "rate-limited"
        assert info.value.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)
        ctrl.admit("t", 1)  # token is back

    def test_tenant_budget_exhaustion(self):
        ctrl = self.controller(tenant_max_blocks=5)
        ctrl.admit("t", 4).release()
        with pytest.raises(RequestRejected) as info:
            ctrl.admit("t", 2)
        assert info.value.reason == "tenant-budget-exhausted"
        ctrl.admit("t", 1)  # exactly the remainder fits
        ctrl.admit("other", 5)  # budgets are per tenant

    def test_oversized_request_is_typed(self):
        ctrl = self.controller(max_request_blocks=10)
        with pytest.raises(RequestRejected) as info:
            ctrl.admit("t", 11)
        assert info.value.reason == "request-too-large"

    def test_drain_closes_admission(self):
        ctrl = self.controller()
        ctrl.start_drain()
        with pytest.raises(RequestRejected) as info:
            ctrl.admit("t", 1)
        assert info.value.reason == "draining"
        assert ctrl.would_admit() == (False, "draining")

    def test_rejected_requests_leave_no_residue(self):
        ctrl = self.controller(tenant_max_blocks=5,
                               max_request_blocks=10)
        with pytest.raises(RequestRejected):
            ctrl.admit("t", 11)
        snap = ctrl.snapshot()
        assert snap["occupancy"] == 0
        assert snap["tenants"]["t"]["blocks_charged"] == 0

    def test_rejections_hit_the_metrics_catalog(self):
        metrics = MetricsRegistry()
        ctrl = self.controller(max_request_blocks=1, metrics=metrics)
        with pytest.raises(RequestRejected):
            ctrl.admit("t", 5)
        snap = metrics.snapshot()["volatile"]
        values = snap["repro_rejected_requests_total"]["values"]
        assert values == {"reason=request-too-large,tenant=t": 1}


def _workload_request(rid="r", copies=4, **extra):
    return ScheduleRequest.from_message({
        "id": rid, "workload": {"kernel": "daxpy", "copies": copies},
        **extra})


class TestEngineDeadlines:
    """Satellite: deadline propagation, deterministically."""

    def run(self, request, clock, **kwargs):
        machine = generic_risc()
        blocks = request_blocks(request)
        frames = []
        summary = run_request(request, machine, blocks, frames.append,
                              clock=clock, **kwargs)
        return blocks, frames, summary

    def test_no_deadline_schedules_everything(self):
        blocks, frames, summary = self.run(
            _workload_request(copies=3), FakeClock(step=0.001))
        assert summary["n_blocks"] == len(blocks) == 3
        assert summary["shed"] == 0
        assert summary["deadline_met"] is None
        assert [f["type"] for f in frames] == ["block"] * 3

    def test_deadline_mid_batch_sheds_typed_remainder(self):
        # Each engine step advances the fake clock; a 1s deadline with
        # a large step expires after the first block completes.
        clock = FakeClock(step=0.3)
        blocks, frames, summary = self.run(
            _workload_request(copies=4, deadline_s=1.0), clock)
        kinds = [f["type"] for f in frames]
        assert "block" in kinds and "shed" in kinds
        assert summary["shed"] > 0
        assert summary["deadline_met"] is False
        assert summary["shed_reasons"] == {"deadline": summary["shed"]}
        # The accounting invariant: every block has one verdict.
        assert (summary["scheduled"] + summary["degraded"]
                + summary["quarantined"] + summary["shed"]
                == summary["n_blocks"] == 4)
        # Streamed frames agree with the summary.
        assert kinds.count("block") == (summary["scheduled"]
                                        + summary["degraded"])
        assert kinds.count("shed") == summary["shed"]
        for frame in frames:
            if frame["type"] == "shed":
                assert frame["reason"] == "deadline"

    def test_deadline_caps_per_block_wall_budget(self):
        # With 0.4s left on the deadline and a 30s per-block cap, the
        # block must run under a <= 0.4s watchdog: propagation means
        # the *tighter* limit wins.
        seen = {}
        import repro.serve.engine as engine_mod
        real = engine_mod.schedule_block_resilient

        def spy(block, machine, chain, budget=None, **kwargs):
            seen[block.index] = budget.wall_clock
            return real(block, machine, chain, budget=budget, **kwargs)

        clock = FakeClock(step=0.2)
        request = _workload_request(copies=2, deadline_s=10.0)
        machine = generic_risc()
        blocks = request_blocks(request)
        try:
            engine_mod.schedule_block_resilient = spy
            run_request(request, machine, blocks, lambda f: None,
                        clock=clock, block_wall_s=30.0)
        finally:
            engine_mod.schedule_block_resilient = real
        assert seen
        assert all(wall <= 10.0 for wall in seen.values())
        # Budgets shrink as the deadline burns down.
        walls = [seen[b.index] for b in blocks if b.index in seen]
        assert walls == sorted(walls, reverse=True)

    def test_cancellation_sheds_with_the_given_reason(self):
        state = {"calls": 0}

        def cancelled():
            state["calls"] += 1
            return "disconnect" if state["calls"] > 1 else None

        blocks, frames, summary = self.run(
            _workload_request(copies=3), FakeClock(step=0.001),
            cancelled=cancelled)
        assert summary["shed_reasons"] == {"disconnect": summary["shed"]}
        assert summary["shed"] > 0
        assert (summary["scheduled"] + summary["degraded"]
                + summary["quarantined"] + summary["shed"] == 3)

    def test_workload_expansion_windows_per_copy(self):
        blocks = request_blocks(_workload_request(copies=5))
        assert len(blocks) == 5

    def test_bad_workload_spec_is_typed(self):
        with pytest.raises(ReproError):
            request_blocks(_workload_request(copies=0))
        with pytest.raises(ReproError):
            request_blocks(ScheduleRequest.from_message(
                {"id": "x", "workload": {"kernel": "nope"}}))

    def test_oversized_copies_rejected_before_expansion(self):
        # A ~100-byte request must not expand to gigabytes before the
        # size check runs: the cap is enforced pre-expansion, so this
        # returns instantly instead of building a 10**9-copy string.
        with pytest.raises(RequestRejected) as exc:
            request_blocks(_workload_request(copies=10**9),
                           max_blocks=10_000)
        assert exc.value.reason == protocol.REJECT_TOO_LARGE
        # At the cap is still fine (no off-by-one).
        assert len(request_blocks(_workload_request(copies=3),
                                  max_blocks=3)) == 3


class TestEnginePaths:
    """The serial loop and the pooled path honour the same options."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_breaker_trips_on_both_paths(self, jobs):
        # A one-unit work budget trips every attempt, so a threshold-1
        # breaker must open whichever path runs the blocks.
        request = _workload_request(copies=3)
        breaker = CircuitBreaker(threshold=1)
        summary = run_request(
            request, generic_risc(), request_blocks(request),
            lambda frame: None, jobs=jobs, max_work=1, breaker=breaker,
            chain_names=("bitmap-backward", "n2"))
        assert summary["degraded"] == 3
        assert ("bitmap-backward", "open") in breaker.transitions


class _Client:
    """Minimal synchronous NDJSON client for server tests."""

    def __init__(self, address):
        kind = parse_address(address)
        if kind[0] == "unix":
            self.sock = socket.socket(socket.AF_UNIX)
            self.sock.connect(kind[1])
        else:
            self.sock = socket.create_connection(kind[1:])
        self.file = self.sock.makefile("rwb")

    def send(self, message):
        self.file.write(protocol.encode(message))
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def stream_until_terminal(self, rid):
        frames = []
        while True:
            frame = self.recv()
            if frame.get("id") != rid:
                continue
            frames.append(frame)
            if frame["type"] in ("done", "rejected", "error"):
                return frames

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(address=f"unix:{tmp_path}/serve.sock",
                         workers=2, max_queued=4, drain_grace_s=5.0)
    background = BackgroundServer(config).start()
    yield background
    if background._thread.is_alive():
        background.drain()


class TestDaemonMatchesBatch:
    """The daemon's per-block loop and the batch runner agree."""

    REQUESTS = (
        {"op": "schedule", "id": "w1",
         "workload": {"kernel": "livermore1", "copies": 3}},
        {"op": "schedule", "id": "a1", "trace": "t-a1",
         "asm": kernel_source("daxpy")},
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_block_records_match_run_batch(self, tmp_path, jobs):
        # No overload ladder: its brownout chain changes outcomes.
        config = ServeConfig(address=f"unix:{tmp_path}/serve.sock",
                             jobs=jobs, overload=None)
        background = BackgroundServer(config).start()
        client = _Client(background.address)
        try:
            for message in self.REQUESTS:
                client.send(message)
                assert client.recv()["type"] == "accepted"
                frames = client.stream_until_terminal(message["id"])
                assert frames[-1]["type"] == "done"
                served = []
                for frame in frames[:-1]:
                    record = dict(frame["block"])
                    del record["wall_s"]
                    record.pop("trace", None)
                    served.append(record)
                request = ScheduleRequest.from_message(message)
                batch = run_batch(request_blocks(request),
                                  generic_risc())
                assert served == [o.to_record() for o in batch.outcomes]
        finally:
            client.close()
            background.drain()


class TestServer:
    def test_schedule_streams_blocks_then_done(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "schedule", "id": "s1",
                         "workload": {"kernel": "daxpy", "copies": 3}})
            accepted = client.recv()
            assert accepted["type"] == "accepted"
            assert accepted["protocol"] == protocol.PROTOCOL_VERSION
            frames = client.stream_until_terminal("s1")
            kinds = [f["type"] for f in frames]
            assert kinds == ["block", "block", "block", "done"]
            summary = frames[-1]["summary"]
            assert summary["n_blocks"] == 3
            assert summary["scheduled"] + summary["degraded"] == 3
        finally:
            client.close()

    def test_schedule_accepts_raw_assembly(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "schedule", "id": "asm1",
                         "asm": "add %r1, %r2, %r3\n"
                                "sub %r3, %r1, %r4\n"})
            assert client.recv()["type"] == "accepted"
            frames = client.stream_until_terminal("asm1")
            assert frames[-1]["type"] == "done"
            assert frames[-1]["summary"]["n_blocks"] == 1
        finally:
            client.close()

    def test_malformed_line_gets_typed_error_not_silence(self, server):
        client = _Client(server.address)
        try:
            client.file.write(b"this is not json\n")
            client.file.flush()
            frame = client.recv()
            assert frame["type"] == "error"
            assert frame["error"] == "ProtocolError"
        finally:
            client.close()

    def test_unknown_op_and_unknown_machine_are_typed(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "frobnicate", "id": "x"})
            assert client.recv()["error"] == "unknown-op"
            client.send({"op": "schedule", "id": "m1",
                         "machine": "pdp11",
                         "workload": {"kernel": "daxpy"}})
            frame = client.stream_until_terminal("m1")[-1]
            assert frame["type"] == "error"
            assert frame["error"] == "unknown-machine"
        finally:
            client.close()

    def test_health_ready_stats_endpoints(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "health"})
            health = client.recv()
            assert health["type"] == "health" and health["ok"]
            assert "cache" in health
            client.send({"op": "ready"})
            ready = client.recv()
            assert ready == {"type": "ready", "ok": True,
                             "reason": None}
            client.send({"op": "stats"})
            stats = client.recv()
            assert stats["server"]["accounted"]
        finally:
            client.close()

    def test_deadline_sheds_stream_partial_results(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "schedule", "id": "d1",
                         "deadline_s": 1e-9,
                         "workload": {"kernel": "daxpy",
                                      "copies": 4}})
            assert client.recv()["type"] == "accepted"
            frames = client.stream_until_terminal("d1")
            summary = frames[-1]["summary"]
            assert summary["deadline_met"] is False
            assert summary["shed"] > 0
            assert (summary["scheduled"] + summary["degraded"]
                    + summary["quarantined"] + summary["shed"] == 4)
        finally:
            client.close()

    def test_drain_rejects_new_work_then_exits_clean(self, server):
        client = _Client(server.address)
        try:
            server.server.admission.start_drain()
            client.send({"op": "schedule", "id": "late",
                         "workload": {"kernel": "daxpy"}})
            frame = client.stream_until_terminal("late")[-1]
            assert frame["type"] == "rejected"
            assert frame["reason"] == "draining"
            assert frame["code"] == 429
        finally:
            client.close()
        server.drain()
        assert not server._thread.is_alive()

    def test_huge_workload_is_rejected_not_expanded(self, server):
        client = _Client(server.address)
        try:
            client.send({"op": "schedule", "id": "huge",
                         "workload": {"kernel": "daxpy",
                                      "copies": 10**9}})
            frame = client.stream_until_terminal("huge")[-1]
            assert frame["type"] == "rejected"
            assert frame["reason"] == "request-too-large"
            assert frame["code"] == 429
            # The pre-expansion rejection shows up in the same
            # admission books as admit()'s own.
            client.send({"op": "stats"})
            stats = client.recv()
            assert stats["admission"]["rejections_by_reason"][
                "request-too-large"] >= 1
        finally:
            client.close()

    def test_cache_entries_knob_reaches_the_engine(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/cache.sock",
                             workers=1, cache_entries=7)
        background = BackgroundServer(config).start()
        try:
            client = _Client(background.address)
            try:
                client.send({"op": "schedule", "id": "c1",
                             "workload": {"kernel": "daxpy",
                                          "copies": 2}})
                assert client.recv()["type"] == "accepted"
                frames = client.stream_until_terminal("c1")
                assert frames[-1]["type"] == "done"
                assert frames[-1]["summary"]["cache"]["max_entries"] == 7
            finally:
                client.close()
        finally:
            background.drain()

    def test_non_loopback_bind_is_refused(self):
        config = ServeConfig(address="0.0.0.0:0")
        with pytest.raises(ReproError, match="loopback"):
            BackgroundServer(config).start()

    def test_drain_backstop_abandons_wedged_request(self, tmp_path,
                                                    monkeypatch):
        # A request with no deadline and no block wall whose engine
        # never reaches a block boundary must not pin SIGTERM drain
        # forever: after drain_force_s it is abandoned and recorded.
        def wedged(request, machine, blocks, emit, **kwargs):
            time.sleep(2.0)
            return {"n_blocks": len(blocks), "scheduled": 0,
                    "degraded": 0, "quarantined": 0,
                    "shed": len(blocks)}

        monkeypatch.setattr("repro.serve.server.run_request", wedged)
        config = ServeConfig(address=f"unix:{tmp_path}/wedge.sock",
                             workers=1, block_wall_s=None,
                             drain_grace_s=0.05, drain_force_s=0.1)
        background = BackgroundServer(config).start()
        client = _Client(background.address)
        try:
            client.send({"op": "schedule", "id": "hang",
                         "workload": {"kernel": "daxpy"}})
            assert client.recv()["type"] == "accepted"
            start = time.monotonic()
            background.drain(timeout=10.0)
            assert time.monotonic() - start < 2.0, \
                "drain waited for the wedged engine instead of " \
                "abandoning it"
            assert background.server.drain_abandoned == ["hang"]
        finally:
            client.close()

    def test_queue_full_rejection_carries_429(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/tiny.sock",
                             workers=1, max_queued=0,
                             drain_grace_s=5.0)
        background = BackgroundServer(config).start()
        try:
            slow = _Client(background.address)
            fast = _Client(background.address)
            try:
                slow.send({"op": "schedule", "id": "big",
                           "workload": {"kernel": "livermore1",
                                        "copies": 40}})
                assert slow.recv()["type"] == "accepted"
                rejected = None
                for attempt in range(50):
                    fast.send({"op": "schedule",
                               "id": f"over-{attempt}",
                               "workload": {"kernel": "daxpy"}})
                    frame = fast.stream_until_terminal(
                        f"over-{attempt}")[-1]
                    if frame["type"] == "rejected":
                        rejected = frame
                        break
                assert rejected is not None, \
                    "overload never produced a typed rejection"
                assert rejected["reason"] == "queue-full"
                assert rejected["code"] == 429
                slow.stream_until_terminal("big")
            finally:
                slow.close()
                fast.close()
        finally:
            background.drain()


class TestLoadtest:
    def test_mix_is_seed_deterministic(self):
        a = LoadtestConfig(address="unix:/nowhere", seed=5)
        b = LoadtestConfig(address="unix:/elsewhere", seed=5)
        assert generate_mix(a) == generate_mix(b)
        assert mix_fingerprint(generate_mix(a)) == \
            mix_fingerprint(generate_mix(b))
        c = LoadtestConfig(address="unix:/nowhere", seed=6)
        assert mix_fingerprint(generate_mix(c)) != \
            mix_fingerprint(generate_mix(a))

    def test_loadtest_against_live_server(self, server):
        config = LoadtestConfig(address=server.address, seed=1,
                                requests=6, concurrency=3,
                                copies_max=2)
        metrics = MetricsRegistry()
        report = run_loadtest(config, metrics=metrics)
        assert report.sent == 6
        assert (report.completed + report.rejected + report.errored
                == report.sent)
        assert report.errored == 0
        assert report.completed > 0
        rendered = render_loadtest_report(report)
        assert "p50" in rendered and "error budget" in rendered
        snap = metrics.snapshot()["volatile"]
        assert "repro_requests_total" in snap

    def test_unreachable_daemon_is_a_typed_error(self, tmp_path):
        config = LoadtestConfig(
            address=f"unix:{tmp_path}/missing.sock", requests=1,
            concurrency=1)
        with pytest.raises(ReproError, match="cannot connect"):
            run_loadtest(config)


class TestServeChaos:
    def test_serve_chaos_smoke_zero_lost_zero_duplicated(self):
        from repro.serve.chaosserve import (
            ServeChaosConfig,
            run_serve_chaos,
        )
        report = run_serve_chaos(ServeChaosConfig(
            seed=2, requests=4, copies=4, exit_rate=0.25,
            kill_rate=0.1, disconnect_rate=0.4, storm_rate=0.4,
            storm_deadline_s=0.02))
        assert report.ok, report.to_dict()
        assert report.lost_blocks == 0
        assert report.duplicate_blocks == 0
        assert report.drained_ok
        assert report.blocks_admitted == (
            report.blocks_scheduled + report.blocks_degraded
            + report.blocks_quarantined + report.blocks_shed)

    def test_cli_chaos_serve_quick(self, capsys):
        from repro.cli import main
        lines = []
        status = main(["chaos", "--serve", "--quick", "--seed", "4"],
                      out=lines.append)
        assert status == 0
        text = "\n".join(lines)
        assert "lost blocks: 0" in text
        assert "double-scheduled: 0" in text
        assert "clean drain: yes" in text
