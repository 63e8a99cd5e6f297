"""End-to-end request tracing: client-minted ids through frames,
spans, WAL records, dedup replay, and quarantine.

The contract (docs/observability.md): a ``trace`` id minted at the
client rides every frame the daemon emits for that request, lands in
the WAL and in every block record, tags the request's span tree, and
-- the subtle case -- a dedup replay echoes the *original* request's
trace id, because the replayed frames are the original execution's.
"""

import pytest

from repro.errors import ProtocolError
from repro.machine.presets import generic_risc
from repro.obs import Tracer, span_tree
from repro.runner.chaos import ChaosConfig, RetryPolicy
from repro.runner.fallback import BlockOutcome
from repro.serve import protocol
from repro.serve.client import Client
from repro.serve.engine import request_blocks, run_request
from repro.serve.protocol import ScheduleRequest
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.wal import WriteAheadLog


def _message(rid="r", copies=4, **extra):
    return {"op": "schedule", "id": rid,
            "workload": {"kernel": "daxpy", "copies": copies}, **extra}


class TestProtocolTrace:
    def test_trace_accepted_and_optional(self):
        request = ScheduleRequest.from_message(
            _message(trace="trace-1"))
        assert request.trace == "trace-1"
        assert ScheduleRequest.from_message(_message()).trace is None

    def test_trace_validation(self):
        with pytest.raises(ProtocolError, match="trace"):
            ScheduleRequest.from_message(_message(trace=""))
        with pytest.raises(ProtocolError, match="trace"):
            ScheduleRequest.from_message(_message(trace=17))
        with pytest.raises(ProtocolError, match="trace"):
            ScheduleRequest.from_message(
                _message(trace="x" * (protocol.MAX_TRACE_CHARS + 1)))

    def test_frames_omit_trace_when_unset(self):
        # Tracing must not change the wire format for untraced
        # clients: no `trace` key at all, not `trace: null`.
        assert "trace" not in protocol.done_frame("r", {})
        assert "trace" in protocol.done_frame("r", {}, trace="t")


class TestEngineTrace:
    def run(self, request, **kwargs):
        machine = generic_risc()
        blocks = request_blocks(request)
        frames = []
        summary = run_request(request, machine, blocks, frames.append,
                              **kwargs)
        return frames, summary

    def test_block_frames_and_records_stamped(self):
        request = ScheduleRequest.from_message(
            _message(trace="eng-t1"))
        frames, _ = self.run(request)
        blocks = [f for f in frames if f["type"] == "block"]
        assert blocks
        for frame in blocks:
            assert frame["trace"] == "eng-t1"
            assert frame["block"]["trace"] == "eng-t1"

    def test_untraced_records_unchanged(self):
        request = ScheduleRequest.from_message(_message())
        frames, _ = self.run(request)
        for frame in frames:
            assert "trace" not in frame
            if frame["type"] == "block":
                assert "trace" not in frame["block"]

    def test_quarantined_block_keeps_trace(self):
        # A poisoned block crashes every attempt and is quarantined;
        # its block frame must still carry the request's trace id.
        request = ScheduleRequest.from_message(
            _message(trace="quarantine-t"))
        frames, summary = self.run(
            request, jobs=2,
            chaos=ChaosConfig(seed=4, poison=frozenset({0})),
            retry=RetryPolicy(max_retries=1, base_delay=0.01))
        assert summary["quarantined"] == 1
        quarantined = [f for f in frames if f["type"] == "block"
                       and f["block"].get("type") == "quarantined"]
        assert quarantined
        for frame in quarantined:
            assert frame["trace"] == "quarantine-t"
            assert frame["block"]["trace"] == "quarantine-t"

    def assert_request_span(self, jobs):
        # Every request runs on run_batch, so its span tree nests
        # request -> batch -> block at every jobs value.
        tracer = Tracer()
        request = ScheduleRequest.from_message(
            _message(rid="span-r", trace="span-t"))
        self.run(request, tracer=tracer, jobs=jobs)
        tree = span_tree(tracer.entries)
        roots = [node for node in tree if node["name"] == "request"]
        assert len(roots) == 1
        assert roots[0]["attrs"]["trace"] == "span-t"
        assert roots[0]["attrs"]["id"] == "span-r"
        assert [child["name"] for child in roots[0]["children"]] \
            == ["batch"]
        batch = roots[0]["children"][0]
        assert [child["name"] for child in batch["children"]] \
            == ["block"] * 4

    def test_request_span_carries_trace(self):
        self.assert_request_span(jobs=1)

    def test_request_span_carries_trace_on_pool(self):
        self.assert_request_span(jobs=2)


class TestDaemonTrace:
    @pytest.fixture
    def server(self, tmp_path):
        config = ServeConfig(address=f"unix:{tmp_path}/serve.sock",
                             workers=2, max_queued=4,
                             drain_grace_s=5.0,
                             wal_dir=str(tmp_path / "wal"))
        background = BackgroundServer(config, tracer=Tracer()).start()
        yield background
        if background._thread.is_alive():
            background.drain()

    def test_every_frame_echoes_the_trace(self, server):
        client = Client(server.address)
        try:
            client.send(_message(rid="d1", key="K1", trace="tr-d1"))
            frames = client.reply("d1").frames
        finally:
            client.close()
        assert frames[-1]["type"] == "done"
        for frame in frames:
            assert frame["trace"] == "tr-d1", frame

    def test_trace_lands_in_the_wal(self, server, tmp_path):
        client = Client(server.address)
        try:
            client.send(_message(rid="d2", key="K2", trace="tr-wal"))
            frames = client.reply("d2").frames
        finally:
            client.close()
        assert frames[-1]["type"] == "done"
        server.drain()
        _, recovery = WriteAheadLog.open(
            str(tmp_path / "wal" / "serve.wal"))
        entry = recovery.finished["K2"]
        assert entry["request"]["trace"] == "tr-wal"
        assert entry["blocks"], "WAL should hold the block records"
        for record in entry["blocks"].values():
            assert record["trace"] == "tr-wal"

    def test_dedup_replay_echoes_original_trace(self, server):
        client = Client(server.address)
        try:
            client.send(_message(rid="d3", key="K3",
                                 trace="tr-original"))
            first = client.reply("d3").frames
            # Same idempotency key, new id, *different* trace: the
            # replayed frames are the original execution's, so they
            # echo the original trace id, not the resend's.
            client.send(_message(rid="d3-retry", key="K3",
                                 trace="tr-resend"))
            replay = client.reply("d3-retry").frames
        finally:
            client.close()
        assert first[-1]["type"] == "done"
        assert replay[-1]["type"] == "done"
        assert replay[-1]["deduped"] is True
        for frame in replay:
            assert frame["trace"] == "tr-original", frame

    def test_server_absorbs_request_spans(self, server):
        client = Client(server.address)
        try:
            client.send(_message(rid="d4", key="K4", trace="tr-span"))
            assert client.reply("d4").status == "ok"
        finally:
            client.close()
        entries = server.server.tracer.entries
        tree = span_tree(entries)
        roots = [n for n in tree if n["name"] == "request"]
        assert any(n["attrs"].get("trace") == "tr-span"
                   for n in roots)


class TestJournalCompatibility:
    """S4: pre-trace (v1-era) records must keep parsing."""

    def record(self, **extra):
        return {"type": "scheduled", "index": 0, "label": "b0",
                "builder": "n2", "order": [0, 1],
                "makespan": 2, "original_makespan": 2, **extra}

    def test_record_without_trace_parses(self):
        outcome = BlockOutcome.from_record(self.record())
        assert outcome.index == 0
        assert outcome.order == [0, 1]

    def test_record_with_trace_parses_identically(self):
        # from_record tolerates (and strips) the stamped field, so a
        # v2 journal replays to the same outcome as a v1 one.
        plain = BlockOutcome.from_record(self.record())
        stamped = BlockOutcome.from_record(self.record(trace="t-x"))
        assert plain.to_record() == stamped.to_record()
        assert "trace" not in stamped.to_record()
