"""Durability: v2 CRC framing, fsck, the serve WAL, snapshots, the
daemon supervisor, and the kill-daemon chaos harness.

The contract under test, end to end: nothing is acknowledged before
it is fsynced, every byte of damage is classified (torn tail vs
mid-file corruption) rather than guessed at, a restarted daemon
replays acknowledged-but-unfinished work without double-scheduling a
single block, and a crash-looping daemon stops with a typed error
instead of flapping forever.
"""

import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import JournalError, ReproError, SupervisorError
from repro.runner.fsck import (
    KIND_JOURNAL,
    KIND_SNAPSHOT,
    KIND_WAL,
    STATUS_CLEAN,
    STATUS_CORRUPT,
    STATUS_REPAIRABLE,
    STATUS_REPAIRED,
    fsck_file,
    fsck_paths,
    render_fsck_report,
)
from repro.runner.journal import (
    DAMAGE_BLANK_INTERIOR,
    DAMAGE_CRC_MISMATCH,
    DAMAGE_TORN_TAIL,
    DAMAGE_TRUNCATED_FRAME,
    frame_record,
    parse_record_line,
    read_snapshot,
    scan_lines,
    write_snapshot,
)
from repro.serve.client import Client
from repro.serve.loadtest import LoadtestConfig, run_loadtest
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.supervise import DaemonSupervisor, SupervisorPolicy
from repro.serve.wal import (
    FINISHED_ABANDONED,
    FINISHED_OK,
    WriteAheadLog,
)


# -- v2 framing --------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        record = {"type": "block", "index": 3, "makespan": 12}
        line = frame_record(record)
        assert line.startswith("~2 ")
        parsed, kind, detail = parse_record_line(line)
        assert parsed == record
        assert kind is None

    def test_v1_plain_json_still_parses(self):
        parsed, kind, _ = parse_record_line('{"type": "block", "index": 1}')
        assert parsed == {"type": "block", "index": 1}
        assert kind is None

    def test_flipped_byte_is_a_crc_mismatch(self):
        line = frame_record({"type": "block", "index": 3})
        damaged = line.replace('"index": 3', '"index": 4')
        parsed, kind, detail = parse_record_line(damaged)
        assert parsed is None
        assert kind == DAMAGE_CRC_MISMATCH
        assert "crc32" in detail

    def test_cut_frame_is_truncated(self):
        line = frame_record({"type": "block", "index": 3})
        parsed, kind, _ = parse_record_line(line[:len(line) // 2])
        assert parsed is None
        assert kind == DAMAGE_TRUNCATED_FRAME

    def test_scan_promotes_only_the_tail_to_torn(self):
        good = frame_record({"type": "block", "index": 0})
        torn = frame_record({"type": "block", "index": 1})[:10]
        records, damage = scan_lines([good, torn])
        assert [r for _, r in records] == [{"type": "block", "index": 0}]
        assert [d.kind for d in damage] == [DAMAGE_TORN_TAIL]
        assert damage[0].repairable

    def test_crc_mismatch_at_tail_is_never_torn(self):
        # The frame is complete; its bytes changed after the write.
        # Truncating it away would hide real corruption.
        good = frame_record({"type": "block", "index": 0})
        bad = frame_record({"type": "block", "index": 1}).replace(
            '"index": 1', '"index": 9')
        _, damage = scan_lines([good, bad])
        assert [d.kind for d in damage] == [DAMAGE_CRC_MISMATCH]
        assert not damage[0].repairable

    def test_blank_interior_is_damage(self):
        good = frame_record({"type": "block", "index": 0})
        _, damage = scan_lines([good, "", good])
        assert [d.kind for d in damage] == [DAMAGE_BLANK_INTERIOR]


# -- snapshots ---------------------------------------------------------------


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "warm.json")
        write_snapshot(path, {"cache": {"hits": 7}})
        assert read_snapshot(path) == {"cache": {"hits": 7}}
        assert not os.path.exists(path + ".tmp")

    def test_corruption_is_detected(self, tmp_path):
        path = str(tmp_path / "warm.json")
        write_snapshot(path, {"tokens": 41.5})
        text = open(path).read().replace("41.5", "99.9")
        open(path, "w").write(text)
        with pytest.raises(JournalError, match="crc32|CRC32"):
            read_snapshot(path)

    def test_not_a_snapshot_is_typed(self, tmp_path):
        path = str(tmp_path / "other.json")
        open(path, "w").write('{"type": "something-else"}\n')
        with pytest.raises(JournalError, match="not a snapshot"):
            read_snapshot(path)


# -- fsck --------------------------------------------------------------------


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _journal_lines(n_blocks=2):
    lines = [frame_record({"type": "header", "version": 2,
                           "fingerprint": {"machine": "generic"}})]
    for i in range(n_blocks):
        lines.append(frame_record({"type": "block", "index": i}))
    return lines


class TestFsck:
    def test_clean_journal(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _write_lines(path, _journal_lines())
        finding = fsck_file(path)
        assert finding.kind == KIND_JOURNAL
        assert finding.status == STATUS_CLEAN
        assert finding.ok

    def test_torn_tail_is_repairable_then_repaired(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        lines = _journal_lines()
        lines.append('{"type": "blo')  # killed mid-write
        _write_lines(path, lines)
        assert fsck_file(path).status == STATUS_REPAIRABLE
        finding = fsck_file(path, repair=True)
        assert finding.status == STATUS_REPAIRED
        assert finding.ok
        # The original is untouched; the copy reads back clean.
        assert open(path).read().count("\n") == 4
        repaired = fsck_file(finding.repaired_path)
        assert repaired.status == STATUS_CLEAN
        assert repaired.n_records == 3

    def test_mid_file_corruption_is_never_repaired(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        lines = _journal_lines()
        lines[1] = lines[1].replace('"index": 0', '"index": 7')
        _write_lines(path, lines)
        finding = fsck_file(path, repair=True)
        assert finding.status == STATUS_CORRUPT
        assert not finding.ok
        assert finding.repaired_path is None
        assert [d.kind for d in finding.damage] == [DAMAGE_CRC_MISMATCH]

    def test_snapshot_and_wal_kinds(self, tmp_path):
        snap = str(tmp_path / "warm.json")
        write_snapshot(snap, {"x": 1})
        wal_path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(wal_path)
        wal.close()
        by_kind = {f.kind: f for f in fsck_paths([str(tmp_path)])}
        assert by_kind[KIND_SNAPSHOT].status == STATUS_CLEAN
        assert by_kind[KIND_WAL].status == STATUS_CLEAN

    def test_directory_scan_skips_derived_files(self, tmp_path):
        _write_lines(str(tmp_path / "run.jsonl"), _journal_lines())
        _write_lines(str(tmp_path / "run.jsonl.repaired"),
                     _journal_lines())
        open(tmp_path / "daemon.pid", "w").write("1\n")
        findings = fsck_paths([str(tmp_path)])
        assert [os.path.basename(f.path) for f in findings] \
            == ["run.jsonl"]

    def test_render_report_counts(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _write_lines(path, _journal_lines())
        text = render_fsck_report(fsck_paths([path]))
        assert "1 files checked, 1 clean, 0 torn, 0 corrupt" in text


class TestCLIFsck:
    def _run(self, argv):
        lines = []
        status = main(argv, out=lines.append)
        return status, "\n".join(lines)

    def test_clean_exits_zero(self, tmp_path):
        _write_lines(str(tmp_path / "run.jsonl"), _journal_lines())
        status, text = self._run(["fsck", str(tmp_path)])
        assert status == 0
        assert "clean" in text

    def test_torn_exits_one_and_repair_writes_copy(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _write_lines(path, _journal_lines() + ['{"type": "blo'])
        status, _ = self._run(["fsck", path])
        assert status == 1
        status, text = self._run(["fsck", path, "--repair"])
        assert status == 1
        assert os.path.exists(path + ".repaired")
        assert "good prefix" in text

    def test_corrupt_exits_two_typed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        lines = _journal_lines()
        lines[1] = lines[1].replace('"index": 0', '"index": 7')
        _write_lines(path, lines)
        status, text = self._run(["fsck", path])
        assert status == 2
        assert "unrepairable" in text

    def test_no_files_is_typed(self, tmp_path):
        status, text = self._run(["fsck", str(tmp_path)])
        assert status == 2
        assert "no journal" in text


# -- resume fingerprint guard (satellite 1) ----------------------------------


class TestResumeConfigGuard:
    ASM = "add %r1, %r2, %r3\nsub %r3, %r1, %r4\nor %r2, %r4, %r5\n"

    def test_resume_under_different_budget_is_typed(self, tmp_path):
        source = tmp_path / "kernel.s"
        source.write_text(self.ASM)
        journal = str(tmp_path / "run.jsonl")
        lines = []
        assert main(["schedule", str(source), "--journal", journal,
                     "--block-timeout", "5.0"],
                    out=lines.append) == 0
        # Same journal, different watchdog budget: a different run.
        lines = []
        assert main(["schedule", str(source), "--journal", journal,
                     "--resume", "--block-timeout", "1.0"],
                    out=lines.append) == 2
        text = "\n".join(lines)
        assert "block_timeout" in text and "different run" in text
        # The matching budget resumes fine.
        lines = []
        assert main(["schedule", str(source), "--journal", journal,
                     "--resume", "--block-timeout", "5.0"],
                    out=lines.append) == 0


# -- the write-ahead log -----------------------------------------------------


def _request_message(key, rid=None, copies=2):
    return {"op": "schedule", "id": rid or f"id-{key}", "key": key,
            "workload": {"kernel": "daxpy", "copies": copies}}


class TestWriteAheadLog:
    def test_finished_key_lands_in_the_dedup_index(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        wal, recovery = WriteAheadLog.open(path)
        assert recovery.replayed == 0
        wal.log_accepted("k1", _request_message("k1"), 2)
        wal.log_block("k1", {"type": "block", "index": 0})
        wal.log_block("k1", {"type": "block", "index": 1})
        wal.log_finished("k1", FINISHED_OK, {"scheduled": 2})
        wal.close()
        _, recovery = WriteAheadLog.open(path)
        assert recovery.incomplete == []
        entry = recovery.finished["k1"]
        assert entry["status"] == FINISHED_OK
        assert entry["summary"] == {"scheduled": 2}
        assert sorted(entry["blocks"]) == [0, 1]

    def test_unfinished_key_is_reenqueued_with_its_blocks(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.log_accepted("k1", _request_message("k1", copies=3), 3)
        wal.log_block("k1", {"type": "block", "index": 0,
                             "makespan": 4})
        wal.log_shed("k1", 1, "deadline")
        wal.close()
        _, recovery = WriteAheadLog.open(path)
        assert recovery.finished == {}
        (entry,) = recovery.incomplete
        assert entry["key"] == "k1"
        completed = recovery.completed_map(entry)
        assert completed[0]["makespan"] == 4
        assert completed[1] == {"type": "shed", "index": 1,
                                "reason": "deadline"}
        assert 2 not in completed

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.log_accepted("k1", _request_message("k1"), 1)
        wal.log_finished("k1", FINISHED_OK, {})
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('~2 57 0abc')  # killed mid-append
        _, recovery = WriteAheadLog.open(path)
        assert recovery.dropped == 1
        assert "k1" in recovery.finished
        # The file was surgically truncated: a third open is clean.
        _, recovery = WriteAheadLog.open(path)
        assert recovery.dropped == 0

    def test_interior_corruption_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.log_accepted("k1", _request_message("k1"), 1)
        wal.log_finished("k1", FINISHED_OK, {})
        wal.close()
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace("k1", "kX")
        _write_lines(path, lines)
        with pytest.raises(JournalError, match="repro fsck"):
            WriteAheadLog.open(path)

    def test_duplicate_accept_keeps_the_first_recorded_work(self, tmp_path):
        # A daemon killed after recovery re-logged nothing: the replay
        # of an old 'accepted' must not reset the recorded blocks.
        path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.log_accepted("k1", _request_message("k1"), 2)
        wal.log_block("k1", {"type": "block", "index": 0})
        wal.log_accepted("k1", _request_message("k1"), 2)
        wal.close()
        _, recovery = WriteAheadLog.open(path)
        (entry,) = recovery.incomplete
        assert sorted(entry["blocks"]) == [0]

    def test_append_after_close_is_a_silent_noop(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.close()
        wal.log_shed("k1", 0, "drain")  # wedged engine thread, post-drain
        _, recovery = WriteAheadLog.open(path)
        assert recovery.replayed == 0


# -- the daemon with a WAL ---------------------------------------------------


def _wal_config(tmp_path, **overrides):
    options = dict(address=f"unix:{tmp_path}/wal.sock", workers=2,
                   drain_grace_s=5.0, wal_dir=str(tmp_path / "state"))
    options.update(overrides)
    return ServeConfig(**options)


def _wal_records(tmp_path):
    path = tmp_path / "state" / "serve.wal"
    lines = path.read_text().splitlines()
    records, damage = scan_lines(lines[1:], first_lineno=2)
    assert not damage
    return [record for _, record in records]


class TestServerWal:
    def test_request_is_logged_accepted_blocks_finished(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="r1", copies=2))
                accepted = client.recv()
                assert accepted["type"] == "accepted"
                assert accepted["key"] == "w1"
                frames = client.reply("r1").frames
                assert frames[-1]["type"] == "done"
                assert "deduped" not in frames[-1]
            finally:
                client.close()
        finally:
            background.drain()
        types = [r["type"] for r in _wal_records(tmp_path)]
        assert types.count("accepted") == 1
        assert types.count("block-done") == 2
        assert types.count("finished") == 1
        # accepted precedes every block, finished comes last
        assert types.index("accepted") < types.index("block-done")
        assert types.index("finished") == len(types) - 1

    def test_auto_key_is_assigned_when_absent(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            client = Client(background.address)
            try:
                client.send({"op": "schedule", "id": "r1",
                             "workload": {"kernel": "daxpy",
                                          "copies": 1}})
                accepted = client.recv()
                assert accepted["key"].startswith("auto-")
                assert client.reply("r1").status == "ok"
            finally:
                client.close()
        finally:
            background.drain()

    def test_finished_key_resend_is_deduped_live(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="r1", copies=2))
                first = client.reply("r1")
                assert first.status == "ok"
                client.send(_request_message("w1", rid="r2", copies=2))
                second = client.reply("r2").frames
                assert second[-1]["type"] == "done"
                assert second[-1]["deduped"] is True
                # The replay streams the same recorded blocks.
                assert [f["block"]["index"] for f in second if
                        f["type"] == "block"] \
                    == [f["block"]["index"] for f in first.frames if
                        f["type"] == "block"]
            finally:
                client.close()
            assert background.server.stats.requests_deduped == 1
        finally:
            background.drain()
        # Dedup never re-executes: still exactly 2 block-done records.
        types = [r["type"] for r in _wal_records(tmp_path)]
        assert types.count("block-done") == 2

    def test_restart_dedups_from_the_wal(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="r1", copies=2))
                assert client.reply("r1").status == "ok"
            finally:
                client.close()
        finally:
            background.drain()
        # Same WAL dir, fresh daemon: the finished key must be served
        # from the recovered result store, not re-executed.
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            assert background.server.stats.wal_replayed > 0
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="r2", copies=2))
                frames = client.reply("r2").frames
                assert frames[-1]["deduped"] is True
                client.send({"op": "health"})
                health = client.recv()
                assert health["wal"]["enabled"]
                assert health["wal"]["deduped"] == 1
            finally:
                client.close()
        finally:
            background.drain()
        types = [r["type"] for r in _wal_records(tmp_path)]
        assert types.count("block-done") == 2

    def test_restart_completes_unfinished_request(self, tmp_path):
        self.assert_restart_completes(tmp_path, jobs=1)

    def test_restart_completes_unfinished_request_on_pool(self, tmp_path):
        # A recovered request's missing blocks run on the supervised
        # pool like any other request's.
        self.assert_restart_completes(tmp_path, jobs=2)

    def assert_restart_completes(self, tmp_path, jobs):
        # Hand-craft the aftermath of a crash: accepted + one block
        # recorded, no finished record.  The next daemon generation
        # must finish the request -- re-emitting the recorded block
        # verbatim, scheduling only the missing one.
        state = tmp_path / "state"
        state.mkdir()
        wal, _ = WriteAheadLog.open(str(state / "serve.wal"))
        wal.log_accepted("w1", _request_message("w1", copies=2), 2)
        wal.log_block("w1", {"type": "block", "index": 0,
                             "builder": "recorded", "makespan": 1,
                             "original_makespan": 1, "degraded": False,
                             "quarantined": False, "attempts": [],
                             "order": [0]})
        wal.close()
        background = BackgroundServer(
            _wal_config(tmp_path, jobs=jobs)).start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if background.server.stats.requests_recovered:
                    records = _wal_records(tmp_path)
                    if any(r["type"] == "finished" for r in records):
                        break
                time.sleep(0.02)
            records = _wal_records(tmp_path)
            finished = [r for r in records if r["type"] == "finished"]
            assert finished and finished[0]["key"] == "w1"
            assert finished[0]["status"] == FINISHED_OK
            done = [r for r in records if r["type"] == "block-done"]
            # Only the missing block was scheduled and logged; the
            # recorded one was replayed, not re-run.
            assert sorted(r["index"] for r in done) == [0, 1]
            assert finished[0]["summary"]["replayed"] == 1
        finally:
            background.drain()

    def test_duplicate_key_in_flight_is_rejected(self, tmp_path,
                                                 monkeypatch):
        from repro.serve.engine import run_request as real_run_request

        def slow(request, machine, blocks, emit, **kwargs):
            time.sleep(0.3)
            return real_run_request(request, machine, blocks, emit,
                                    **kwargs)

        monkeypatch.setattr("repro.serve.server.run_request", slow)
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            first = Client(background.address)
            second = Client(background.address)
            try:
                first.send(_request_message("w1", rid="r1", copies=1))
                assert first.recv()["type"] == "accepted"
                second.send(_request_message("w1", rid="r2", copies=1))
                frame = second.reply("r2").frame
                assert frame["type"] == "rejected"
                assert frame["reason"] == "duplicate-in-flight"
                assert first.reply("r1").status == "ok"
            finally:
                first.close()
                second.close()
        finally:
            background.drain()

    def test_warm_snapshot_survives_restart(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            client = Client(background.address)
            try:
                message = _request_message("w1", rid="r1", copies=1)
                message["tenant"] = "acme"
                client.send(message)
                assert client.reply("r1").status == "ok"
            finally:
                client.close()
        finally:
            background.drain()
        snapshot = read_snapshot(str(tmp_path / "state" / "warm.json"))
        assert "acme" in snapshot["admission"]["tenants"]
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            assert "acme" in background.server.admission.tenants
        finally:
            background.drain()

    def test_drain_force_abandons_into_the_wal(self, tmp_path,
                                               monkeypatch):
        # Satellite: a request cut loose by the --drain-force backstop
        # is recorded as shed + abandoned, so the next generation does
        # NOT resurrect it -- the operator explicitly dropped it.
        def wedged(request, machine, blocks, emit, **kwargs):
            time.sleep(2.0)
            return {"n_blocks": len(blocks), "scheduled": 0,
                    "degraded": 0, "quarantined": 0,
                    "shed": len(blocks)}

        with monkeypatch.context() as patch:
            patch.setattr("repro.serve.server.run_request", wedged)
            config = _wal_config(tmp_path, workers=1,
                                 block_wall_s=None,
                                 drain_grace_s=0.05, drain_force_s=0.1)
            background = BackgroundServer(config).start()
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="hang",
                                             copies=1))
                assert client.recv()["type"] == "accepted"
                background.drain(timeout=10.0)
                assert background.server.drain_abandoned == ["hang"]
            finally:
                client.close()
        records = _wal_records(tmp_path)
        finished = [r for r in records if r["type"] == "finished"]
        assert finished[-1]["status"] == FINISHED_ABANDONED
        assert any(r["type"] == "block-shed" and r["reason"] == "drain"
                   for r in records)
        # Fresh generation (unwedged): nothing to recover, and a
        # resend of the abandoned key is answered from the record --
        # a typed terminal error, not a silent re-execution.
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            assert background.server.stats.requests_recovered == 0
            client = Client(background.address)
            try:
                client.send(_request_message("w1", rid="r2", copies=1))
                frame = client.reply("r2").frame
                assert frame["type"] == "error"
                assert "abandoned" in frame["error"]
            finally:
                client.close()
        finally:
            background.drain()


# -- loadtest idempotency-retry phase ----------------------------------------


class TestLoadtestIdempotency:
    def test_every_resend_is_deduped(self, tmp_path):
        background = BackgroundServer(_wal_config(tmp_path)).start()
        try:
            config = LoadtestConfig(address=background.address,
                                    seed=4, requests=6, concurrency=3,
                                    copies_max=2,
                                    idempotency_retry=1.0)
            report = run_loadtest(config)
            assert report.completed == 6
            assert report.retries_sent == 6
            assert report.retries_deduped == 6
            assert report.duplicate_results == 0
        finally:
            background.drain()

    def test_keys_stay_off_the_plain_mix(self):
        from repro.serve.loadtest import generate_mix
        plain = generate_mix(LoadtestConfig(address="unix:x", seed=1))
        keyed = generate_mix(LoadtestConfig(address="unix:x", seed=1,
                                            idempotency_retry=0.5))
        assert all("key" not in m for m in plain)
        assert all("key" in m for m in keyed)


# -- the supervisor ----------------------------------------------------------


class _FakeChild:
    def __init__(self, code, pid):
        self.code = code
        self.pid = pid
        self.signals = []
        self._done = False

    def wait(self):
        self._done = True
        return self.code

    def poll(self):
        return self.code if self._done else None

    def send_signal(self, sig):
        self.signals.append(sig)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestSupervisor:
    def _supervisor(self, codes, policy, pid_path=None):
        clock = _FakeClock()
        children = []

        def spawn():
            child = _FakeChild(codes[len(children)],
                               pid=1000 + len(children))
            children.append(child)
            return child

        supervisor = DaemonSupervisor(
            spawn, policy=policy, pid_path=pid_path,
            clock=clock, sleep=clock.sleep, log=lambda line: None)
        return supervisor, children, clock

    def test_clean_exit_returns_without_restart(self):
        supervisor, children, _ = self._supervisor(
            [0], SupervisorPolicy())
        assert supervisor.run() == 0
        assert len(children) == 1
        assert supervisor.generation == 1

    def test_crash_restarts_with_exponential_backoff(self):
        policy = SupervisorPolicy(max_restarts=5, backoff_base_s=0.1,
                                  backoff_max_s=5.0)
        supervisor, children, clock = self._supervisor(
            [1, 1, 0], policy)
        assert supervisor.run() == 0
        assert len(children) == 3
        assert clock.now == pytest.approx(0.1 + 0.2)

    def test_backoff_is_capped(self):
        policy = SupervisorPolicy(backoff_base_s=0.1, backoff_max_s=0.4)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 9)] \
            == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_crash_loop_is_a_typed_error(self):
        policy = SupervisorPolicy(max_restarts=2, window_s=60.0,
                                  backoff_base_s=0.0)
        supervisor, children, _ = self._supervisor(
            [1] * 10, policy)
        with pytest.raises(SupervisorError, match="crash loop") as info:
            supervisor.run()
        assert info.value.restarts == 3
        assert info.value.window_s == 60.0
        assert "repro fsck" in str(info.value)
        assert len(children) == 3

    def test_old_crashes_age_out_of_the_window(self):
        policy = SupervisorPolicy(max_restarts=2, window_s=10.0,
                                  backoff_base_s=20.0,
                                  backoff_max_s=20.0)
        # Each 20s backoff pushes earlier crashes out of the 10s
        # window, so an occasional crasher never trips the loop guard.
        supervisor, children, _ = self._supervisor(
            [1, 1, 1, 1, 0], policy)
        assert supervisor.run() == 0
        assert len(children) == 5

    def test_stop_request_ends_the_loop(self):
        supervisor, children, _ = self._supervisor(
            [7], SupervisorPolicy())
        supervisor.request_stop()
        assert supervisor.run() == 7
        assert len(children) == 1
        assert children[0].signals  # the stop was forwarded down

    def test_pid_file_tracks_generations_then_clears(self, tmp_path):
        pid_path = str(tmp_path / "daemon.pid")
        observed = []
        policy = SupervisorPolicy(backoff_base_s=0.0)
        clock = _FakeClock()
        children = []

        def spawn():
            child = _FakeChild([1, 0][len(children)],
                               pid=2000 + len(children))
            children.append(child)
            observed.append(open(pid_path).read().strip()
                            if os.path.exists(pid_path) else None)
            return child

        supervisor = DaemonSupervisor(
            spawn, policy=policy, pid_path=pid_path,
            clock=clock, sleep=clock.sleep, log=lambda line: None)
        assert supervisor.run() == 0
        assert not os.path.exists(pid_path)
        # Spawn #2 saw generation 1's pid on disk.
        assert observed == [None, "2000"]

    def test_pid_path_parent_dir_is_created(self, tmp_path):
        # The pid file lives in the WAL dir, which the *child* daemon
        # creates on startup; the supervisor must not lose the race.
        pid_path = str(tmp_path / "state" / "daemon.pid")
        supervisor, _, _ = self._supervisor(
            [0], SupervisorPolicy(), pid_path=pid_path)
        assert supervisor.run() == 0

    def test_supervisor_error_is_a_repro_error(self):
        assert issubclass(SupervisorError, ReproError)


# -- kill-daemon chaos (real subprocesses, real SIGKILL) ---------------------


class TestKillDaemonChaos:
    def test_quick_run_loses_nothing(self):
        from repro.serve.chaosserve import (
            KillDaemonConfig,
            run_kill_daemon_chaos,
        )
        report = run_kill_daemon_chaos(KillDaemonConfig(
            seed=3, requests=3, copies=2, kills=1,
            kill_interval_s=0.3, wall_timeout_s=60.0))
        assert report.kills_delivered == 1
        assert report.lost_acknowledged == 0
        assert report.duplicate_blocks == 0
        assert report.supervisor_exit == 0
        assert report.fsck_clean
        assert report.ok
        assert report.generations >= 2
