"""Tests for the resilient batch runner (repro.runner)."""

import json
import threading
import time
import types

import pytest

from repro.asm import parse_asm
from repro.cfg import partition_blocks
from repro.dag.builders import CompareAllBuilder
from repro.errors import BlockTimeout, JournalError, ReproError
from repro.machine import generic_risc
from repro.runner import (
    DEFAULT_CHAIN,
    BatchResult,
    BlockOutcome,
    Budget,
    BudgetedStats,
    RunJournal,
    resolve_chain,
    run_batch,
    run_fingerprint,
    run_with_watchdog,
    schedule_block_resilient,
)
from repro.workloads import kernel_source


@pytest.fixture
def machine():
    return generic_risc()


@pytest.fixture
def blocks():
    return partition_blocks(parse_asm(kernel_source("daxpy")))


class _SleepingBuilder(CompareAllBuilder):
    """A builder that hangs: the injected wall-clock fault."""

    name = "sleeping"

    def _construct(self, dag, space, oracle, stats):
        time.sleep(60.0)


class _BrokenBuilder(CompareAllBuilder):
    """A builder that crashes with a ReproError."""

    name = "broken"

    def _construct(self, dag, space, oracle, stats):
        raise ReproError("synthetic construction fault")


class TestWatchdog:
    def test_unlimited_budget_runs_inline(self):
        assert Budget().unlimited
        assert run_with_watchdog(lambda: 42, Budget()) == 42
        assert run_with_watchdog(lambda: 42, None) == 42

    def test_work_budget_trips(self, machine, blocks):
        stats = BudgetedStats(max_work=3, block="b0")
        with pytest.raises(BlockTimeout) as info:
            CompareAllBuilder(machine).build(blocks[0], stats=stats)
        assert info.value.budget == "work"
        assert info.value.spent > info.value.limit == 3

    def test_work_budget_is_deterministic(self, machine, blocks):
        def trip_point():
            stats = BudgetedStats(max_work=10)
            with pytest.raises(BlockTimeout) as info:
                CompareAllBuilder(machine).build(blocks[0], stats=stats)
            return info.value.spent

        assert trip_point() == trip_point()

    def test_generous_budget_does_not_trip(self, machine, blocks):
        stats = BudgetedStats(max_work=10**9)
        outcome = CompareAllBuilder(machine).build(blocks[0], stats=stats)
        assert outcome.dag.n_arcs > 0
        assert stats.work > 0

    def test_wall_clock_trips_on_hang(self):
        budget = Budget(wall_clock=0.05)
        with pytest.raises(BlockTimeout) as info:
            run_with_watchdog(lambda: time.sleep(60), budget, block="b0")
        assert info.value.budget == "wall-clock"

    def test_deadline_tighter_than_wall_clock_trips_at_deadline(self):
        release = threading.Event()
        budget = Budget(wall_clock=30.0, deadline=time.monotonic() + 0.2)
        start = time.monotonic()
        try:
            with pytest.raises(BlockTimeout) as info:
                run_with_watchdog(lambda: release.wait(30.0), budget,
                                  block="b0")
        finally:
            release.set()
        assert time.monotonic() - start < 5.0
        assert info.value.budget == "wall-clock"
        assert info.value.limit <= 0.2

    def test_deadline_already_past_starts_no_thread(self, monkeypatch,
                                                     machine, blocks):
        import repro.runner.watchdog as watchdog_mod

        def no_thread(*args, **kwargs):
            raise AssertionError("a watchdog thread was started")

        monkeypatch.setattr(watchdog_mod, "threading",
                            types.SimpleNamespace(Thread=no_thread))
        budget = Budget(wall_clock=30.0, deadline=time.monotonic() - 1.0)
        called = []
        with pytest.raises(BlockTimeout) as info:
            run_with_watchdog(lambda: called.append(1), budget, block="b0")
        assert not called
        assert info.value.budget == "wall-clock"
        # Each chain entry times out at once: a late block degrades
        # without leaving an abandoned thread per entry.
        outcome = schedule_block_resilient(
            blocks[0], machine, resolve_chain(DEFAULT_CHAIN, machine),
            budget=budget)
        assert [(a.builder, a.stage) for a in outcome.attempts] == [
            (name, "timeout") for name in DEFAULT_CHAIN] + [
            ("original-order", "ok")]

    def test_deadline_only_budget_is_not_unlimited(self):
        budget = Budget(deadline=time.monotonic() + 60.0)
        assert not budget.unlimited
        assert run_with_watchdog(lambda: 42, budget) == 42

    def test_wall_clock_propagates_result_and_errors(self):
        budget = Budget(wall_clock=5.0)
        assert run_with_watchdog(lambda: "ok", budget) == "ok"

        def boom():
            raise ReproError("inner")

        with pytest.raises(ReproError, match="inner"):
            run_with_watchdog(boom, budget)


class TestFallbackChain:
    def test_resolve_rejects_unknown_and_empty(self, machine):
        with pytest.raises(ReproError, match="unknown builder"):
            resolve_chain(["nope"], machine)
        with pytest.raises(ReproError, match="empty"):
            resolve_chain([], machine)

    def test_clean_block_uses_first_builder(self, machine, blocks):
        chain = resolve_chain(DEFAULT_CHAIN, machine)
        outcome = schedule_block_resilient(blocks[0], machine, chain)
        assert outcome.builder == DEFAULT_CHAIN[0]
        assert not outcome.degraded
        assert [a.stage for a in outcome.attempts] == ["ok"]
        assert sorted(outcome.order) == list(
            range(len(blocks[0].instructions)))

    def test_hanging_builder_falls_back(self, machine, blocks):
        chain = [("sleeping", lambda: _SleepingBuilder(machine)),
                 ("n2", lambda: CompareAllBuilder(machine))]
        outcome = schedule_block_resilient(
            blocks[0], machine, chain, budget=Budget(wall_clock=0.1))
        assert outcome.builder == "n2"
        assert [(a.builder, a.stage) for a in outcome.attempts] == [
            ("sleeping", "timeout"), ("n2", "ok")]
        assert "wall-clock" in outcome.attempts[0].error

    def test_broken_builder_falls_back(self, machine, blocks):
        chain = [("broken", lambda: _BrokenBuilder(machine)),
                 ("n2", lambda: CompareAllBuilder(machine))]
        outcome = schedule_block_resilient(blocks[0], machine, chain)
        assert outcome.builder == "n2"
        assert outcome.attempts[0].stage == "build"
        assert "synthetic construction fault" in outcome.attempts[0].error

    def test_all_builders_fail_degrades_to_original(self, machine, blocks):
        chain = [("broken", lambda: _BrokenBuilder(machine))]
        outcome = schedule_block_resilient(blocks[0], machine, chain)
        assert outcome.degraded
        assert outcome.builder is None
        assert outcome.order == list(range(len(blocks[0].instructions)))
        assert outcome.makespan == outcome.original_makespan
        assert outcome.attempts[-1].builder == "original-order"

    def test_tiny_work_budget_exhausts_chain(self, machine, blocks):
        chain = resolve_chain(DEFAULT_CHAIN, machine)
        outcome = schedule_block_resilient(
            blocks[0], machine, chain, budget=Budget(max_work=2))
        assert outcome.degraded
        assert [a.stage for a in outcome.attempts[:-1]] == \
            ["timeout"] * len(DEFAULT_CHAIN)


class TestBatch:
    def test_clean_batch(self, machine, blocks):
        result = run_batch(blocks, machine, verify=True)
        assert result.n_blocks == 2
        assert result.failures == []
        assert result.degraded_fraction == 0.0
        assert result.total_makespan < result.total_original_makespan
        assert result.speedup > 1.0
        assert result.build_stats.comparisons >= 0
        assert result.dag_stats.n_blocks == 2

    def test_degraded_batch_speedup_is_one(self, machine, blocks):
        result = run_batch(
            blocks, machine,
            chain_factories=[("broken",
                              lambda: _BrokenBuilder(machine))])
        assert result.degraded_fraction == 1.0
        assert result.degraded_makespan == result.total_makespan
        assert result.speedup == 1.0

    def test_partial_degradation_excluded_from_speedup(
            self, machine, blocks):
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) == 1:
                return _BrokenBuilder(machine)
            return CompareAllBuilder(machine)

        result = run_batch(blocks, machine,
                           chain_factories=[("flaky", flaky)])
        assert len(result.failures) == 1
        scheduled = result.total_makespan - result.degraded_makespan
        original = (result.total_original_makespan
                    - result.degraded_makespan)
        assert result.speedup == original / scheduled

    def test_empty_batch(self, machine):
        result = run_batch([], machine)
        assert isinstance(result, BatchResult)
        assert result.n_blocks == 0
        assert result.speedup == 1.0
        assert result.degraded_fraction == 0.0


class TestJournal:
    def fingerprint(self):
        return run_fingerprint("text", "generic", DEFAULT_CHAIN,
                               window=None, verify=False)

    def test_fresh_resume_roundtrip(self, tmp_path, machine, blocks):
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            first = run_batch(blocks, machine, journal=journal)
        with RunJournal.open_resume(path, self.fingerprint()) as journal:
            assert sorted(journal.completed) == \
                [o.index for o in first.outcomes]
            second = run_batch(blocks, machine, journal=journal)
        assert second.n_replayed == first.n_blocks
        assert second.total_makespan == first.total_makespan
        assert [o.order for o in second.outcomes] == \
            [o.order for o in first.outcomes]
        assert [[a.to_record() for a in o.attempts]
                for o in second.outcomes] == \
            [[a.to_record() for a in o.attempts]
             for o in first.outcomes]

    def test_replayed_outcomes_are_marked_dead(self, tmp_path, machine,
                                               blocks):
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            run_batch(blocks, machine, journal=journal)
        with RunJournal.open_resume(path, self.fingerprint()) as journal:
            result = run_batch(blocks, machine, journal=journal)
        assert all(not o.live for o in result.outcomes)
        assert result.dag_stats.n_blocks == 0  # replays carry no stats

    def test_torn_final_line_is_ignored(self, tmp_path, machine, blocks):
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            run_batch(blocks, machine, journal=journal)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + '\n{"type": "blo')
        header, completed = RunJournal.load(path)
        assert sorted(completed) == [blocks[0].index]

    def test_mid_file_corruption_raises(self, tmp_path, machine, blocks):
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            run_batch(blocks, machine, journal=journal)
        lines = open(path).read().splitlines()
        lines[1] = '{"type": "blo'
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 2"):
            RunJournal.load(path)

    def test_blank_interior_line_raises(self, tmp_path, machine,
                                        blocks):
        # A blank line *between* records is a hole where a block
        # should be; resuming over it would silently skip blocks.
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            run_batch(blocks, machine, journal=journal)
        lines = open(path).read().splitlines()
        assert len(lines) >= 3  # header + at least two records
        lines[1] = ""
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 2"):
            RunJournal.load(path)

    def test_torn_final_line_with_trailing_blanks_is_tolerated(
            self, tmp_path, machine, blocks):
        # A killed run can leave a torn record followed by nothing
        # but whitespace; only *non-trailing* corruption is fatal.
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            run_batch(blocks, machine, journal=journal)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + '\n{"type": "blo\n\n')
        header, completed = RunJournal.load(path)
        assert sorted(completed) == [blocks[0].index]

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        RunJournal.open_fresh(path, self.fingerprint()).close()
        other = run_fingerprint("other text", "sparc", ("n2",),
                                window=4, verify=False)
        with pytest.raises(JournalError) as info:
            RunJournal.open_resume(path, other)
        message = str(info.value)
        assert "different run" in message
        for key in ("chain", "machine", "source_sha256", "window"):
            assert key in message

    def test_missing_record_field_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal.open_fresh(path, self.fingerprint()) as journal:
            journal._handle.write(
                json.dumps({"type": "block", "index": 0}) + "\n")
        with pytest.raises(JournalError, match="missing field"):
            RunJournal.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            RunJournal.load(str(tmp_path / "absent.jsonl"))

    def test_outcome_record_roundtrip(self):
        outcome = BlockOutcome(
            index=3, label="loop", builder="n2", order=[1, 0, 2],
            makespan=7, original_makespan=9)
        restored = BlockOutcome.from_record(outcome.to_record())
        assert restored.index == 3
        assert restored.label == "loop"
        assert restored.order == [1, 0, 2]
        assert not restored.live


class TestResumeByteIdentical:
    """The acceptance criterion: kill a journaled run partway, resume,
    and get byte-identical CLI output."""

    def test_cli_resume_after_truncation(self, tmp_path):
        from repro.cli import main
        asm = tmp_path / "kernel.s"
        asm.write_text(kernel_source("livermore1"))
        journal = tmp_path / "run.jsonl"
        argv = ["schedule", str(asm), "--journal", str(journal),
                "--verify"]

        lines: list[str] = []
        assert main(argv, out=lines.append) == 0
        full = "\n".join(lines)

        # Simulate a kill after the first block: header + 1 record +
        # a torn partial write of the in-flight block.
        recorded = journal.read_text().splitlines()
        assert len(recorded) >= 3
        journal.write_text("\n".join(recorded[:2]) + '\n{"type": "bl')

        lines = []
        assert main(argv + ["--resume"], out=lines.append) == 0
        assert "\n".join(lines) == full
