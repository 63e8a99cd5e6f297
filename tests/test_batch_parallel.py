"""Tests for --jobs batch runs, work accounting, and the benchmark."""

import json

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.dag.builders import CompareAllBuilder
from repro.errors import ReproError
from repro.runner import (
    Attempt,
    Budget,
    resolve_chain,
    run_batch,
    schedule_block_resilient,
)
from repro.runner.bench import bench_blocks, run_bench, write_bench
from repro.workloads import KERNELS, kernel_source


@pytest.fixture
def blocks():
    source = "\n".join(kernel_source(k) for k in sorted(KERNELS))
    program = parse_asm(source, name="all-kernels")
    return apply_window(partition_blocks(program), 16)


class TestParallelBatch:
    # Identity with a serial run (records, aggregates, journal lines,
    # resume) is asserted by tests/test_equivalence.py.
    def test_jobs_rejects_custom_priority(self, machine, blocks):
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=2,
                      priority=lambda state, node: 0)

    def test_jobs_rejects_injected_factories(self, machine, blocks):
        factories = [("n2", lambda: CompareAllBuilder(machine))]
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=2,
                      chain_factories=factories)

    def test_jobs_below_one_rejected(self, machine, blocks):
        with pytest.raises(ReproError, match="jobs"):
            run_batch(blocks, machine, jobs=0)

    def test_on_block_in_program_order(self, machine, blocks):
        seen = []
        run_batch(blocks, machine, jobs=2,
                  on_block=lambda outcome: seen.append(outcome.index))
        assert seen == sorted(seen)


class TestAttemptWorkAccounting:
    def test_each_attempt_gets_fresh_budget(self, machine, blocks):
        # Chain of two builders under one per-attempt budget sized so
        # the n**2 reference trips but the table builder fits: if the
        # first attempt's spent work leaked into the second, the
        # second would trip too and the block would degrade.
        block = blocks[0]
        base = CompareAllBuilder(machine).build(block).stats
        n2_work = (base.comparisons + base.table_probes
                   + base.alias_checks + base.bitmap_ops)
        budget = Budget(max_work=n2_work - 1)
        chain = resolve_chain(("n2", "table-forward"), machine)
        outcome = schedule_block_resilient(block, machine, chain,
                                           budget=budget)
        assert not outcome.degraded
        assert outcome.builder == "table-forward"
        first, second = outcome.attempts[0], outcome.attempts[1]
        assert first.stage == "timeout"
        # The failed attempt's spent work is recorded, not reset...
        assert first.work is not None and first.work >= n2_work - 1
        # ...and the successful attempt was charged only its own work.
        assert second.stage == "ok"
        assert second.work is not None
        assert second.work <= n2_work - 1

    def test_work_survives_record_round_trip(self):
        attempt = Attempt("n2", "timeout", "budget", work=123)
        assert Attempt.from_record(attempt.to_record()) == attempt

    def test_old_records_without_work_tolerated(self):
        attempt = Attempt.from_record(
            {"builder": "n2", "stage": "ok", "error": None})
        assert attempt.work is None

    def test_wasted_work_counts_failed_attempts_only(self, machine,
                                                     blocks):
        clean = run_batch(blocks, machine)
        assert clean.wasted_work == 0
        block = blocks[0]
        base = CompareAllBuilder(machine).build(block).stats
        n2_work = (base.comparisons + base.table_probes
                   + base.alias_checks + base.bitmap_ops)
        result = run_batch([block], machine,
                           chain=("n2", "table-forward"),
                           budget=Budget(max_work=n2_work - 1))
        assert result.failures == []
        assert result.wasted_work >= n2_work - 1


class TestBench:
    def test_bench_blocks_deterministic(self):
        assert records_like(bench_blocks(2)) == records_like(
            bench_blocks(2))
        assert len(bench_blocks(3)) == 4 * 3

    def test_run_bench_document(self, tmp_path, sparc_machine):
        doc = run_bench(sparc_machine, machine_name="sparc", copies=2,
                        repeats=1, jobs=1, quick=True)
        assert doc["batch"]["schedules_identical"] is True
        assert set(doc["builders"]) == {
            "n2", "landskov", "table-forward", "table-backward",
            "bitmap-backward"}
        for row in doc["builders"].values():
            assert row["time_s"] >= 0.0
            assert row["table_probes"] >= 0
        assert doc["builders"]["bitmap-backward"][
            "bitmap_words_touched"] > 0
        assert doc["heuristics"]["incremental"]["arcs_repaired"] > 0
        out = tmp_path / "bench.json"
        write_bench(doc, str(out))
        assert json.loads(out.read_text()) == doc

    def test_bench_counters_reproducible(self, sparc_machine):
        one = run_bench(sparc_machine, copies=2, repeats=1, jobs=1,
                        quick=True)
        two = run_bench(sparc_machine, copies=2, repeats=1, jobs=1,
                        quick=True)
        strip = lambda d: {name: {k: v for k, v in row.items()
                                  if not k.endswith("_s")}
                           for name, row in d["builders"].items()}
        assert strip(one) == strip(two)
        assert one["batch"]["build_counters"] \
            == two["batch"]["build_counters"]


def records_like(blocks):
    return [(b.index, [i.render() for i in b.instructions])
            for b in blocks]
