"""Tests for the section 6 end-to-end pipeline.

The pipeline is :func:`repro.pipeline.schedule_attempt` per block; a
whole benchmark runs as a one-entry builder chain on
:func:`repro.runner.batch.run_batch`, the way Tables 4 and 5 run it.
"""

import pytest

from repro.analysis.tables import table3_row
from repro.cfg import apply_window
from repro.dag.builders import (
    ALL_BUILDERS,
    CompareAllBuilder,
    TableBackwardBuilder,
    TableForwardBuilder,
)
from repro.errors import DagError
from repro.heuristics.passes import backward_pass_levels
from repro.machine import sparcstation2_like
from repro.pipeline import schedule_attempt
from repro.runner.batch import run_batch
from repro.workloads import generate_blocks, scaled_profile


@pytest.fixture(scope="module")
def machine():
    return sparcstation2_like()


@pytest.fixture(scope="module")
def small_blocks():
    return generate_blocks(scaled_profile("linpack", 0.15))


def run_one(blocks, machine, factory, **kwargs):
    """The section 6 pipeline over ``blocks`` with a single builder."""
    return run_batch(blocks, machine,
                     chain_factories=[(factory().name, factory)], **kwargs)


class TestRunPipeline:
    def test_counts(self, machine, small_blocks):
        r = run_one(small_blocks, machine,
                    lambda: TableForwardBuilder(machine))
        assert r.n_blocks == len(small_blocks)
        assert r.n_instructions == sum(b.size for b in small_blocks)

    def test_scheduling_improves_or_matches(self, machine, small_blocks):
        r = run_one(small_blocks, machine,
                    lambda: TableForwardBuilder(machine))
        assert r.total_makespan <= r.total_original_makespan
        assert r.speedup >= 1.0

    def test_all_builders_schedule_same_total(self, machine, small_blocks):
        # Paper conclusion 6 (reinterpreted for makespans): the three
        # approaches with the same heuristics produce comparable
        # schedules -- for table builders the DAGs are identical, so
        # makespans must be identical; n**2 keeps extra transitive
        # arcs but the same closure, so its schedule can differ only
        # through heuristic-value changes, not legality.
        fw = run_one(small_blocks, machine,
                     lambda: TableForwardBuilder(machine))
        bw = run_one(small_blocks, machine,
                     lambda: TableBackwardBuilder(machine))
        assert fw.total_makespan == bw.total_makespan

    def test_heuristic_driver_equivalence(self, machine, small_blocks):
        # Paper conclusion 4: the level driver recomputes exactly the
        # values the pipeline's reverse walk left on every node.
        def values(dag):
            return [(n.max_path_to_leaf, n.max_delay_to_leaf, n.lst,
                     n.slack) for n in dag.nodes]

        for block in small_blocks:
            _, outcome, _, _ = schedule_attempt(
                block, machine, lambda: TableForwardBuilder(machine),
                "table-forward")
            walk = values(outcome.dag)
            backward_pass_levels(outcome.dag, require_est=False)
            assert values(outcome.dag) == walk

    def test_work_counters_accumulated(self, machine, small_blocks):
        n2 = run_one(small_blocks, machine,
                     lambda: CompareAllBuilder(machine))
        tf = run_one(small_blocks, machine,
                     lambda: TableForwardBuilder(machine))
        assert n2.build_stats.comparisons > 0
        assert tf.build_stats.comparisons == 0
        assert tf.build_stats.table_probes > 0

    def test_unique_mem_expr_max_tracked(self, small_blocks):
        expected = max(len(b.unique_memory_exprs()) for b in small_blocks)
        assert table3_row("linpack", small_blocks)["memexpr/bb max"] \
            == expected

    def test_windowing_reduces_n2_work(self, machine):
        blocks = generate_blocks(scaled_profile("tomcatv", 0.3))
        unwindowed = run_one(blocks, machine,
                             lambda: CompareAllBuilder(machine))
        windowed = run_one(apply_window(blocks, 100), machine,
                           lambda: CompareAllBuilder(machine))
        assert windowed.build_stats.comparisons \
            < unwindowed.build_stats.comparisons

    @pytest.mark.parametrize("builder_cls", ALL_BUILDERS,
                             ids=lambda c: c.name)
    def test_every_builder_runs_the_pipeline(self, machine, builder_cls):
        blocks = generate_blocks(scaled_profile("grep", 0.05))
        r = run_one(blocks, machine, lambda: builder_cls(machine))
        assert r.n_blocks == len(blocks)
        assert r.speedup >= 1.0


class TestScheduleAttempt:
    def test_returns_the_three_steps_results(self, machine, small_blocks):
        block = next(b for b in small_blocks if b.size > 3)
        builder, outcome, sched, original = schedule_attempt(
            block, machine, lambda: TableForwardBuilder(machine),
            "table-forward", verify=True)
        assert isinstance(builder, TableForwardBuilder)
        assert len(sched.order) == block.size
        assert sched.makespan <= original.makespan
        assert outcome.stats.table_probes > 0

    def test_factory_failure_is_a_build_stage_failure(self, machine,
                                                      small_blocks):
        def factory():
            raise DagError("no builder today")

        with pytest.raises(DagError) as info:
            schedule_attempt(small_blocks[0], machine, factory, "x")
        assert info.value.stage == "build"
