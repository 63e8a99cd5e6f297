"""Tests for DAG structural statistics."""

from repro.asm import parse_asm
from repro.cfg import partition_blocks
from repro.dag.builders import TableForwardBuilder
from repro.dag.forest import attach_dummy_leaf, attach_dummy_root
from repro.dag.stats import ProgramDagStats, dag_stats
from repro.machine import generic_risc


def dag_for(source: str):
    blocks = partition_blocks(parse_asm(source))
    return TableForwardBuilder(generic_risc()).build(blocks[0]).dag


class TestBlockStats:
    def test_counts(self):
        dag = dag_for("mov 1, %o0\nadd %o0, 1, %o1\nadd %o0, %o1, %o2")
        stats = dag_stats(dag)
        assert stats.n_nodes == 3
        assert stats.n_arcs == 3
        assert stats.max_children == 2

    def test_avg_children_is_arcs_over_nodes(self):
        dag = dag_for("mov 1, %o0\nadd %o0, 1, %o1\nadd %o0, %o1, %o2")
        assert dag_stats(dag).avg_children == 1.0

    def test_empty_dag(self):
        from repro.dag.graph import Dag
        stats = dag_stats(Dag())
        assert stats.n_nodes == 0
        assert stats.avg_children == 0.0

    def test_dummy_nodes_excluded(self):
        dag = dag_for("mov 1, %o0\nadd %o0, 1, %o1")
        attach_dummy_root(dag)
        attach_dummy_leaf(dag)
        stats = dag_stats(dag)
        assert stats.n_nodes == 2
        assert stats.n_arcs == 1


class TestProgramStats:
    def test_accumulation(self):
        agg = ProgramDagStats()
        agg.add(dag_stats(dag_for("mov 1, %o0\nadd %o0, 1, %o1")))
        agg.add(dag_stats(
            dag_for("mov 1, %o0\nadd %o0, 1, %o1\nadd %o0, %o1, %o2")))
        assert agg.n_blocks == 2
        assert agg.n_instructions == 5
        assert agg.total_arcs == 4
        assert agg.max_children == 2
        assert agg.max_arcs_per_block == 3

    def test_averages(self):
        agg = ProgramDagStats()
        agg.add(dag_stats(dag_for("mov 1, %o0\nadd %o0, 1, %o1")))
        agg.add(dag_stats(
            dag_for("mov 1, %o0\nadd %o0, 1, %o1\nadd %o0, %o1, %o2")))
        assert agg.avg_children == 4 / 5
        assert agg.avg_arcs_per_block == 2.0

    def test_as_row(self):
        agg = ProgramDagStats()
        agg.add(dag_stats(dag_for("mov 1, %o0\nadd %o0, 1, %o1")))
        row = agg.as_row()
        assert set(row) == {"children_max", "children_avg", "arcs_max",
                            "arcs_avg"}

    def test_empty_aggregate(self):
        agg = ProgramDagStats()
        assert agg.avg_children == 0.0
        assert agg.avg_arcs_per_block == 0.0
