"""DAG structural statistics (Tables 4 and 5 columns).

The paper reports, per benchmark and per construction approach, the
maximum and average number of children per instruction and the maximum
and average number of arcs per basic block.  :class:`ProgramDagStats`
accumulates those across the blocks of a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.graph import Dag


@dataclass(frozen=True, slots=True)
class BlockDagStats:
    """Structural numbers for one block's DAG (dummies excluded)."""

    n_nodes: int
    n_arcs: int
    max_children: int

    @property
    def avg_children(self) -> float:
        """Average out-degree per instruction (equals arcs / nodes)."""
        return self.n_arcs / self.n_nodes if self.n_nodes else 0.0


def dag_stats(dag: Dag) -> BlockDagStats:
    """Structural statistics of one DAG, ignoring dummy nodes/arcs."""
    real = dag.real_nodes()
    n_arcs = 0
    max_children = 0
    for node in real:
        out = sum(1 for a in node.out_arcs if not a.child.is_dummy)
        n_arcs += out
        if out > max_children:
            max_children = out
    return BlockDagStats(len(real), n_arcs, max_children)


class ProgramDagStats:
    """Accumulates per-block DAG statistics across a benchmark.

    Produces the Table 4 / Table 5 columns: children/inst (max, avg)
    and arcs/basic-block (max, avg).
    """

    def __init__(self) -> None:
        self.n_blocks = 0
        self.n_instructions = 0
        self.total_arcs = 0
        self.max_children = 0
        self.max_arcs_per_block = 0

    def add(self, stats: BlockDagStats) -> None:
        """Fold in one block's statistics."""
        self.n_blocks += 1
        self.n_instructions += stats.n_nodes
        self.total_arcs += stats.n_arcs
        if stats.max_children > self.max_children:
            self.max_children = stats.max_children
        if stats.n_arcs > self.max_arcs_per_block:
            self.max_arcs_per_block = stats.n_arcs

    @property
    def avg_children(self) -> float:
        """Average children per instruction across the benchmark."""
        return (self.total_arcs / self.n_instructions
                if self.n_instructions else 0.0)

    @property
    def avg_arcs_per_block(self) -> float:
        """Average arcs per basic block across the benchmark."""
        return self.total_arcs / self.n_blocks if self.n_blocks else 0.0

    def as_row(self) -> dict[str, float | int]:
        """The Table 4/5 column values as a flat mapping."""
        return {
            "children_max": self.max_children,
            "children_avg": round(self.avg_children, 2),
            "arcs_max": self.max_arcs_per_block,
            "arcs_avg": round(self.avg_arcs_per_block, 2),
        }
