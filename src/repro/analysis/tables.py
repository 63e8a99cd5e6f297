"""Row builders for every table in the paper.

Each ``tableN_*`` function returns plain dict rows so benchmarks and
tests can both assert on values and print them with
:func:`repro.analysis.report.render_rows`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders.base import DagBuilder
from repro.heuristics.base import PassKind
from repro.heuristics.catalog import CATALOG
from repro.machine.model import MachineModel
from repro.runner.batch import run_batch


def table1_rows() -> list[dict]:
    """Table 1: the heuristic catalog with its classification."""
    rows = []
    for h in CATALOG:
        rows.append({
            "category": h.category.value,
            "heuristic": h.title + (" **" if h.transitive_sensitive else ""),
            "basis": "timing" if h.timing_based else "relationship",
            "pass": h.pass_kind.value,
        })
    return rows


def table2_rows(algorithms) -> list[dict]:
    """Table 2: the six published algorithms' analysis matrix.

    Args:
        algorithms: iterable of :class:`PublishedAlgorithm` *classes*.
    """
    rows = []
    for cls in algorithms:
        rows.append({
            "algorithm": cls.name,
            "dag pass": cls.dag_pass,
            "dag algorithm": cls.dag_algorithm,
            "sched pass": cls.sched_pass,
            "combination": "priority fn" if cls.priority_fn else "winnowing",
            "heuristics": "; ".join(f"{rank} {title}"
                                    for rank, title in cls.ranking),
        })
    return rows


def table3_row(name: str, blocks: list[BasicBlock]) -> dict:
    """Table 3: structural data for one benchmark (approach-independent)."""
    sizes = [b.size for b in blocks if b.size]
    mem_counts = [len(b.unique_memory_exprs()) for b in blocks if b.size]
    total = sum(sizes)
    return {
        "benchmark": name,
        "blocks": len(sizes),
        "insts": total,
        "insts/bb max": max(sizes, default=0),
        "insts/bb avg": round(total / len(sizes), 2) if sizes else 0.0,
        "memexpr/bb max": max(mem_counts, default=0),
        "memexpr/bb avg": round(sum(mem_counts) / len(mem_counts), 2)
        if mem_counts else 0.0,
    }


def table3_rows(benchmarks: dict[str, list[BasicBlock]]) -> list[dict]:
    """Table 3 for several benchmarks at once."""
    return [table3_row(name, blocks) for name, blocks in benchmarks.items()]


def table45_row(name: str, blocks: list[BasicBlock],
                machine: MachineModel,
                builder_factory: Callable[[], DagBuilder]) -> dict:
    """One row of Table 4 (n**2) or Table 5 (table building).

    Runs the section 6 pipeline -- DAG construction, intermediate
    backward heuristic pass, forward scheduling -- over all blocks as a
    one-entry builder chain, reporting wall-clock seconds, the
    structural statistics, and the machine-independent work counters.
    """
    def release(outcome) -> None:
        # The aggregates already counted this block's DAG; dropping it
        # keeps one block's DAG alive at a time, not the benchmark's.
        outcome.dag_stats_outcome = None

    start = time.perf_counter()
    result = run_batch(blocks, machine, chain_factories=[
        (builder_factory().name, builder_factory)], on_block=release)
    elapsed = time.perf_counter() - start
    stats = result.dag_stats
    return {
        "benchmark": name,
        "run time (s)": round(elapsed, 3),
        "children max": stats.max_children,
        "children avg": round(stats.avg_children, 2),
        "arcs/bb max": stats.max_arcs_per_block,
        "arcs/bb avg": round(stats.avg_arcs_per_block, 2),
        "comparisons": result.build_stats.comparisons,
        "table probes": result.build_stats.table_probes,
        "makespan": result.total_makespan,
    }
