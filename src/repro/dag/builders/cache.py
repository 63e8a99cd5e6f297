"""Memoised per-block construction results: the pairwise-dependence cache.

The resilient runner re-derives the same dependences many times: a
fallback-chain retry rebuilds the block with the next builder, ``repro
verify`` re-derives the compare-against-all reference once per builder
per block, and an unrolled loop body windows into many textually
identical blocks that each pay full construction cost.  The paper's
practicality argument (sections 2-3) is about making exactly this work
cheap, so :class:`PairwiseCache` memoises it at two levels, keyed by a
fingerprint of the block text, the alias policy, and the machine:

* the **pairwise level** shares the
  :class:`~repro.dag.builders.compare_all.PairwiseData` bitsets (and
  the alias-oracle verdicts behind them) between the builders that use
  them, so a chain retry does not re-run the memory disambiguation
  sweep;
* the **recipe level** records, per builder, the finished arc set and
  the work-counter delta of a successful construction; a later build of
  the same block replays the arcs directly and *charges the recorded
  counters* to the caller's stats object.

Charging the recorded counters is what keeps cached runs
indistinguishable from uncached ones: a
:class:`~repro.runner.watchdog.BudgetedStats` work budget trips on a
replayed build exactly when it would have tripped on a fresh one, so
fallback decisions, journal records, and schedules are byte-identical
with the cache on or off -- only the wall clock changes.  (The one
visible difference: a budget-trip diagnostic may report a larger
``spent`` value, because replay charges counters in whole-field steps.)

A recipe is recorded only after a construction *completes*; an attempt
that trips its budget mid-build leaves no partial recipe behind.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders.base import BuildStats
from repro.dag.graph import Dag
from repro.dep import DepType
from repro.isa.memory import AliasPolicy
from repro.isa.resources import Resource, ResourceSpace
from repro.machine.model import MachineModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dag.builders.compare_all import PairwiseData

#: one recorded arc: (parent id, child id, dep, delay, resource)
ArcSpec = tuple[int, int, DepType, int, Resource | None]


def block_fingerprint(block: BasicBlock, policy: AliasPolicy,
                      machine: MachineModel) -> str:
    """Content fingerprint of everything that determines a block's DAG.

    Two blocks with the same fingerprint produce identical dependence
    DAGs under every builder: the rendered instruction text fixes the
    resources, the policy fixes the aliasing verdicts, and the machine
    fixes the arc delays.  Labels are deliberately excluded
    (``Instruction.render`` omits them), so the identical bodies of an
    unrolled or windowed loop share one cache entry.
    """
    digest = hashlib.sha256()
    digest.update(policy.name.encode("utf-8"))
    digest.update(machine.name.encode("utf-8"))
    for instr in block.instructions:
        digest.update(b"\x00")
        digest.update(instr.render().encode("utf-8"))
        if instr.annulled:
            digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class PairwiseBundle:
    """The shared pairwise-dependence state for one block fingerprint.

    Attributes:
        space: the resource space the pairwise bitsets index into
            (both pairwise builders intern in forward node order, so
            one space serves them all).
        verdicts: the alias-oracle memo, shared so replayed detailed
            arc passes hit it instead of re-consulting the policy.
        pairwise: the comparison bitsets.
        alias_checks: unique disambiguations the original sweep
            counted -- charged to any build that reuses the bundle, so
            its counters match a fresh build's exactly.
    """

    space: ResourceSpace
    verdicts: dict[tuple[int, int], bool]
    pairwise: "PairwiseData"
    alias_checks: int


@dataclass(frozen=True)
class ArcRecipe:
    """A finished construction, ready to replay.

    Attributes:
        arcs: the final (merged) arc set in parent-id order.
        stats: work-counter delta of the recorded fresh build.
        n_merged_arcs: duplicate-arc merges the fresh build performed.
        space: the resource space of the recorded build (returned on
            replay so downstream consumers see consistent ids).
        words_touched: reachability-map words the recorded build
            touched (reported by the replaying builder).
    """

    arcs: tuple[ArcSpec, ...]
    stats: BuildStats
    n_merged_arcs: int
    space: ResourceSpace
    words_touched: int

    @staticmethod
    def snapshot(dag: Dag, stats_delta: BuildStats, space: ResourceSpace,
                 words_touched: int) -> "ArcRecipe":
        """Record a completed construction."""
        arcs = tuple((arc.parent.id, arc.child.id, arc.dep, arc.delay,
                      arc.resource) for arc in dag.arcs())
        return ArcRecipe(arcs, stats_delta, dag.n_merged_arcs, space,
                         words_touched)

    def replay(self, dag: Dag, stats: BuildStats) -> None:
        """Re-create the recorded arcs and charge the recorded work.

        The charge happens *first*: a budgeted stats object must trip
        before any arc materialises, mirroring a fresh build where the
        work precedes the arcs.
        """
        stats.merge(self.stats)
        nodes = dag.nodes
        for parent_id, child_id, dep, delay, resource in self.arcs:
            dag.add_arc(nodes[parent_id], nodes[child_id], dep, delay,
                        resource)
        dag.n_merged_arcs = self.n_merged_arcs


@dataclass
class CacheEntry:
    """Everything cached for one block fingerprint."""

    bundle: PairwiseBundle | None = None
    recipes: dict[str, ArcRecipe] = field(default_factory=dict)


class PairwiseCache:
    """LRU cache of per-block construction state.

    One instance serves a whole run (CLI ``schedule``/``verify``, a
    batch-runner worker, the benchmark harness); pass it to any
    :class:`~repro.dag.builders.base.DagBuilder` via the ``cache``
    keyword, or let :func:`repro.runner.fallback.resolve_chain` and
    :func:`repro.verify.checker.verify_schedule` thread it through.

    Not process- or thread-shared: parallel batch workers each build
    their own (the benefit is intra-worker reuse; the results are
    identical either way).
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: recipe misses that still reused a shared pairwise bundle --
        #: cheaper than a cold build (no alias sweep), counted apart so
        #: reports can tell bundle reuse from truly cold construction.
        self.bundle_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entry_for(self, block: BasicBlock, policy: AliasPolicy,
                  machine: MachineModel) -> CacheEntry:
        """The (possibly fresh) cache entry for a block's fingerprint."""
        key = block_fingerprint(block, policy, machine)
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry()
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    def resize(self, max_entries: int) -> None:
        """Change the LRU cap, evicting oldest entries if shrinking.

        The serve engine clamps warm caches under overload pressure
        and restores them afterwards; counters are untouched.
        """
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (emergency memory release); counters
        survive so hit-rate history stays honest."""
        self._entries.clear()

    def info(self) -> dict[str, int]:
        """Hit/miss/occupancy counters for reports and benchmarks."""
        return {"hits": self.hits, "misses": self.misses,
                "bundle_hits": self.bundle_hits,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "recipes": sum(len(e.recipes)
                               for e in self._entries.values())}
