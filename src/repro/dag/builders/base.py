"""Shared machinery for DAG construction algorithms.

Every builder in this package follows the paper's section 3 framing:
one pass over the block's instructions (forward or backward), resources
interned to dense ids, an aliasing oracle consulted for memory
references, and machine-independent work counters so the Table 4/5
comparisons do not depend on wall clocks.

:class:`DagBuilder` is the template: it creates the node set in
original instruction order (node ``id`` == instruction position, the
invariant the published-algorithm wrappers and the verifier rely on)
and delegates arc construction to the subclass hook.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator

from repro.cfg.basic_block import BasicBlock
from repro.dag.graph import Dag, DagNode
from repro.isa.memory import AliasPolicy, may_alias
from repro.isa.resources import Resource, ResourceKind, ResourceSpace
from repro.machine.model import MachineModel

#: counter fields that make up a build's work units (the currency of
#: the runner's work budget)
WORK_FIELDS = ("comparisons", "table_probes", "alias_checks",
               "bitmap_ops")


@dataclass
class BuildStats:
    """Machine-independent work counters for one build.

    Attributes:
        comparisons: node-pair dependence tests (the ``n**2`` cost).
        table_probes: resource-table lookups (the table-building cost).
        alias_checks: distinct memory-expression pairs disambiguated.
        arcs_added: arcs present in the finished DAG.
        arcs_merged: duplicate (parent, child) arcs merged away.
        arcs_suppressed: arcs skipped by reachability-bitmap insertion.
        bitmap_ops: reachability-bitmap queries and updates.
    """

    comparisons: int = 0
    table_probes: int = 0
    alias_checks: int = 0
    arcs_added: int = 0
    arcs_merged: int = 0
    arcs_suppressed: int = 0
    bitmap_ops: int = 0

    @property
    def work(self) -> int:
        """Work units: the summed :data:`WORK_FIELDS` counters."""
        return (self.comparisons + self.table_probes + self.alias_checks
                + self.bitmap_ops)

    def merge(self, other: "BuildStats") -> None:
        """Accumulate another build's counters into this one."""
        self.comparisons += other.comparisons
        self.table_probes += other.table_probes
        self.alias_checks += other.alias_checks
        self.arcs_added += other.arcs_added
        self.arcs_merged += other.arcs_merged
        self.arcs_suppressed += other.arcs_suppressed
        self.bitmap_ops += other.bitmap_ops


class AliasOracle:
    """Memoized wrapper over :func:`repro.isa.memory.may_alias`.

    The paper's implementation note -- resource tables grow "whenever a
    new memory address expression is encountered" -- means each builder
    asks the same may-alias question once per *pair of expressions*,
    not once per instruction pair.  The oracle memoizes on the
    symmetric id pair so :attr:`BuildStats.alias_checks` counts unique
    disambiguation work.

    Args:
        policy: the disambiguation policy to consult.
        stats: the counter sink for unique consultations.
        verdicts: an externally owned memo to read and extend (the
            pairwise cache shares one across builds of the same block;
            a memo hit is never counted, exactly like an intra-build
            hit).  Default: a private memo.
    """

    def __init__(self, policy: AliasPolicy, stats: BuildStats,
                 verdicts: dict[tuple[int, int], bool] | None = None
                 ) -> None:
        self.policy = policy
        self.stats = stats
        self._cache: dict[tuple[int, int], bool] = (
            {} if verdicts is None else verdicts)
        #: the candidate index :func:`alias_candidates` extends: memory
        #: id -> (candidates found so far, [memory ids scanned so far])
        self.candidates: dict[int, tuple[list[int], list[int]]] = {}

    def aliases(self, rid_a: int, res_a: Resource,
                rid_b: int, res_b: Resource) -> bool:
        """May the two memory resources refer to the same location?

        Non-memory resources conflict only with themselves; the same
        id trivially aliases itself without a policy consultation.
        """
        if rid_a == rid_b:
            return True
        if (res_a.kind is not ResourceKind.MEM
                or res_b.kind is not ResourceKind.MEM):
            return False
        key = (rid_a, rid_b) if rid_a < rid_b else (rid_b, rid_a)
        verdict = self._cache.get(key)
        if verdict is None:
            assert res_a.mem is not None and res_b.mem is not None
            self.stats.alias_checks += 1
            verdict = may_alias(res_a.mem, res_b.mem, self.policy)
            self._cache[key] = verdict
        return verdict


@dataclass
class NodeOperands:
    """One node's interned defs/uses, with positions for latency lookup.

    Each entry is ``(rid, position)`` where ``position`` is the index
    within the def/use list of :func:`repro.isa.resources.defs_and_uses`
    -- the quantity the latency model's ``def_index``/``use_index``
    parameters expect (load-pair skew, asymmetric bypass).
    """

    defs: list[tuple[int, int]] = field(default_factory=list)
    uses: list[tuple[int, int]] = field(default_factory=list)


def intern_node_operands(space: ResourceSpace,
                         node: DagNode) -> NodeOperands:
    """Intern a node's instruction operands into the resource space."""
    assert node.instr is not None
    def_ids, use_ids = space.intern_instruction(node.instr)
    return NodeOperands(
        defs=[(rid, i) for i, rid in enumerate(def_ids)],
        uses=[(rid, i) for i, rid in enumerate(use_ids)])


@dataclass
class BuildOutcome:
    """Everything a build produces.

    Attributes:
        dag: the dependence DAG (node ids == instruction positions).
        stats: the builder's work counters.
        space: the per-block resource space (Table 3's unique-memory-
            expression population lives here).
    """

    dag: Dag
    stats: BuildStats
    space: ResourceSpace


def alias_candidates(rid: int, resource: Resource, space: ResourceSpace,
                     oracle: AliasOracle) -> Iterator[int]:
    """Resource ids that may name the same location as ``rid``.

    For registers and condition codes the id itself is the only
    candidate; for memory expressions the sweep covers the interned
    memory population -- the aliasing sweep the paper's table builders
    perform against their memory rows.

    The sweep is incremental: ``oracle.candidates`` keeps, per memory
    id, the candidates found so far and how much of the space's
    memory-id list has been scanned, so a call yields the known
    candidates and consults only the ids interned since.  Every id it
    skips was consulted on an earlier scan and sits in the verdict
    memo, so the pairs consulted for the first time -- and hence
    ``alias_checks`` and every budget trip -- are the same, in the
    same order, as a full rescan's.
    """
    if resource.kind is not ResourceKind.MEM:
        yield rid
        return
    entry = oracle.candidates.get(rid)
    if entry is None:
        entry = oracle.candidates[rid] = ([], [0])
    found, scanned = entry
    yield from found
    if scanned[0] == space.n_memory_exprs:
        return
    for other in space.memory_ids[scanned[0]:]:
        hit = oracle.aliases(rid, resource, other, space.resource(other))
        scanned[0] += 1
        if hit:
            found.append(other)
            yield other


class DagBuilder(abc.ABC):
    """Base class for DAG construction algorithms.

    Subclasses implement :meth:`_construct`; the template method
    :meth:`build` creates the nodes, runs the subclass pass, and
    finalizes the arc counters.

    Args:
        machine: timing model supplying execution times and arc delays.
        alias_policy: memory disambiguation policy; None selects the
            machine's default.
        cache: an optional
            :class:`~repro.dag.builders.cache.PairwiseCache`; when
            given, completed constructions are recorded against the
            block's fingerprint and later builds of the same block
            replay the recorded arcs (charging the recorded work
            counters, so budgets and schedules are unchanged).
    """

    #: display name (used by pipeline reports and benchmarks)
    name: str = "abstract"

    #: True for builders whose construction starts from
    #: :func:`repro.dag.builders.compare_all.prepare_pairwise`; only
    #: those can share a cache entry's pairwise bundle.
    uses_pairwise: bool = False

    def __init__(self, machine: MachineModel,
                 alias_policy: AliasPolicy | None = None, *,
                 cache: "object | None" = None) -> None:
        self.machine = machine
        self.alias_policy = (machine.alias_policy if alias_policy is None
                             else alias_policy)
        self.cache = cache
        #: the active cache entry during a cached build (consulted by
        #: the pairwise-sharing builders), None otherwise
        self.cache_entry = None
        #: reachability-map words the last build touched (0 for
        #: builders without a bitmap); a cache replay reports the
        #: recorded fresh build's count, so the figure does not depend
        #: on whether the cache was on
        self.words_touched = 0

    @property
    def cache_key(self) -> str:
        """Recipe key within a cache entry: one per builder variant."""
        return type(self).__name__

    def build(self, block: BasicBlock,
              stats: BuildStats | None = None) -> BuildOutcome:
        """Construct the dependence DAG for one basic block.

        Args:
            block: the block to analyze.
            stats: work-counter sink; pass a
                :class:`repro.runner.watchdog.BudgetedStats` to bound
                the construction work (the runner's cooperative
                watchdog).  Default: a fresh :class:`BuildStats`.
        """
        dag = Dag()
        for instr in block.instructions:
            dag.add_node(instr, self.machine.execution_time(instr))
        if stats is None:
            stats = BuildStats()
        space: ResourceSpace | None = None
        verdicts = None
        entry = None
        if self.cache is not None:
            entry = self.cache.entry_for(block, self.alias_policy,
                                         self.machine)
            recipe = entry.recipes.get(self.cache_key)
            if recipe is not None:
                self.cache.hits += 1
                recipe.replay(dag, stats)
                self.words_touched = recipe.words_touched
                stats.arcs_added = dag.n_arcs
                stats.arcs_merged = dag.n_merged_arcs
                return BuildOutcome(dag=dag, stats=stats,
                                    space=recipe.space)
            self.cache.misses += 1
            if self.uses_pairwise and entry.bundle is not None:
                # Not a plain cold build: the pairwise sweep is reused
                # even though this builder's arcs must be constructed.
                self.cache.bundle_hits += 1
                # The pairwise bitsets index the bundle's resource
                # space; a reusing build must intern into the same one.
                space = entry.bundle.space
                verdicts = entry.bundle.verdicts
        if space is None:
            space = ResourceSpace()
        oracle = AliasOracle(self.alias_policy, stats, verdicts=verdicts)
        self.cache_entry = entry
        self.words_touched = 0
        try:
            before = (stats.comparisons, stats.table_probes,
                      stats.alias_checks, stats.arcs_suppressed,
                      stats.bitmap_ops)
            self._construct(dag, space, oracle, stats)
        finally:
            self.cache_entry = None
        stats.arcs_added = dag.n_arcs
        stats.arcs_merged = dag.n_merged_arcs
        if entry is not None:
            from repro.dag.builders.cache import ArcRecipe
            delta = BuildStats(
                comparisons=stats.comparisons - before[0],
                table_probes=stats.table_probes - before[1],
                alias_checks=stats.alias_checks - before[2],
                arcs_added=dag.n_arcs,
                arcs_merged=dag.n_merged_arcs,
                arcs_suppressed=stats.arcs_suppressed - before[3],
                bitmap_ops=stats.bitmap_ops - before[4])
            entry.recipes[self.cache_key] = ArcRecipe.snapshot(
                dag, delta, space, self.words_touched)
        return BuildOutcome(dag=dag, stats=stats, space=space)

    @abc.abstractmethod
    def _construct(self, dag: Dag, space: ResourceSpace,
                   oracle: AliasOracle, stats: BuildStats) -> None:
        """Add the dependence arcs (subclass hook)."""
