"""Table-building backward DAG construction (Hunnicutt [7]).

One backward pass over the block.  For each definition the method
connects RAW arcs down to every later use that is not shadowed by a
closer definition of the same resource, and WAW arcs down to later
definitions up to the same barrier; for each use it connects a WAR arc
to the *first* later definition that may alias it.  These rules are
the exact mirror of the forward tables, so -- as the paper observes --
"the two table building directions are essentially equivalent": both
produce the same arc set, including Figure 1's timing-essential
transitive RAW arc.

The sweep is factored into :meth:`TableBackwardBuilder._sweep` with a
pluggable arc sink so the reachability-bitmap variant
(:mod:`repro.dag.builders.bitmap_backward`) can reuse it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from repro.dag.builders.base import (
    AliasOracle,
    BuildStats,
    DagBuilder,
    alias_candidates,
    intern_node_operands,
)
from repro.dag.graph import Dag, DagNode
from repro.dep import DepType
from repro.isa.resources import Resource, ResourceSpace

#: arc sink signature: (parent, child, dep, delay, resource)
ArcSink = Callable[[DagNode, DagNode, DepType, int, "Resource"], None]


def _at_or_before(entries: list[tuple[DagNode, int]],
                  barrier: DagNode) -> int:
    """Start of the suffix of ``entries`` whose node id is <= the barrier's.

    ``entries`` is in decreasing node id (the backward pass appends
    each node after every later one), so the entries a barrier lets
    through are a suffix; walking that suffix keeps the emission order
    of a full filtered walk.
    """
    return bisect_left(entries, -barrier.id, key=lambda e: -e[0].id)


class TableBackwardBuilder(DagBuilder):
    """Table-building backward construction."""

    name = "table backward"

    def _construct(self, dag: Dag, space: ResourceSpace,
                   oracle: AliasOracle, stats: BuildStats) -> None:
        def emit(parent: DagNode, child: DagNode, dep: DepType,
                 delay: int, resource: Resource) -> None:
            dag.add_arc(parent, child, dep, delay, resource)

        self._sweep(dag, space, oracle, stats, emit)

    def _sweep(self, dag: Dag, space: ResourceSpace, oracle: AliasOracle,
               stats: BuildStats, emit: ArcSink,
               uses_first: bool = False) -> None:
        """Run the backward pass, sending every arc through ``emit``.

        Args:
            uses_first: process each node's uses before its defs (the
                insertion-order knob that matters only to the bitmap
                variant; the plain table method's arc set is
                order-independent because duplicate arcs merge by
                maximum delay).
        """
        machine = self.machine
        # rid -> (nearest later defining node, def position)
        nearest_def: dict[int, tuple[DagNode, int]] = {}
        # rid -> all later definitions / uses, appended in decreasing
        # node id, so the entries at or before a barrier are a suffix
        later_defs: dict[int, list[tuple[DagNode, int]]] = {}
        later_uses: dict[int, list[tuple[DagNode, int]]] = {}

        def do_defs(node: DagNode, defs: list[tuple[int, int]]) -> None:
            assert node.instr is not None
            for rid_d, dpos in defs:
                res_d = space.resource(rid_d)
                # Barrier: a later definition of the *same* resource
                # shadows this one from anything beyond it.
                stats.table_probes += 1
                shadow = nearest_def.get(rid_d)
                for rid in alias_candidates(rid_d, res_d, space, oracle):
                    stats.table_probes += 1
                    users = later_uses.get(rid, ())
                    definers = later_defs.get(rid, ())
                    if shadow is not None:
                        users = users[_at_or_before(users, shadow[0]):]
                        definers = definers[
                            _at_or_before(definers, shadow[0]):]
                    for user, upos in users:
                        delay = machine.arc_delay(
                            DepType.RAW, node.instr, user.instr,
                            res_d, dpos, upos)
                        emit(node, user, DepType.RAW, delay, res_d)
                    for definer, _ in definers:
                        delay = machine.arc_delay(
                            DepType.WAW, node.instr, definer.instr,
                            res_d)
                        emit(node, definer, DepType.WAW, delay, res_d)

        def do_uses(node: DagNode, uses: list[tuple[int, int]]) -> None:
            assert node.instr is not None
            for rid_u, _ in uses:
                res_u = space.resource(rid_u)
                # WAR goes to the first later definition that may alias
                # this use; definitions beyond it are reached through
                # that definition's own WAW/covering arcs.
                first: tuple[DagNode, int] | None = None
                for rid in alias_candidates(rid_u, res_u, space, oracle):
                    stats.table_probes += 1
                    record = nearest_def.get(rid)
                    if record is not None and (
                            first is None
                            or record[0].id < first[0].id):
                        first = (record[0], rid)
                if first is not None:
                    definer, rid = first
                    res_d = space.resource(rid)
                    delay = machine.arc_delay(
                        DepType.WAR, node.instr, definer.instr, res_d)
                    emit(node, definer, DepType.WAR, delay, res_d)

        for node in reversed(dag.nodes):
            ops = intern_node_operands(space, node)
            if uses_first:
                do_uses(node, ops.uses)
                do_defs(node, ops.defs)
            else:
                do_defs(node, ops.defs)
                do_uses(node, ops.uses)
            # Record this node only after both phases (a node never
            # depends on itself).
            for rid_d, dpos in ops.defs:
                nearest_def[rid_d] = (node, dpos)
                later_defs.setdefault(rid_d, []).append((node, dpos))
            for rid_u, upos in ops.uses:
                later_uses.setdefault(rid_u, []).append((node, upos))
