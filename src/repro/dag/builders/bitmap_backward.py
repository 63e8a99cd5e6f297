"""Backward table building with reachability-bitmap arc suppression.

Section 2's alternative to leaf-first pruning: during backward
construction each node keeps a descendant bitmap; an arc is inserted
only when its target is not already reachable, and the target's bitmap
is then OR-ed into the source's.  Whether the Figure 1 timing-essential
arc survives depends purely on *insertion order*: processing defs
before uses (the paper's pseudocode order) inserts the long RAW arc
before the short WAR arc that would shadow it, while the opposite
order (``uses_first=True``) loses the arc -- the same information loss
the paper charges against Landskov pruning.
"""

from __future__ import annotations

from repro.dag.bitmap import ReachabilityMap
from repro.dag.builders.base import AliasOracle, BuildStats
from repro.dag.builders.table_backward import TableBackwardBuilder
from repro.dag.graph import Dag, DagNode
from repro.dep import DepType
from repro.isa.memory import AliasPolicy
from repro.isa.resources import Resource, ResourceSpace
from repro.machine.model import MachineModel


class BitmapBackwardBuilder(TableBackwardBuilder):
    """Backward table building that prevents (most) transitive arcs.

    Args:
        machine: timing model.
        alias_policy: memory disambiguation policy override.
        uses_first: insert each node's WAR arcs before its RAW/WAW
            arcs, demonstrating the order sensitivity discussed above.
    """

    name = "bitmap backward"

    def __init__(self, machine: MachineModel,
                 alias_policy: AliasPolicy | None = None,
                 uses_first: bool = False, *,
                 cache: object | None = None) -> None:
        super().__init__(machine, alias_policy, cache=cache)
        self.uses_first = uses_first
        self._rmap: ReachabilityMap | None = None

    @property
    def cache_key(self) -> str:
        # uses_first changes the constructed arc set (that is its
        # point), so the two variants must not share recipes.
        return f"{type(self).__name__}:uses_first={self.uses_first}"

    @property
    def reachability(self) -> ReachabilityMap | None:
        """The reachability map built during the last construction.

        None before the first build and after a cache-replayed build
        (replay re-creates the recorded arcs without re-running the
        bitmap sweep; use
        :func:`repro.dag.bitmap.compute_reachability` if the map is
        needed for a replayed DAG).
        """
        return self._rmap

    def _construct(self, dag: Dag, space: ResourceSpace,
                   oracle: AliasOracle, stats: BuildStats) -> None:
        rmap = ReachabilityMap(len(dag))
        self._rmap = rmap
        # Directly connected pairs: a repeat emission for an existing
        # arc (e.g. both words of a double-register pair) must still
        # reach add_arc so the pair merges to the maximum delay --
        # reachability only suppresses *indirect* (transitive)
        # connections.
        direct: set[tuple[int, int]] = set()

        def emit(parent: DagNode, child: DagNode, dep: DepType,
                 delay: int, resource: Resource) -> None:
            stats.bitmap_ops += 1
            pair = (parent.id, child.id)
            if pair not in direct and rmap.reaches(*pair):
                stats.arcs_suppressed += 1
                return
            dag.add_arc(parent, child, dep, delay, resource)
            direct.add(pair)
            stats.bitmap_ops += 1
            rmap.absorb(parent.id, child.id)

        self._sweep(dag, space, oracle, stats, emit,
                    uses_first=self.uses_first)
        self.words_touched = rmap.words_touched
