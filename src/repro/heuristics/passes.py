"""The intermediate heuristic-calculation step (paper section 4).

After DAG construction, "an intermediate pass over the DAG in the
opposite direction of DAG construction" fills in the static heuristics
the construction order could not produce:

* :func:`forward_pass` computes max path/delay *from a root* and the
  earliest start time (EST);
* :func:`backward_pass` computes max path/delay *to a leaf*, the
  latest start time (LST), slack, and (optionally) the descendant
  aggregates via reachability bitmaps.

Section 4 compares two drivers for the backward pass -- a *level
algorithm* (an array of per-level linked lists, outer loop from the
maximum level down) and a plain *reverse walk* of the instruction
list -- and concludes (conclusion 4) they are equivalent, the reverse
walk being simpler.  Both are implemented so the claim can be
benchmarked; they produce identical annotations.

Note on EST/LST: the paper defines them with a uniform ``latency(p)``
term.  We use the *arc delay* instead, which generalizes the uniform
latency to the dependence-type-specific delays of section 2 (a WAR arc
contributes its short delay, exactly the situation Figure 1 examines).
With uniform arc delays the two definitions coincide.
"""

from __future__ import annotations

from repro.dag.bitmap import ReachabilityMap, weight_planes
from repro.dag.graph import Dag, DagNode


def compute_levels(dag: Dag) -> list[list[DagNode]]:
    """Assign forward levels and return the per-level node lists.

    Root nodes get level 0; every other node gets one plus the maximum
    level of any parent (paper section 4).  Dummy nodes participate so
    the level lists cover the whole DAG.
    """
    order = dag.topological_order()
    for node in order:
        node.level = 0
    for node in order:
        for arc in node.out_arcs:
            if node.level + 1 > arc.child.level:
                arc.child.level = node.level + 1
    max_level = max((n.level for n in order), default=0)
    levels: list[list[DagNode]] = [[] for _ in range(max_level + 1)]
    for node in order:
        levels[node.level].append(node)
    return levels


def forward_pass(dag: Dag) -> None:
    """Fill the ``f``-class heuristics: max path/delay from root, EST.

    Roots have value 0 for all three; every arc propagates
    ``parent value (+1 | +delay)`` to its child.  Runs as a single
    forward walk of the instruction list (any topological order works).
    """
    order = dag.topological_order()
    for node in order:
        node.max_path_from_root = 0
        node.max_delay_from_root = 0
        node.est = 0
    for node in order:
        for arc in node.out_arcs:
            child = arc.child
            if node.max_path_from_root + 1 > child.max_path_from_root:
                child.max_path_from_root = node.max_path_from_root + 1
            if node.max_delay_from_root + arc.delay > child.max_delay_from_root:
                child.max_delay_from_root = node.max_delay_from_root + arc.delay
            if node.est + arc.delay > child.est:
                child.est = node.est + arc.delay


def _backward_visit(node: DagNode, critical_length: int,
                    rmap: ReachabilityMap | None,
                    exec_planes: list[tuple[int, int]] | None) -> None:
    """Compute one node's backward heuristics from its finished children."""
    path = delay = 0
    lst = critical_length - node.execution_time
    for arc in node.out_arcs:
        child = arc.child
        if child.max_path_to_leaf + 1 > path:
            path = child.max_path_to_leaf + 1
        if child.max_delay_to_leaf + arc.delay > delay:
            delay = child.max_delay_to_leaf + arc.delay
        if child.lst - arc.delay < lst:
            lst = child.lst - arc.delay
        if rmap is not None:
            rmap.absorb(node.id, child.id)
    node.max_path_to_leaf = path
    node.max_delay_to_leaf = delay
    node.lst = lst
    node.slack = node.lst - node.est
    if rmap is not None:
        node.n_descendants = rmap.descendant_count(node.id)
        if exec_planes is not None:
            node.sum_exec_descendants = \
                rmap.weighted_descendant_sum(node.id, exec_planes)


def _critical_length(dag: Dag) -> int:
    """Schedule length lower bound: max over nodes of EST + exec time.

    This is the value the paper assigns to the block-terminating dummy
    node, from which LST propagates backward.
    """
    return max((n.est + n.execution_time for n in dag.nodes
                if not n.is_dummy), default=0)


def backward_pass(dag: Dag, descendants: bool = False,
                  require_est: bool = True) -> None:
    """Fill the ``b``-class heuristics via a reverse walk.

    "Any reverse topological sort, including a reverse scan of the
    original instructions in the basic block, produces the same
    result" (section 4) -- this is the reverse-walk driver the paper
    recommends.

    Args:
        dag: the DAG; mutated in place.
        descendants: also compute #descendants and the sum of
            descendant execution times (needs reachability bitmaps;
            skipped by default because only some algorithms use them).
        require_est: LST/slack need EST; when True and EST looks
            uncomputed, :func:`forward_pass` is run first.
    """
    if require_est and all(n.est == 0 for n in dag.nodes):
        forward_pass(dag)
    critical = _critical_length(dag)
    dag.critical_length = critical  # for incremental updates
    rmap = ReachabilityMap(len(dag)) if descendants else None
    exec_planes = (weight_planes([n.execution_time for n in dag.nodes])
                   if descendants else None)
    for node in reversed(dag.topological_order()):
        _backward_visit(node, critical, rmap, exec_planes)


def backward_pass_levels(dag: Dag, descendants: bool = False,
                         require_est: bool = True) -> None:
    """The level-algorithm driver for the backward pass.

    Builds the per-level lists, then visits levels from maximum to
    minimum so "a parent can examine all its children and know that
    all descendants have been processed" (section 4).  Produces the
    same annotations as :func:`backward_pass`; exists so conclusion 4
    (no advantage over the reverse walk) can be measured.
    """
    if require_est and all(n.est == 0 for n in dag.nodes):
        forward_pass(dag)
    levels = compute_levels(dag)
    critical = _critical_length(dag)
    dag.critical_length = critical  # for incremental updates
    rmap = ReachabilityMap(len(dag)) if descendants else None
    exec_planes = (weight_planes([n.execution_time for n in dag.nodes])
                   if descendants else None)
    for level in reversed(levels):
        for node in level:
            _backward_visit(node, critical, rmap, exec_planes)
