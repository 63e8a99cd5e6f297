"""Reachability bit maps.

Section 2 of the paper: "These maps use one bit position per node to
indicate descendants.  Each node's map is initialized to indicate that
a node can reach itself."  The paper recommends them both for
preventing transitive arcs during backward construction and for
computing the #descendants heuristic cheaply ("the #descendants is
then merely the population count on the reachability bit map minus
one").

Python integers are arbitrary-precision bit vectors with C-speed OR
and popcount, so a map is just an ``int`` per node.
"""

from __future__ import annotations

from typing import Sequence

from repro.dag.graph import Dag


class ReachabilityMap:
    """Descendant bitsets, one per node id.

    The map for node ``i`` has bit ``j`` set iff ``j`` is ``i`` itself
    or a descendant of ``i``.
    """

    #: bits per machine word, for the words_touched accounting
    _WORD_BITS = 64

    def __init__(self, n_nodes: int) -> None:
        self._maps: list[int] = [1 << i for i in range(n_nodes)]
        # Initializing the map for node i writes the word holding bit
        # i, which is word i // 64 -- so the map *spans* i // 64 + 1
        # words.  Charge that span, so sizing up front and growing
        # incrementally report the same initialization cost.
        self.words_touched = sum(
            i // self._WORD_BITS + 1 for i in range(n_nodes))

    def __len__(self) -> int:
        return len(self._maps)

    def grow_to(self, n_nodes: int) -> None:
        """Extend the map set to cover ``n_nodes`` node ids.

        Each appended map is charged the number of words it spans
        (``i // 64 + 1`` for node id ``i``), matching ``__init__`` --
        a flat charge of one word per map under-counted every map for
        a node id >= 64, the same wide-block under-count ``absorb``
        used to have.
        """
        for i in range(len(self._maps), n_nodes):
            self._maps.append(1 << i)
            self.words_touched += i // self._WORD_BITS + 1

    def reaches(self, a: int, b: int) -> bool:
        """True when node ``a`` can already reach node ``b``."""
        return bool(self._maps[a] >> b & 1)

    def absorb(self, a: int, b: int) -> None:
        """Record that ``a`` now reaches everything ``b`` reaches.

        This is the paper's ``bitmap_for_a = bitmap_for_a OR
        bitmap_for_b`` step, performed when the arc a->b is inserted.
        The work charge is the number of machine words the OR actually
        spans, so blocks wider than one word cost proportionally more
        (a flat charge of 1 under-counted wide blocks).
        """
        combined = self._maps[a] | self._maps[b]
        self._maps[a] = combined
        bits = combined.bit_length()
        self.words_touched += max(
            1, (bits + self._WORD_BITS - 1) // self._WORD_BITS)

    def descendant_count(self, a: int) -> int:
        """#descendants of ``a``: popcount of its map minus one."""
        return self._maps[a].bit_count() - 1

    def descendants(self, a: int) -> list[int]:
        """Descendant node ids of ``a`` (excluding ``a``), ascending."""
        bits = self._maps[a] & ~(1 << a)
        out: list[int] = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def weighted_descendant_sum(self, a: int,
                                planes: list[tuple[int, int]]) -> int:
        """Sum of the weights of ``a``'s descendants.

        ``planes`` comes from :func:`weight_planes`, built once per
        pass: bit plane ``k`` masks the node ids whose weight has bit
        ``k`` set, so the sum is ``sum(popcount(row & mask_k) << k)``
        -- the paper's population-count idiom, one AND and popcount
        per plane instead of a walk over every descendant bit.
        Touches no work counters, like the other descendant accessors.
        """
        bits = self._maps[a] & ~(1 << a)
        return sum((bits & mask).bit_count() << k for k, mask in planes)

    def raw(self, a: int) -> int:
        """The raw bitset for node ``a`` (self bit included)."""
        return self._maps[a]


def weight_planes(weights: Sequence[int]) -> list[tuple[int, int]]:
    """Bit-plane masks of non-negative integer weights, indexed by id.

    Returns ``(k, mask_k)`` pairs where bit ``i`` of ``mask_k`` is bit
    ``k`` of ``weights[i]``.  Feeds
    :meth:`ReachabilityMap.weighted_descendant_sum`.
    """
    planes = []
    for k in range(max(weights, default=0).bit_length()):
        digits = "".join("1" if w >> k & 1 else "0"
                         for w in reversed(weights))
        planes.append((k, int(digits, 2)))
    return planes


def compute_reachability(dag: Dag) -> ReachabilityMap:
    """Compute full descendant maps for an already-built DAG.

    Works in reverse topological order so each node ORs its children's
    completed maps -- the same discipline backward table-building uses
    incrementally.
    """
    rmap = ReachabilityMap(len(dag))
    for node in reversed(dag.topological_order()):
        for arc in node.out_arcs:
            rmap.absorb(node.id, arc.child.id)
    return rmap


def ancestor_maps(dag: Dag) -> list[int]:
    """Ancestor bitsets (self bit included), the mirror of descendants.

    Used by the Landskov-style builder, which excludes the ancestors of
    any node already connected to the new node.
    """
    maps = [1 << i for i in range(len(dag))]
    for node in dag.topological_order():
        for arc in node.out_arcs:
            maps[arc.child.id] |= maps[node.id]
    return maps
