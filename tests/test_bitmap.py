"""Tests for reachability bitmaps."""

from repro.asm.parser import parse_instruction_text
from repro.dep import DepType
from repro.dag.bitmap import (
    ReachabilityMap,
    ancestor_maps,
    compute_reachability,
    weight_planes,
)
from repro.dag.graph import Dag


def chain_dag(n: int) -> Dag:
    """0 -> 1 -> ... -> n-1."""
    dag = Dag()
    for i in range(n):
        dag.add_node(parse_instruction_text("nop", index=i))
    for i in range(n - 1):
        dag.add_arc(dag.nodes[i], dag.nodes[i + 1], DepType.RAW, 1)
    return dag


def diamond_dag() -> Dag:
    """0 -> {1, 2} -> 3."""
    dag = Dag()
    for i in range(4):
        dag.add_node(parse_instruction_text("nop", index=i))
    dag.add_arc(dag.nodes[0], dag.nodes[1], DepType.RAW, 1)
    dag.add_arc(dag.nodes[0], dag.nodes[2], DepType.RAW, 1)
    dag.add_arc(dag.nodes[1], dag.nodes[3], DepType.RAW, 1)
    dag.add_arc(dag.nodes[2], dag.nodes[3], DepType.RAW, 1)
    return dag


class TestReachabilityMap:
    def test_initialized_to_self(self):
        # "Each node's map is initialized to indicate that a node can
        # reach itself."
        rmap = ReachabilityMap(4)
        for i in range(4):
            assert rmap.reaches(i, i)
            assert rmap.descendant_count(i) == 0

    def test_absorb(self):
        rmap = ReachabilityMap(3)
        rmap.absorb(1, 2)
        rmap.absorb(0, 1)
        assert rmap.reaches(0, 2)
        assert rmap.reaches(0, 1)
        assert not rmap.reaches(2, 0)

    def test_descendants_listing(self):
        rmap = ReachabilityMap(4)
        rmap.absorb(0, 2)
        rmap.absorb(0, 3)
        assert rmap.descendants(0) == [2, 3]

    def test_grow_to(self):
        rmap = ReachabilityMap(2)
        rmap.grow_to(5)
        assert len(rmap) == 5
        assert rmap.reaches(4, 4)

    def test_words_touched_counter(self):
        rmap = ReachabilityMap(3)
        assert rmap.words_touched == 3  # three one-word maps
        rmap.absorb(0, 1)
        rmap.absorb(0, 2)
        assert rmap.words_touched == 5

    def test_init_charges_span_per_map(self):
        # The map for node id i spans i // 64 + 1 words; init charges
        # exactly that span for every map.
        rmap = ReachabilityMap(130)
        assert rmap.words_touched == \
            sum(i // 64 + 1 for i in range(130))  # 64*1 + 64*2 + 2*3

    def test_wide_absorb_counts_actual_words(self):
        # A map spanning more than 64 bits costs one unit per machine
        # word the OR touches, not a flat 1.
        rmap = ReachabilityMap(130)
        init = rmap.words_touched
        rmap.absorb(0, 129)  # bit 129 set -> 3 words
        assert rmap.words_touched == init + 3
        rmap.absorb(1, 2)    # bits 1..2 -> 1 word
        assert rmap.words_touched == init + 4

    def test_grow_charges_appended_words(self):
        rmap = ReachabilityMap(2)
        rmap.grow_to(5)
        assert rmap.words_touched == 5  # 2 at init + ids 2, 3, 4
        rmap.grow_to(5)  # no-op growth is free
        assert rmap.words_touched == 5

    def test_wide_growth_matches_upfront_sizing(self):
        # Regression: growth past node id 64 used to charge a flat one
        # word per appended map, under-counting every multi-word map.
        # Sizing up front and growing incrementally must now agree.
        upfront = ReachabilityMap(130)
        grown = ReachabilityMap(2)
        grown.grow_to(130)
        assert grown.words_touched == upfront.words_touched
        # And a single appended map past the first word boundary is
        # charged its full span, not 1.
        edge = ReachabilityMap(64)
        before = edge.words_touched
        edge.grow_to(65)  # map for id 64 spans 2 words
        assert edge.words_touched - before == 2

    def test_weighted_descendant_sum(self):
        rmap = ReachabilityMap(200)
        rmap.absorb(0, 2)
        rmap.absorb(0, 129)
        weights = list(range(200))
        assert rmap.weighted_descendant_sum(0, weight_planes(weights)) \
            == 2 + 129
        assert rmap.weighted_descendant_sum(1, weight_planes(weights)) \
            == 0
        # A chain 130 -> ... -> 199 hung under node 3, so maps reach
        # past bit 128.
        for i in reversed(range(130, 199)):
            rmap.absorb(i, i + 1)
        rmap.absorb(3, 130)
        rmap.absorb(0, 3)
        # Matches the per-bit enumeration on distinct, repeated, zero
        # and wide (1 << 10) weights.
        for weights in (list(range(200)), [7] * 200, [0] * 200,
                        [1 << 10] * 200,
                        [(i % 3) << 10 if i % 5 else 0
                         for i in range(200)]):
            planes = weight_planes(weights)
            for a in (0, 1, 2, 3, 129, 130, 150, 199):
                assert rmap.weighted_descendant_sum(a, planes) == \
                    sum(weights[d] for d in rmap.descendants(a))


class TestComputeReachability:
    def test_chain(self):
        dag = chain_dag(5)
        rmap = compute_reachability(dag)
        assert rmap.descendant_count(0) == 4
        assert rmap.descendant_count(4) == 0
        assert rmap.reaches(1, 4)
        assert not rmap.reaches(3, 1)

    def test_diamond_no_double_counting(self):
        # "#descendants ... its calculation must avoid double counting
        # when arcs converge on the same descendant node."
        dag = diamond_dag()
        rmap = compute_reachability(dag)
        assert rmap.descendant_count(0) == 3

    def test_matches_networkx(self):
        import networkx as nx
        dag = diamond_dag()
        g = nx.DiGraph()
        for node in dag.nodes:
            g.add_node(node.id)
            for arc in node.out_arcs:
                g.add_edge(node.id, arc.child.id)
        rmap = compute_reachability(dag)
        for node in dag.nodes:
            assert set(rmap.descendants(node.id)) == \
                nx.descendants(g, node.id)


class TestAncestorMaps:
    def test_chain(self):
        dag = chain_dag(4)
        maps = ancestor_maps(dag)
        assert maps[3] == 0b1111
        assert maps[0] == 0b0001

    def test_diamond(self):
        dag = diamond_dag()
        maps = ancestor_maps(dag)
        assert maps[3] == 0b1111
        assert maps[1] == 0b0011
        assert maps[2] == 0b0101
