import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmax import (Graph, RankOracle, bits, cycle_good_edges, mask_of,
                     path_good_edges, standard_cycle_ranking)
from helpers import bfs_components_reference, cycle_graph, path_graph

from rankmax.graph import edge


def comps_as_sets(g, subset=None):
    return [set(bits(m)) for m in g.connected_components(subset)]


class TestConstruction:
    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(1, 2), (2, 1), (1, 2)])
        assert g.edges == ((1, 2),)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])

    def test_orders_beyond_a_machine_word(self):
        # Vertex sets are unbounded Python ints, so no order ceiling applies.
        cycle = cycle_graph(64)
        assert cycle.n == 64 and cycle.has_edge(1, 64)
        assert path_graph(127).edge_count == 126
        check = RankOracle().verify_simultaneous(
            cycle, cycle_good_edges(6).edges, witness=standard_cycle_ranking(6))
        assert check.ok and check.mode == "certificate"
        assert check.base_rank == check.union_rank == 7

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_edges_sorted_canonically(self):
        g = Graph(4, [(4, 2), (3, 1)])
        assert g.edges == ((1, 3), (2, 4))

    def test_graphs_of_different_order_are_unequal(self):
        assert Graph(3) != Graph(4)
        assert len({Graph(3), Graph(4)}) == 2

    def test_adjacency_consistent_with_edges(self):
        g = Graph(5, [(1, 2), (2, 4), (3, 5)])
        for u, v in g.edges:
            assert g.has_edge(u, v) and g.has_edge(v, u)
            assert v in g.neighbors(u) and u in g.neighbors(v)

    def test_pairs_outside_the_vertices_are_not_edges(self):
        g = cycle_graph(3)
        for u, v in [(1, -2), (3, -1), (-1, 3), (0, 1), (1, 0), (1, 4), (4, 1)]:
            assert not g.has_edge(u, v)


class TestComponents:
    def test_path_minus_center_splits_in_two(self):
        g = path_graph(15)
        subset = mask_of(v for v in range(1, 16) if v != 8)
        assert comps_as_sets(g, subset) == [set(range(1, 8)), set(range(9, 16))]

    def test_empty_subset(self):
        assert path_graph(7).connected_components(0) == []

    def test_path_minus_three_cuts(self):
        g = path_graph(15)
        subset = set(range(1, 16)) - {4, 8, 12}
        got = comps_as_sets(g, mask_of(subset))
        assert got == bfs_components_reference(g, subset)
        assert [len(c) for c in got] == [3, 3, 3, 3]

    def test_matches_reference_on_induced_views(self):
        g = cycle_graph(12).add_edges([(1, 5), (2, 9)])
        subset = {1, 2, 3, 5, 6, 9, 10, 11}
        assert comps_as_sets(g, mask_of(subset)) == bfs_components_reference(g, subset)


class TestNonEdges:
    def test_path3(self):
        assert path_graph(3).non_edges() == [(1, 3)]

    def test_complete_graph_has_none(self):
        g = Graph(4, [(u, v) for u in range(1, 4) for v in range(u + 1, 5)])
        assert g.non_edges() == []

    def test_path7_count(self):
        assert len(path_graph(7).non_edges()) == 7 * 6 // 2 - 6


class TestAddEdges:
    def test_empty_addition(self):
        g = path_graph(7)
        assert g.add_edges([]) == g

    def test_single_edge(self):
        assert path_graph(7).add_edges([(1, 4)]).edge_count == 7

    def test_full_path_construction_addition(self):
        g = path_graph(15).add_edges(path_good_edges(4).edges)
        assert g.edge_count == 14 + 20

    def test_duplicates_ignored(self):
        g = path_graph(5).add_edges([(1, 2), (1, 3), (3, 1)])
        assert g.edge_count == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            path_graph(5).add_edges([(1, 6)])


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 8 - 1))
    def test_components_partition_subset(self, g, raw):
        subset = mask_of(v for v in g.vertices() if (raw >> v) & 1)
        comps = g.connected_components(subset)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == subset

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 8 - 1))
    def test_no_edges_between_components(self, g, raw):
        subset = mask_of(v for v in g.vertices() if (raw >> v) & 1)
        comps = g.connected_components(subset)
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                for u in bits(a):
                    assert g.adjacency[u] & b == 0

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_edges_and_non_edges_partition_pairs(self, g):
        n = g.n
        everything = {edge(u, v) for u in range(1, n) for v in range(u + 1, n + 1)}
        assert set(g.edges) | set(g.non_edges()) == everything
        assert set(g.edges) & set(g.non_edges()) == set()

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_component_induction_is_idempotent(self, g):
        for comp in g.connected_components():
            assert g.connected_components(comp) == [comp]
