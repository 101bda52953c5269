import subprocess
import sys
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmax import (CapExceeded, FamilySpec, Graph, RankOracle, Ranking,
                     bits, build_family, components_masks, family_good_edges,
                     family_ranking, is_valid_ranking, longest_path_length)
from rankmax import _orbits
from rankmax.oracle import _Engine
from rankmax.verify import multipartite_profiles, run_uniqueness_suite
from helpers import (all_graphs, blow_up, brute_rank, circulant_graph,
                     complete_graph, cube_graph, cycle_graph,
                     greedy_path_all_starts, mirrored_graph,
                     non_edge_orbits_reference, path_graph, petersen_graph,
                     random_graph, rankmax_env, reference_rank,
                     star_graph, valid_by_path_definition)

HP3 = {(1, 4), (2, 4), (4, 6), (4, 7)}


def induced(g, keep):
    """The subgraph of g induced by `keep`, renumbered 1..len(keep) in order."""
    new = {v: i for i, v in enumerate(sorted(keep), 1)}
    return Graph(len(new), [(new[u], new[v]) for u, v in g.edges
                            if u in new and v in new])


def disjoint_union(*graphs):
    """The graphs side by side, the second renumbered after the first, and
    so on."""
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges]
        offset += h.n
    return Graph(offset, edges)


def by_is_valid_ranking(g, labels):
    return is_valid_ranking(g, Ranking(tuple(labels[v] for v in range(1, g.n + 1))))


def is_twin_free(g):
    """No two vertices share an open or a closed neighbourhood."""
    open_ = {g.adjacency[v] for v in g.vertices()}
    closed = {g.adjacency[v] | 1 << v for v in g.vertices()}
    return len(open_ | closed) == 2 * g.n


def small_blow_ups(seeds, base=None, count=None):
    """Blow-ups of at most ten vertices, from the first seeds that give one."""
    hosts = (blow_up(Random(s), base) for s in seeds)
    return [g for g in hosts if g.n <= 10][:count]


# Graphs made almost entirely of twin classes: every complete multipartite
# profile of at most six vertices, random blow-ups of graphs on 2..4
# vertices, and blow-ups of short paths and cycles, whose blocks can share a
# degree without being twins.
PROFILES = multipartite_profiles(6)
BLOW_UPS = (small_blow_ups(range(700, 760), count=20)
            + small_blow_ups(range(800, 820), path_graph(5), 4)
            + small_blow_ups(range(820, 840), cycle_graph(5), 4)
            + small_blow_ups(range(840, 860), path_graph(6), 4))


@pytest.fixture(scope="module")
def oracle():
    return RankOracle()


class TestRankNumberKnownValues:
    @pytest.mark.parametrize("g,expected", [
        (path_graph(7), 3),
        (cycle_graph(16), 5),
        (complete_graph(4), 4),
        (cycle_graph(8), 4),
        (star_graph(8), 2),
        (Graph(1), 1),
    ])
    def test_values(self, oracle, g, expected):
        value, stats = oracle.rank_number(g)
        assert value == expected
        assert stats.nodes_expanded >= 0 and stats.wall_time >= 0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_paths_follow_the_log_formula(self, oracle, n):
        assert oracle.rank_number(path_graph(n))[0] == n.bit_length()

    def test_disconnected_graph_takes_component_maximum(self, oracle):
        g = Graph(10, [(i, i + 1) for i in range(1, 7)])  # P7 plus 3 isolated
        assert oracle.rank_number(g)[0] == 3


class TestBruteForceAgreement:
    def test_all_graphs_up_to_four_vertices(self, oracle):
        for n in range(1, 5):
            for g in all_graphs(n):
                assert oracle.rank_number(g)[0] == brute_rank(g)

    def test_all_graphs_on_five_vertices(self, oracle):
        for g in all_graphs(5):
            assert oracle.rank_number(g)[0] == brute_rank(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_five_vertex_graphs(self, oracle, seed):
        g = random_graph(Random(seed), 5, 0.5)
        assert oracle.rank_number(g)[0] == brute_rank(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_six_vertex_graphs(self, oracle, seed):
        g = random_graph(Random(100 + seed), 6, 0.4)
        assert oracle.rank_number(g)[0] == brute_rank(g, by_is_valid_ranking)

    # Dense graphs, whose path bound is far below the rank, are ranked by a
    # downward search; the plain recursion knows nothing of its order.
    @pytest.mark.parametrize("n,p,seed", [(n, p, seed) for n in (8, 9, 10)
                                          for p in (0.5, 0.7) for seed in range(3)])
    def test_random_dense_graphs_match_the_reference_recursion(self, oracle, n, p, seed):
        g = random_graph(Random(900 + 10 * n + seed), n, p)
        assert oracle.rank_number(g)[0] == reference_rank(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_components_of_different_ranks_take_the_maximum(self, oracle, seed):
        rng = Random(950 + seed)
        parts = [random_graph(rng, 8, 0.7), path_graph(7),
                 random_graph(rng, 4, 0.5)]
        ranks = [reference_rank(h) for h in parts]
        assert len(set(ranks)) > 1
        for order in (parts, parts[::-1]):
            assert oracle.rank_number(disjoint_union(*order))[0] == max(ranks)


class TestTwinRichGraphs:
    """The search skips twins of a refuted vertex; these graphs are made of
    twin classes, and every answer is checked against searches that know
    nothing of twins."""

    @staticmethod
    def assert_exact(oracle, g):
        value = oracle.rank_number(g)[0]
        assert value == reference_rank(g)
        if g.n <= 6:
            checker = (by_is_valid_ranking if g.n == 6
                       else valid_by_path_definition)
            assert value == brute_rank(g, checker)
        for e in g.non_edges():
            good = reference_rank(g.add_edges([e])) == value
            assert oracle.classify_edge(g, e).is_good == good, e

    @pytest.mark.parametrize("parts", PROFILES, ids=str)
    def test_complete_multipartite_profiles(self, oracle, parts):
        self.assert_exact(oracle, build_family(FamilySpec.multipartite(*parts)))

    @pytest.mark.parametrize("g", BLOW_UPS,
                             ids=[f"host{i}" for i in range(len(BLOW_UPS))])
    def test_random_blow_ups(self, oracle, g):
        self.assert_exact(oracle, g)


class TestExistsRanking:
    def test_threshold_cases(self, oracle):
        assert oracle.exists_ranking(path_graph(7), 3)
        assert not oracle.exists_ranking(path_graph(7), 2)
        assert oracle.exists_ranking(Graph(1), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_threshold_matches_rank_number(self, oracle, seed):
        g = random_graph(Random(200 + seed), 8, 0.35)
        value, _ = oracle.rank_number(g)
        assert oracle.exists_ranking(g, value)
        assert value == 1 or not oracle.exists_ranking(g, value - 1)


class TestClassifyEdge:
    def test_good_edge_on_seven_path(self, oracle):
        v = oracle.classify_edge(path_graph(7), (1, 4))
        assert v.is_good and (v.base_rank, v.augmented_rank) == (3, 3)

    def test_forbidden_edge_on_seven_path(self, oracle):
        v = oracle.classify_edge(path_graph(7), (1, 3))
        assert not v.is_good and (v.base_rank, v.augmented_rank) == (3, 4)

    def test_pair_inside_largest_part_is_forbidden(self, oracle):
        g = build_family(FamilySpec.multipartite(3, 2))
        assert not oracle.classify_edge(g, (1, 2)).is_good

    def test_existing_edge_rejected(self, oracle):
        with pytest.raises(ValueError):
            oracle.classify_edge(path_graph(7), (1, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_augmented_rank_matches_full_search(self, oracle, seed):
        # One added edge never raises the rank number by more than one, so
        # the verdict search decides the augmented value; cross-check it.
        g = random_graph(Random(300 + seed), 7, 0.3)
        for e in g.non_edges():
            v = oracle.classify_edge(g, e)
            exact, _ = oracle.rank_number(g.add_edges([e]))
            assert v.augmented_rank == exact
            assert v.base_rank <= exact <= v.base_rank + 1

    def test_the_host_rank_is_the_oracles_own(self, oracle):
        # Five labels fit P_7 + (1,3), so a rank set by the caller could
        # turn this forbidden edge good; the oracle ranks the host itself.
        with pytest.raises(TypeError):
            oracle.classify_edge(path_graph(7), (1, 3), 5)
        v = oracle.classify_edge(path_graph(7), (1, 3))
        assert (v.verdict, v.base_rank, v.augmented_rank) == ("forbidden", 3, 4)

    def test_json_shape(self, oracle):
        v = oracle.classify_edge(path_graph(7), (1, 3))
        assert v.to_json_dict() == {"edge": [1, 3], "base": 3, "augmented": 4,
                                    "verdict": "forbidden"}


class TestGoodEdgeSet:
    def test_seven_path_matches_construction(self, oracle):
        good, verdicts = oracle.good_edge_set(path_graph(7))
        assert good.edge_set() == HP3
        assert len(verdicts) == 15

    def test_fifteen_path_matches_construction(self, oracle):
        good, verdicts = oracle.good_edge_set(path_graph(15))
        assert good.edges == family_good_edges(FamilySpec.path(4)).edges
        assert len(verdicts) == 91

    def test_every_chord_of_a_cycle_is_individually_good(self, oracle):
        # Any optimal cycle ranking puts the top label on one vertex and
        # ranks the remaining path; the top can sit on a chord endpoint, so
        # no single chord can raise the rank number.
        for n, chords in ((8, 20), (16, 104)):
            good, verdicts = oracle.good_edge_set(cycle_graph(n))
            assert len(verdicts) == chords
            assert all(v.is_good for v in verdicts)

    def test_joined_cliques_per_edge_goodness(self, oracle):
        # Every cross-clique pair takes a fresh top label on one endpoint.
        for n in (2, 3, 5):
            g = build_family(FamilySpec.joined(n))
            good, verdicts = oracle.good_edge_set(g)
            assert len(good) == len(verdicts) == n * n - 1

    def test_tied_largest_parts_make_every_pair_good(self, oracle):
        g = build_family(FamilySpec.multipartite(2, 2))
        good, _ = oracle.good_edge_set(g)
        assert good.edge_set() == {(1, 2), (3, 4)}

    def test_orbit_finder_is_imported_on_first_use(self):
        # The library and its claim suites load without the orbit finder,
        # or the CLI, so rank searches and certificates do
        # not pay to import them.
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, rankmax, rankmax.verify; "
             "print(*sorted(m for m in sys.modules if m.startswith('rankmax.')))"],
            capture_output=True, text=True, env=rankmax_env(), check=True)
        loaded = set(res.stdout.split())
        assert "rankmax.verify" in loaded
        assert not loaded & {"rankmax._orbits", "rankmax.cli"}


def overlay_searches(g):
    """The verdicts of `good_edge_set` on g, the overlays it searched and
    the nodes expanded over the host's engine and every overlay."""
    overlays = []
    with_edges = _Engine.with_edges

    def counted(self, pairs):
        overlays.append(with_edges(self, pairs))
        return overlays[-1]

    oracle = RankOracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "with_edges", counted)
        _, verdicts = oracle.good_edge_set(g)
    # A complete host has no non-edge, and no engine is made for it.
    engines = [e for e in (oracle._host, *overlays) if e is not None]
    return verdicts, len(overlays), sum(e.nodes for e in engines)


def per_edge_verdicts(g):
    oracle = RankOracle()
    base = oracle.rank_number(g)[0]
    return [oracle.classify_edge(g, e) for e in g.non_edges()]


class TestTwinOrbits:
    """good_edge_set searches one non-edge per orbit of the automorphisms
    it finds (twin swaps and lifts of the twin quotient's automorphisms)
    and copies its verdict to the rest of the orbit; every verdict must
    equal a search of its own edge."""

    HOSTS = ([build_family(FamilySpec.multipartite(*p))
              for p in multipartite_profiles(7)]
             + [build_family(FamilySpec.joined(n)) for n in range(2, 6)]
             + BLOW_UPS
             # no twins
             + [path_graph(7), cycle_graph(8),
                Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)])]
             + [g for g in (random_graph(Random(s), 8, 0.4) for s in range(950, 960))
                if is_twin_free(g)][:3]
             # symmetric hosts whose orbits come from the quotient's group
             + [path_graph(15), cycle_graph(16), petersen_graph(), cube_graph(3),
                circulant_graph(10, (1, 3)),
                build_family(FamilySpec.multipartite(2, 2, 2, 2)),
                build_family(FamilySpec.joined(6))]
             + [mirrored_graph(Random(s), half, 0.4)
                for s, half in ((1, 4), (2, 5), (3, 6))])

    @pytest.mark.parametrize("g", HOSTS, ids=[f"host{i}" for i in range(len(HOSTS))])
    def test_verdicts_equal_per_edge_searches(self, g):
        good, verdicts = RankOracle().good_edge_set(g)
        assert verdicts == per_edge_verdicts(g)
        assert good.edges == tuple(v.edge for v in verdicts if v.is_good)

    @pytest.mark.parametrize("g,overlays", [
        (build_family(FamilySpec.joined(6)), 2),
        (build_family(FamilySpec.multipartite(4, 3, 2)), 3),
        (cycle_graph(8), 3),
        (path_graph(15), 49),
        (cycle_graph(16), 7),
    ], ids=["joined6", "K432", "C8", "P15", "C16"])
    def test_one_overlay_search_per_orbit(self, g, overlays):
        verdicts, searched, _ = overlay_searches(g)
        assert searched == overlays
        assert len(verdicts) == len(g.non_edges())

    @pytest.mark.parametrize("hosts,overlays,nodes", [
        ([path_graph(7), path_graph(15), cycle_graph(8), cycle_graph(16)],
         68, 1045),
        ([build_family(FamilySpec.joined(n)) for n in range(2, 7)]
         + [build_family(FamilySpec.multipartite(*p))
            for p in multipartite_profiles(9)], 122, 1992),
    ], ids=["classify_sparse", "classify_dense"])
    def test_overlay_searches_of_one_benchmark_pass(self, hosts, overlays, nodes):
        # The hosts of one pass of the benchmark's classify workloads: an
        # automorphism the generator search misses shows up as a larger
        # overlay count, and a search that loses pruning as more nodes.
        counts = [overlay_searches(g)[1:] for g in hosts]
        assert sum(c[0] for c in counts) == overlays
        assert sum(c[1] for c in counts) == nodes

    def test_orbits_equal_the_automorphism_group_orbits(self):
        graphs = ([g for n in range(2, 6) for g in all_graphs(n)]
                  + [random_graph(Random(s), 7, 0.5) for s in range(100)])
        for g in graphs:
            cls, orbit = _orbits.non_edge_orbits(g.adjacency)
            keys = [orbit[min(cls[u], cls[v]), max(cls[u], cls[v])]
                    for u, v in g.non_edges()]
            # The keys split the non-edges exactly as the orbits of Aut(g) do.
            pairs = set(zip(keys, non_edge_orbits_reference(g)))
            assert len(pairs) == len(set(keys)) == len({b for _, b in pairs}), g.edges

    @pytest.mark.parametrize("seed", range(10))
    def test_orbits_do_not_depend_on_the_numbering(self, seed):
        # A randomly numbered P_63 keeps its reflection: 1,891 non-edges in
        # 961 orbits.  A breadth-first order from a mid-path vertex ran out
        # of steps before the reflection was found.
        perm = list(range(1, 64))
        Random(seed).shuffle(perm)
        g = Graph(63, [(perm[u - 1], perm[v - 1])
                       for u, v in path_graph(63).edges])
        cls, orbit = _orbits.non_edge_orbits(g.adjacency)
        assert len({orbit[min(cls[u], cls[v]), max(cls[u], cls[v])]
                    for u, v in g.non_edges()}) == 961

    def test_a_map_that_is_not_an_automorphism_is_rejected(self, monkeypatch):
        # With the check refusing every map, no generator is kept, no orbit
        # merges and every non-edge is searched, with the same verdicts.
        g = path_graph(15)
        shift = [(i + 1) % g.n for i in range(g.n)]
        quotient = [a >> 1 for a in g.adjacency[1:]]  # g on 0..14
        assert not _orbits.is_automorphism(quotient, [(1, False)] * g.n, shift)
        assert not _orbits.is_automorphism(
            [0] * g.n, [(1, False)] * g.n, [0] * g.n)  # not a permutation
        monkeypatch.setattr(_orbits, "is_automorphism", lambda *args: False)
        verdicts, searched, _ = overlay_searches(g)
        assert searched == len(g.non_edges())
        assert verdicts == per_edge_verdicts(g)

    @pytest.mark.parametrize("g", [
        path_graph(15), cycle_graph(16), petersen_graph(),
        build_family(FamilySpec.multipartite(2, 2, 2, 2)),
        build_family(FamilySpec.joined(6)),
    ], ids=["P15", "C16", "petersen", "K2222", "joined6"])
    def test_an_exhausted_step_budget_only_costs_searches(self, monkeypatch, g):
        verdicts, searched, _ = overlay_searches(g)
        monkeypatch.setattr(_orbits, "_STEPS", 0)
        starved, starved_searches, _ = overlay_searches(g)
        assert starved == verdicts
        assert starved_searches >= searched


def all_optimal_labelings(g):
    """Every labeling that passes the path definition with the fewest labels
    possible, sorted, by trying each one with labels 1..k for k = 1, 2, ..."""
    for k in range(1, g.n + 1):
        found = [labels for labels in product(range(1, k + 1), repeat=g.n)
                 if valid_by_path_definition(g, dict(zip(g.vertices(), labels)))]
        if found:
            return found  # product yields the labelings in sorted order


class TestEnumerateOptimalRankings:
    def test_every_small_graph_by_brute_force(self, oracle):
        # Two or more components exercise the product over components, and
        # an isolated vertex or a small component the unused top label.
        split = [g for g in (random_graph(Random(s), 5 + s % 2, 0.4)
                             for s in range(300, 400))
                 if len(components_masks(g.adjacency, g.members)) >= 2][:40]
        assert len(split) == 40
        for g in [g for n in range(1, 5) for g in all_graphs(n)] + split:
            found = oracle.enumerate_optimal_rankings(g)
            assert [r.labels for r in found] == all_optimal_labelings(g), g.edges

    def test_seven_path_unique(self, oracle):
        found = oracle.enumerate_optimal_rankings(path_graph(7))
        assert found == [family_ranking(FamilySpec.path(3))]

    def test_three_path_unique(self, oracle):
        assert oracle.enumerate_optimal_rankings(path_graph(3)) == [
            Ranking((1, 2, 1))]

    def test_complete_graph_all_orderings(self, oracle):
        assert len(oracle.enumerate_optimal_rankings(complete_graph(4))) == 24

    def test_eight_cycle_rotations(self, oracle):
        found = oracle.enumerate_optimal_rankings(cycle_graph(8))
        assert len(found) == 8
        tops = [r.labels.index(4) + 1 for r in found]
        assert sorted(tops) == list(range(1, 9))
        assert family_ranking(FamilySpec.cycle(3)) in found

    def test_results_are_valid_distinct_and_sorted(self, oracle):
        found = oracle.enumerate_optimal_rankings(cycle_graph(8))
        assert len({r.labels for r in found}) == len(found)
        assert [r.labels for r in found] == sorted(r.labels for r in found)
        assert all(is_valid_ranking(cycle_graph(8), r) for r in found)

    def test_enumeration_cap(self):
        # Listing is bounded by the oracle's own cap, like every search.
        with pytest.raises(CapExceeded, match="cap of 16"):
            RankOracle(cap=16).enumerate_optimal_rankings(path_graph(17))
        assert len(RankOracle(cap=15).enumerate_optimal_rankings(path_graph(15))) == 1

    def test_uniqueness_suite_refuses_above_the_cap(self, oracle):
        # P_31 is above the default cap: the suite raises rather than
        # dropping its claim.
        with pytest.raises(CapExceeded):
            run_uniqueness_suite(oracle, max_k=5)


def simultaneous_cases():
    """(host, added) pairs for the exact simultaneous check: seeded random
    graphs of 4-10 vertices with 1-6 added non-edges, an empty edge set, and
    each family construction within the cap, alone and with one more
    non-edge (the construction is inclusion-maximal, so that one rejects)."""
    rng = Random(1200)
    cases = []
    while len(cases) < 240:
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.15, 0.6))
        non = g.non_edges()
        if non:
            cases.append((g, rng.sample(non, min(len(non), rng.randint(1, 6)))))
    cases.append((cycle_graph(8), []))
    for spec in (FamilySpec.path(3), FamilySpec.path(4), FamilySpec.cycle(3),
                 FamilySpec.cycle(4), FamilySpec.multipartite(4, 3, 2),
                 FamilySpec.multipartite(3, 3, 2), FamilySpec.multipartite(5, 1),
                 *map(FamilySpec.joined, range(2, 6))):
        g = build_family(spec)
        good = list(family_good_edges(spec).edges)
        extra = next(e for e in g.non_edges() if e not in good)
        cases += [(g, good), (g, good + [extra])]
    return cases


class TestVerifySimultaneous:
    def test_exact_matches_a_fresh_search_of_the_union(self):
        # The union is searched on an overlay of the host's engine; a fresh
        # oracle on the union shares nothing with it.  One oracle checks
        # every case, so the engine slot also changes host between cases.
        shared = RankOracle()
        mismatches, rejects = [], 0
        for g, added in simultaneous_cases():
            check = shared.verify_simultaneous(g, added)
            base = RankOracle().rank_number(g)[0]
            aug = RankOracle().rank_number(g.add_edges(added))[0]
            want = (aug == base, "exact", base, aug,
                    f"exact search: host rank {base}, union rank {aug}")
            got = (check.ok, check.mode, check.base_rank, check.union_rank,
                   check.detail)
            if got != want:
                mismatches.append((g, added, got, want))
            rejects += not check.ok
        assert mismatches == []
        assert 100 < rejects < 200

    def test_exact_accept(self, oracle):
        check = oracle.verify_simultaneous(path_graph(7), HP3)
        assert check.ok and check.mode == "exact"

    def test_exact_reject(self, oracle):
        check = oracle.verify_simultaneous(path_graph(7), [(1, 3)])
        assert not check.ok and check.mode == "exact"
        union = path_graph(7).add_edges([(1, 3)])
        assert check.union_rank == RankOracle().rank_number(union)[0] == 4

    def test_exact_reject_reports_the_union_rank(self, oracle):
        # P_7 plus every non-edge is K_7: the union's rank is 4 above the
        # host's, so the reject path must search it, not infer base + 1.
        g = path_graph(7)
        check = oracle.verify_simultaneous(g, g.non_edges())
        assert not check.ok and check.mode == "exact"
        assert (check.base_rank, check.union_rank) == (3, 7)
        assert check.detail == "exact search: host rank 3, union rank 7"

    def test_exact_accept_on_a_dense_host(self, oracle):
        spec = FamilySpec.multipartite(4, 3, 2)
        g = build_family(spec)
        check = oracle.verify_simultaneous(g, family_good_edges(spec).edges)
        assert check.ok and check.mode == "exact"
        assert check.union_rank == check.base_rank == 6

    def test_overlapping_edge_rejected(self, oracle):
        with pytest.raises(ValueError):
            oracle.verify_simultaneous(path_graph(7), [(1, 2)])

    @pytest.mark.parametrize("n", [7, 31], ids=["exact", "certificate"])
    def test_endpoint_outside_the_host_rejected(self, oracle, n):
        # Vertex 0 would set bit 0, which no search mask holds: unchecked,
        # the exact search would answer as if the edge were absent.
        for bad in [(0, 2), (-1, 2), (2, n + 1)]:
            for witness in (None, Ranking(tuple(range(1, n + 1)))):
                with pytest.raises(ValueError):
                    oracle.verify_simultaneous(path_graph(n), [(1, 4), bad],
                                               witness=witness)

    def test_exact_mode_builds_no_union_graph(self, oracle, monkeypatch):
        # The union is searched on an overlay of the host's engine.
        def refuse(self, es):
            raise AssertionError("exact mode built the union graph")
        monkeypatch.setattr(Graph, "add_edges", refuse)
        assert oracle.verify_simultaneous(path_graph(7), HP3).ok
        check = oracle.verify_simultaneous(path_graph(7), [(1, 3)])
        assert (check.ok, check.base_rank, check.union_rank) == (False, 3, 4)

    def test_certificate_for_thirty_one_path(self, oracle):
        check = oracle.verify_simultaneous(
            path_graph(31), family_good_edges(FamilySpec.path(5)).edges,
            witness=family_ranking(FamilySpec.path(5)))
        assert check.ok and check.mode == "certificate"
        assert check.detail == (
            "witness ranking valid on the union with 5 labels; host rank >= 5 "
            "(path on 31 vertices exhibited in the host)")

    def test_certificate_for_thirty_two_cycle(self, oracle):
        check = oracle.verify_simultaneous(
            cycle_graph(32), family_good_edges(FamilySpec.cycle(5)).edges,
            witness=family_ranking(FamilySpec.cycle(5)))
        assert check.ok and check.mode == "certificate"

    def test_certificate_requires_witness(self, oracle):
        check = oracle.verify_simultaneous(path_graph(31), [(1, 4)])
        assert not check.ok and check.mode == "certificate"

    def test_certificate_rejects_invalid_witness(self, oracle):
        bad = Ranking((1,) * 31)
        check = oracle.verify_simultaneous(path_graph(31), [(1, 4)], witness=bad)
        assert not check.ok

    def test_certificate_rejects_oversized_witness(self, oracle):
        # A witness with too many labels certifies nothing.
        loose = Ranking(tuple(range(1, 32)))
        check = oracle.verify_simultaneous(path_graph(31), [(1, 4)], witness=loose)
        assert not check.ok


def random_tree(rng, n):
    return Graph(n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])


def chorded_cycle(rng, n):
    g = cycle_graph(n)
    return g.add_edges(rng.sample(g.non_edges(), rng.randint(1, 3)))


def star_and_matching_cases():
    """(host, added) pairs on sparse hosts of 7-12 vertices where one
    component of the union holds several added edges: a star of 2-4 added
    edges at one vertex, or a matching of 2-3 disjoint added edges."""
    rng = Random(1300)
    cases = []
    for i in range(60):
        n = rng.randint(7, 12)
        g = (random_tree(rng, n), chorded_cycle(rng, n), path_graph(n))[i % 3]
        non = g.non_edges()
        if i % 2:
            center = rng.randint(1, n)
            spokes = [e for e in non if center in e]
            added = rng.sample(spokes, min(len(spokes), rng.randint(2, 4)))
        else:
            size, added, used = rng.randint(2, 3), [], set()
            for u, v in rng.sample(non, len(non)):
                if len(added) < size and not {u, v} & used:
                    added.append((u, v))
                    used |= {u, v}
        cases.append((g, added))
    return cases


class TestHostBounds:
    """An overlay component holding added edges is first checked in the
    host's memo: refuted when the host needs more than the budget, and
    searched on the overlay otherwise.  The host check memoizes
    feasible(mask, budget) in the host's memo, under the key a connected
    component uses."""

    @pytest.mark.parametrize("g", [
        path_graph(15), cycle_graph(16),
        build_family(FamilySpec.multipartite(4, 3, 2)),
        *(random_graph(Random(1400 + s), 11, 0.22) for s in range(4))],
        ids=["P15", "C16", "K432", *(f"random{s}" for s in range(4))])
    def test_host_memo_entries_equal_fresh_searches(self, g):
        oracle = RankOracle()
        _, verdicts = oracle.good_edge_set(g)
        good = [v.edge for v in verdicts if v.is_good]
        oracle.verify_simultaneous(g, good[:4])
        oracle.verify_simultaneous(g, g.non_edges()[:3])
        memo = oracle._host.memo
        assert len(memo) > 0
        wrong = {key: value for key, value in memo.items()
                 if _Engine(g.adjacency).feasible(*key) != value}
        assert wrong == {}

    @pytest.mark.parametrize("seed", range(10))
    def test_sparse_verdicts_match_the_reference_recursion(self, seed):
        rng = Random(1500 + seed)
        n = rng.randint(8, 13)
        g = (random_tree if seed % 2 else chorded_cycle)(rng, n)
        base = reference_rank(g)
        _, verdicts = RankOracle().good_edge_set(g)
        assert [v.is_good for v in verdicts] == [
            reference_rank(g.add_edges([e])) == base for e in g.non_edges()]

    def test_stars_and_matchings_match_a_fresh_search_of_the_union(self):
        # Several added edges share one component of the union, so the
        # overlay searches it after the host's memo fails to refute it.
        shared = RankOracle()
        mismatches, rejects = [], 0
        for g, added in star_and_matching_cases():
            check = shared.verify_simultaneous(g, added)
            base = RankOracle().rank_number(g)[0]
            aug = RankOracle().rank_number(g.add_edges(added))[0]
            got = (check.ok, check.base_rank, check.union_rank)
            if got != (aug == base, base, aug):
                mismatches.append((g, added, got, aug))
            rejects += not check.ok
        assert mismatches == []
        assert 10 < rejects < 50


def host_questions(run):
    """(host budget, overlay budget) for every question an overlay asks its
    host through `feasible` while `run()` runs.  The host's own nested
    `feasible` calls, made while one of its `feasible` frames is open, are
    its recursion and not questions from the overlay."""
    asked, budgets, host_frames = [], [], []
    feasible, feasible_connected = _Engine.feasible, _Engine.feasible_connected

    def spy_connected(self, comp, budget):
        if self.host is None:
            return feasible_connected(self, comp, budget)
        budgets.append(budget)
        try:
            return feasible_connected(self, comp, budget)
        finally:
            budgets.pop()

    def spy_feasible(self, mask, budget):
        if self.host is not None:
            return feasible(self, mask, budget)
        if budgets and not host_frames:
            asked.append((budget, budgets[-1]))
        host_frames.append(budget)
        try:
            return feasible(self, mask, budget)
        finally:
            host_frames.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "feasible", spy_feasible)
        mp.setattr(_Engine, "feasible_connected", spy_connected)
        run()
    return asked


class TestOverlayAsksItsHost:
    """An overlay asks its host only at the overlay's own budget: the host
    bound refutes, and nothing is accepted from a host search at a lower
    budget."""

    @pytest.mark.parametrize("g", [
        path_graph(15), build_family(FamilySpec.multipartite(4, 3, 2))],
        ids=["P15", "K432"])
    def test_classification(self, g):
        asked = host_questions(lambda: RankOracle().good_edge_set(g))
        assert asked
        assert [a for a in asked if a[0] != a[1]] == []

    def test_stars_and_matchings(self):
        oracle = RankOracle()
        asked = host_questions(lambda: [
            oracle.verify_simultaneous(g, added)
            for g, added in star_and_matching_cases()])
        assert asked
        assert [a for a in asked if a[0] != a[1]] == []


class TestSearchHygiene:
    def test_cap_refusal(self, oracle):
        with pytest.raises(CapExceeded):
            oracle.rank_number(path_graph(21))

    def test_classification_refuses_above_the_cap(self):
        with pytest.raises(CapExceeded, match="cap of 6"):
            RankOracle(cap=6).good_edge_set(path_graph(7))

    def test_stats_are_per_call(self):
        oracle = RankOracle()
        g = cycle_graph(16)
        _, first = oracle.rank_number(g)
        assert first.memo_entries == len(oracle._host.memo) > 0
        assert first.nodes_expanded > 0
        oracle.good_edge_set(g)
        _, again = oracle.rank_number(g)
        assert (again.nodes_expanded, again.memo_entries) == (0, 0)

    def test_cap_is_configurable(self):
        assert RankOracle(cap=32).rank_number(cycle_graph(32))[0] == 6

    def test_deep_dense_searches_answer(self):
        # A clique's search goes about one level per vertex, one frame per
        # level, so these stay under Python's default recursion limit.
        oracle = RankOracle(cap=600)
        assert oracle.rank_number(complete_graph(600))[0] == 600
        assert oracle.rank_number(build_family(FamilySpec.joined(300)))[0] == 301

    def test_overlay_verdicts_match_fresh_searches(self):
        # classify_edge searches an overlay that shares the host engine's
        # memo; a fresh oracle on the augmented graph shares nothing.  One
        # oracle classifies every host twice, forward and in reverse, so
        # state leaking from one overlay into the next would show.
        hosts = [random_graph(Random(400 + s), 8 + s % 3, 0.3) for s in range(6)]
        hosts += [build_family(spec) for spec in (
            FamilySpec.path(3), FamilySpec.path(4), FamilySpec.cycle(3),
            FamilySpec.cycle(4), FamilySpec.multipartite(3, 2, 2),
            FamilySpec.multipartite(2, 2, 2), FamilySpec.joined(3),
            FamilySpec.joined(4))]
        hosts += [induced(cycle_graph(16), range(2, 14)),
                  induced(random_graph(Random(410), 10, 0.35),
                          (1, 2, 3, 5, 6, 8, 9, 10)),
                  induced(Graph(10, [(1, 2), (2, 3), (3, 4), (5, 6)]), range(1, 8)),
                  # isolated vertices 7..10
                  Graph(10, [(1, 2), (2, 3), (3, 4), (5, 6)])]
        shared = RankOracle()
        for g in hosts:
            base = RankOracle().rank_number(g)[0]
            non = g.non_edges()
            forward = [shared.classify_edge(g, e) for e in non]
            backward = [shared.classify_edge(g, e) for e in reversed(non)]
            assert forward == backward[::-1]
            for e, v in zip(non, forward):
                fresh = RankOracle().rank_number(g.add_edges([e]))[0]
                assert v.is_good == (fresh == base)
                assert v.augmented_rank == fresh

    def test_one_engine_per_adjacency(self):
        # Candidate edges and edge sets are searched on overlays, so the
        # slot keeps the host's engine; a host of the same order with a
        # different adjacency replaces it.
        oracle = RankOracle()
        g = cycle_graph(8)
        oracle.good_edge_set(g)
        oracle.verify_simultaneous(g, family_good_edges(FamilySpec.cycle(3)).edges)
        engine = oracle._host
        assert engine.adj == g.adjacency and engine.host is None
        assert oracle.rank_number(complete_graph(8))[0] == 8
        assert oracle._host is not engine
        assert oracle._host.adj == complete_graph(8).adjacency
        assert oracle.rank_number(g)[0] == 4

    def test_one_host_engine_per_host(self, monkeypatch):
        built = []
        init = _Engine.__init__

        def counted(self, adj, host=None, ends=0):
            if host is None:
                built.append(adj)
            init(self, adj, host, ends)

        monkeypatch.setattr(_Engine, "__init__", counted)
        oracle = RankOracle()
        spec = FamilySpec.multipartite(4, 3, 2)
        g = build_family(spec)
        oracle.rank_number(g)
        assert oracle.verify_simultaneous(g, family_good_edges(spec).edges)
        assert not oracle.verify_simultaneous(g, g.non_edges())
        oracle.good_edge_set(g)
        assert built == [g.adjacency]
        h = path_graph(7)
        oracle.verify_simultaneous(h, HP3)
        assert built == [g.adjacency, h.adjacency]

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_relabeling(self, oracle, seed):
        rng = Random(500 + seed)
        g = random_graph(rng, 8, 0.4)
        perm = list(range(1, 9))
        rng.shuffle(perm)
        relabeled = Graph(8, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        assert oracle.rank_number(g)[0] == oracle.rank_number(relabeled)[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_adding_an_edge_never_lowers_the_rank(self, oracle, seed):
        rng = Random(600 + seed)
        g = random_graph(rng, 9, 0.3)
        base, _ = oracle.rank_number(g)
        non = g.non_edges()
        if non:
            e = non[rng.randrange(len(non))]
            assert base <= oracle.rank_number(g.add_edges([e]))[0] <= base + 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_subgraph_monotone(self, data):
        oracle = RankOracle()
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
        mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        g = Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        if not g.edges:
            return
        drop = data.draw(st.integers(0, len(g.edges) - 1))
        smaller = Graph(n, g.edges[:drop] + g.edges[drop + 1:])
        assert oracle.rank_number(smaller)[0] <= oracle.rank_number(g)[0]


class TestDownwardRank:
    """A component's rank is tried at its path lower bound, then searched
    downward from its order: a search at a budget of at least the rank
    stops at the first split that works, so only the one at rank - 1 has
    to refute every split."""

    def test_a_dense_host_needs_one_refuting_search(self):
        g = build_family(FamilySpec.multipartite(*[3] * 6))
        value, stats = RankOracle().rank_number(g)
        assert value == 16
        assert stats.nodes_expanded < 20_000

    def test_a_tight_path_bound_costs_one_search(self):
        value, stats = RankOracle().rank_number(path_graph(15))
        assert value == 4
        assert stats.nodes_expanded == 17

    def test_a_cycle_bound_is_tight(self):
        # The walk covers the cycle, so its bound is the rank and no
        # downward search runs.
        value, stats = RankOracle().rank_number(cycle_graph(16))
        assert value == 5
        assert stats.nodes_expanded == 18

    def test_a_long_path_refutes_its_largest_piece_first(self):
        # Deleting a vertex off the middle of a path leaves a larger piece
        # that fails the path bound at once, so the smaller piece is never
        # searched.
        value, stats = RankOracle(cap=600).rank_number(path_graph(511))
        assert value == 9
        assert stats.nodes_expanded <= 2_000

    # feasible_connected computes the path bound only at budgets below
    # size.bit_length(); that skips no prune while this holds.
    @pytest.mark.parametrize("seed", range(5))
    def test_path_bound_is_at_most_the_order_bound(self, seed):
        rng = Random(1300 + seed)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 18), rng.choice((0.1, 0.25, 0.5)))
            eng = _Engine(g.adjacency)
            for comp in components_masks(g.adjacency, rng.getrandbits(g.n) << 1):
                assert eng.lower_bound(comp) <= comp.bit_count().bit_length()


class TestDomination:
    """The search never puts v on top of a component when a neighbour w has
    N[v] ⊆ N[w] there, strictly or with w < v.  These answers are checked
    against searches that know nothing of domination."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_the_reference_recursion(self, oracle, seed):
        rng = Random(2400 + seed)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 11),
                             rng.choice((0.3, 0.5, 0.7, 0.85)))
            assert oracle.rank_number(g)[0] == reference_rank(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_blow_ups_match_the_reference_recursion(self, oracle, seed):
        rng = Random(2500 + seed)
        for base in (None, path_graph(4), cycle_graph(4), complete_graph(4)) * 5:
            g = blow_up(rng, base)
            assert g.n <= 12
            assert oracle.rank_number(g)[0] == reference_rank(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_six_vertex_graphs_match_brute_force(self, oracle, seed):
        rng = Random(2600 + seed)
        for p in (0.6, 0.8):
            g = random_graph(rng, 6, p)
            assert oracle.rank_number(g)[0] == brute_rank(g, by_is_valid_ranking)

    def test_a_universal_vertex_alone_goes_on_top(self):
        # A vertex joined to all of C12 dominates every other vertex.
        wheel = Graph(13, [*cycle_graph(12).edges, *((v, 13) for v in range(1, 13))])
        value, stats = RankOracle().rank_number(wheel)
        assert value == 6
        assert stats.nodes_expanded == 52

    def test_ten_parts_of_two(self):
        g = build_family(FamilySpec.multipartite(*[2] * 10))
        value, stats = RankOracle().rank_number(g)
        assert value == 19
        assert stats.nodes_expanded == 10_068


class TestEngineBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_at_most_the_rank_of_the_component(self, seed):
        rng = Random(1600 + seed)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.35, 0.5)))
            eng = _Engine(g.adjacency)
            for comp in components_masks(g.adjacency, rng.getrandbits(g.n) << 1):
                assert eng.lower_bound(comp) <= reference_rank(induced(g, bits(comp)))

    def test_exact_on_paths_and_cycles(self):
        for g in [path_graph(n) for n in range(1, 65)] + [
                cycle_graph(n) for n in range(3, 65)]:
            bound = _Engine(g.adjacency).lower_bound(g.members)
            assert bound == longest_path_length(g).bit_length() == g.n.bit_length()


class TestLongestPath:
    def test_path_and_cycle_are_exact(self):
        assert longest_path_length(path_graph(31)) == 31
        assert longest_path_length(cycle_graph(32)) == 32
        assert longest_path_length(path_graph(1023)) == 1023
        assert longest_path_length(cycle_graph(1024)) == 1024

    def test_star(self):
        assert longest_path_length(star_graph(6)) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_walk_from_every_start(self, seed):
        # Lowest-degree starts first and the stop at a covering walk keep
        # the maximum over all starts.
        rng = Random(900 + seed)
        for n in range(1, 15):
            for p in (0.15, 0.3, 0.5):
                g = random_graph(rng, n, p)
                assert longest_path_length(g) == greedy_path_all_starts(g)


class TestFamilyRanks:
    @pytest.mark.parametrize("spec,expected", [
        (FamilySpec.path(3), 3),
        (FamilySpec.path(4), 4),
        (FamilySpec.cycle(3), 4),
        (FamilySpec.cycle(4), 5),
        (FamilySpec.multipartite(3, 2), 3),
        (FamilySpec.multipartite(2, 2), 3),
        (FamilySpec.joined(2), 3),
        (FamilySpec.joined(5), 6),
        # dense hosts within the cap that need twin pruning to finish fast
        (FamilySpec.multipartite(5, 5, 5, 5), 16),
        (FamilySpec.multipartite(6, 5, 4, 3, 2), 15),
        (FamilySpec.joined(10), 11),
        (FamilySpec.multipartite(*[2] * 10), 19),
    ])
    def test_oracle_matches_the_constructed_ranking(self, oracle, spec, expected):
        g = build_family(spec)
        r = family_ranking(spec)
        assert oracle.rank_number(g)[0] == expected == r.max_label
        assert is_valid_ranking(g, r)
