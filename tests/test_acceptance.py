"""Acceptance checklist: the headline claims, each at its stated tolerance.

Every test prints one summary line.  The paper characterizes "which edges
change the rank number when added" for the constructed set as a whole, not
edge by edge.  The three `*_as_stated` tests assert that characterization
for the families where the two readings differ, in three parts:

(a) the constructed set is exactly the set of non-edges whose addition
    keeps the family's own optimal ranking (`family_ranking`) valid; every
    other non-edge breaks that ranking;
(b) once the whole constructed set is added, every remaining non-edge
    raises the rank number, so the construction is inclusion-maximal;
(c) the per-edge good set (non-edges whose single addition keeps the rank
    number) strictly contains the construction, so the per-edge reading of
    the claim is false.

For paths, and for multipartite graphs with a unique largest part, the two
readings coincide and the tests assert exact equality with the per-edge
good set.  For every family the constructed set is simultaneously addable
without changing the rank number.
"""

import subprocess
import sys
import time

from rankmax import (FamilySpec, RankOracle, all_levels_good_edges,
                     build_family, family_good_edges, family_ranking,
                     is_valid_ranking, mu_path_recurrence, mu_value,
                     multipartite_forbidden_edges)
from rankmax.verify import multipartite_profiles
from helpers import rankmax_env


def report(criterion, detail, t0):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")
    return elapsed


def family_ranking_edges(g, spec):
    """Reading (a): the non-edges whose single addition keeps the family's
    own optimal ranking valid."""
    r = family_ranking(spec)
    return {e for e in g.non_edges() if is_valid_ranking(g.add_edges([e]), r)}


def assert_saturated(oracle, g, constructed, base):
    """Reading (b): the union of g and the whole constructed set keeps the
    rank number `base`, and every non-edge left in the union raises it.
    Returns the set of those remaining non-edges."""
    union = g.add_edges(constructed.edges)
    assert oracle.rank_number(union)[0] == base
    rest = union.non_edges()
    for e in rest:
        verdict = oracle.classify_edge(union, e)
        assert not verdict.is_good, f"{e} can be added after the construction"
    return set(rest)


def test_criterion1_path_construction_equals_oracle():
    """15-vertex path: construction = level union = exhaustive search,
    exactly 20 edges, and adding all of them keeps the rank number at 4."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    spec = FamilySpec.path(4)
    g = build_family(spec)
    constructed = family_good_edges(FamilySpec.path(4))
    assert len(constructed) == 20
    assert all_levels_good_edges(4).edges == constructed.edges
    good, verdicts = oracle.good_edge_set(g, spec)
    assert good.edges == constructed.edges
    assert len(verdicts) == 91
    union_rank, _ = oracle.rank_number(g.add_edges(constructed.edges))
    assert union_rank == 4 == oracle.rank_number(g)[0]
    elapsed = report(1, "20 good edges, rank stays 4", t0)
    assert elapsed < 10


def test_criterion2_cycle_construction_and_rank():
    """16-vertex cycle: the constructed set has exactly 33 edges, every one
    of them is individually good, and adding all 33 at once keeps the rank
    number at 5 (verified by exact search on 16 vertices)."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    spec = FamilySpec.cycle(4)
    g = build_family(spec)
    constructed = family_good_edges(FamilySpec.cycle(4))
    assert len(constructed) == 33
    base, _ = oracle.rank_number(g)
    assert base == 5
    assert all(oracle.classify_edge(g, e).is_good for e in constructed)
    union_rank, _ = oracle.rank_number(g.add_edges(constructed.edges))
    assert union_rank == 5
    elapsed = report(2, "33 constructed edges, rank stays 5", t0)
    assert elapsed < 300


def test_criterion2_per_edge_set_equality_as_stated():
    """16-vertex cycle: the 33-edge construction is characterized as a set,
    not edge by edge.

    (a) The 33 constructed chords are exactly the chords that keep the
    standard cycle ranking valid; the other 71 break it.  (b) After adding
    all 33, each of the 71 remaining chords raises the rank number from 5
    to 6, so the construction is inclusion-maximal.  (c) The per-edge
    reading, "the per-edge good set equals the construction", is false:
    the cycle has rank 5, and putting label 5 on one endpoint of any chord
    leaves the path on 15 vertices, which ranks with 4, so all 104 chords
    are individually good.  That 33 is the largest simultaneously addable
    set cannot be checked by exact search at this size; (b) checks the
    inclusion-maximality it implies.
    """
    t0 = time.perf_counter()
    oracle = RankOracle()
    spec = FamilySpec.cycle(4)
    g = build_family(spec)
    constructed = family_good_edges(FamilySpec.cycle(4))
    assert len(constructed) == mu_value(FamilySpec.cycle(4)) == 33
    assert family_ranking_edges(g, spec) == constructed.edge_set()
    base, _ = oracle.rank_number(g)
    assert base == 5
    rest = assert_saturated(oracle, g, constructed, base)
    assert len(rest) == 71
    good, verdicts = oracle.good_edge_set(g, spec)
    assert len(verdicts) == len(good) == 104
    assert constructed.edge_set() < good.edge_set()
    elapsed = report(2, "33 chords keep the standard ranking, the other 71 "
                        "then raise the rank; all 104 are good one by one", t0)
    assert elapsed < 300


def test_criterion3_joined_cliques_construction_and_rank():
    """Two joined 5-cliques: exactly 8 constructed edges, each individually
    good, and the rank number stays 6 after adding all of them."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    spec = FamilySpec.joined(5)
    g = build_family(spec)
    constructed = family_good_edges(FamilySpec.joined(5))
    assert len(constructed) == 8
    base, _ = oracle.rank_number(g)
    assert base == 6
    assert all(oracle.classify_edge(g, e).is_good for e in constructed)
    union_rank, _ = oracle.rank_number(g.add_edges(constructed.edges))
    assert union_rank == 6
    elapsed = report(3, "8 constructed edges, rank stays 6", t0)
    assert elapsed < 60


def test_criterion3_forbidden_complement_as_stated():
    """Two joined 5-cliques: the 8-edge construction is characterized as a
    set, not edge by edge.

    (a) The 8 constructed cross pairs are exactly the ones that keep the
    joined-cliques ranking valid; the other 16 break it.  (b) After adding
    all 8, each of the 16 remaining cross pairs raises the rank number from
    6 to 7: those are the forbidden complement.  (c) The per-edge reading,
    "every non-constructed cross pair is forbidden on its own", is false:
    for a cross pair {w, v}, give w the label 6, its clique mates 1..4,
    and the other clique 1..5 with 5 on its join endpoint; every cross path
    then passes a dominating label, so all 24 cross pairs are individually
    good with 6 labels.  That 8 is the largest simultaneously addable set
    cannot be checked by exact search at this size; (b) checks the
    inclusion-maximality it implies.
    """
    t0 = time.perf_counter()
    oracle = RankOracle()
    spec = FamilySpec.joined(5)
    g = build_family(spec)
    constructed = family_good_edges(FamilySpec.joined(5))
    assert len(constructed) == mu_value(FamilySpec.joined(5)) == 8
    assert family_ranking_edges(g, spec) == constructed.edge_set()
    base, _ = oracle.rank_number(g)
    assert base == 6
    rest = assert_saturated(oracle, g, constructed, base)
    assert len(rest) == 16
    good, verdicts = oracle.good_edge_set(g, spec)
    assert len(verdicts) == len(good) == 24
    assert constructed.edge_set() < good.edge_set()
    elapsed = report(3, "8 cross pairs keep the ranking, the other 16 then "
                        "raise the rank; all 24 are good one by one", t0)
    assert elapsed < 60


def test_criterion4_rank_numbers_and_uniqueness():
    """Rank numbers 3, 4, 4, 5 for the 7- and 15-vertex paths and the 8-
    and 16-vertex cycles; both paths have exactly one optimal ranking, the
    standard one."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    values = {
        ("path", 3): 3, ("path", 4): 4, ("cycle", 3): 4, ("cycle", 4): 5,
    }
    for (kind, k), expected in values.items():
        g = build_family(FamilySpec(kind, k=k))
        assert oracle.rank_number(g)[0] == expected
    for k in (3, 4):
        g = build_family(FamilySpec.path(k))
        found = oracle.enumerate_optimal_rankings(g)
        assert found == [family_ranking(FamilySpec.path(k))]
    elapsed = report(4, "ranks 3/4/4/5, unique path rankings", t0)
    assert elapsed < 60


def test_criterion5_path_forbidden_complement():
    """For the 7- and 15-vertex paths, every non-edge outside the
    construction raises the rank number strictly above k."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    for k in (3, 4):
        g = build_family(FamilySpec.path(k))
        constructed = family_good_edges(FamilySpec.path(k)).edge_set()
        base, _ = oracle.rank_number(g)
        for e in g.non_edges():
            verdict = oracle.classify_edge(g, e)
            if e in constructed:
                assert verdict.is_good
            else:
                assert not verdict.is_good
                assert verdict.augmented_rank > k
    report(5, "non-constructed path edges all raise the rank", t0)


def test_criterion6_formula_consistency():
    """Closed form = recurrence = level-sum for k up to 10, and the cycle
    count exceeds the path count by 2^k - 3."""
    t0 = time.perf_counter()
    for k in range(3, 11):
        level_sum = sum(2 ** (k - j + 1) * (2 ** (j - 1) - 4)
                        for j in range(4, k + 2))
        mu_path = mu_value(FamilySpec.path(k))
        assert mu_path == mu_path_recurrence(k) == level_sum
        assert mu_value(FamilySpec.cycle(k)) == mu_path + 2 ** k - 3
    report(6, "counts agree for k=3..10", t0)


def test_criterion7_multipartite_with_unique_maximum():
    """Profiles with at most 9 vertices: wherever the largest part is
    unique, the exhaustive classification matches the construction exactly
    (largest-part pairs forbidden, all other intra-part pairs good, count
    by the closed form); ranks always match the constructed ranking; with a
    tied largest part every non-edge is individually good (the all-ones
    part can swap), and the constructed set stays simultaneously addable
    everywhere."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    checked_unique = checked_tied = 0
    for parts in multipartite_profiles(9):
        spec = FamilySpec.multipartite(*parts)
        g = build_family(spec)
        r = family_ranking(spec)
        base, _ = oracle.rank_number(g)
        assert base == r.max_label == sum(parts) - parts[0] + 1
        good, verdicts = oracle.good_edge_set(g, spec)
        if len(parts) > 1 and parts[0] == parts[1]:
            assert len(good) == len(verdicts)
            checked_tied += 1
        else:
            assert good.edges == family_good_edges(spec).edges
            assert {v.edge for v in verdicts if not v.is_good} == \
                multipartite_forbidden_edges(spec).edge_set()
            assert len(good) == mu_value(spec)
            checked_unique += 1
        union_rank, _ = oracle.rank_number(
            g.add_edges(family_good_edges(spec).edges))
        assert union_rank == base
    elapsed = report(7, f"{checked_unique} unique-max and {checked_tied} "
                        "tied profiles verified", t0)
    assert elapsed < 120


def test_criterion7_all_profiles_as_stated():
    """Every profile with at most 9 vertices, tied largest parts included:
    the construction is characterized as a set, not edge by edge.

    (a) The constructed pairs (inside every part after the designated
    largest one) are exactly the non-edges that keep the multipartite
    ranking valid; pairs inside the largest part put two 1-labels next to
    each other.  (b) After adding all of them, the non-edges left are
    exactly the constructed forbidden set, and each raises the rank number.
    (c) The per-edge reading, "pairs inside the designated largest part are
    forbidden on their own", holds exactly when that part is unique or has
    one vertex.  With a tied largest part the all-ones label block moves to
    the other largest part, so every non-edge is individually good (two
    2-parts: the 4-cycle plus a chord still ranks with 3); 21 profiles are
    like that.  Maximum cardinality is not checked by exact search here;
    (b) checks the inclusion-maximality it implies.
    """
    t0 = time.perf_counter()
    oracle = RankOracle()
    tied = []
    for parts in multipartite_profiles(9):
        spec = FamilySpec.multipartite(*parts)
        g = build_family(spec)
        constructed = family_good_edges(spec)
        assert family_ranking_edges(g, spec) == constructed.edge_set()
        base, _ = oracle.rank_number(g)
        rest = assert_saturated(oracle, g, constructed, base)
        assert rest == multipartite_forbidden_edges(spec).edge_set()
        good, verdicts = oracle.good_edge_set(g, spec)
        if parts[0] > 1 and parts[0] == parts[1]:
            assert len(good) == len(verdicts)
            assert constructed.edge_set() < good.edge_set()
            tied.append(parts)
        else:
            assert good.edges == constructed.edges
    assert len(tied) == 21 and (2, 2) in tied
    elapsed = report(7, "every profile keeps its ranking exactly on the "
                        f"construction and saturates; {len(tied)} tied "
                        "profiles are per-edge good throughout", t0)
    assert elapsed < 120


def test_criterion8_path_edges_remain_good_on_cycles():
    """Every constructed path edge stays individually good on the cycle one
    vertex larger, for both tested sizes."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    for k in (3, 4):
        c = build_family(FamilySpec.cycle(k))
        base, _ = oracle.rank_number(c)
        for e in family_good_edges(FamilySpec.path(k)):
            assert oracle.classify_edge(c, e).is_good
    report(8, "path constructions inherited by cycles", t0)


def test_criterion9_certificate_mode_at_scale():
    """Beyond the search cap, the 31-vertex path and 32-vertex cycle verify
    by certificate: the standard rankings stay valid on the full unions and
    a full-length path exhibited in each host matches the witness label
    count.  Construction sizes are 68 and 97."""
    t0 = time.perf_counter()
    oracle = RankOracle()
    hp5 = family_good_edges(FamilySpec.path(5))
    hc5 = family_good_edges(FamilySpec.cycle(5))
    assert len(hp5) == 68 and len(hc5) == 97
    p31 = build_family(FamilySpec.path(5))
    check = oracle.verify_simultaneous(p31, hp5.edges,
                                       witness=family_ranking(FamilySpec.path(5)))
    assert check.ok and check.mode == "certificate"
    c32 = build_family(FamilySpec.cycle(5))
    check = oracle.verify_simultaneous(c32, hc5.edges,
                                       witness=family_ranking(FamilySpec.cycle(5)))
    assert check.ok and check.mode == "certificate"
    elapsed = report(9, "certificates hold for 31/32 vertices", t0)
    assert elapsed < 1


def test_criterion10_strict_reading_report():
    """The strict audit of the published clauses prints both readings: the
    l > 0 interior-run bound drops verified-good edges, and stopping the
    level union at k yields 8 of the 20 edges."""
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "rankmax", "good-edges", "path", "-k", "4",
         "--strict-paper"],
        capture_output=True, text=True, env=rankmax_env())
    assert res.returncode == 1
    out = res.stdout
    assert "20 edges" in out
    assert "11 edges" in out
    assert "l > 0" in out
    assert "8 vs 20" in out
    assert "(10,12)" in out
    elapsed = report(10, "strict reading report prints both readings", t0)
    assert elapsed < 10
