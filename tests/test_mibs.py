"""Maximal induced bipartite subgraphs: oracle agreement and identities."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings

from misbench.corpus import oracle_graphs, random_cubic_k4free
from misbench.graphs import components, from_edges, mask_of
from misbench.mibs import MibsCounts, _is_maximal_union, mibs_counts
from misbench.misenum import enumerate_mis

from fixtures import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    random_graph_strategy,
    random_union,
    record_graph_builds,
    triangle_chain,
)
from oracles import is_maximal_induced_bipartite, mibs_scan, mis_scan


def reference_mibs_counts(g):
    """Oracle of ``mibs_counts`` from the subset scans alone.

    The ordered pairs (A, B), A a maximal independent set of g and B one
    of g - A, come from ``mis_scan`` on g and on each g - A.  A pair is a
    witness when A | B is one of the sets that ``mibs_scan`` finds; A and
    B are then a 2-colouring of it.  The histogram counts each unordered
    witness {A, B} once, at the size of its larger side.
    """
    mibs = set(mibs_scan(g))
    pairs = [(a, b) for a in mis_scan(g) for b in mis_scan(g, g.full_mask & ~a)]
    witnesses = [(a, b) for a, b in pairs if a | b in mibs]
    unordered = {frozenset(pair) for pair in witnesses}
    hist = Counter(max(side.bit_count() for side in pair) for pair in unordered)
    return MibsCounts(len(mibs), len(pairs), len(pairs) - len(witnesses), tuple(sorted(hist.items())))


def assert_k4_identity(h):
    """mibs(K4 ∪ H) = 6 mibs(H), and every such set meets the K4 in two vertices."""
    g = disjoint_union(complete_graph(4), h)
    whole = mibs_scan(g)
    assert mibs_counts(g).mibs == len(whole) == 6 * len(mibs_scan(h))
    assert all((w & 0b1111).bit_count() == 2 for w in whole)
    return len(whole)


class TestKnownCounts:
    def test_k4(self):
        # The six edges of K4 are its maximal induced bipartite subgraphs;
        # each arises from two ordered singleton pairs.
        assert mibs_counts(complete_graph(4)) == MibsCounts(6, 12, 0, ((1, 6),))
        assert all(w.bit_count() == 2 for w in mibs_scan(complete_graph(4)))

    def test_k3(self):
        counts = mibs_counts(complete_graph(3))
        assert counts.mibs == 3
        assert counts.ordered_pairs == 6

    def test_c5(self):
        # Dropping any one vertex of the 5-cycle leaves an induced P4.
        counts = mibs_counts(cycle_graph(5))
        assert counts.mibs == 5
        assert counts.ordered_pairs == 10
        assert all(w.bit_count() == 4 for w in mibs_scan(cycle_graph(5)))

    def test_bipartite_graph_is_its_own_unique_record(self):
        for g in (path_graph(5), cycle_graph(6), empty_graph(4)):
            assert mibs_scan(g) == (g.full_mask,)
            assert mibs_counts(g).mibs == 1

    def test_cubic_ten(self):
        # random_cubic_k4free(10, 7010), connected: nonmaximal pairs and two
        # histogram rows.
        g = random_cubic_k4free(10, 7010)
        assert components(g.adj) == [g.full_mask]
        assert mibs_counts(g) == reference_mibs_counts(g) == MibsCounts(24, 68, 20, ((3, 5), (4, 23)))

    def test_order_zero(self):
        assert mibs_scan(empty_graph(0)) == (0,)
        expected = MibsCounts(1, 1, 0, ((0, 1),))
        assert mibs_counts(empty_graph(0)) == expected == reference_mibs_counts(empty_graph(0))


class TestWitnesses:
    def test_normalization(self):
        # P3 splits into {0, 2} and {1} in either order: two ordered pairs,
        # one witness, counted at its larger side.
        assert mibs_counts(path_graph(3)) == MibsCounts(1, 2, 0, ((2, 1),))
        # K4's edges split 1 + 1: twelve ordered pairs, each equal-size
        # witness counted once.
        assert mibs_counts(complete_graph(4)).a_size_histogram == ((1, 6),)

    def test_witness_sides_partition_validly(self):
        # The 6-cycle is its own set; its one witness is the pair of colour
        # classes.  Its other 12 ordered pairs start from the three
        # 2-vertex maximal independent sets and leave a vertex out.
        g = cycle_graph(6)
        assert mibs_counts(g) == MibsCounts(1, 14, 12, ((3, 1),)) == reference_mibs_counts(g)


class TestOracleAgreement:
    def test_seeded_corpus(self):
        for g in oracle_graphs(60, max_n=9):
            assert mibs_counts(g) == reference_mibs_counts(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_generator_matches_subset_scan(self, g):
        assert mibs_counts(g) == reference_mibs_counts(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_records_are_maximal(self, g):
        for w in mibs_scan(g):
            assert is_maximal_induced_bipartite(g, w)


class TestWithinMask:
    def test_maximality_inside_one_component(self):
        # K3 on 0..2 beside P3 on 3..5.  An edge of the triangle is maximal
        # in the triangle but not in the whole graph, where P3 can join it.
        g = disjoint_union(complete_graph(3), path_graph(3))
        k3, p3 = mask_of((0, 1, 2)), mask_of((3, 4, 5))
        edge = mask_of((0, 1))
        assert is_maximal_induced_bipartite(g, edge, k3)
        assert not is_maximal_induced_bipartite(g, edge)
        assert not is_maximal_induced_bipartite(g, edge, g.full_mask)
        assert is_maximal_induced_bipartite(g, edge | p3)
        assert is_maximal_induced_bipartite(g, p3, p3)
        assert not is_maximal_induced_bipartite(g, mask_of((3, 4)), p3)
        assert not is_maximal_induced_bipartite(g, k3, k3)

    def test_counts_build_no_graph(self, monkeypatch):
        g = disjoint_union(disjoint_union(complete_graph(4), cycle_graph(5)), path_graph(4))
        expected = reference_mibs_counts(g)
        built = record_graph_builds(monkeypatch)
        assert mibs_counts(g) == expected
        assert built == []


class TestComponentIdentity:
    def test_k4_plus_k3(self):
        assert assert_k4_identity(complete_graph(3)) == 18

    def test_two_k4(self):
        assert assert_k4_identity(complete_graph(4)) == 36

    def test_k4_plus_path(self):
        assert assert_k4_identity(path_graph(3)) == 6

    def test_k4_plus_diamond(self):
        assert_k4_identity(from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]))


class TestFactorizedCounts:
    def test_unions_match_census(self):
        # Unions of 1..4 parts (isolated vertices, edges, K4s, random graphs)
        # on at most 14 vertices, relabeled: every field of the product over
        # components equals the subset-scan oracle, histogram included.
        rng = random.Random(47)
        for g in [empty_graph(0)] + [random_union(rng) for _ in range(200)]:
            assert mibs_counts(g) == reference_mibs_counts(g)

    def test_unequal_sides_and_nonmaximal_pairs(self):
        # P3 splits 2 + 1 either way round, K1 splits 1 + 0 only, and P4 has
        # pairs whose union is not maximal: their union has witnesses with
        # |A| = 4 and |A| = 5, and nonmaximal pairs.
        g = disjoint_union(disjoint_union(path_graph(3), empty_graph(1)), path_graph(4))
        assert mibs_counts(g) == MibsCounts(1, 8, 4, ((4, 2), (5, 2)))
        assert mibs_counts(g) == reference_mibs_counts(g)


class TestPairCensus:
    """The census judges each generator pair (A, B) from the pair: A and B
    2-colour A | B, so maximality is a mask test on the components of
    G[A | B], and no bipartiteness test runs."""

    @pytest.mark.parametrize(
        "graphs_under_test",
        [
            pytest.param(lambda: oracle_graphs(200, max_n=10), id="oracle"),
            pytest.param(lambda: [random_cubic_k4free(16, 7016)], id="cubic16"),
            pytest.param(lambda: [random_cubic_k4free(20, 7020)], id="cubic20"),
        ],
    )
    def test_mask_test_matches_oracle_on_every_union(self, graphs_under_test):
        verdicts = Counter()
        for g in graphs_under_test():
            for part in components(g.adj):
                seen = set()
                for a in enumerate_mis(g, part).sets:
                    for b in enumerate_mis(g, part & ~a).sets:
                        if a | b in seen:
                            continue
                        seen.add(a | b)
                        verdict = _is_maximal_union(g, a, b, part)
                        assert verdict == is_maximal_induced_bipartite(g, a | b, part)
                        verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

class TestClosedForms:
    """Counts above the 20-vertex subset-scan cap."""

    def test_cycles(self):
        # An even cycle is bipartite; an odd one loses any single vertex.
        for n in range(3, 22):
            assert mibs_counts(cycle_graph(n)).mibs == (n if n % 2 else 1)

    def test_triangle_chains(self):
        # Each set drops one vertex of every triangle and keeps an edge of
        # it, so both sides of each witness hold one vertex per triangle.
        for t in range(1, 8):
            counts = mibs_counts(triangle_chain(t))
            assert counts.mibs == 3**t
            assert [k for k, _ in counts.a_size_histogram] == [t]
