"""Maximal induced bipartite subgraphs: oracle agreement and identities."""

import random

from hypothesis import given, settings

from misbench.corpus import oracle_graphs
from misbench.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_bipartite_induced,
    mask_of,
    path_graph,
)
from misbench.mibs import (
    MibsCounts,
    enumerate_mibs,
    enumerate_mibs_bruteforce,
    is_maximal_induced_bipartite,
    k4_component_identity_check,
    mibs_counts,
)
from misbench.misenum import enumerate_mis_bruteforce

from test_graphs import random_graph_strategy, random_union, record_graph_builds


def census_counts(census):
    """The four numbers ``mibs_counts`` computes, read off a full census."""
    return MibsCounts(
        census.distinct_count,
        census.ordered_pair_count,
        census.nonmaximal_candidates,
        tuple(sorted(census.a_size_histogram().items())),
    )


class TestKnownCounts:
    def test_k4(self):
        census = enumerate_mibs(complete_graph(4))
        # The six edges of K4 are its maximal induced bipartite subgraphs;
        # each arises from two ordered singleton pairs.
        assert census.distinct_count == 6
        assert census.ordered_pair_count == 12
        assert all(rec.vertices.bit_count() == 2 for rec in census.records)

    def test_k3(self):
        census = enumerate_mibs(complete_graph(3))
        assert census.distinct_count == 3
        assert census.ordered_pair_count == 6

    def test_c5(self):
        census = enumerate_mibs(cycle_graph(5))
        # Dropping any one vertex of the 5-cycle leaves an induced P4.
        assert census.distinct_count == 5
        assert census.ordered_pair_count == 10
        assert all(rec.vertices.bit_count() == 4 for rec in census.records)

    def test_bipartite_graph_is_its_own_unique_record(self):
        for g in (path_graph(5), cycle_graph(6), empty_graph(4)):
            census = enumerate_mibs(g)
            assert census.distinct_count == 1
            assert census.records[0].vertices == g.full_mask

    def test_order_zero(self):
        census = enumerate_mibs(empty_graph(0))
        assert census.distinct_count == 1 and census.records[0].vertices == 0


class TestWitnesses:
    def test_normalization(self):
        census = enumerate_mibs(complete_graph(4))
        for rec in census.records:
            for a, b in rec.witnesses:
                assert a.bit_count() >= b.bit_count()
                if a.bit_count() == b.bit_count():
                    assert a <= b
                assert a | b == rec.vertices
                assert a & b == 0

    def test_witness_sides_partition_validly(self):
        g = cycle_graph(6)
        census = enumerate_mibs(g)
        (rec,) = census.records
        for a, b in rec.witnesses:
            assert is_bipartite_induced(g, a | b)


class TestOracleAgreement:
    def test_seeded_corpus(self):
        for g in oracle_graphs(60, max_n=9):
            brute = enumerate_mibs_bruteforce(g)
            fast = enumerate_mibs(g)
            assert [r.vertices for r in brute.records] == [r.vertices for r in fast.records]

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_generator_matches_subset_scan(self, g):
        brute = enumerate_mibs_bruteforce(g)
        fast = enumerate_mibs(g)
        assert [r.vertices for r in brute.records] == [r.vertices for r in fast.records]

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_records_are_maximal(self, g):
        for rec in enumerate_mibs(g).records:
            assert is_maximal_induced_bipartite(g, rec.vertices)


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
        expected = census_counts(enumerate_mibs(g))
        built = record_graph_builds(monkeypatch)
        assert mibs_counts(g) == expected
        assert built == []


class TestComponentIdentity:
    def test_k4_plus_k3(self):
        g = disjoint_union(complete_graph(4), complete_graph(3))
        report = k4_component_identity_check(g)
        assert report["mibs"] == 18
        assert report["mibs_without_k4"] == 3
        assert report["identity_holds"]
        assert report["meet_counts_all_two"]

    def test_two_k4(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        report = k4_component_identity_check(g)
        assert report["mibs"] == 36
        assert report["identity_holds"]

    def test_k4_plus_path(self):
        g = disjoint_union(complete_graph(4), path_graph(3))
        report = k4_component_identity_check(g)
        assert report["mibs"] == 6
        assert report["identity_holds"]

    def test_k4_plus_diamond(self):
        diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
        g = disjoint_union(complete_graph(4), diamond)
        report = k4_component_identity_check(g)
        assert report["identity_holds"]
        assert report["meet_counts_all_two"]


class TestFactorizedCounts:
    def test_unions_match_census(self):
        # Unions of 1..4 parts (isolated vertices, edges, K4s, random graphs)
        # on at most 14 vertices, relabeled: every field of the product over
        # components equals the flat census, histogram included; the
        # distinct and ordered counts also equal the subset scans.
        rng = random.Random(47)
        for g in [empty_graph(0)] + [random_union(rng) for _ in range(200)]:
            counts = mibs_counts(g)
            assert counts == census_counts(enumerate_mibs(g))
            assert counts.mibs == enumerate_mibs_bruteforce(g).distinct_count
            pairs = 0
            for a in enumerate_mis_bruteforce(g).sets:
                rest, _ = induced_subgraph(g, g.full_mask & ~a)
                pairs += enumerate_mis_bruteforce(rest).count
            assert counts.ordered_pairs == pairs

    def test_unequal_sides_and_nonmaximal_pairs(self):
        # P3 splits 2 + 1 either way round, K1 splits 1 + 0 only, and P4 has
        # pairs whose union is not maximal: their union has witnesses with
        # |A| = 4 and |A| = 5, and nonmaximal pairs.
        g = disjoint_union(disjoint_union(path_graph(3), empty_graph(1)), path_graph(4))
        assert mibs_counts(g) == MibsCounts(1, 8, 4, ((4, 2), (5, 2)))
        assert mibs_counts(g) == census_counts(enumerate_mibs(g))
