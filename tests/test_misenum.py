"""Maximal-independent-set enumeration, cross-validated against an oracle.

The subset scan ``oracles.mis_scan`` is the oracle; the pivoting search
must agree with it exactly (same masks, not just counts) on every corpus
graph.  Past its cap, the counter behind ``mis_profile`` and the listing
search behind ``mis_sets`` check each other, and closed forms and a
transfer matrix check both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbench import misenum
from misbench.corpus import (
    diamond_union,
    oracle_graphs,
    pipeline_instances,
    random_cubic_k4free,
    random_graph,
)
from misbench.graphs import GuardError, from_edges, is_maximal_independent, iter_bits
from misbench.misenum import convolve, min_mis, mis_of_size, mis_profile, mis_sets

from fixtures import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    edges,
    empty_graph,
    induced_subgraph,
    mobius_ladder,
    path_graph,
    prism_graph,
    random_graph_strategy,
    random_union,
    record_graph_builds,
    triangle_chain,
)
from oracles import ladder_profile, mis_scan, size_counts


class TestKnownProfiles:
    """Hand-countable families."""

    def test_k4(self):
        assert len(mis_sets(complete_graph(4))) == 4
        assert list(mis_profile(complete_graph(4))) == [0, 4, 0, 0, 0]

    def test_c5(self):
        # C5: the five edges... every maximal independent set is a
        # non-adjacent pair, and there are exactly 5 of them.
        assert list(mis_profile(cycle_graph(5))) == [0, 0, 5, 0, 0, 0]

    def test_diamond(self):
        # K4 minus an edge: two singleton sets (the degree-3 vertices)
        # and one pair (the degree-2 vertices).
        g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
        assert list(mis_profile(g)) == [0, 2, 1, 0, 0]

    def test_empty_graph(self):
        assert mis_sets(empty_graph(4)) == [15]

    def test_order_zero(self):
        assert mis_sets(empty_graph(0)) == [0]
        assert mis_profile(empty_graph(0)) == (1,)

    def test_path4(self):
        # P4 maximal independent sets: {0,2}, {0,3}, {1,3}, and nothing else.
        assert len(mis_sets(path_graph(4))) == 3
        assert list(mis_profile(path_graph(4))) == [0, 0, 3, 0, 0]

    def test_triangle_powers(self):
        g = complete_graph(3)
        for _ in range(3):
            sets = mis_sets(g)
            assert len(sets) == 3 ** (g.n // 3)
            assert all(m.bit_count() == g.n // 3 for m in sets)
            g = disjoint_union(g, complete_graph(3))


class TestAgreement:
    def test_oracle_corpus_small(self):
        for g in oracle_graphs(120, max_n=10):
            assert mis_sets(g) == mis_scan(g)

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=9))
    def test_pivot_matches_bruteforce(self, g):
        sets = mis_sets(g)
        assert sets == mis_scan(g)
        assert min_mis(sets) == tuple_key_min(sets)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_every_output_is_maximal_independent(self, g):
        for m in mis_sets(g):
            assert is_maximal_independent(g, m)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=8))
    def test_no_duplicates(self, g):
        sets = mis_sets(g)
        assert len(set(sets)) == len(sets)


class TestWithinMask:
    """mis_sets(g, within) is the enumeration of the induced copy, in g's labels."""

    def test_matches_induced_copy(self):
        rng = random.Random(53)
        graphs = oracle_graphs(80, max_n=14) + [random_union(rng) for _ in range(80)]
        for g in graphs:
            for within in (0, g.full_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
                copy, labels = induced_subgraph(g, within)
                mapped = [sum(1 << labels[v] for v in iter_bits(mask)) for mask in mis_sets(copy)]
                assert mis_sets(g, within) == mapped


class TestProfileAlgebra:
    def test_disjoint_union_convolution(self):
        a, b = cycle_graph(5), path_graph(4)
        pa, pb = mis_profile(a), mis_profile(b)
        direct = mis_profile(disjoint_union(a, b))
        assert convolve(pa, pb) == direct

    def test_factorized_profile_matches_enumeration(self):
        # Unions of 1..4 parts on at most 14 vertices, and the empty graph:
        # the product over components equals the flat enumeration and the
        # subset scan.
        rng = random.Random(41)
        for g in [empty_graph(0)] + [random_union(rng) for _ in range(200)]:
            profile = mis_profile(g)
            assert profile == size_counts(g.n, mis_sets(g))
            assert profile == size_counts(g.n, mis_scan(g))

    def test_factorized_profile_up_to_twenty_vertices(self):
        rng = random.Random(43)
        for _ in range(3):
            g = empty_graph(0)
            while g.n < 16:
                g = random_union(rng, max_n=20, max_parts=8)
            assert mis_profile(g) == size_counts(g.n, mis_scan(g))

    def test_profile_builds_no_graph(self, monkeypatch):
        # The components are enumerated as masks of the union itself.
        g = disjoint_union(disjoint_union(cycle_graph(5), complete_graph(4)), path_graph(3))
        expected = size_counts(g.n, mis_scan(g))
        built = record_graph_builds(monkeypatch)
        assert mis_profile(g) == expected
        assert built == []

    def test_at_most_monotone(self):
        p = mis_profile(cycle_graph(7))
        values = [sum(p[: k + 1]) for k in range(8)]
        assert values == sorted(values)
        assert values[-1] == sum(p)

    def test_getitem(self):
        # A profile is a plain tuple: entry k counts the sets of size k.
        p = mis_profile(from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]))  # diamond
        assert type(p) is tuple
        assert p[1] == 2 and sum(p) == 3 and sum(p[:2]) == 2
        assert convolve(p, (0, 1)) == (0, 0, 2, 1, 0, 0)


class TestCounterAgainstListing:
    """mis_profile counts with ``_count_sizes`` and mis_sets lists with
    ``_sets_between``, two searches sharing no code, so past the
    subset-scan cap each checks the other.  Below it, the counter also
    runs on arbitrary masks against the subset scan."""

    def test_connected_cubic_graphs(self):
        # 508, 5,187 and 35,577 sets, each graph one component.
        for n in (24, 32, 40):
            g = random_cubic_k4free(n, 7000 + n)
            assert mis_profile(g) == size_counts(g.n, mis_sets(g)), n

    def test_random_graphs_on_thirty_vertices(self):
        for p in (0.05, 0.1, 0.2, 0.3, 0.45):
            g = random_graph(30, p, random.Random(int(100 * p)))
            assert mis_profile(g) == size_counts(g.n, mis_sets(g)), p

    def test_exact_windows_past_the_scan_cap(self):
        # mis_of_size(g, k) is the window the pipeline lists for a given
        # root set; past the subset-scan cap the counter is its only
        # independent check, at every size whose sets the window may hold.
        graphs = [random_cubic_k4free(n, 7000 + n) for n in (24, 32, 40)]
        graphs += [random_graph(30, p, random.Random(int(100 * p))) for p in (0.05, 0.1, 0.2, 0.3, 0.45)]
        for g in graphs:
            for k, count in enumerate(mis_profile(g)):
                if count <= misenum.MIS_OF_SIZE_CAP:
                    assert len(mis_of_size(g, k)[1]) == count, (g.n, k)

    def test_within_masks(self):
        # The counter on any mask of g, connected or not, the empty one too.
        rng = random.Random(61)
        for g in [empty_graph(0), empty_graph(3), *oracle_graphs(80, max_n=14)]:
            closed = misenum.closed_table(g)
            for within in (0, g.full_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
                counts = misenum._count_sizes(closed, within)
                assert tuple(counts) == size_counts(within.bit_count(), mis_scan(g, within))


# Totals of the prisms C_m x K2 (m = 4..12) and the Moebius ladders on 2m
# vertices (m = 3..12), pinned so that the counter and the transfer matrix
# cannot both drift.
PRISM_TOTALS = dict(zip(range(4, 13), (6, 10, 20, 28, 46, 78, 122, 198, 324)))
MOBIUS_TOTALS = dict(zip(range(3, 13), (2, 8, 12, 16, 30, 48, 74, 124, 200, 320)))


class TestLadders:
    """Prisms and Moebius ladders: connected, cubic and K4-free, so the
    component product cannot make them easy.  Their per-size counts come
    from the transfer matrix ``oracles.ladder_profile``, which the subset
    scan checks first, to 40 vertices."""

    LADDERS = ((prism_graph, False), (mobius_ladder, True))

    def test_transfer_matrix_matches_the_subset_scan(self):
        for build, twisted in self.LADDERS:
            for m in range(3, 9):
                assert ladder_profile(m, twisted) == size_counts(2 * m, mis_scan(build(m))), m

    def test_totals(self):
        for m, total in PRISM_TOTALS.items():
            assert sum(mis_profile(prism_graph(m))) == sum(ladder_profile(m)) == total, m
        for m, total in MOBIUS_TOTALS.items():
            assert sum(mis_profile(mobius_ladder(m))) == sum(ladder_profile(m, True)) == total, m

    def test_profiles_to_forty_vertices(self):
        for build, twisted in self.LADDERS:
            for m in range(3, 21):
                g = build(m)
                profile = ladder_profile(m, twisted)
                assert mis_profile(g) == profile, m
                k, sets = mis_of_size(g)
                assert profile[k] == len(sets) and not any(profile[:k]), m


def tuple_key_min(sets):
    """Oracle of min_mis: the smallest set by size, then by sorted vertex tuple."""
    return min(sets, key=lambda mask: (mask.bit_count(), tuple(iter_bits(mask))))


def assert_size_search_matches(g):
    """mis_of_size equals the size-k slice of the pivoting enumeration for
    every k in 0..n, and with k None gives the minimum size's slice;
    min_mis picks the tuple-key minimum of the family and of each slice."""
    sets = mis_sets(g)
    assert min_mis(sets) == tuple_key_min(sets)
    for k in range(g.n + 1):
        expected = [m for m in sets if m.bit_count() == k]
        assert mis_of_size(g, k) == (k, expected)
        if expected:
            assert min_mis(expected) == tuple_key_min(expected)
    k_min = min(m.bit_count() for m in sets)
    assert mis_of_size(g) == (k_min, [m for m in sets if m.bit_count() == k_min])


class TestMisOfSize:
    def test_empty_graphs(self):
        for n in (0, 1, 6):
            assert_size_search_matches(empty_graph(n))
        assert mis_of_size(empty_graph(0)) == (0, [0])

    def test_oracle_corpus_to_twenty_vertices(self):
        for g in oracle_graphs(200, max_n=20):
            assert_size_search_matches(g)

    def test_random_unions(self):
        rng = random.Random(47)
        for _ in range(150):
            assert_size_search_matches(random_union(rng, max_n=20, max_parts=6))

    def test_diamond_unions(self):
        for t in range(1, 6):
            g = diamond_union(t)
            assert_size_search_matches(g)
            assert len(mis_of_size(g)[1]) == 2**t

    def test_acceptance_corpus(self):
        # The 100 cubic instances of the pipeline acceptance test; their
        # roots are the enumeration's minimum sets.
        for g, i0 in pipeline_instances(100):
            assert_size_search_matches(g)
            assert i0 == min_mis(mis_sets(g))

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=9))
    def test_arbitrary_graphs(self, g):
        assert_size_search_matches(g)

    def test_largest_size_on_a_union_of_irregular_graphs(self):
        # Two cubic K4-free graphs on 24 vertices, each less a tenth of its
        # edges.  The union has about 4*10^5 maximal independent sets, so
        # the oracle pairs the sets of the two parts.  At the largest size
        # the search is cut by the upper bound |R| + |P| on a completion.
        rng = random.Random(3)
        parts = []
        for _ in range(2):
            kept = edges(random_cubic_k4free(24, rng.randrange(1 << 30)))
            for _ in range(4):
                kept.pop(rng.randrange(len(kept)))
            parts.append(from_edges(24, kept))
        g = disjoint_union(*parts)
        first, second = (mis_sets(part) for part in parts)
        k = max(first, key=int.bit_count).bit_count() + max(second, key=int.bit_count).bit_count()
        expected = sorted(
            a | b << 24 for a in first for b in second if a.bit_count() + b.bit_count() == k
        )
        assert expected
        assert mis_of_size(g, k) == (k, expected)

    def test_large_cubic_graphs(self):
        # The orders of the largest pipeline inputs, 5,187 to 87,313
        # maximal independent sets each.
        for n in (32, 36, 40, 44):
            g = random_cubic_k4free(n, 7000 + n)
            sets = mis_sets(g)
            k = min(map(int.bit_count, sets))
            assert mis_of_size(g) == (k, [m for m in sets if m.bit_count() == k])

    def test_guard_on_one_component(self, monkeypatch):
        # A triangle chain with F(12) = 144 sets of size 5 between a
        # triangle and a lone vertex: 432 sets of size 7 in all.
        g = disjoint_union(disjoint_union(complete_graph(3), triangle_chain(5)), empty_graph(1))
        monkeypatch.setattr(misenum, "MIS_OF_SIZE_CAP", 432)
        assert mis_of_size(g) == (7, [m for m in mis_sets(g) if m.bit_count() == 7])
        for cap in (431, 143):
            monkeypatch.setattr(misenum, "MIS_OF_SIZE_CAP", cap)
            with pytest.raises(GuardError, match=f"more than {cap} maximal independent sets of size 7"):
                mis_of_size(g)

    def test_guard_counts_sets_of_one_size(self, monkeypatch):
        g = empty_graph(0)
        for _ in range(3):
            g = disjoint_union(g, complete_graph(3))
        monkeypatch.setattr(misenum, "MIS_OF_SIZE_CAP", 27)
        assert len(mis_of_size(g)[1]) == 27
        monkeypatch.setattr(misenum, "MIS_OF_SIZE_CAP", 26)
        with pytest.raises(GuardError, match="more than 26 maximal independent sets of size 3"):
            mis_of_size(g)
        with pytest.raises(GuardError):
            mis_of_size(g, 3)
        assert mis_of_size(g, 2) == (2, [])


class TestTriangleChains:
    """An oracle above the subset-scan cap: every maximal independent set of
    a triangle chain takes one vertex per triangle, not both ends of a
    joining edge, so there are F(2t + 2) of them, all of size t."""

    def test_counts_are_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 23:
            fib.append(fib[-1] + fib[-2])
        for t in range(1, 11):
            g = triangle_chain(t)
            sets = mis_sets(g)
            assert len(sets) == fib[2 * t + 2]
            assert {m.bit_count() for m in sets} == {t}
            assert mis_of_size(g) == (t, sets)
            assert mis_of_size(g, t - 1) == (t - 1, [])
            assert min_mis(sets) == tuple_key_min(sets)


def gap_recurrence(first: dict[int, tuple[int, ...]], stop: int) -> dict[int, tuple[int, ...]]:
    """a_n(x) = x * (a_{n-2}(x) + a_{n-3}(x)) for n up to stop, from the
    three lowest a_n in ``first``; a_n is its coefficient tuple, index k
    the coefficient of x^k, padded with zeros to length n + 1."""
    a = {n: poly + (0,) * (n + 1 - len(poly)) for n, poly in first.items()}
    for n in range(min(first) + 3, stop + 1):
        a[n] = (0,) + tuple(u + v for u, v in zip(a[n - 2] + (0,), a[n - 3] + (0, 0)))
    return a


# Per-size counts of P_n and C_n; TestCycleAndPathProfiles derives them.
PATH_PROFILES = gap_recurrence({0: (1,), 1: (0, 1), 2: (0, 2)}, 40)
CYCLE_PROFILES = gap_recurrence({3: (0, 3), 4: (0, 0, 2), 5: (0, 0, 5)}, 40)


class TestCycleAndPathTotals:
    """Closed forms past the subset-scan cap, sharing no code with misenum.

    A maximal independent set of a path skips one or two vertices between
    consecutive members, and also at each end one vertex at most; on a
    cycle the gaps go all the way round.  So the totals, the per-size
    forms at x = 1, follow a(n) = a(n - 2) + a(n - 3): for C_n the Perrin numbers from
    P(3), P(4), P(5) = 3, 2, 5 (OEIS A001608), for P_n the Padovan numbers
    from 1, 2, 2 (OEIS A000931, shifted).  Both are first checked against
    the subset scan, where it applies.
    """

    PERRIN = {n: sum(c) for n, c in CYCLE_PROFILES.items()}
    PADOVAN = {n: sum(p) for n, p in PATH_PROFILES.items()}

    def test_recurrences_match_the_subset_scan(self):
        for n in range(3, 15):
            assert len(mis_scan(cycle_graph(n))) == self.PERRIN[n]
        for n in range(1, 15):
            assert len(mis_scan(path_graph(n))) == self.PADOVAN[n]

    def test_cycles_are_perrin(self):
        for n in range(3, 41):
            assert sum(mis_profile(cycle_graph(n))) == self.PERRIN[n], n

    def test_paths_are_padovan(self):
        for n in range(1, 41):
            assert sum(mis_profile(path_graph(n))) == self.PADOVAN[n], n


class TestCycleAndPathProfiles:
    """The per-size counts behind the totals above, past the subset-scan cap.

    On P_n (vertices 0..n-1) the last member of a maximal independent set
    is n - 1 or n - 2, as n - 1 must be dominated; deleting it, the vertex
    after it (if any) and the one before it leaves a maximal independent
    set of P_{n-2} or of P_{n-3}, one for one.  So p_n(x) = x * (p_{n-2}(x)
    + p_{n-3}(x)), with p_0 = 1, p_1 = x and p_2 = 2x.  On C_n the same
    recurrence holds from n = 6, with c_3 = 3x, c_4 = 2x^2 and
    c_5 = 5x^2; the subset scan checks both forms first.  A counter that
    puts a set at the wrong size keeps every total; it fails these.
    """

    def test_forms_match_the_subset_scan(self):
        for n in range(0, 15):
            assert size_counts(n, mis_scan(path_graph(n))) == PATH_PROFILES[n], n
        for n in range(3, 15):
            assert size_counts(n, mis_scan(cycle_graph(n))) == CYCLE_PROFILES[n], n

    def test_forms_match_mis_profile(self):
        for n in range(0, 41):
            assert mis_profile(path_graph(n)) == PATH_PROFILES[n], n
        for n in range(3, 41):
            assert mis_profile(cycle_graph(n)) == CYCLE_PROFILES[n], n

    def test_forms_match_mis_of_size_at_every_size(self):
        for forms, build, lo in ((PATH_PROFILES, path_graph, 0), (CYCLE_PROFILES, cycle_graph, 3)):
            for n in range(lo, 25):
                g = build(n)
                for k in range(n + 1):
                    size, sets = mis_of_size(g, k)
                    assert size == k and len(sets) == forms[n][k], (n, k)
                    assert all(m.bit_count() == k for m in sets)


def window_slices(g, within, brute):
    """Every window lo <= hi of g[within]: what _sets_between emits, and the
    slice of the oracle's sets (masks of g, sorted)."""
    closed = misenum.closed_table(g)
    for lo in range(within.bit_count() + 1):
        for hi in range(lo, within.bit_count() + 1):
            out = []
            misenum._sets_between(closed, within, lo, hi, out.append)
            yield sorted(out), [m for m in brute if lo <= m.bit_count() <= hi]


class TestWindows:
    """_sets_between over each size window lo..hi emits exactly the subset
    scan's sets of those sizes, each once.  Windows with lo < hi reach the
    one-short completion at sizes above lo."""

    def test_oracle_corpus_to_twelve_vertices(self):
        for g in [empty_graph(0), empty_graph(5), *oracle_graphs(120, max_n=12)]:
            for emitted, expected in window_slices(g, g.full_mask, mis_scan(g)):
                assert emitted == expected

    def test_triangle_chains(self):
        for t in range(1, 6):
            g = triangle_chain(t)
            for emitted, expected in window_slices(g, g.full_mask, mis_scan(g)):
                assert emitted == expected

    def test_within_masks(self):
        rng = random.Random(59)
        for g in oracle_graphs(60, max_n=12):
            within = rng.getrandbits(g.n)
            for emitted, expected in window_slices(g, within, mis_scan(g, within)):
                assert emitted == expected

    def test_guard_message_on_21_triangles(self):
        g = empty_graph(0)
        for _ in range(21):
            g = disjoint_union(g, complete_graph(3))
        message = "more than 131072 maximal independent sets of size 21"
        with pytest.raises(GuardError) as err:
            mis_of_size(g)
        assert str(err.value) == message
        with pytest.raises(GuardError) as err:
            mis_of_size(g, 21)
        assert str(err.value) == message


class TestMinMis:
    def test_smallest_size_then_smallest_vertex_tuple(self):
        for g in [empty_graph(0), empty_graph(3), *oracle_graphs(120, max_n=10)]:
            sets = mis_sets(g)
            assert min_mis(sets) == tuple_key_min(sets)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=12))
    def test_any_masks_in_any_order(self, masks):
        # Not only families: any masks, with repeats and equal sizes.
        assert min_mis(masks) == tuple_key_min(masks)
        assert min_mis(reversed(masks)) == tuple_key_min(masks)

    def test_no_sets(self):
        with pytest.raises(ValueError):
            min_mis([])

    def test_tie_break_reads_vertices_not_mask_value(self):
        # The 4-cycle 0-1-3-2 has two maximal independent sets: {0, 3}
        # (mask 9) and {1, 2} (mask 6).  (0, 3) < (1, 2) as vertex tuples.
        g = from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
        assert min_mis(mis_sets(g)) == 0b1001


class TestGuards:
    def test_bruteforce_cap(self):
        with pytest.raises(GuardError):
            mis_scan(empty_graph(21))
