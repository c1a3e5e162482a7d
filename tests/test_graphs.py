"""Bitmask graph core: construction, invariants, structure predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbench.graphs import (
    Graph,
    GuardError,
    bipartition,
    complement,
    complete_graph,
    components,
    cycle_graph,
    degree_histogram,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_bipartite_induced,
    is_clique,
    is_independent,
    is_k4_free,
    is_maximal_independent,
    iter_bits,
    k4_witness,
    mask_of,
    max_degree,
    path_graph,
    relabel,
)


def random_graph_strategy(max_n=9):
    """Hypothesis strategy producing arbitrary simple graphs up to max_n."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.booleans()):
                    edges.append((u, v))
        return from_edges(n, edges)

    return build()


def record_graph_builds(monkeypatch):
    """A list that gets the order of every validated Graph built from now on."""
    built = []
    check = Graph.__post_init__

    def counted(self):
        built.append(self.n)
        check(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    return built


def random_union(rng, max_n=14, max_parts=4):
    """Seeded disjoint union of 1..max_parts parts, relabeled at random.

    A part is an isolated vertex, an edge, a 4-clique or a random graph
    on 2..6 vertices (itself possibly disconnected); a part that would
    take the order above max_n is skipped.
    """
    g = empty_graph(0)
    for _ in range(rng.randint(1, max_parts)):
        kind = rng.randrange(4)
        if kind < 3:
            part = complete_graph((1, 2, 4)[kind])
        else:
            n, p = rng.randint(2, 6), rng.random()
            part = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if g.n + part.n <= max_n:
            g = disjoint_union(g, part)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


class TestConstruction:
    def test_empty(self):
        g = empty_graph(5)
        assert g.n == 5 and g.edge_count() == 0 and g.full_mask == 31

    def test_complete(self):
        g = complete_graph(4)
        assert g.edge_count() == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_order_zero(self):
        g = empty_graph(0)
        assert g.full_mask == 0 and g.edges() == []

    def test_order_cap(self):
        assert complete_graph(64).n == 64
        with pytest.raises(GuardError):
            Graph(65, tuple([0] * 65))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 2))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (4, 0))

    def test_from_edges_dedupes(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_cycle_path(self):
        assert cycle_graph(5).edge_count() == 5
        assert path_graph(5).edge_count() == 4
        assert max_degree(path_graph(2)) == 1


class TestStructure:
    def test_components(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        comps = components(g)
        assert sorted(c.bit_count() for c in comps) == [2, 3]

    def test_degree_histogram(self):
        assert degree_histogram(cycle_graph(4)) == [0, 0, 4, 0]
        assert degree_histogram(path_graph(3)) == [0, 2, 1]

    def test_k4_witness(self):
        assert k4_witness(complete_graph(4)) == 15
        assert k4_witness(complete_graph(3)) is None
        assert is_k4_free(cycle_graph(6))
        g = disjoint_union(cycle_graph(5), complete_graph(4))
        w = k4_witness(g)
        assert w is not None and w.bit_count() == 4 and is_clique(g, w)

    def test_independence(self):
        c5 = cycle_graph(5)
        assert is_independent(c5, mask_of((0, 2)))
        assert not is_independent(c5, mask_of((0, 1)))
        assert is_maximal_independent(c5, mask_of((0, 2)))
        assert not is_maximal_independent(c5, mask_of((0,)))

    def test_bipartition(self):
        c4 = cycle_graph(4)
        sides = bipartition(c4, c4.full_mask)
        assert sides is not None
        s0, s1 = sides
        assert s0 | s1 == 15 and s0 & s1 == 0
        assert bipartition(cycle_graph(5), 31) is None
        assert is_bipartite_induced(cycle_graph(5), mask_of((0, 1, 2, 3)))

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, keep = induced_subgraph(g, mask_of((0, 1, 3)))
        assert sub.n == 3 and keep == [0, 1, 3]
        assert sub.edge_count() == 1  # only the 0-1 edge survives

    def test_relabel_preserves_edges(self):
        g = path_graph(4)
        h = relabel(g, [3, 2, 1, 0])
        assert h.edge_count() == g.edge_count()
        assert h.has_edge(3, 2) and h.has_edge(1, 0)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_edge_count_vs_complement(self, g):
        assert g.edge_count() + complement(g).edge_count() == g.n * (g.n - 1) // 2

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_components_partition(self, g):
        comps = components(g)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == g.full_mask

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(), st.integers(min_value=0, max_value=511))
    def test_induced_degree_le_original(self, g, raw_mask):
        mask = raw_mask & g.full_mask
        sub, keep = induced_subgraph(g, mask)
        for local, orig in enumerate(keep):
            assert sub.degree(local) <= g.degree(orig)

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []
