"""Bitmask graph core: construction, invariants, structure predicates."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misbench.graphs import (
    MAX_VERTICES,
    Graph,
    GuardError,
    components,
    from_edges,
    is_clique,
    is_k4_free,
    is_maximal_independent,
    iter_bits,
    k4_witness,
    mask_of,
    max_degree,
)

from fixtures import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_count,
    edges,
    empty_graph,
    induced_subgraph,
    path_graph,
    random_graph_strategy,
    relabel,
)
from oracles import validate_table


class TestConstruction:
    def test_empty(self):
        g = empty_graph(5)
        assert g.n == 5 and edge_count(g) == 0 and g.full_mask == 31

    def test_complete(self):
        g = complete_graph(4)
        assert edge_count(g) == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_order_zero(self):
        g = empty_graph(0)
        assert g.full_mask == 0 and edges(g) == []

    def test_order_cap(self):
        assert complete_graph(64).n == 64
        with pytest.raises(GuardError):
            Graph(tuple([0] * 65))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph((1, 2))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph((2, 0))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph((4, 0))

    @pytest.mark.parametrize(
        "adj, message",
        [
            ((2, 1, 8), "vertex 2 has neighbors outside 0..2"),
            ((2, 1, 4), "loop at vertex 2"),
            ((0b1000, 0b0100, 0b0000, 0b0001), "asymmetric edge 1-2"),
            # Every row is checked for range and loops before any symmetry.
            ((2, 0, 4), "loop at vertex 2"),
            ((2, 0, 8), "vertex 2 has neighbors outside 0..2"),
        ],
    )
    def test_error_messages(self, adj, message):
        with pytest.raises(ValueError) as info:
            Graph(adj)
        assert str(info.value) == message

    def test_from_edges_dedupes(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert edge_count(g) == 1

    def test_cycle_path(self):
        assert edge_count(cycle_graph(5)) == 5
        assert edge_count(path_graph(5)) == 4
        assert max_degree(path_graph(2)) == 1


@st.composite
def near_tables(draw):
    """Adjacency tables of orders 0-64, half of them 63 or 64: a random
    symmetric table with up to three faults, each a flipped bit off the
    diagonal, a loop, a bit at position n or a negative row."""
    n = draw(st.one_of(st.sampled_from((63, 64)), st.integers(0, MAX_VERTICES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = rng.random()
    adj = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    faults = draw(st.lists(st.sampled_from(("flip", "loop", "bit n", "negative")), max_size=3))
    for fault in faults if n else ():
        v = rng.randrange(n)
        if fault == "flip":
            adj[v] ^= 1 << rng.choice([u for u in range(n) if u != v] or [n])
        elif fault == "loop":
            adj[v] |= 1 << v
        elif fault == "bit n":
            adj[v] |= 1 << n
        else:
            adj[v] = ~adj[v]
    return tuple(adj)


def build_outcome(build, adj):
    try:
        return build(adj)
    except (GuardError, ValueError) as exc:
        return type(exc), str(exc)


class TestValidatorReference:
    """Graph's whole-table checks against the per-edge reference validator."""

    @settings(max_examples=300, deadline=None)
    @given(near_tables())
    # Two one-way entries: the lowest, (0, 1), is named, not (0, 2) or (63, 0).
    @example((0b110, 0, 0))
    @example((1 << 63 | 2,) + (0,) * 63)
    # A loop in a later row than a one-way entry is still named first.
    @example((0b010, 0, 0b100))
    def test_same_table_or_same_error(self, adj):
        expected = build_outcome(validate_table, adj)
        got = build_outcome(Graph, adj)
        if expected is None:
            assert isinstance(got, Graph) and got.adj == adj
        else:
            assert got == expected


class TestStructure:
    def test_components(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        comps = components(g.adj)
        assert sorted(c.bit_count() for c in comps) == [2, 3]

    def test_k4_witness(self):
        assert k4_witness(complete_graph(4)) == 15
        assert k4_witness(complete_graph(3)) is None
        assert is_k4_free(cycle_graph(6))
        g = disjoint_union(cycle_graph(5), complete_graph(4))
        w = k4_witness(g)
        assert w is not None and w.bit_count() == 4 and is_clique(g, w)

    def test_independence(self):
        c5 = cycle_graph(5)
        assert is_maximal_independent(c5, mask_of((0, 2)))
        assert not is_maximal_independent(c5, mask_of((0,)))

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, keep = induced_subgraph(g, mask_of((0, 1, 3)))
        assert sub.n == 3 and keep == [0, 1, 3]
        assert edge_count(sub) == 1  # only the 0-1 edge survives

    def test_relabel_preserves_edges(self):
        g = path_graph(4)
        h = relabel(g, [3, 2, 1, 0])
        assert edge_count(h) == edge_count(g)
        assert h.has_edge(3, 2) and h.has_edge(1, 0)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_components_partition(self, g):
        comps = components(g.adj)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == g.full_mask

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy(), st.integers(min_value=0, max_value=511))
    def test_components_within_match_the_induced_copy(self, g, raw_mask):
        mask = raw_mask & g.full_mask
        sub, keep = induced_subgraph(g, mask)
        expected = [mask_of(keep[v] for v in iter_bits(c)) for c in components(sub.adj)]
        assert components(g.adj, mask) == expected

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
