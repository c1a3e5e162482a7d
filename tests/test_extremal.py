"""Canonical forms, exhaustive class generation, and bound scans."""

import hashlib
import itertools
import multiprocessing
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbench import extremal
from misbench.bounds import eppstein, nielsen
from misbench.extremal import (
    FILTERS,
    canonical_key,
    generate_all,
    is_clique_union,
    lower_twins,
    tightness_scan,
    verify_equality_scan,
    vertex_invariants,
)
from misbench.graphio import from_columns, to_graph6
from misbench.graphs import Graph, components, from_edges, is_k4_free, iter_bits, max_degree
from misbench.mibs import mibs_counts
from misbench.misenum import mis_profile

from fixtures import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_count,
    empty_graph,
    path_graph,
    random_graph_strategy,
    record_graph_builds,
    relabel,
)
from oracles import (
    LABELLED_COUNTS,
    labelled_scan,
    labelled_subcubic,
    labelled_subcubic_k4_free,
    labelled_total,
)

# Unlabeled simple graph counts by order (independent reference sequence).
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

# sha256 of each class list written as graph6 lines, in generation order.
# They pin the canonical form itself, not only the class sets: the key,
# the invariant order that shapes it, and the sorted representatives.
CLASS_LIST_DIGESTS = {
    (7, "none"): "4ff482f1d3f5807b209c70d2c187397994dc7ea3a1505d63ab91572be9dff373",
    (8, "maxdeg3"): "500632179fbc004e3e9da4bc8c9b976c19bed96cafc76fdecd754d25f2367162",
    (8, "both"): "c84b009c91293464ff99a0890e2746e50344d4999c201a6821ec7659f8d163b7",
    (8, "k4free"): "acf348d711a4af7d983eaa847ea84d5decd3f65093caa191bfc9ab886e16c700",
    (8, "none"): "46cf22f499c0d336a903b3e9ae7618f2e04c8280facd144991e016c9b1a6f383",
}

# sha256 of repr(extremal._class_cache[n, f][1]) after generate_all(n, f)
# from an empty cache: every class's generators, in class order.  Each map
# runs from the first leaf the labeller reaches after the last lowering to
# a later one, so the digests fix which leaves the labeller reaches, and in
# what order, not only the keys.
GENERATOR_DIGESTS = {
    (7, "none"): "614a78ee3d8ed699afabbf999297dba7bab03e767722c6b28b7ea2912417bcd2",
    (8, "maxdeg3"): "b1f1d283a8d14335499cdb40189612e3b6820c6cb32890c32c7df23d71e5f423",
    (8, "none"): "7309f8b6f570327f45d378f8a4b402b028efc00aad4d77bb00f5252354c6daf7",
}

# The hereditary filters as predicates on whole graphs: the oracle of the
# mask tests in FILTERS.
GRAPH_FILTERS = {
    "none": lambda g: True,
    "k4free": is_k4_free,
    "maxdeg3": lambda g: max_degree(g) <= 3,
    "both": lambda g: max_degree(g) <= 3 and is_k4_free(g),
}


def extensions(parent: Graph):
    """Every one-vertex extension of ``parent`` as (mask, validated graph)."""
    for mask in range(1 << parent.n):
        rows = [row | 1 << parent.n if mask >> v & 1 else row for v, row in enumerate(parent.adj)]
        yield mask, Graph(tuple(rows) + (mask,))


def full_loop_degree_gate(padj: tuple[int, ...], n: int) -> list[int]:
    """Masks of a new vertex for order n whose vertex reaches the maximum degree.

    The reference loop: every mask of ``range(1 << (n - 1))`` in turn,
    kept when no parent vertex ends above the new vertex's degree d
    (``geq[d]`` holds the parent vertices of degree at least d).
    """
    geq = [0] * (n + 1)
    for v, row in enumerate(padj):
        for d in range(row.bit_count() + 1):
            geq[d] |= 1 << v
    out = []
    for mask in range(1 << (n - 1)):
        d = mask.bit_count()
        if geq[d + 1] or mask & geq[d]:
            continue
        out.append(mask)
    return out


class _TriedGroup:
    """One size group of the mask table that records each mask it hands out."""

    def __init__(self, masks: tuple[int, ...], tried: list[int]) -> None:
        self.masks = masks
        self.tried = tried

    def __iter__(self):
        for mask in self.masks:
            self.tried.append(mask)
            yield mask


def count_keys(monkeypatch) -> list[int]:
    """A one-item list that counts the ``canonical_key`` calls from now on."""
    calls = [0]
    key = extremal.canonical_key

    def counting(adj, invariant=None):
        calls[0] += 1
        return key(adj, invariant)

    monkeypatch.setattr(extremal, "canonical_key", counting)
    return calls


def record_tried_masks(monkeypatch) -> list[int]:
    """A list that gets every mask the generator tries from now on."""
    tried: list[int] = []
    table = extremal._masks_by_size
    monkeypatch.setattr(
        extremal, "_masks_by_size", lambda m: [_TriedGroup(g, tried) for g in table(m)]
    )
    return tried


def transposition(n: int, v: int, w: int) -> list[int]:
    perm = list(range(n))
    perm[v], perm[w] = w, v
    return perm


def is_automorphism(g: Graph, perm: list[int]) -> bool:
    return relabel(g, perm) == g


def moved(mask: int, perm) -> int:
    """The image of a vertex set under ``perm``."""
    return sum(1 << perm[v] for v in iter_bits(mask))


def isomorphisms(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every isomorphism from ``g`` onto ``h`` (perm[v] is the image of v),
    by a search over all n! permutations that drops a partial map as soon
    as it breaks an adjacency."""
    out = []
    perm = [0] * g.n

    def extend(v: int, used: int) -> None:
        if v == g.n:
            out.append(tuple(perm))
            return
        for w in range(g.n):
            if not used >> w & 1 and all(
                (g.adj[v] >> u & 1) == (h.adj[w] >> perm[u] & 1) for u in range(v)
            ):
                perm[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    return out


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    return isomorphisms(g, g)


def check_last_in_orbit(g: Graph, rnd: random.Random) -> None:
    """For each vertex v of ``g``, relabeled to n-1 with the other labels
    shuffled: assert that the third value of ``canonical_key`` tells
    whether n-1 lies in the orbit, under the automorphisms, of the vertex
    placed at the key's position n-1, that is whether some isomorphism
    onto the graph the key rebuilds takes n-1 to n-1."""
    n = g.n
    for v in range(n):
        perm = list(range(n))
        rnd.shuffle(perm)
        w = perm.index(n - 1)
        perm[v], perm[w] = perm[w], perm[v]
        h = relabel(g, perm)
        key, _, last_in_orbit = canonical_key(h.adj)
        rep = from_columns(key)
        assert last_in_orbit == any(iso[-1] == n - 1 for iso in isomorphisms(h, rep)), h.adj


def check_generators(g: Graph) -> tuple[int, ...]:
    """Assert that ``canonical_key(g.adj)`` returns automorphisms of the
    class representative, each increasing on every class of its twins,
    that with the identity hold one map of each coset of the group the
    twin swaps generate: every automorphism agrees with exactly one of
    them up to twin classes.  Returns the key."""
    key, generators, _ = canonical_key(g.adj)
    rep = from_columns(key)
    twins = lower_twins(rep.adj)
    # Per vertex, the least vertex of its twin class.
    least = [(low & -low).bit_length() - 1 if low else v for v, low in enumerate(twins)]
    identity = tuple(range(g.n))
    for perm in generators:
        assert sorted(perm) == list(identity)
        assert is_automorphism(rep, list(perm)), (g.adj, perm)
        assert all(perm[w] < perm[v] for v, low in enumerate(twins) for w in iter_bits(low)), (g.adj, perm)
    cosets = {tuple(least[w] for w in perm) for perm in (identity, *generators)}
    assert len(cosets) == len(generators) + 1, g.adj
    for perm in automorphisms(rep):
        assert tuple(least[w] for w in perm) in cosets, (g.adj, perm)
    return key


def parents_of(order: int, filter_name: str) -> list[tuple[tuple[int, ...], tuple]]:
    """The order-``order`` classes as ``_augment_chunk`` takes its parents:
    each representative's rows with its generators."""
    generate_all(order, filter_name)
    reps, groups = extremal._class_cache[order, filter_name]
    return [(g.adj, generators) for g, generators in zip(reps, groups)]


def reference_key(g: Graph) -> tuple[int, ...]:
    """Segments of the lexicographically minimal relabeling over all permutations.

    Same segment layout as ``canonical_key``, found by a plain pruned
    search over every vertex at every position, with no invariant and no
    twin pruning.  Slow, but its minimum is taken over all n! placements,
    so it is a canonical form for a simpler reason and serves as the
    oracle for the fast key.
    """
    n = g.n
    adj = g.adj
    best: list[int | None] = [None] * n
    chosen: list[int] = []

    def place(level: int, used: int) -> None:
        if level == n:
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            seg = 0
            row = adj[v]
            for u in chosen:
                seg = (seg << 1) | (row >> u & 1)
            cands.append((seg, v))
        cands.sort()
        for seg, v in cands:
            b = best[level]
            if b is not None and seg > b:
                break
            if b is None or seg < b:
                best[level] = seg
                for i in range(level + 1, n):
                    best[i] = None
            chosen.append(v)
            place(level + 1, used | (1 << v))
            chosen.pop()

    place(0, 0)
    return tuple(0 if b is None else b for b in best)


def tuple_invariants(g: Graph) -> list[tuple[int, ...]]:
    """The invariant of ``vertex_invariants`` as tuples: a vertex's degree,
    then its number of neighbors of each of g's distinct degrees, in
    increasing order of degree."""
    degree = [g.degree(v) for v in range(g.n)]
    neighbors = [[degree[u] for u in range(g.n) if g.has_edge(v, u)] for v in range(g.n)]
    return [(degree[v], *[neighbors[v].count(d) for d in sorted(set(degree))]) for v in range(g.n)]


def reference_classes(max_n: int, filter_name: str) -> dict[int, set[tuple[int, ...]]]:
    """Classes per order by one-vertex augmentation, every candidate keyed by ``reference_key``."""
    predicate = GRAPH_FILTERS[filter_name]
    classes = {1: {reference_key(Graph((0,)))}}
    for n in range(2, max_n + 1):
        keys = set()
        for parent in classes[n - 1]:
            for _, g in extensions(from_columns(parent)):
                if predicate(g):
                    keys.add(reference_key(g))
        classes[n] = keys
    return classes


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def cube() -> Graph:
    return from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])


def complete_multipartite(*parts: int) -> Graph:
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    return from_edges(n, [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]])


# Highly symmetric graphs: the invariant splits little (nothing on the
# regular ones) and twins (K3,3, K2,2,2, K1,5, 2K4) do most of the pruning.
SYMMETRIC = {
    "petersen": petersen(),
    "q3": cube(),
    "k33": complete_multipartite(3, 3),
    "k222": complete_multipartite(2, 2, 2),
    "c8": cycle_graph(8),
    "k15": complete_multipartite(1, 5),
    "2k4": disjoint_union(complete_graph(4), complete_graph(4)),
}

# Their automorphism group orders.
SYMMETRIC_GROUP_ORDERS = {"petersen": 120, "q3": 48, "k33": 72, "k222": 48, "c8": 16, "k15": 120, "2k4": 1152}


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=7), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_key(relabel(g, perm).adj)[0] == canonical_key(g.adj)[0]

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_reconstruction_roundtrip(self, g):
        key = canonical_key(g.adj)[0]
        rebuilt = from_columns(key)
        assert canonical_key(rebuilt.adj)[0] == key
        assert edge_count(rebuilt) == edge_count(g)
        assert sorted(map(rebuilt.degree, range(g.n))) == sorted(map(g.degree, range(g.n)))

    def test_idempotent(self):
        g = disjoint_union(cycle_graph(5), path_graph(3))
        c = from_columns(canonical_key(g.adj)[0])
        assert from_columns(canonical_key(c.adj)[0]) == c

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_relabel_invariance_on_symmetric_graphs(self, name):
        # Every relabeling gives the same key, and maps that hold one
        # automorphism of each coset of the twin swaps.
        g = SYMMETRIC[name]
        assert len(automorphisms(g)) == SYMMETRIC_GROUP_ORDERS[name]
        key = check_generators(g)
        rnd = random.Random(name)
        for _ in range(20):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert check_generators(relabel(g, perm)) == key
        assert reference_key(from_columns(key)) == reference_key(g)

    @pytest.mark.parametrize("n", range(6))
    def test_partition_of_labeled_graphs_matches_reference(self, n):
        # Every labeled graph of order n: equal keys iff equal reference keys.
        pairs = list(itertools.combinations(range(n), 2))
        key_to_ref = {}
        ref_to_key = {}
        for bits in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            key, ref = canonical_key(g.adj)[0], reference_key(g)
            assert key_to_ref.setdefault(key, ref) == ref
            assert ref_to_key.setdefault(ref, key) == key
        assert len(key_to_ref) == CLASS_COUNTS.get(n, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_are_exact_on_every_class(self, n):
        # Each class as generated and once relabeled: the same key, and
        # maps that hold one automorphism of each coset of the twin swaps
        # in the whole group, found by a search over all n! permutations.
        rnd = random.Random(n)
        for g in generate_all(n, "none"):
            perm = list(range(n))
            rnd.shuffle(perm)
            assert check_generators(g) == check_generators(relabel(g, perm))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_last_in_orbit_on_every_class(self, n):
        rnd = random.Random(n)
        for g in generate_all(n, "none"):
            check_last_in_orbit(g, rnd)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_last_in_orbit_on_symmetric_graphs(self, name):
        # On K3,3, K2,2,2, K1,5 and 2K4 the twin rule leaves few
        # placements per orbit.
        check_last_in_orbit(SYMMETRIC[name], random.Random(name))

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy(max_n=12))
    def test_integer_invariants_order_as_tuples(self, g):
        ints, tuples = vertex_invariants(g.adj), tuple_invariants(g)
        for v in range(g.n):
            for w in range(g.n):
                assert (ints[v] < ints[w]) == (tuples[v] < tuples[w])
                assert (ints[v] == ints[w]) == (tuples[v] == tuples[w])
        order = sorted(range(g.n), key=ints.__getitem__)
        assert order == sorted(range(g.n), key=tuples.__getitem__)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_key(path_graph(4).adj)[0] != canonical_key(cycle_graph(4).adj)[0]
        # Same degree sequence, different graphs: C6 vs two triangles.
        assert canonical_key(cycle_graph(6).adj)[0] != canonical_key(
            disjoint_union(complete_graph(3), complete_graph(3)).adj
        )[0]


class TestGeneration:
    def test_unfiltered_class_counts(self):
        for n, expected in CLASS_COUNTS.items():
            assert len(generate_all(n, "none")) == expected

    def test_no_duplicate_classes(self):
        reps = generate_all(6, "none")
        assert len({canonical_key(g.adj)[0] for g in reps}) == len(reps)

    def test_k4free_counts(self):
        # All 11 classes on 4 vertices except K4 itself; on 5 vertices the
        # 5 supergraphs of K4 drop out of 34.
        assert len(generate_all(4, "k4free")) == 10
        assert len(generate_all(5, "k4free")) == 29

    def test_maxdeg3_on_four_vertices_is_everything(self):
        assert len(generate_all(4, "maxdeg3")) == 11

    def test_filters_are_hereditary_consistent(self):
        for g in generate_all(5, "both"):
            assert is_k4_free(g) and max_degree(g) <= 3

    def test_classes_encode_to_their_key_columns(self):
        # Each representative is rebuilt from its canonical key, so its
        # graph6 body is the key's columns, packed here bit by bit.
        for n in range(8):
            for g in generate_all(n):
                key = canonical_key(g.adj)[0]
                bits = "".join(format(key[j], f"0{j}b") for j in range(1, n))
                bits += "0" * (-len(bits) % 6)
                body = "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
                assert to_graph6(g) == chr(63 + n) + body

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_class_sets_match_reference_augmentation(self, filter_name):
        expected = reference_classes(6, filter_name)
        for n in range(1, 7):
            reps = generate_all(n, filter_name)
            assert len(reps) == len(expected[n])
            assert {reference_key(g) for g in reps} == expected[n]

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_keys_rows_of_max_invariant_survivors(self, monkeypatch, filter_name):
        keyed = []
        invariant_calls = [0]
        key = extremal.canonical_key
        invariants = extremal.vertex_invariants

        def keying(adj, invariant=None):
            keyed.append(tuple(adj))
            if invariant is not None:
                assert invariant == invariants(adj)
            return key(adj, invariant)

        def counting(adj):
            invariant_calls[0] += 1
            return invariants(adj)

        monkeypatch.setattr(extremal, "canonical_key", keying)
        monkeypatch.setattr(extremal, "vertex_invariants", counting)
        monkeypatch.setattr(extremal, "_class_cache", {})
        built = record_graph_builds(monkeypatch)
        generate_all(6, filter_name)
        monkeypatch.undo()
        # One validated Graph per class representative of orders 1..6 (the
        # cache was empty) and none for any candidate: candidates are rows.
        assert built == [n for n in range(1, 7) for _ in generate_all(n, filter_name)]
        # Oracle on validated graphs: an extension survives when its new
        # vertex has the maximum degree, its mask takes a prefix of each
        # class of the parent's twins (found as transpositions that are
        # automorphisms), it passes the graph filter and its new vertex
        # has the maximum invariant.  Survivors whose masks lie in one
        # orbit of the parent's automorphism group (a scan of all
        # permutations) give isomorphic graphs, and one key per orbit is
        # kept.
        survivors = 0
        orbits = set()
        for n in range(2, 7):
            for index, parent in enumerate(generate_all(n - 1, filter_name)):
                twin_pairs = [
                    (v, w)
                    for v in range(n - 1)
                    for w in range(v)
                    if is_automorphism(parent, transposition(n - 1, v, w))
                ]
                group = automorphisms(parent)
                for mask, g in extensions(parent):
                    if max_degree(g) > mask.bit_count():
                        continue
                    if any(mask >> v & 1 and not mask >> w & 1 for v, w in twin_pairs):
                        continue
                    if not GRAPH_FILTERS[filter_name](g):
                        continue
                    survivors += 1
                    invariant = extremal.vertex_invariants(g.adj)
                    if invariant[-1] == max(invariant):
                        orbits.add((n, index, min(moved(mask, perm) for perm in group)))
        # Every orbit is keyed (the orbit gate is complete), and only once
        # (the generators reach the whole orbit); at most one invariant
        # pass per candidate, keyed or not.
        assert len(orbits) <= len(keyed)
        assert len(keyed) == len(orbits)
        assert len(orbits) <= invariant_calls[0] <= survivors
        for adj in keyed:
            Graph(adj)  # full validation raises on a bad table

    def test_twin_and_orbit_gates_keep_the_least_mask_of_each_orbit(self):
        # For every class of orders 1..6 as parent, every mask before the
        # degree gate: it passes the twin gate and ``_least_in_orbit``
        # exactly when it is the least of its orbit under the parent's
        # whole automorphism group.
        checked = kept = 0
        for order in range(1, 7):
            for padj, generators in parents_of(order, "none"):
                group = automorphisms(Graph(padj))
                twins = [(1 << v, low) for v, low in enumerate(lower_twins(padj)) if low]
                images = [[1 << w for w in perm] for perm in generators]
                for mask in range(1 << order):
                    prefix = not any(mask & v and low & ~mask for v, low in twins)
                    passes = prefix and extremal._least_in_orbit(mask, images)
                    assert passes == all(moved(mask, perm) >= mask for perm in group), (padj, mask)
                    checked += 1
                    kept += passes
        assert (checked, kept) == (11290, 5758)

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_mask_filters_match_graph_predicates(self, filter_name):
        # Every extension past the degree gate of every filtered class of
        # orders 2..7: the filter's data, read as the generator reads it
        # (the degree cap bounds d, a K4-free filter tests the mask for a
        # parent triangle), agrees with the filter on the graph, and so
        # does the whole-graph test ``admits``.
        cap, k4free = FILTERS[filter_name]
        predicate = GRAPH_FILTERS[filter_name]
        checked = 0
        for order in range(2, 8):
            for parent in generate_all(order, filter_name):
                for mask in range(1 << order):
                    d = mask.bit_count()
                    if any(parent.degree(v) + (mask >> v & 1) > d for v in range(order)):
                        continue
                    rows = [row | (mask >> v & 1) << order for v, row in enumerate(parent.adj)]
                    g = Graph(tuple(rows) + (mask,))
                    passes = (cap is None or d <= cap) and (
                        not k4free or extremal._triangle_free_within(parent.adj, mask)
                    )
                    assert passes == predicate(g), (parent.adj, mask)
                    assert extremal.admits(g, filter_name) == predicate(g), (parent.adj, mask)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_tried_masks_match_the_full_loop(self, monkeypatch, filter_name):
        # For every class of orders 1..7 as the only parent: the masks the
        # generator tries are distinct, their sizes lie between the parent's
        # maximum degree and the filter's cap, and they hold every mask of
        # the full loop that passes its degree gate and the cap.  A tried
        # mask goes on to the twin gate when none of its vertices has its
        # size as degree, so exactly the full loop's masks get there.
        cap, _ = FILTERS[filter_name]
        classes = {order: parents_of(order, filter_name) for order in range(1, 8)}
        # Keys are not needed here; a constant keeps the runs short.
        monkeypatch.setattr(extremal, "canonical_key", lambda rows, invariant=None: ((), (), False))
        tried = record_tried_masks(monkeypatch)
        for order, parents in classes.items():
            n = order + 1
            top = n - 1 if cap is None else cap
            for padj, generators in parents:
                tried.clear()
                extremal._augment_chunk(([(padj, generators)], n, filter_name))
                low = max(row.bit_count() for row in padj)
                assert len(tried) == len(set(tried))
                assert all(low <= mask.bit_count() <= top for mask in tried), padj
                expected = [m for m in full_loop_degree_gate(padj, n) if m.bit_count() <= top]
                assert set(expected) <= set(tried), padj

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_each_class_is_kept_once(self, filter_name):
        # Canonical deletion is exact: over all parents of each order up to
        # 8, the extensions kept number the classes, and no key repeats.
        for n in range(2, 9):
            keys = [key for key, _ in extremal._augment_chunk((parents_of(n - 1, filter_name), n, filter_name))]
            assert len(keys) == len(set(keys)) == len(generate_all(n, filter_name)), n

    def test_masks_tried_at_eight_maxdeg3(self, monkeypatch):
        tried = record_tried_masks(monkeypatch)
        extremal._augment_chunk((parents_of(7, "maxdeg3"), 8, "maxdeg3"))
        # The full loop tried all 128 masks of each of the 150 parents,
        # 19,200; sizes from the parent's maximum degree up to 3 leave at
        # most 64 of them.
        assert len(tried) == 5888

    @pytest.mark.parametrize(
        "filter_name, count, digest",
        [
            ("maxdeg3", 1165, "84b835a3f05c1c49195d6955931d8b6f77bd057dac73840bd2e25166ad60ff19"),
            ("both", 1142, "dde72b11dd18a334e5f8c046fc574c0753294d5631b2288e20e672451fac5bae"),
        ],
    )
    def test_class_lists_at_nine(self, monkeypatch, filter_name, count, digest):
        # Past the cap, from an empty cache: every order 2..9 runs the loop.
        monkeypatch.setattr(extremal, "GENERATION_CAP", 9)
        monkeypatch.setattr(extremal, "_class_cache", {})
        reps = generate_all(9, filter_name)
        assert len(reps) == count
        text = "".join(to_graph6(g) + "\n" for g in reps)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_lower_twins_are_transposition_automorphisms(self):
        rnd = random.Random(8)
        graphs = [complete_multipartite(3, 3), complete_multipartite(1, 5), empty_graph(4)]
        graphs += [disjoint_union(complete_graph(4), complete_graph(4)), complete_graph(5)]
        for _ in range(300):
            n = rnd.randint(1, 9)
            p = rnd.choice((0.2, 0.5, 0.8))
            pairs = [e for e in itertools.combinations(range(n), 2) if rnd.random() < p]
            graphs.append(from_edges(n, pairs))
        twin_count = 0
        for g in graphs:
            twins = lower_twins(g.adj)
            for v in range(g.n):
                expected = sum(
                    1 << w for w in range(v) if is_automorphism(g, transposition(g.n, v, w))
                )
                assert twins[v] == expected, (g.adj, v)
                twin_count += twins[v].bit_count()
            # An equivalence: each class is a vertex with its lower twins,
            # and those twins are lower twins of one another.
            for v in range(g.n):
                for w in range(v):
                    if twins[v] >> w & 1:
                        assert twins[v] & ((1 << w) - 1) == twins[w]
        assert twin_count > 100

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_class_sets_match_exhaustive_augmentation_at_seven(self, filter_name):
        # Oracle without canonical deletion or twin pruning: every filtered
        # extension of every order-6 class, keyed by canonical_key.
        expected = {
            canonical_key(g.adj)[0]
            for parent in generate_all(6, filter_name)
            for _, g in extensions(parent)
            if GRAPH_FILTERS[filter_name](g)
        }
        assert {canonical_key(g.adj)[0] for g in generate_all(7, filter_name)} == expected

    @pytest.mark.parametrize("filter_name, count", [("maxdeg3", 424), ("both", 413)])
    def test_class_sets_match_exhaustive_augmentation_at_eight(self, filter_name, count):
        expected = {
            canonical_key(g.adj)[0]
            for parent in generate_all(7, filter_name)
            for _, g in extensions(parent)
            if GRAPH_FILTERS[filter_name](g)
        }
        assert len(expected) == count
        assert {canonical_key(g.adj)[0] for g in generate_all(8, filter_name)} == expected

    @pytest.mark.parametrize(
        "filter_name, count",
        # 12,346 is A000088(8), the number of graphs on 8 vertices.
        [("none", 12346), ("k4free", 6431), ("maxdeg3", 424), ("both", 413)],
    )
    def test_class_counts_at_eight(self, filter_name, count):
        assert len(generate_all(8, filter_name)) == count

    @pytest.mark.parametrize("n, filter_name", sorted(CLASS_LIST_DIGESTS))
    def test_class_list_digests(self, n, filter_name):
        text = "".join(to_graph6(g) + "\n" for g in generate_all(n, filter_name))
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == CLASS_LIST_DIGESTS[n, filter_name]

    @pytest.mark.parametrize("n, filter_name", sorted(GENERATOR_DIGESTS))
    def test_generator_digests(self, monkeypatch, n, filter_name):
        monkeypatch.setattr(extremal, "_class_cache", {})
        generate_all(n, filter_name)
        text = repr(extremal._class_cache[n, filter_name][1])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GENERATOR_DIGESTS[n, filter_name]

    @pytest.mark.parametrize(
        "filter_name, count", [("none", 1044), ("k4free", 685), ("maxdeg3", 150), ("both", 146)]
    )
    def test_worker_pool_matches_serial(self, monkeypatch, filter_name, count):
        serial = generate_all(7, filter_name)
        # An empty cache makes every order from 2 to 7 run through the pool.
        monkeypatch.setattr(extremal, "_class_cache", {})
        pooled = generate_all(7, filter_name, workers=2)
        assert len(pooled) == count
        assert pooled == serial

    def test_worker_pool_is_bounded_by_cpu_count(self, monkeypatch):
        # A stand-in pool records its size and maps serially, so no
        # process is started whatever --workers asks for.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        serial = generate_all(6)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(extremal, "_class_cache", {})
        assert generate_all(6, workers=10**6) == serial
        # Orders 3..6 have more than one parent to split; order 3 has two.
        assert sizes == [2, 3, 3, 3]

        # Each class is kept from one parent, whichever part holds it, so a
        # pooled run keeps the generators of a serial run and tries the
        # same masks.
        calls = count_keys(monkeypatch)
        monkeypatch.setattr(extremal, "_class_cache", {})
        pooled = generate_all(7, "none", workers=3)
        pooled_groups = [extremal._class_cache[n, "none"][1] for n in range(1, 8)]
        assert calls[0] == 1286
        monkeypatch.undo()
        assert pooled == generate_all(7, "none")
        assert pooled_groups == [extremal._class_cache[n, "none"][1] for n in range(1, 8)]

    def test_keys_only_max_invariant_extensions(self, monkeypatch):
        # Keying every extension of orders 2..7 took 11,290 calls, every
        # max-invariant extension 2,377, and one per twin prefix 1,564 at
        # (7, none) and 951 at (8, maxdeg3).
        calls = count_keys(monkeypatch)
        for n, filter_name, count, keys in [(7, "none", 1044, 1286), (8, "maxdeg3", 424, 731)]:
            monkeypatch.setattr(extremal, "_class_cache", {})
            calls[0] = 0
            assert len(generate_all(n, filter_name)) == count
            assert calls[0] == keys

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            generate_all(3, "bogus")

    def test_generation_cap(self):
        from misbench.graphs import GuardError

        with pytest.raises(GuardError):
            generate_all(9, "none")


class TestOrbitStabilizer:
    """Whole class lists against labelled counts: the classes G of order n
    give sum n!/|Aut G| labelled graphs, with |Aut G| read from the twin
    classes and the stored generators."""

    def test_labelled_counts(self):
        # The counting formulas against a scan of every labelled graph, and
        # beyond the scan against their values at orders 1..8.
        for n in range(1, 7):
            scanned = labelled_scan(n)
            for filter_name, count in LABELLED_COUNTS.items():
                assert count(n) == scanned[filter_name], (filter_name, n)
        assert [labelled_subcubic(n) for n in range(1, 9)] == [
            1, 2, 8, 64, 768, 12068, 236926, 5651384
        ]
        assert [labelled_subcubic_k4_free(n) for n in range(1, 9)] == [
            1, 2, 8, 63, 763, 12038, 236646, 5646939
        ]
        assert [labelled_scan(n)["k4free"] for n in range(1, 7)] == [1, 2, 8, 63, 958, 27626]

    @pytest.mark.parametrize("filter_name", sorted(LABELLED_COUNTS))
    def test_classes_sum_to_labelled_count(self, filter_name):
        for n in range(1, 9):
            generate_all(n, filter_name)
            reps, groups = extremal._class_cache[n, filter_name]
            assert labelled_total(reps, groups) == LABELLED_COUNTS[filter_name](n), n

    def test_k4free_classes_sum_to_labelled_scan(self):
        # k4free has no closed count; the scan stops at order 6.
        for n in range(1, 7):
            generate_all(n, "k4free")
            reps, groups = extremal._class_cache[n, "k4free"]
            assert labelled_total(reps, groups) == labelled_scan(n)["k4free"], n


class TestEqualityScan:
    def test_clique_union_detector(self):
        assert is_clique_union(disjoint_union(complete_graph(3), complete_graph(4))) == (True, 2)
        assert is_clique_union(complete_graph(4)) == (True, 1)
        assert is_clique_union(cycle_graph(4))[0] is False
        assert is_clique_union(complete_graph(5))[0] is False
        assert is_clique_union(disjoint_union(complete_graph(3), path_graph(2)))[0] is False

    def test_small_orders_no_violations(self):
        for n in range(1, 6):
            for row in verify_equality_scan(generate_all(n, "none")):
                assert row["violations"] == [], (
                    f"n={row['n']} k={row['k']}: {row['violations']}"
                )

    def test_attainers_at_triangle(self):
        rows = verify_equality_scan(generate_all(3, "none"))
        by_k = {row["k"]: row for row in rows}
        assert by_k[1]["attainers"] == 1  # K3 is the unique attainer
        assert by_k[1]["bound"] == 3

    def test_attainers_at_order_four(self):
        by_k = {row["k"]: row for row in verify_equality_scan(generate_all(4, "none"))}
        assert by_k[1]["bound"] == 4
        assert by_k[1]["attainers"] == 1  # K4

    # The classes of order 3 are B? (empty), BG (an edge), BW (a path) and
    # Bw (the triangle); the bound at k = 1 is 3, which only Bw attains.
    def test_count_above_the_bound_is_a_violation(self, monkeypatch):
        real = extremal.mis_profile

        def inflate_triangle(g):
            return (0, 4, 0, 0) if to_graph6(g) == "Bw" else real(g)

        monkeypatch.setattr(extremal, "mis_profile", inflate_triangle)
        rows = verify_equality_scan(generate_all(3, "none"))
        # 4 exceeds 3 at k = 1 and floor(243/64) = 3 at k = 2, not
        # floor(19683/4096) = 4 at k = 3.
        assert [row["violations"] for row in rows] == [[], ["Bw"], ["Bw"], []]

    @pytest.mark.parametrize(
        "structure, violations",
        [
            ((False, 0), [[], ["Bw"], [], []]),  # equality without the structure
            ((True, 1), [[], ["B?", "BG", "BW"], [], []]),  # the structure without equality
        ],
    )
    def test_equality_off_the_structure_is_a_violation(self, monkeypatch, structure, violations):
        monkeypatch.setattr(extremal, "is_clique_union", lambda g: structure)
        rows = verify_equality_scan(generate_all(3, "none"))
        assert [row["violations"] for row in rows] == violations

    def test_nielsen_report_empty_small(self):
        # The path of `search --selector nielsen`: no class of order n has
        # more than 4^{5k-n} 5^{n-4k} maximal independent sets of size k.
        for n in range(1, 6):
            for row in tightness_scan(generate_all(n), "nielsen"):
                assert row["max_mis_k"] <= nielsen(n, row["k"]).exact


# Slack factors of the size-capped bound for classes of maximum degree at
# most 2: a degree-1 vertex caps mis_{<=k} at 8/9 of 3^{4k-n} 4^{n-3k}, an
# isolated vertex at 16/27, and a cycle component of length >= 4 at 11/12.
SLACK_FACTORS = (
    ("degree1", Fraction(8, 9), lambda g: any(g.degree(v) == 1 for v in range(g.n))),
    ("isolated", Fraction(16, 27), lambda g: any(g.degree(v) == 0 for v in range(g.n))),
    (
        "long_cycle",
        Fraction(11, 12),
        lambda g: any(
            c.bit_count() >= 4 and all(g.degree(v) == 2 for v in iter_bits(c))
            for c in components(g.adj)
        ),
    ),
)


def slack_rows(n):
    """(factor, graph6, k, mis_{<=k}, allowance) for each class of order n
    with maximum degree at most 2 (taken from the "maxdeg3" list), each
    factor that applies to it and each k."""
    for g in generate_all(n, "maxdeg3"):
        if max_degree(g) > 2:
            continue
        profile = mis_profile(g)
        for name, factor, applies in SLACK_FACTORS:
            if applies(g):
                for k in range(n + 1):
                    yield name, to_graph6(g), k, sum(profile[: k + 1]), factor * eppstein(n, k).exact


class TestDegreeTwoSlack:
    def test_no_violations_small(self):
        for n in range(1, 7):
            assert [row for row in slack_rows(n) if row[3] > row[4]] == []

    def test_p2_tight_for_degree1(self):
        # P2's two sets attain the 8/9 allowance at k = 1.
        assert ("degree1", "A_", 1, 2, 2) in slack_rows(2)

    def test_k1_tight_for_isolated(self):
        # K1's one set attains the 16/27 allowance at k = 1.
        assert ("isolated", "@", 1, 1, 1) in slack_rows(1)


class TestScans:
    def test_tightness_scan_attainer(self):
        rows = tightness_scan(generate_all(6, "none"), "eppstein")
        by_k = {row["k"]: row for row in rows}
        # Two triangles: 9 maximal independent sets of size 2 meet 3^2.
        assert by_k[2]["max_mis_k"] == 9
        assert by_k[2]["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_tightness_scan_accepts_preloaded_reps(self):
        reps = generate_all(5, "k4free")
        rows = tightness_scan(reps, "nielsen")
        assert len(rows) == 6

    def test_tightness_scan_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            tightness_scan(generate_all(4, "none"), "bogus")

    def test_mibs_extremes(self):
        # K4 maximizes at order 4 with its six edges.
        assert max(mibs_counts(g).mibs for g in generate_all(4)) == 6
