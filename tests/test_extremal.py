"""Canonical forms, exhaustive class generation, and bound scans."""

import hashlib
import itertools
import multiprocessing
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbench import extremal
from misbench.extremal import (
    FILTERS,
    canonical_key,
    generate_all,
    graph_from_key,
    is_clique_union,
    load_class_list,
    lower_twins,
    mibs_extremes,
    nielsen_violations,
    tightness_scan,
    verify_degree2_constants,
    verify_equality_scan,
    vertex_invariants,
    write_class_list,
)
from misbench.graphio import to_graph6
from misbench.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    is_k4_free,
    max_degree,
    path_graph,
    relabel,
)

from test_graphs import random_graph_strategy, record_graph_builds

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
    n = parent.n + 1
    for mask in range(1 << parent.n):
        rows = [row | 1 << parent.n if mask >> v & 1 else row for v, row in enumerate(parent.adj)]
        yield mask, Graph(n, tuple(rows) + (mask,))


def transposition(n: int, v: int, w: int) -> list[int]:
    perm = list(range(n))
    perm[v], perm[w] = w, v
    return perm


def is_automorphism(g: Graph, perm: list[int]) -> bool:
    return relabel(g, perm) == g


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
    classes = {1: {reference_key(Graph(1, (0,)))}}
    for n in range(2, max_n + 1):
        keys = set()
        for parent in classes[n - 1]:
            for _, g in extensions(graph_from_key(n - 1, parent)):
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


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=7), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_key(relabel(g, perm).adj) == canonical_key(g.adj)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_reconstruction_roundtrip(self, g):
        key = canonical_key(g.adj)
        rebuilt = graph_from_key(g.n, key)
        assert canonical_key(rebuilt.adj) == key
        assert rebuilt.edge_count() == g.edge_count()
        assert sorted(map(rebuilt.degree, range(g.n))) == sorted(map(g.degree, range(g.n)))

    def test_idempotent(self):
        g = disjoint_union(cycle_graph(5), path_graph(3))
        c = graph_from_key(g.n, canonical_key(g.adj))
        assert graph_from_key(c.n, canonical_key(c.adj)) == c

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_relabel_invariance_on_symmetric_graphs(self, name):
        g = SYMMETRIC[name]
        key = canonical_key(g.adj)
        rnd = random.Random(name)
        for _ in range(20):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert canonical_key(relabel(g, perm).adj) == key
        assert reference_key(graph_from_key(g.n, key)) == reference_key(g)

    @pytest.mark.parametrize("n", range(6))
    def test_partition_of_labeled_graphs_matches_reference(self, n):
        # Every labeled graph of order n: equal keys iff equal reference keys.
        pairs = list(itertools.combinations(range(n), 2))
        key_to_ref = {}
        ref_to_key = {}
        for bits in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            key, ref = canonical_key(g.adj), reference_key(g)
            assert key_to_ref.setdefault(key, ref) == ref
            assert ref_to_key.setdefault(ref, key) == key
        assert len(key_to_ref) == CLASS_COUNTS.get(n, 1)

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
        assert canonical_key(path_graph(4).adj) != canonical_key(cycle_graph(4).adj)
        # Same degree sequence, different graphs: C6 vs two triangles.
        assert canonical_key(cycle_graph(6).adj) != canonical_key(
            disjoint_union(complete_graph(3), complete_graph(3)).adj
        )


class TestGeneration:
    def test_unfiltered_class_counts(self):
        for n, expected in CLASS_COUNTS.items():
            assert len(generate_all(n, "none")) == expected

    def test_no_duplicate_classes(self):
        reps = generate_all(6, "none")
        assert len({canonical_key(g.adj) for g in reps}) == len(reps)

    def test_k4free_counts(self):
        # All 11 classes on 4 vertices except K4 itself; on 5 vertices the
        # 5 supergraphs of K4 drop out of 34.
        assert len(generate_all(4, "k4free")) == 10
        assert len(generate_all(5, "k4free")) == 29

    def test_maxdeg3_on_four_vertices_is_everything(self):
        assert len(generate_all(4, "maxdeg3")) == 11

    def test_filters_are_hereditary_consistent(self):
        for g in generate_all(5, "both"):
            from misbench.graphs import is_k4_free, max_degree

            assert is_k4_free(g) and max_degree(g) <= 3

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
        # automorphisms) and it passes the graph filter; it is keyed when
        # its new vertex also has the maximum invariant.
        survivors = 0
        expected = 0
        for n in range(2, 7):
            for parent in generate_all(n - 1, filter_name):
                twin_pairs = [
                    (v, w)
                    for v in range(n - 1)
                    for w in range(v)
                    if is_automorphism(parent, transposition(n - 1, v, w))
                ]
                for mask, g in extensions(parent):
                    if max_degree(g) > mask.bit_count():
                        continue
                    if any(mask >> v & 1 and not mask >> w & 1 for v, w in twin_pairs):
                        continue
                    if not GRAPH_FILTERS[filter_name](g):
                        continue
                    survivors += 1
                    invariant = extremal.vertex_invariants(g.adj)
                    expected += invariant[-1] == max(invariant)
        # One key per max-invariant survivor, and at most one invariant
        # pass per candidate, keyed or not.
        assert len(keyed) == expected
        assert expected <= invariant_calls[0] <= survivors
        for adj in keyed:
            Graph(len(adj), adj)  # full validation raises on a bad table

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_mask_filters_match_graph_predicates(self, filter_name):
        # Every extension past the degree gate of every filtered class of
        # orders 2..7: the mask test agrees with the filter on the graph.
        admits = FILTERS[filter_name]
        predicate = GRAPH_FILTERS[filter_name]
        checked = 0
        for order in range(2, 8):
            for parent in generate_all(order, filter_name):
                for mask in range(1 << order):
                    d = mask.bit_count()
                    if any(parent.degree(v) + (mask >> v & 1) > d for v in range(order)):
                        continue
                    rows = [row | (mask >> v & 1) << order for v, row in enumerate(parent.adj)]
                    g = Graph(order + 1, tuple(rows) + (mask,))
                    assert admits(parent.adj, mask, d) == predicate(g), (parent.adj, mask)
                    checked += 1
        assert checked > 1000

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
            canonical_key(g.adj)
            for parent in generate_all(6, filter_name)
            for _, g in extensions(parent)
            if GRAPH_FILTERS[filter_name](g)
        }
        assert {canonical_key(g.adj) for g in generate_all(7, filter_name)} == expected

    @pytest.mark.parametrize("filter_name, count", [("maxdeg3", 424), ("both", 413)])
    def test_class_sets_match_exhaustive_augmentation_at_eight(self, filter_name, count):
        expected = {
            canonical_key(g.adj)
            for parent in generate_all(7, filter_name)
            for _, g in extensions(parent)
            if GRAPH_FILTERS[filter_name](g)
        }
        assert len(expected) == count
        assert {canonical_key(g.adj) for g in generate_all(8, filter_name)} == expected

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

    def test_keys_only_max_invariant_extensions(self, monkeypatch):
        calls = [0]
        key = extremal.canonical_key

        def counting(adj, invariant=None):
            calls[0] += 1
            return key(adj, invariant)

        monkeypatch.setattr(extremal, "canonical_key", counting)
        monkeypatch.setattr(extremal, "_class_cache", {})
        assert len(generate_all(7, "none")) == 1044
        # Keying every extension of orders 2..7 took 11,290 calls, and
        # every max-invariant extension 2,377.
        assert calls[0] <= 1564

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            generate_all(3, "bogus")

    def test_generation_cap(self):
        from misbench.graphs import GuardError

        with pytest.raises(GuardError):
            generate_all(9, "none")

    def test_class_list_roundtrip(self, tmp_path):
        reps = generate_all(5, "k4free")
        path = tmp_path / "classes.g6"
        write_class_list(str(path), reps)
        loaded = load_class_list(str(path))
        assert [canonical_key(g.adj) for g in loaded] == [canonical_key(g.adj) for g in reps]


class TestEqualityScan:
    def test_clique_union_detector(self):
        assert is_clique_union(disjoint_union(complete_graph(3), complete_graph(4))) == (True, 2)
        assert is_clique_union(complete_graph(4)) == (True, 1)
        assert is_clique_union(cycle_graph(4))[0] is False
        assert is_clique_union(complete_graph(5))[0] is False
        assert is_clique_union(disjoint_union(complete_graph(3), path_graph(2)))[0] is False

    def test_small_orders_no_violations(self):
        for n in range(1, 6):
            for row in verify_equality_scan(n):
                assert row["violations"] == [], (
                    f"n={row['n']} k={row['k']}: {row['violations']}"
                )

    def test_attainers_at_triangle(self):
        rows = verify_equality_scan(3)
        by_k = {row["k"]: row for row in rows}
        assert by_k[1]["attainers"] == 1  # K3 is the unique attainer
        assert by_k[1]["bound"] == 3

    def test_attainers_at_order_four(self):
        by_k = {row["k"]: row for row in verify_equality_scan(4)}
        assert by_k[1]["bound"] == 4
        assert by_k[1]["attainers"] == 1  # K4

    def test_nielsen_report_empty_small(self):
        for n in range(1, 6):
            assert nielsen_violations(n) == []


class TestDegreeTwoSlack:
    def test_no_violations_small(self):
        for n in range(1, 7):
            _, bad = verify_degree2_constants(n)
            assert bad == []

    def test_p2_tight_for_degree1(self):
        rows, _ = verify_degree2_constants(2)
        hits = [
            r
            for r in rows
            if r.factor_name == "degree1" and r.k == 1 and r.tight
        ]
        assert hits, "P2 must attain the 8/9 allowance at k=1"
        assert hits[0].count == 2

    def test_k1_tight_for_isolated(self):
        rows, _ = verify_degree2_constants(1)
        hits = [r for r in rows if r.factor_name == "isolated" and r.k == 1 and r.tight]
        assert hits, "K1 must attain the 16/27 allowance at k=1"
        assert hits[0].count == 1


class TestScans:
    def test_tightness_scan_attainer(self):
        rows = tightness_scan(6, generate_all(6, "none"), "eppstein")
        by_k = {row["k"]: row for row in rows}
        # Two triangles: 9 maximal independent sets of size 2 meet 3^2.
        assert by_k[2]["max_mis_k"] == 9
        assert by_k[2]["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_tightness_scan_accepts_preloaded_reps(self):
        reps = generate_all(5, "k4free")
        rows = tightness_scan(5, reps, "nielsen")
        assert len(rows) == 6

    def test_tightness_scan_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            tightness_scan(4, generate_all(4, "none"), "bogus")

    def test_mibs_extremes(self):
        report = mibs_extremes(4, "none")
        # K4 maximizes at order 4 with its six edges.
        assert report["max_mibs"] == 6
