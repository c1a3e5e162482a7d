"""Independent reference code for the benchmark: graphs, graph6, brute force.

Nothing here imports misbench, so an oracle never runs the code it checks.
A graph is a pair ``(n, adj)`` with ``adj[v]`` the neighbourhood bitmask of
vertex ``v``.  The enumerators walk every independent (or induced
bipartite) vertex set and keep the maximal ones; they are meant for
components of at most 20 vertices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, tuple(adj)


def edges_of(graph) -> list[tuple[int, int]]:
    n, adj = graph
    return [(u, v) for u in range(n) for v in bits(adj[u]) if u < v]


def relabel(graph, perm: list[int]):
    """The same graph with vertex ``v`` renamed ``perm[v]``."""
    n, _ = graph
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges_of(graph)])


def disjoint_union(parts):
    """Union of the given graphs, vertices numbered part after part."""
    edges, offset = [], 0
    for n, adj in parts:
        edges += [(u + offset, v + offset) for u, v in edges_of((n, adj))]
        offset += n
    return from_edges(offset, edges)


def to_graph6(graph) -> str:
    n, adj = graph
    if n > 62:
        raise ValueError("the benchmark writes graphs of at most 62 vertices")
    flags = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    flags += [0] * (-len(flags) % 6)
    body = [
        int("".join(map(str, flags[i : i + 6])), 2) for i in range(0, len(flags), 6)
    ]
    return "".join(chr(c + 63) for c in [n] + body)


def from_graph6(text: str):
    codes = [ord(ch) - 63 for ch in text.strip()]
    n = codes[0]
    flags = "".join(format(c, "06b") for c in codes[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edges(n, [p for p, f in zip(pairs, flags) if f == "1"])


def max_degree(graph) -> int:
    return max((row.bit_count() for row in graph[1]), default=0)


def is_maximal_independent(graph, mask: int) -> bool:
    n, adj = graph
    dom = mask
    for v in bits(mask):
        if adj[v] & mask:
            return False
        dom |= adj[v]
    return dom == (1 << n) - 1


def mis_sets(adj, within: int) -> list[int]:
    """Maximal independent sets of the subgraph induced by ``within``.

    Walks every independent set once (each extended only by higher
    vertices) and keeps those that dominate ``within``.
    """
    out = []

    def walk(chosen: int, dom: int, cand: int) -> None:
        if dom & within == within:
            out.append(chosen)
            return
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            walk(chosen | low, dom | low | adj[v], cand & ~adj[v])

    walk(0, 0, within)
    return out


def mis_profile(graph) -> list[int]:
    n, adj = graph
    counts = [0] * (n + 1)
    for m in mis_sets(adj, (1 << n) - 1):
        counts[m.bit_count()] += 1
    return counts


def _is_bipartite(adj, mask: int) -> bool:
    color = {}
    for root in bits(mask):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for u in bits(adj[v] & mask):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def mibs_counts(graph) -> dict[str, int]:
    """Distinct maximal induced bipartite sets and MIS-pair accounting.

    ``mibs`` scans all 2^n vertex sets.  ``ordered_pairs`` counts pairs
    (A, B) with A a maximal independent set of G and B one of G - A, and
    ``maximal_pairs`` those whose union is a maximal induced bipartite set.
    """
    n, adj = graph
    full = (1 << n) - 1
    bip = [_is_bipartite(adj, s) for s in range(1 << n)]
    maximal = {
        s
        for s in range(1 << n)
        if bip[s] and not any(bip[s | 1 << w] for w in bits(full & ~s))
    }
    pairs = mis_pairs(graph)
    return {
        "mibs": len(maximal),
        "ordered_pairs": len(pairs),
        "maximal_pairs": sum((a | b) in maximal for a, b in pairs),
    }


def mis_pairs(graph) -> list[tuple[int, int]]:
    """Pairs (A, B): A a maximal independent set of G, B one of G - A."""
    n, adj = graph
    full = (1 << n) - 1
    return [(a, b) for a in mis_sets(adj, full) for b in mis_sets(adj, full & ~a)]


def profile_product(profiles) -> list[int]:
    """MIS profile of a disjoint union: the product of the component polynomials."""
    out = [1]
    for p in profiles:
        nxt = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                nxt[i + j] += a * b
        out = nxt
    return out


def union_mibs_counts(parts) -> dict[str, int]:
    """MIBS accounting of a disjoint union from its components.

    A set is maximal induced bipartite in a union exactly when each trace
    on a component is, and a pair (A, B) splits into one pair per
    component, so the distinct count, the ordered pairs and the pairs with
    a maximal union are products; the non-maximal pairs are the rest.
    """
    total = {"mibs": 1, "ordered_pairs": 1, "maximal_pairs": 1}
    for part in parts:
        for key, value in mibs_counts(part).items():
            total[key] *= value
    return {
        "mibs": total["mibs"],
        "ordered_pairs": total["ordered_pairs"],
        "nonmaximal_pairs": total["ordered_pairs"] - total["maximal_pairs"],
    }


def eppstein_bound(n: int, k: int) -> Fraction:
    """3^(4k-n) 4^(n-3k), the size-capped count bound."""
    return Fraction(3) ** (4 * k - n) * Fraction(4) ** (n - 3 * k)


def clique_union_attainers(n: int, k: int) -> int:
    """Classes of order n that are unions of exactly k triangles and K4s."""
    return sum(1 for a in range(k + 1) if 3 * a + 4 * (k - a) == n)


# A000088: graphs on n unlabeled vertices, n = 0..7.
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)
# Classes of order 8 with maximum degree at most 3, frozen at the seed commit.
MAXDEG3_CLASSES_8 = 424


def connected_graph(n: int, p: float, rng: random.Random):
    """Random spanning tree plus every other pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add((u, v))
    return from_edges(n, sorted(edges))


def has_k4(graph) -> bool:
    n, adj = graph
    for a, b, c in itertools.combinations(range(n), 3):
        if adj[a] >> b & 1 and adj[a] >> c & 1 and adj[b] >> c & 1:
            if adj[a] & adj[b] & adj[c]:
                return True
    return False


def cubic_k4free(n: int, seed: int):
    """Seeded simple 3-regular K4-free graph by stub matching with rejection."""
    rng = random.Random(seed)
    for _ in range(2000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(keys) != len(pairs) or any(u == v for u, v in pairs):
            continue
        graph = from_edges(n, pairs)
        if not has_k4(graph):
            return graph
    raise RuntimeError(f"no K4-free cubic graph for n={n}, seed={seed}")


def diamond_union(t: int):
    """t disjoint diamonds u-x, u-y, u-z, x-z, y-z."""
    diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    return disjoint_union([diamond] * t)
