"""Seeded random graph corpora for cross-validation and pipeline runs.

Everything here is deterministic given the seed, so regression suites and
reports are reproducible from the seed list alone.
"""

from __future__ import annotations

import random

from .graphs import Graph, from_edges, is_k4_free
from .misenum import min_mis, mis_of_size

# Stub matchings drawn before random_cubic_k4free gives up.
CUBIC_MAX_TRIES = 2000


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi draw with edge probability p."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def random_cubic_k4free(n: int, seed: int) -> Graph:
    """Seeded simple 3-regular K4-free graph on n vertices (n even, >= 8).

    Draws a uniform-ish stub matching, rejecting draws with loops or
    parallel edges, then rejecting graphs containing a 4-clique.  Cubic
    graphs keep every decomposition cell conflict-free: each vertex of a
    maximal independent set has all three neighbors outside it.
    """
    if n < 8 or n % 2:
        raise ValueError("need even n >= 8")
    rng = random.Random(seed)
    for _ in range(CUBIC_MAX_TRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        seen = set()
        ok = True
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = from_edges(n, pairs)
        if is_k4_free(g):
            return g
    raise RuntimeError(f"no K4-free cubic graph found for n={n}, seed={seed}")


def pipeline_instances(count: int, seed0: int = 7000) -> list[tuple[Graph, int]]:
    """Deterministic cubic K4-free corpus with default root sets.

    Instances cycle through even orders 8..20; the root set is the
    minimum-size maximal independent set, which pushes k toward n/4.
    """
    orders = [8, 10, 12, 14, 16, 18, 20]
    out = []
    for i in range(count):
        n = orders[i % len(orders)]
        g = random_cubic_k4free(n, seed0 + i)
        out.append((g, min_mis(mis_of_size(g)[1])))
    return out


def oracle_graphs(count: int, max_n: int, seed0: int = 5000) -> list[Graph]:
    """Deterministic mixed-density corpus for enumerator cross-checks."""
    out = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        n = rng.randint(1, max_n)
        p = rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.65))
        out.append(random_graph(n, p, rng))
    return out


def diamond(offset: int = 0) -> list[tuple[int, int]]:
    """Edge list of one diamond cell u-x, u-y, u-z, x-z, y-z at an offset."""
    u, x, y, z = offset, offset + 1, offset + 2, offset + 3
    return [(u, x), (u, y), (u, z), (x, z), (y, z)]


def diamond_union(t: int) -> Graph:
    """Disjoint union of t diamond cells; apex vertices form a minimum MIS."""
    edges = []
    for i in range(t):
        edges.extend(diamond(4 * i))
    return from_edges(4 * t, edges)
