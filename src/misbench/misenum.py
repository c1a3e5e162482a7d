"""Enumeration of maximal independent sets, counted exactly by size.

Three independent methods are provided and cross-validated in the test
suite: a subset scan (oracle, small orders), pivoting enumeration on the
complement graph, and a budgeted branching recursion that mirrors the
inclusion/exclusion recurrence mis_{<=k}(G) <= mis_{<=k}(G-u) +
mis_{<=k-1}(G-N[u]) on a maximum-degree vertex u.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    GuardError,
    components,
    induced_subgraph,
    is_maximal_independent,
    iter_bits,
    lowest_bit,
)

BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class SizeProfile:
    """Exact count of maximal independent sets per size k = 0..n."""

    counts: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def at_most(self, k: int) -> int:
        """Number of maximal independent sets of size <= k."""
        return sum(self.counts[: k + 1])

    def convolve(self, other: "SizeProfile") -> "SizeProfile":
        out = [0] * (len(self.counts) + len(other.counts) - 1)
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(other.counts):
                    out[i + j] += a * b
        return SizeProfile(tuple(out))


@dataclass(frozen=True)
class MisFamily:
    """All maximal independent sets of one graph, as masks, with profile."""

    n: int
    sets: tuple[int, ...]
    profile: SizeProfile

    @property
    def count(self) -> int:
        return len(self.sets)


def _family(n: int, masks: list[int]) -> MisFamily:
    counts = [0] * (n + 1)
    for m in masks:
        counts[m.bit_count()] += 1
    return MisFamily(n, tuple(sorted(masks)), SizeProfile(tuple(counts)))


def enumerate_mis_bruteforce(g: Graph) -> MisFamily:
    """Oracle enumerator: test all 2^n subsets for independence and maximality."""
    if g.n > BRUTE_FORCE_CAP:
        raise GuardError(f"subset scan capped at {BRUTE_FORCE_CAP} vertices, got {g.n}")
    full = g.full_mask
    adj = g.adj
    out = []
    for s in range(1 << g.n):
        dom = s
        ok = True
        for v in iter_bits(s):
            row = adj[v]
            if row & s:
                ok = False
                break
            dom |= row
        if ok and dom == full:
            out.append(s)
    return _family(g.n, out)


def enumerate_mis(g: Graph) -> MisFamily:
    """Pivoting enumeration: maximal cliques of the complement graph.

    Classic recursive scheme with the pivot chosen to maximize coverage of
    the candidate set, which prunes all branches through the pivot's
    non-neighbors.  Practical well beyond the subset-scan cap.
    """
    n = g.n
    full = g.full_mask
    # Complement adjacency: non-neighbors excluding the vertex itself.
    cadj = [(full ^ g.adj[v]) & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = -1
        best = -1
        for u in iter_bits(p | x):
            cover = (p & cadj[u]).bit_count()
            if cover > best:
                best = cover
                pivot = u
        for v in iter_bits(p & ~cadj[pivot]):
            bit = 1 << v
            expand(r | bit, p & cadj[v], x & cadj[v])
            p &= ~bit
            x |= bit

    expand(0, full, 0)
    return _family(n, out)


def enumerate_mis_branching(g: Graph, k_cap: int) -> tuple[MisFamily, int]:
    """Budgeted branching enumerator for maximal independent sets of size <= k_cap.

    Branches on a maximum-degree vertex u of the remaining graph (ties to
    the lowest index): either u is excluded (recurse on G-u with the same
    budget) or included (recurse on G-N[u] with budget-1).  The recurrence
    overgenerates, so leaf candidates are post-filtered for maximality in
    the original graph.  Returns the family and the branching-tree node
    count.

    No hard order guard; the tree is exponential, so this is practical for
    roughly n <= 32.
    """
    adj = g.adj
    out: list[int] = []
    nodes = 0

    def walk(alive: int, budget: int, chosen: int) -> None:
        nonlocal nodes
        nodes += 1
        if not alive:
            if is_maximal_independent(g, chosen):
                out.append(chosen)
            return
        if budget <= 0:
            # Only the all-excluded continuation survives; take it directly.
            if is_maximal_independent(g, chosen):
                out.append(chosen)
            return
        u = -1
        best = -1
        rest = alive
        while rest:
            v = lowest_bit(rest)
            rest &= rest - 1
            d = (adj[v] & alive).bit_count()
            if d > best:
                best = d
                u = v
        walk(alive & ~(1 << u), budget, chosen)
        walk(alive & ~(adj[u] | (1 << u)), budget - 1, chosen | (1 << u))

    walk(g.full_mask, k_cap, 0)
    return _family(g.n, out), nodes


def mis_profile(g: Graph) -> SizeProfile:
    """Exact per-size counts of maximal independent sets, without the sets.

    A maximal independent set of a disjoint union is one per component,
    so the profile is the convolution of the component profiles; only
    one component's sets are held at a time.  A connected graph is
    enumerated directly: copying it as its own induced subgraph costs
    about as much as enumerating a small graph, and most graphs the
    extremal scans profile are connected.
    """
    parts = components(g)
    if len(parts) <= 1:
        return enumerate_mis(g).profile
    profile = SizeProfile((1,))
    for part in parts:
        profile = profile.convolve(enumerate_mis(induced_subgraph(g, part)[0]).profile)
    return profile


def min_mis(family: MisFamily) -> int:
    """Minimum-size maximal independent set, first by sorted vertex tuple."""
    size = next(k for k, count in enumerate(family.profile.counts) if count)
    return min(
        (mask for mask in family.sets if mask.bit_count() == size),
        key=lambda mask: tuple(iter_bits(mask)),
    )
