"""Enumeration of maximal independent sets, counted exactly by size.

Three independent methods are provided and cross-validated in the test
suite: a subset scan (oracle, small orders), pivoting enumeration on the
complement graph, and a budgeted branching recursion that mirrors the
inclusion/exclusion recurrence mis_{<=k}(G) <= mis_{<=k}(G-u) +
mis_{<=k-1}(G-N[u]) on a maximum-degree vertex u.  ``mis_of_size`` lists
only the sets of one size, with a domination bound that prunes every
branch unable to end at that size; the pipeline reads its root-size sets
from it, and the tests check it against the pivoting enumeration.
The pivoting enumeration also runs on the subgraph induced by a vertex
mask, in the input graph's own labels; ``mis_profile`` convolves it over
the connected components without copying any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    GuardError,
    components,
    is_maximal_independent,
    iter_bits,
    lowest_bit,
)

BRUTE_FORCE_CAP = 20
MIS_OF_SIZE_CAP = 1 << 17  # sets of one size held by mis_of_size; see its docstring


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


def enumerate_mis(g: Graph, within: int | None = None) -> MisFamily:
    """Pivoting enumeration: maximal cliques of the complement graph.

    Lists the maximal independent sets of the subgraph induced by
    ``within`` (all of g by default) as masks in g's own labels, with a
    profile over sizes 0..|within|.  The recursion keeps candidates P and
    excluded vertices X as masks of g and starts at P = ``within``,
    X = 0, so a sub-problem needs no relabeled copy.  The pivot is chosen
    to maximize coverage of the candidate set, which prunes all branches
    through the pivot's non-neighbors.  Practical well beyond the
    subset-scan cap.
    """
    n = g.n
    full = g.full_mask
    if within is None:
        within = full
    # Complement adjacency: non-neighbors excluding the vertex itself.
    # P and X stay inside within, so the rows need no restriction.
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

    expand(0, within, 0)
    return _family(within.bit_count(), out)


def mis_of_size(g: Graph, k: int | None = None) -> tuple[int, list[int]]:
    """The maximal independent sets of size exactly k, as sorted masks.

    With k None, k is the minimum size of a maximal independent set,
    found as the search goes.  Returns (k, sets).

    The recursion is the pivoting one of ``enumerate_mis`` written on g
    itself: R is the set so far, P the candidates and X the excluded
    vertices that a later choice must still dominate.  A completion adds
    vertices of P only and must dominate U = P | X, so a node needs at
    least ceil(|U| / max_{v in P} |N[v] & U|) more vertices and is pruned
    when that passes the size bound (k, or the smallest size found so
    far).  The pivot is the vertex of U whose closed neighborhood meets P
    least; when it meets none, U cannot be dominated and the node is a
    dead end.

    Raises GuardError once more than MIS_OF_SIZE_CAP (2^17) sets of one
    size are held, so the list stays within a few MiB: 21 disjoint
    triangles (3^21 sets of size 21) trip it in under a second.  The
    largest list the pipeline benchmark and the test corpora produce is
    1,024 sets (diamond_union(10)).  The cap bounds memory, not time: a
    search that holds few sets can still visit as many nodes as
    ``enumerate_mis``.
    """
    n = g.n
    closed = [g.adj[v] | 1 << v for v in range(n)]
    bound = n if k is None else k
    out: list[int] = []

    def expand(r: int, size: int, p: int, x: int) -> None:
        nonlocal bound
        u = p | x
        if not u:
            if k is None and size < bound:
                bound = size
                out.clear()
            if size == bound:
                out.append(r)
                if len(out) > MIS_OF_SIZE_CAP:
                    raise GuardError(
                        f"more than {MIS_OF_SIZE_CAP} maximal independent sets of size {bound}"
                    )
            return
        reach = 0
        fewest = n + 1
        pivot = -1
        rest = u
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = closed[v]
            hits = (row & p).bit_count()
            if hits < fewest:
                fewest = hits
                pivot = v
            if low & p:
                cover = (row & u).bit_count()
                if cover > reach:
                    reach = cover
        if not fewest or size - (-u.bit_count() // reach) > bound:
            return
        for v in iter_bits(p & closed[pivot]):
            row = closed[v]
            expand(r | 1 << v, size + 1, p & ~row, x & ~row)
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, 0, g.full_mask, 0)
    return bound, sorted(out)


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
    one component's sets are held at a time.
    """
    profile = SizeProfile((1,))
    for part in components(g):
        profile = profile.convolve(enumerate_mis(g, part).profile)
    return profile


def min_mis(sets) -> int:
    """The smallest of the given sets, first by size, then by sorted vertex tuple.

    Given ``mis_of_size(g)[1]``, or all of ``enumerate_mis(g).sets``, this
    is the minimum-size maximal independent set the pipeline roots at.
    """
    return min(sets, key=lambda mask: (mask.bit_count(), tuple(iter_bits(mask))))
