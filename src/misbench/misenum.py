"""Enumeration of maximal independent sets, counted exactly by size.

The only search is the pivoting search ``_sets_between``: it lists the
sets whose size lies in a window, on the subgraph induced by a vertex
mask and in the input graph's own labels.  It drops a node as
soon as its pivot scan meets a vertex that no candidate can dominate,
and finishes a node one vertex short of the window's top by testing
each possible last vertex, without a recursive call.  ``enumerate_mis``
runs it over every size; ``mis_of_size`` over one size, where its size
bounds prune every branch unable to end there, and the pipeline reads
its root-size sets from it.  ``mis_profile`` convolves ``enumerate_mis``
over the connected components without copying any of them.  The subset
scan ``enumerate_mis_bruteforce`` is the test suite's oracle for small
orders.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .graphs import (
    Graph,
    GuardError,
    components,
    iter_bits,
    max_degree,
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


def _sets_between(g: Graph, within: int, lo: int, hi: int, emit: Callable[[int], None]) -> None:
    """Call emit(mask) for each maximal independent set of g[within] of size lo..hi.

    The pivoting search of Bron & Kerbosch with the pivot rule of Tomita,
    Tanaka & Takahashi, on masks of g: R is the set so far, P the
    candidates and X the excluded vertices that a later choice must still
    dominate.  With P empty, R is emitted when X is empty too, and the
    node is a dead end otherwise.  The pivot is the vertex of U = P | X
    whose closed neighborhood meets P least, and the node branches on
    P & N[pivot]; the scan stops at the first vertex of U with no
    neighbor in P, since nothing can dominate it: a dead end.
    A completion adds vertices of P only, so a node is pruned when
    |R| + |P| < lo; it must dominate U, so it needs at least
    ceil(|U| / max_{v in P} |N[v] & U|) more vertices, and the node is
    pruned when that passes hi.  The second bound is computed only when
    |R| + |U| > hi, which never holds in the full window 0..|within|.

    A node one vertex short of hi is finished without recursion: R is not
    maximal while P is non-empty, so each completion is R | {v} for one
    v in P with U inside N[v].  Such a v lies in N[w] for the lowest
    vertex w of U, and each v in P & N[w] costs one test of U against
    N[v].  Every v in P keeps R | {v} independent and outside X, so this
    emits exactly the completions the recursion would.
    """
    # closed[v + 1] = N[v], so the row of a one-bit mask is closed[bit.bit_length()].
    closed = [0] + [row | 1 << v for v, row in enumerate(g.adj)]

    def expand(r: int, size: int, p: int, x: int) -> None:
        if not p:
            if not x and size >= lo:
                emit(r)
            return
        u = p | x
        if size + 1 == hi:
            cand = p & closed[(u & -u).bit_length()]
            while cand:
                low = cand & -cand
                cand ^= low
                if not u & ~closed[low.bit_length()]:
                    emit(r | low)
            return
        if size + p.bit_count() < lo:
            return
        width = u.bit_count()
        check_hi = size + width > hi
        fewest = len(closed)
        reach = 0
        rest = u
        while rest:
            low = rest & -rest
            rest ^= low
            row = closed[low.bit_length()]
            hits = (row & p).bit_count()
            if hits < fewest:
                if not hits:
                    return
                fewest = hits
                pivot = row
            if check_hi and low & p:
                cover = (row & u).bit_count()
                if cover > reach:
                    reach = cover
        if check_hi and size - (-width // reach) > hi:
            return
        branch = p & pivot
        while branch:
            low = branch & -branch
            branch ^= low
            row = closed[low.bit_length()]
            expand(r | low, size + 1, p & ~row, x & ~row)
            p ^= low
            x |= low

    expand(0, 0, within, 0)
    # expand reaches itself through its closure; dropping the name frees it
    # by reference counting, not in a later pass of the cycle collector.
    del expand


def enumerate_mis(g: Graph, within: int | None = None) -> MisFamily:
    """All maximal independent sets of g[within], by the pivoting search.

    Lists the maximal independent sets of the subgraph induced by
    ``within`` (all of g by default) as masks in g's own labels, with a
    profile over sizes 0..|within|: ``_sets_between`` over the full size
    window, so a sub-problem needs no relabeled copy and no node is
    pruned by size.  Practical well beyond the subset-scan cap.
    """
    if within is None:
        within = g.full_mask
    out: list[int] = []
    _sets_between(g, within, 0, within.bit_count(), out.append)
    return _family(within.bit_count(), out)


def mis_of_size(g: Graph, k: int | None = None) -> tuple[int, list[int]]:
    """The maximal independent sets of size exactly k, as sorted masks.

    ``_sets_between`` over the window k..k, which prunes every branch
    unable to end at size k.  With k None, k is the minimum size of a
    maximal independent set: a maximal independent set dominates g, so
    it has at least ceil(n / (Delta + 1)) vertices, and the windows from
    there up are tried in turn until one holds a set.  Returns (k, sets).

    Raises GuardError once more than MIS_OF_SIZE_CAP (2^17) sets of one
    size are held, so the list stays within a few MiB: 21 disjoint
    triangles (3^21 sets of size 21) trip it in under a second.  The
    largest list the pipeline benchmark and the test corpora produce is
    1,024 sets (diamond_union(10)).  The cap bounds memory, not time: a
    search that holds few sets can still visit as many nodes as
    ``enumerate_mis``.
    """
    if k is None:
        sizes = range(-(-g.n // (max_degree(g) + 1)), g.n + 1)
    else:
        sizes = (k,)
    out: list[int] = []

    def hold(mask: int) -> None:
        out.append(mask)
        if len(out) > MIS_OF_SIZE_CAP:
            raise GuardError(f"more than {MIS_OF_SIZE_CAP} maximal independent sets of size {k}")

    for k in sizes:
        _sets_between(g, g.full_mask, k, k, hold)
        if out:
            break
    return k, sorted(out)


def mis_profile(g: Graph) -> SizeProfile:
    """Exact per-size counts of maximal independent sets, without the sets.

    A maximal independent set of a disjoint union is one per component,
    so the profile is the convolution of the component profiles; only
    one component's sets are held at a time.
    """
    profile = SizeProfile((1,))
    for part in components(g.adj):
        profile = profile.convolve(enumerate_mis(g, part).profile)
    return profile


def min_mis(sets) -> int:
    """The smallest of the given sets, first by size, then by sorted vertex tuple.

    Given ``mis_of_size(g)[1]``, or all of ``enumerate_mis(g).sets``, this
    is the minimum-size maximal independent set the pipeline roots at.
    Of two sets of one size, the one holding the lowest vertex of their
    symmetric difference has the smaller sorted tuple: the tuples agree
    below that vertex and differ at it.  So no tuple is built.
    """
    it = iter(sets)
    best = next(it, None)
    if best is None:
        raise ValueError("min_mis() of no sets")
    size = best.bit_count()
    for mask in it:
        count = mask.bit_count()
        if count < size or count == size and (diff := mask ^ best) & -diff & mask:
            best, size = mask, count
    return best
