"""Enumeration of maximal independent sets, counted exactly by size.

Two pivoting searches read the graph's closed neighborhoods from
``closed_table``, which each entry point builds once per input graph,
however many masks it then searches.  One lists, one counts, and they
share no code, so each checks the other.

The listing search ``_sets_between`` lists the sets whose size lies in a
window, on the subgraph induced by a vertex mask and in the input
graph's own labels.  It drops a node as
soon as its pivot scan meets a vertex that no candidate can dominate,
or when the vertices left to dominate outnumber what the window's
remaining choices can dominate, and finishes a node one vertex short of
the window's top by testing each possible last vertex, without a
recursive call.  ``mis_sets_in`` runs it over every size, and
``mibs_counts`` reads those sets; ``mis_sets`` returns them sorted.
``mis_of_size`` runs it over one size, where its size bounds prune every
branch unable to end there, and the pipeline reads its root-size sets
from it; for the minimum size it searches each connected component alone
and multiplies the results.

The counting search ``_count_sizes`` gives the number of sets of each
size on a vertex mask.  It carries the size of the set so far, not the
set, reads its pivot from the excluded vertices first, and tallies a
branch that leaves no candidate inside the branch loop, so no set is
built and no call is made per set.  ``mis_profile`` runs it on each
connected component, as a mask of the graph, and convolves the
component profiles.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod

from .graphs import MAX_VERTICES, Graph, GuardError, components, max_degree

MIS_OF_SIZE_CAP = 1 << 17  # sets of one size held by mis_of_size; see its docstring


def convolve(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product of two count polynomials, coefficient k being the
    count at size k: the size profile of a disjoint union from those of
    its two parts."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def closed_table(g: Graph) -> list[int]:
    """The closed neighborhoods of g as ``_sets_between`` reads them:
    N[v] at index v + 1 and 0 at index 0, so the row of a one-bit mask b
    is ``closed[b.bit_length()]``."""
    return [0] + [row | 1 << v for v, row in enumerate(g.adj)]


def _sets_between(
    closed: list[int],
    within: int,
    lo: int,
    hi: int,
    emit: Callable[[int], None],
    reach: int = MAX_VERTICES,
) -> None:
    """Call emit(mask) for each maximal independent set of g[within] of
    size lo..hi, where ``closed`` is ``closed_table(g)``: a caller builds
    it once per graph and passes it to every search on that graph.

    The pivoting search of Bron & Kerbosch with the pivot rule of Tomita,
    Tanaka & Takahashi, on masks of g: R is the set so far, P the
    candidates and X the excluded vertices that a later choice must still
    dominate.  With P empty, R is emitted when X is empty too, and the
    node is a dead end otherwise.  The pivot is the vertex of U = P | X
    whose closed neighborhood meets P least, and the node branches on
    P & N[pivot]; the scan stops at the first vertex of U with no
    neighbor in P, since nothing can dominate it: a dead end.
    A completion adds vertices of P only, so a node is pruned when
    |R| + |P| < lo.  It must dominate U with at most hi - |R| more
    vertices, none of which dominates more than ``reach`` vertices (any
    bound on the closed neighborhoods of g, such as Delta + 1; the
    default holds for every graph), so the node is pruned when
    |U| > (hi - |R|) * reach.  In the full window 0..|within|, |U| is at
    most hi - |R|, and that test never prunes.

    A node one vertex short of hi is finished without recursion: R is not
    maximal while P is non-empty, so each completion is R | {v} for one
    v in P with U inside N[v].  Such a v lies in N[w] for the lowest
    vertex w of U, and each v in P & N[w] costs one test of U against
    N[v].  Every v in P keeps R | {v} independent and outside X, so this
    emits exactly the completions the recursion would.
    """
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
        if size + p.bit_count() < lo or u.bit_count() > (hi - size) * reach:
            return
        fewest = len(closed)
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


def mis_sets_in(closed: list[int], within: int) -> list[int]:
    """All maximal independent sets of g[within], in search order, where
    ``closed`` is ``closed_table(g)``.

    The subgraph induced by ``within`` is searched in g's own labels by
    ``_sets_between`` over the full size window, so a sub-problem needs
    no relabeled copy and no node is pruned by size.
    """
    out: list[int] = []
    _sets_between(closed, within, 0, within.bit_count(), out.append)
    return out


def mis_sets(g: Graph, within: int | None = None) -> list[int]:
    """All maximal independent sets of g[within] (all of g by default), as
    sorted masks: ``mis_sets_in`` sorted."""
    out = mis_sets_in(closed_table(g), g.full_mask if within is None else within)
    out.sort()
    return out


class _Overflow(Exception):
    """More than MIS_OF_SIZE_CAP sets of one size were held."""


def _sets_of_size(closed: list[int], within: int, k: int, reach: int) -> list[int]:
    """The maximal independent sets of g[within] of size k, from
    ``closed_table(g)``.  The search stops once it holds more than
    MIS_OF_SIZE_CAP of them: a list that long only says that the cap is
    passed."""
    out: list[int] = []

    def hold(mask: int) -> None:
        out.append(mask)
        if len(out) > MIS_OF_SIZE_CAP:
            raise _Overflow

    try:
        _sets_between(closed, within, k, k, hold, reach)
    except _Overflow:
        pass
    return out


def mis_of_size(g: Graph, k: int | None = None) -> tuple[int, list[int]]:
    """The maximal independent sets of size exactly k, as sorted masks.

    ``_sets_between`` over the window k..k, which prunes every branch
    unable to end at size k, with Delta + 1 bounding the vertices that
    one vertex dominates.  With k None, k is the minimum size of a
    maximal independent set.  A maximal independent set of a disjoint
    union is one per component, so each connected component C is
    searched alone, over the windows from ceil(|C| / (Delta + 1)) up (a
    maximal independent set dominates C) until one holds a set; k is the
    sum of the component minima and the sets are the unions of one
    minimum set per component.  Returns (k, sets).

    Raises GuardError when there are more than MIS_OF_SIZE_CAP (2^17)
    sets of size k, so the list stays within a few MiB.  The product of
    the component counts is compared with the cap before any union is
    built: 21 disjoint triangles (3^21 sets of size 21) trip it at once.
    The largest list the pipeline benchmark and the test corpora produce
    is 1,024 sets (diamond_union(10)).  The cap bounds memory, not time:
    a search that holds few sets can still visit as many nodes as
    ``mis_sets``.
    """
    reach = max_degree(g) + 1
    closed = closed_table(g)
    if k is not None:
        factors = [_sets_of_size(closed, g.full_mask, k, reach)]
    else:
        k = 0
        factors = []
        for part in components(g.adj):
            size = -(-part.bit_count() // reach)
            while not (sets := _sets_of_size(closed, part, size, reach)):
                size += 1
            k += size
            factors.append(sets)
    if prod(map(len, factors)) > MIS_OF_SIZE_CAP:
        raise GuardError(f"more than {MIS_OF_SIZE_CAP} maximal independent sets of size {k}")
    out = [0]
    for sets in factors:
        out = [a | b for a in out for b in sets]
    return k, sorted(out)


def _count_sizes(closed: list[int], within: int) -> list[int]:
    """Entry k counts the maximal independent sets of g[within] of size k,
    for k = 0..|within|, where ``closed`` is ``closed_table(g)``.

    The pivoting search of ``_sets_between`` cut down to counting: a node
    carries the size of R, not R, and no set is built or emitted.  The
    pivot is read from X first, as a vertex of X that meets no candidate
    is a dead end and one that meets a single candidate is the best pivot
    there is; P is scanned only while no vertex found so far meets P in
    fewer than two vertices, and the scan stops at the first vertex of P
    with no other neighbor in P.  A branch that leaves no candidate is
    tallied in the branch loop itself, when it leaves X empty too, with
    no recursive call.
    """
    counts = [0] * (within.bit_count() + 1)

    def expand(size: int, p: int, x: int) -> None:
        fewest = len(closed)
        rest = x
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
        if fewest > 1:
            rest = p
            while rest:
                low = rest & -rest
                rest ^= low
                row = closed[low.bit_length()]
                hits = (row & p).bit_count()
                if hits < fewest:
                    fewest = hits
                    pivot = row
                    if hits == 1:
                        break
        size += 1
        branch = p & pivot
        while branch:
            low = branch & -branch
            branch ^= low
            row = closed[low.bit_length()]
            left = p & ~row
            if left:
                expand(size, left, x & ~row)
            elif not x & ~row:
                counts[size] += 1
            p ^= low
            x |= low

    if within:
        expand(0, within, 0)
    else:
        counts[0] = 1
    # As in _sets_between: dropping the name frees the closure at once.
    del expand
    return counts


def mis_profile(g: Graph) -> tuple[int, ...]:
    """Exact per-size counts of maximal independent sets, without the sets:
    entry k of the returned tuple, for k = 0..n, counts those of size k.

    A maximal independent set of a disjoint union is one per component,
    so the profile is the convolution of the component profiles.  Each
    component, a mask of g, is counted by ``_count_sizes``, a search of
    its own that lists nothing; the listing search ``_sets_between``
    behind ``mis_sets`` shares no code with it, so each checks the
    other.  The closed table is built once, for all components.
    """
    closed = closed_table(g)
    profile = (1,)
    for part in components(g.adj):
        profile = convolve(profile, _count_sizes(closed, part))
    return profile


def min_mis(sets) -> int:
    """The smallest of the given sets, first by size, then by sorted vertex tuple.

    Given ``mis_of_size(g)[1]``, or all of ``mis_sets(g)``, this
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
