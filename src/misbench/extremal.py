"""Isomorphism-free generation of small graphs and extremal verification.

Canonical form is the lexicographically minimal upper-triangle bit string
(same bit order as graph6) over the vertex placements that put vertices
in the order of an isomorphism invariant, found by a pruned search that
also skips interchangeable twins.  The invariant does not depend on
labels, so the form stays canonical although it is not the minimum over
all permutations (see ``canonical_key``).  Generation augments the order
n-1 class list with one new vertex per possible neighborhood mask.  A
candidate is only a list of adjacency rows, never a ``Graph``, and the
mask is tested before those rows are built: masks are drawn by size,
from the parent's maximum degree up to the filter's degree cap,
K4-freeness becomes a test on the mask, and a mask goes on only when
it takes the lowest-numbered twins of each class of the parent's twins
and no automorphism that the parent's ``canonical_key`` search met maps
it to a smaller mask (orbit pruning, after McKay's canonical
construction path).  With the twin swaps those automorphisms reach the
parent's whole automorphism group, so each orbit keeps exactly one
mask.  An extension is keyed only when its new vertex has the maximum
of a vertex invariant, and kept only when that vertex lies in the orbit
of the vertex its canonical labelling places last (canonical deletion),
so each class is reached exactly once, from one parent and one mask.
This covers every class of any hereditary filter.  On top of that sit
the exhaustive bound checks: the size-capped count bound with its exact
equality characterization, and empirical tightness tables.
"""

from __future__ import annotations

import functools
import math
import os

from . import bounds
from .graphio import from_columns, to_graph6
from .graphs import Graph, GuardError, components, is_clique, iter_bits, k4_witness, max_degree
from .misenum import mis_profile

GENERATION_CAP = 8

# Automorphisms that, with the identity, meet every coset of the group
# the twin swaps generate, each a permutation as the tuple of images of
# the labels 0..n-1 (see ``canonical_key``).
Generators = tuple[tuple[int, ...], ...]


def _triangle_free_within(padj: tuple[int, ...], mask: int) -> bool:
    """Whether no triangle of the parent lies inside ``mask``."""
    for a in iter_bits(mask):
        inside = padj[a] & mask
        for b in iter_bits(inside):
            if padj[b] & inside:
                return False
    return True


# Hereditary filters as data: (degree cap, K4-free), a cap of None leaving
# the degree free.  ``_augment_chunk`` reads the cap as a loop bound and
# asks of a K4-free filter's masks that the new vertex close no triangle
# of the parent into a K4; ``admits`` tests a whole graph.
FILTERS = {
    "none": (None, False),
    "k4free": (None, True),
    "maxdeg3": (3, False),
    "both": (3, True),
}


def admits(g: Graph, filter_name: str) -> bool:
    """Whether ``g`` is in the class of the filter ``filter_name``."""
    cap, k4free = FILTERS[filter_name]
    if cap is not None and max_degree(g) > cap:
        return False
    return not k4free or k4_witness(g) is None


@functools.cache
def _masks_by_size(m: int) -> tuple[tuple[int, ...], ...]:
    """The masks of ``m`` bits grouped by size: entry d holds those of d bits."""
    groups: list[list[int]] = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        groups[mask.bit_count()].append(mask)
    return tuple(map(tuple, groups))


def vertex_invariants(adj: tuple[int, ...] | list[int]) -> list[int]:
    """Per-vertex isomorphism invariant: degree, then neighbors of each degree.

    Each entry is one int whose base-65 digits are the vertex's degree
    followed by its number of neighbors of each of the graph's distinct
    degrees, in increasing order of degree.  No digit exceeds 64, and
    every vertex of one graph has the same number of digits, so the ints
    order exactly as those tuples do lexicographically; entries compare
    only within one graph.  Relabeling the graph permutes the list
    without changing any entry.
    """
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    degree_masks = [by_degree[d] for d in sorted(by_degree)]
    out = []
    for row in adj:
        inv = row.bit_count()
        for m in degree_masks:
            inv = inv * 65 + (row & m).bit_count()
        out.append(inv)
    return out


def lower_twins(adj: tuple[int, ...] | list[int]) -> list[int]:
    """Per vertex v, the mask of its twins w < v: N(w) minus v equals N(v) minus w.

    Nonadjacent twins (false twins) have equal rows; adjacent ones (true
    twins) have equal closed rows.  The relation is an equivalence, each
    class all false or all true twins, and swapping two twins is an
    automorphism.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    out = []
    for v, row in enumerate(adj):
        bit = 1 << v
        closed = row | bit
        open_twins = by_open.get(row, 0)
        closed_twins = by_closed.get(closed, 0)
        out.append(open_twins | closed_twins)
        by_open[row] = open_twins | bit
        by_closed[closed] = closed_twins | bit
    return out


def canonical_key(
    adj: tuple[int, ...] | list[int], invariant: list[int] | None = None
) -> tuple[tuple[int, ...], Generators, bool]:
    """Canonical per-position adjacency segments of the graph with rows
    ``adj``, with automorphisms of the graph they rebuild and whether the
    highest label n-1 lies in the orbit of the vertex placed last.

    Position j's segment holds the adjacency bits between the vertex
    placed at j and the vertices placed at 0..j-1 (bit for position 0 is
    the most significant), so the key holds the graph6 columns of the
    relabeled graph and ``graphio.from_columns`` rebuilds it.

    Vertices are sorted by ``vertex_invariants`` (degree, number of
    neighbors of each degree), and position j may only take a vertex
    whose invariant is the j-th in that order.  The key is the
    lexicographic minimum over these invariant-respecting placements
    only, not over all permutations.  It is still a canonical form: the invariant does not
    depend on labels, so relabeling the graph permutes the set of allowed
    placements without changing the set of keys they produce, and since
    the key rebuilds a copy of the graph, graphs with equal keys are
    isomorphic.  Two graphs of equal order are isomorphic iff their keys
    are equal.  ``adj`` must be a valid table (a ``Graph``'s ``adj``, or
    rows derived from one); it is read, never validated.  ``invariant``,
    when given, must be ``vertex_invariants(adj)``; the generator passes
    the list its deletion gate already computed.

    The search picks, at each level, the candidates whose segment is the
    least, and descends only when that segment does not exceed the best
    known one at the level; a lower segment rewrites the best and
    invalidates the deeper levels.  A vertex is skipped while one of its
    ``lower_twins`` is still unused: swapping the two is an automorphism
    fixing every placed vertex, so both subtrees yield the same segments.

    So a leaf (a full placement) is reached only with every segment equal
    to the best one, and the leaves reached since the last lowering all
    have the final segments.  The map from the first of them to each
    later one is an automorphism, one per leaf, returned on the key's
    positions: perm[j] is the image of position j in
    ``from_columns(key)``.  Every leaf with the final segments is
    either reached after the last lowering or skipped by the twin rule,
    and each reached leaf places every class of twins in label order.
    So each map is increasing on every twin class, and with the identity
    they hold one map of each coset of the group T that the twin swaps
    generate (T is normal: an automorphism maps twin classes onto twin
    classes; a coset holds one map increasing on every twin class).  A
    leaf reached before the last lowering has other segments and gives
    no map.

    The third value is the generator's canonical deletion test: whether
    n-1 lies in the orbit, under the whole automorphism group, of the
    vertex placed last (the key's position n-1).  The maps carry the
    first leaf's last vertex to each later leaf's and the twin swaps move
    a vertex over its twin class, so that orbit is the union of the twin
    classes of the leaves' last vertices.  A leaf places each twin class
    in label order, so its last vertex is the highest of its class, as
    n-1 is of its own: n-1 lies in the orbit exactly when a leaf places
    it last.

    Each frame of the search holds its own list of segments.  A forced
    level (one candidate) adds its vertex's bits to that list and goes on
    to the next level in the same frame; a branching level gives each
    candidate a copy of the list and one deeper frame.  So nothing is
    undone on the way back; the leaves are reached in the order of a
    depth-first search that takes the candidates of each level in label
    order.
    """
    n = len(adj)
    if n == 0:
        return (), (), False
    if invariant is None:
        invariant = vertex_invariants(adj)
    cell_of: dict[int, int] = {}
    for v, inv in enumerate(invariant):
        cell_of[inv] = cell_of.get(inv, 0) | 1 << v
    cells = [cell_of[inv] for inv in sorted(invariant)]
    twins = lower_twins(adj)

    # Segments are kept top-aligned (position i weighs 1 << (n-1-i)) and
    # shifted down at the end; in each frame's list segs, segs[v] is v's
    # segment against the vertices placed so far.
    unset = 1 << n
    best = [unset] * n
    last = n - 1
    path = [0] * n
    # The leaves reached since best last fell.
    leaves: list[list[int]] = []

    def place(level: int, used: int, segs: list[int]) -> None:
        while True:
            free = cells[level] & ~used
            least = unset
            ties = 0
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                if twins[v] & ~used:
                    continue
                seg = segs[v]
                if seg < least:
                    least = seg
                    ties = low
                elif seg == least:
                    ties |= low
            top = best[level]
            if least > top:
                return
            if least < top:
                best[level] = least
                best[level + 1 :] = [unset] * (last - level)
                leaves.clear()
            if level == last:
                # One vertex is left, and the placement is a leaf.
                path[last] = ties.bit_length() - 1
                leaves.append(path[:])
                return
            bit = 1 << (last - level)
            if ties & (ties - 1):
                # A branching level: each tie goes on in its own copy.
                while ties:
                    low = ties & -ties
                    ties ^= low
                    v = low.bit_length() - 1
                    path[level] = v
                    child = segs[:]
                    rest = adj[v] & ~used
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        child[low.bit_length() - 1] |= bit
                    place(level + 1, used | 1 << v, child)
                return
            # A forced level: its one tie goes on in this frame.
            v = ties.bit_length() - 1
            path[level] = v
            rest = adj[v] & ~used
            while rest:
                low = rest & -rest
                rest ^= low
                segs[low.bit_length() - 1] |= bit
            used |= ties
            level += 1

    place(0, 0, [0] * n)
    # place reaches itself through its closure; dropping the name frees it
    # by reference counting, not in a later pass of the cycle collector.
    del place
    key = tuple([b >> (n - j) for j, b in enumerate(best)])
    pos = [0] * n
    for j, v in enumerate(leaves[0]):
        pos[v] = j
    last_in_orbit = any(leaf[last] == last for leaf in leaves)
    return key, tuple(tuple([pos[v] for v in leaf]) for leaf in leaves[1:]), last_in_orbit


def _least_in_orbit(mask: int, images: list[list[int]]) -> bool:
    """Whether no map given as ``images`` takes ``mask`` to a smaller int:
    images[i][v] is the bit of map i's image of vertex v."""
    for image in images:
        moved = 0
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            moved |= image[low.bit_length() - 1]
        if moved < mask:
            return False
    return True


def _augment_chunk(
    args: tuple[list[tuple[tuple[int, ...], Generators]], int, str],
) -> list[tuple[tuple[int, ...], Generators]]:
    """The classes of order n reached from these parents, each once, as
    its canonical key with the generators ``canonical_key`` returned.

    Each mask is a candidate neighborhood of the new vertex, and it is
    tested on the mask and the parent's rows; no ``Graph`` is built:

    - Degree gate: the new vertex, of degree d, must reach the maximum
      degree.  It bounds the loop: d runs from the parent's maximum
      degree up to the filter's degree cap (n - 1 without one), over the
      masks of d vertices from ``_masks_by_size``, so no mask of another
      size is tried.  A mask of size d still fails when it holds a parent
      vertex of degree d, which would end at d + 1.
    - Twin gate: the mask takes, of each class of the parent's twins, a
      prefix in label order (it holds no vertex without all of its
      ``lower_twins``).  This is exact.  A twin class holds only false
      twins or only true twins: if u, v are false twins and v, w true
      twins, w lies in N(v) = N(u), so u lies in N(w), which is inside
      N[v], against u, v nonadjacent.  So any permutation inside a class
      is an automorphism of the parent, and every mask is carried by one
      onto a mask that takes prefixes; fixing the new vertex, it extends
      to an isomorphism of the two extensions.  Every gate here depends
      on the graph and the new vertex only, not on labels, so the
      prefix mask passes exactly when the skipped one would.
    - Orbit gate: no map of the parent's generators F, the automorphisms
      its ``canonical_key`` search met, takes the mask to a smaller int
      (``_least_in_orbit``).  Every automorphism is t f with t in the
      group T of the twin swaps and f in F or the identity, and each f
      is increasing on every twin class, so it carries a mask that takes
      twin prefixes to another one.  Let M pass the twin gate and M0 be
      the least mask of its orbit under the whole group; M0 takes twin
      prefixes (a mask holding a twin without its lower twin has a
      smaller image under their swap).  Then M0 = t(f(M)), and f(M)
      takes prefixes in the T-orbit of M0, which holds no other such
      mask, so f(M) = M0: M passes exactly when it is M0, and each orbit
      keeps one mask.  Any automorphism, as above, carries a mask to an
      isomorphic extension that passes the same gates.
    - Filter: its degree cap is the loop bound above; a K4-free filter
      also asks that no triangle of the parent lie inside the mask.
    - Canonical deletion: the extension is kept only when its new vertex
      n-1 lies in the orbit of the vertex its canonical labelling places
      last (the third value of ``canonical_key``; McKay's canonical
      construction path).  The labelling places vertices in increasing
      order of ``vertex_invariants``, so a new vertex below the maximum
      invariant fails, and that is tested first, before the labelling.
      Each class G of order n is kept exactly once.  At least once:
      deleting the last-placed vertex u leaves a graph of the hereditary
      class, isomorphic to a parent; adding u back is a mask of that
      parent whose orbit keeps a mask, and the extension it gives is
      isomorphic to G through a map taking the new vertex to u, so there
      too the new vertex lies in the orbit of the vertex placed last.
      At most once: if two kept extensions give G, an automorphism of G
      maps one new vertex onto the other, so their parents are
      isomorphic, hence one class, and its restriction is an automorphism
      of that parent mapping one mask onto the other, which the orbit
      gate keeps only once.

    Each parent comes as its rows with its generators, permutations of
    its labels.  A survivor's rows are keyed as they are, with the
    invariant list of the deletion test.
    """
    parents, n, filter_name = args
    cap, k4free = FILTERS[filter_name]
    top = n - 1 if cap is None else min(cap, n - 1)
    by_size = _masks_by_size(n - 1)
    kept: list[tuple[tuple[int, ...], Generators]] = []
    new_bit = 1 << (n - 1)
    for padj, generators in parents:
        peak = max(row.bit_count() for row in padj)
        # At d = peak, a parent vertex of degree peak that gains the new
        # edge would end above d; past peak, none can.
        heavy = sum(1 << v for v, row in enumerate(padj) if row.bit_count() == peak)
        twins = [(1 << v, low) for v, low in enumerate(lower_twins(padj)) if low]
        images = [[1 << w for w in perm] for perm in generators]
        # The new vertex has degree d, from the parent's maximum degree (a
        # parent vertex of degree > d would end above d) up to the cap.
        for d in range(peak, top + 1):
            for mask in by_size[d]:
                if mask & heavy:
                    continue
                for v, low in twins:
                    if mask & v and low & ~mask:
                        break
                else:
                    if images and not _least_in_orbit(mask, images):
                        continue
                    if k4free and not _triangle_free_within(padj, mask):
                        continue
                    rows = [row | new_bit if mask >> v & 1 else row for v, row in enumerate(padj)]
                    rows.append(mask)
                    invariant = vertex_invariants(rows)
                    if invariant[-1] < max(invariant):
                        continue
                    key, found, last_in_orbit = canonical_key(rows, invariant)
                    if last_in_orbit:
                        kept.append((key, found))
            heavy = 0
    return kept


# Per (order, filter): the class representatives, and beside each the
# automorphisms that ``canonical_key`` returned for it.
_class_cache: dict[tuple[int, str], tuple[list[Graph], list[Generators]]] = {}


def check_order(n: int) -> None:
    """Raise ValueError for a negative order, GuardError past GENERATION_CAP."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > GENERATION_CAP:
        raise GuardError(f"exhaustive generation capped at {GENERATION_CAP} vertices")


def generate_all(n: int, filter_name: str = "none", workers: int = 1) -> list[Graph]:
    """One canonical representative per isomorphism class of order n.

    ``filter_name`` must be a hereditary filter from FILTERS ("none",
    "k4free", "maxdeg3", "both").  Each order extends the order n-1
    classes by one vertex; ``_augment_chunk`` keeps, of each parent, only
    the extensions whose mask no automorphism that the parent's labelling
    met takes to a smaller mask and whose new vertex lies in the orbit of
    the vertex the labelling places last, so each class arrives once,
    from one parent and one mask.  The classes are sorted by key, so the
    representatives and their order do not depend on the parent order.
    Results are memoized per process, with each class's generators for
    the next order; ``workers`` > 1 splits the augmentation of the parent
    list across a process pool of at most ``os.cpu_count()`` processes
    (the same classes and generators either way); fewer than 1 is a
    ValueError.
    """
    check_order(n)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; options: {sorted(FILTERS)}")
    cached = _class_cache.get((n, filter_name))
    if cached is not None:
        return cached[0]
    if n <= 1:
        reps, groups = [Graph((0,) * n)], [()]
    else:
        parent_reps = generate_all(n - 1, filter_name, workers)
        parents = list(zip([g.adj for g in parent_reps], _class_cache[n - 1, filter_name][1]))
        # More processes than CPUs only add start-up cost and memory.
        procs = min(workers, os.cpu_count() or 1)
        if procs > 1 and len(parents) > 1:
            chunk = max(1, len(parents) // (procs * 4))
            jobs = [
                (parents[i : i + chunk], n, filter_name)
                for i in range(0, len(parents), chunk)
            ]
            # Imported here so that serial runs do not pay for loading it.
            from multiprocessing import Pool

            with Pool(min(procs, len(jobs))) as pool:
                parts = pool.map(_augment_chunk, jobs)
        else:
            parts = [_augment_chunk((parents, n, filter_name))]
        # Keys are distinct, so the generators are never compared.
        classes = sorted(item for part in parts for item in part)
        reps = [from_columns(key) for key, _ in classes]
        groups = [generators for _, generators in classes]
    _class_cache[(n, filter_name)] = reps, groups
    return reps


def is_clique_union(g: Graph) -> tuple[bool, int]:
    """Whether every component is a triangle or a K4; returns the component count."""
    comps = components(g.adj)
    for comp in comps:
        if comp.bit_count() not in (3, 4) or not is_clique(g, comp):
            return False, len(comps)
    return True, len(comps)


def verify_equality_scan(reps: list[Graph]) -> list[dict]:
    """Check mis_{<=k} <= 3^{4k-n} 4^{n-3k} over the classes ``reps``, every k.

    Exact rationals throughout.  A class violates when it exceeds the
    bound, attains equality without being a disjoint union of exactly k
    cliques of size 3 or 4, or has that structure without equality.
    Returns the rows ``verify-theorem2`` prints, one per k: ``n``, ``k``,
    the ``bound`` as a Fraction, the ``max_count`` over the classes, the
    number of ``attainers`` and the graph6 list of ``violations``.  The
    classes share one order n, read from the first; the list is not empty.
    """
    n = reps[0].n
    rows = []
    profiles = [(g, mis_profile(g), is_clique_union(g)) for g in reps]
    for k in range(n + 1):
        bound = bounds.eppstein(n, k).exact
        # The counts are ints: count > bound iff count > floor(bound), and
        # count == bound only for an integral bound.
        floor = bound.numerator // bound.denominator
        integral = bound.denominator == 1
        attainers = 0
        violations = []
        max_count = 0
        for g, profile, (structural, ncomp) in profiles:
            count = sum(profile[: k + 1])
            max_count = max(max_count, count)
            is_extremal = structural and ncomp == k
            attained = integral and count == floor
            if count > floor:
                violations.append(to_graph6(g))
            elif attained != is_extremal:
                violations.append(to_graph6(g))
            attainers += attained
        rows.append(
            {
                "n": n,
                "k": k,
                "bound": bound,
                "max_count": max_count,
                "attainers": attainers,
                "violations": violations,
            }
        )
    return rows


def tightness_scan(reps: list[Graph], selector: str, eta: float = 0.4) -> list[dict]:
    """Empirical per-k maxima of mis_k over the classes ``reps``, which
    share one order n, read from the first (the list is not empty),
    against the bound family ``bounds.SELECTORS[selector]``; only
    corollary1 reads ``eta``, which the command checks beforehand."""
    if selector not in bounds.SELECTORS:
        raise ValueError(f"unknown bound selector {selector!r}; options: {sorted(bounds.SELECTORS)}")
    bound_ln = bounds.SELECTORS[selector]
    n = reps[0].n
    profiles = [(g, mis_profile(g)) for g in reps]
    rows = []
    for k in range(n + 1):
        best_count = 0
        argmax = None
        for g, profile in profiles:
            if profile[k] > best_count:
                best_count = profile[k]
                argmax = g
        ln_bound = bound_ln(n, k, eta)
        rows.append(
            {
                "k": k,
                "max_mis_k": best_count,
                "ln_bound": ln_bound,
                "ratio": best_count / math.exp(ln_bound) if best_count else 0.0,
                "argmax": to_graph6(argmax) if argmax is not None else None,
            }
        )
    return rows
