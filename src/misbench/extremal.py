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
of a vertex invariant (canonical deletion); a dict on the canonical key
removes the classes still reached more than once.  This covers every
class of any hereditary filter.  On top of that sit the exhaustive
bound checks: the size-capped count bound with its exact equality
characterization, and empirical tightness tables.
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
) -> tuple[tuple[int, ...], Generators]:
    """Canonical per-position adjacency segments of the graph with rows
    ``adj``, with automorphisms of the graph they rebuild.

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
    ``from_columns(n, key)``.  Every leaf with the final segments is
    either reached after the last lowering or skipped by the twin rule,
    and each reached leaf places every class of twins in label order.
    So each map is increasing on every twin class, and with the identity
    they hold one map of each coset of the group T that the twin swaps
    generate (T is normal: an automorphism maps twin classes onto twin
    classes; a coset holds one map increasing on every twin class).  A
    leaf reached before the last lowering has other segments and gives
    no map.
    """
    n = len(adj)
    if n == 0:
        return (), ()
    if invariant is None:
        invariant = vertex_invariants(adj)
    cell_of: dict[int, int] = {}
    for v, inv in enumerate(invariant):
        cell_of[inv] = cell_of.get(inv, 0) | 1 << v
    cells = [cell_of[inv] for inv in sorted(invariant)]
    twins = lower_twins(adj)

    # Segments are kept top-aligned (position i weighs 1 << (n-1-i)) and
    # shifted down at the end; segs[v] is v's segment against the placed
    # vertices.
    unset = 1 << n
    best = [unset] * n
    segs = [0] * n
    last = n - 1
    path = [0] * n
    # The leaves reached since best last fell.
    leaves: list[list[int]] = []

    def place(level: int, used: int) -> None:
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
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            path[level] = v
            nbrs = rest = adj[v] & ~used
            while rest:
                low = rest & -rest
                rest ^= low
                segs[low.bit_length() - 1] |= bit
            place(level + 1, used | 1 << v)
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                segs[low.bit_length() - 1] ^= bit

    place(0, 0)
    # place reaches itself through its closure; dropping the name frees it
    # by reference counting, not in a later pass of the cycle collector.
    del place
    key = tuple(b >> (n - j) for j, b in enumerate(best))
    pos = [0] * n
    for j, v in enumerate(leaves[0]):
        pos[v] = j
    return key, tuple(tuple([pos[v] for v in leaf]) for leaf in leaves[1:])


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
) -> dict[tuple[int, ...], Generators]:
    """Canonical keys of the filtered one-vertex extensions of each parent.

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
    - Canonical deletion: the new vertex must have the maximum
      ``vertex_invariants`` entry, compared first on degree (the degree
      gate) and then, among the vertices of that degree, on the full
      invariant.  Every class of order n keeps at least one extension:
      deleting a vertex of maximum invariant leaves a graph of the
      hereditary class, isomorphic to a parent, and adding the vertex
      back is, through that isomorphism, a mask of the parent whose orbit
      keeps a mask.

    Each parent comes as its rows with its generators, permutations of
    its labels.  A survivor's rows are keyed as they are, reusing the
    invariant list of the deletion gate when it was computed.  A class
    can still arise from several parents or masks, so the returned dict
    maps each key to the generators its first keying returned.
    """
    parents, n, filter_name = args
    cap, k4free = FILTERS[filter_name]
    top = n - 1 if cap is None else min(cap, n - 1)
    by_size = _masks_by_size(n - 1)
    seen: dict[tuple[int, ...], Generators] = {}
    new_bit = 1 << (n - 1)
    for padj, generators in parents:
        # geq[d]: parent vertices of degree >= d (geq[n] stays 0).
        geq = [0] * (n + 1)
        for v, row in enumerate(padj):
            for d in range(row.bit_count() + 1):
                geq[d] |= 1 << v
        twins = [(1 << v, low) for v, low in enumerate(lower_twins(padj)) if low]
        images = [[1 << w for w in perm] for perm in generators]
        # The new vertex has degree d, from the parent's maximum degree (a
        # parent vertex of degree > d would end above d) up to the cap.
        for d in range(max(row.bit_count() for row in padj), top + 1):
            # Parent vertices of degree d end above d if they gain the new
            # edge; those that end at d tie with the new vertex (mask is 0
            # when d is 0, so geq[-1] never counts).
            at_d, below = geq[d], geq[d - 1]
            for mask in by_size[d]:
                if mask & at_d:
                    continue
                if any(mask & v and low & ~mask for v, low in twins):
                    continue
                if images and not _least_in_orbit(mask, images):
                    continue
                if k4free and not _triangle_free_within(padj, mask):
                    continue
                rows = [row | new_bit if mask >> v & 1 else row for v, row in enumerate(padj)]
                rows.append(mask)
                invariant = None
                if at_d | mask & below:
                    invariant = vertex_invariants(rows)
                    if invariant[-1] < max(invariant):
                        continue
                seen.setdefault(*canonical_key(rows, invariant))
    return seen


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
    classes by one vertex; ``_augment_chunk`` keys, of each parent, only
    the extensions whose mask no automorphism that the parent's labelling
    met takes to a smaller mask and whose new vertex has the maximum
    invariant, and the keys are merged in a dict and sorted, so the
    representatives and their order do not depend on which extension
    reached a class.  Results are memoized per process, with each class's
    generators for the next order; ``workers`` > 1 splits the
    augmentation of the parent list across a process pool of at most
    ``os.cpu_count()`` processes (deterministic output either way: the
    parts merge in parent order, so a class keeps the generators a serial
    run finds first); fewer than 1 is a ValueError.
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
        reps, groups = [Graph(n, (0,) * n)], [()]
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

            keys: dict[tuple[int, ...], Generators] = {}
            with Pool(min(procs, len(jobs))) as pool:
                for part in pool.map(_augment_chunk, jobs):
                    for key, generators in part.items():
                        keys.setdefault(key, generators)
        else:
            keys = _augment_chunk((parents, n, filter_name))
        order = sorted(keys)
        reps = [from_columns(n, key) for key in order]
        groups = [keys[key] for key in order]
    _class_cache[(n, filter_name)] = reps, groups
    return reps


def is_clique_union(g: Graph) -> tuple[bool, int]:
    """Whether every component is a triangle or a K4; returns the component count."""
    comps = components(g.adj)
    for comp in comps:
        if comp.bit_count() not in (3, 4) or not is_clique(g, comp):
            return False, len(comps)
    return True, len(comps)


def verify_equality_scan(n: int, reps: list[Graph]) -> list[dict]:
    """Check mis_{<=k} <= 3^{4k-n} 4^{n-3k} over the order-n classes ``reps``, every k.

    Exact rationals throughout.  A class violates when it exceeds the
    bound, attains equality without being a disjoint union of exactly k
    cliques of size 3 or 4, or has that structure without equality.
    Returns the rows ``verify-theorem2`` prints, one per k: ``n``, ``k``,
    the ``bound`` as a Fraction, the ``max_count`` over the classes, the
    number of ``attainers`` and the graph6 list of ``violations``.
    """
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


def tightness_scan(n: int, reps: list[Graph], selector: str, eta: float = 0.4) -> list[dict]:
    """Empirical per-k maxima of mis_k over the order-n classes ``reps``
    against the bound family ``bounds.SELECTORS[selector]``; only
    corollary1 reads ``eta``, which the command checks beforehand."""
    if selector not in bounds.SELECTORS:
        raise ValueError(f"unknown bound selector {selector!r}; options: {sorted(bounds.SELECTORS)}")
    bound_ln = bounds.SELECTORS[selector]
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
