"""Isomorphism-free generation of small graphs and extremal verification.

Canonical form is the lexicographically minimal upper-triangle bit string
(same bit order as graph6) over the vertex placements that put vertices
in the order of an isomorphism invariant, found by a pruned search that
also skips interchangeable twins.  The invariant does not depend on
labels, so the form stays canonical although it is not the minimum over
all permutations (see ``canonical_key``).  Generation augments the order
n-1 class list with one new vertex per possible neighborhood mask.  A
candidate is only a list of adjacency rows, never a ``Graph``, and the
mask is tested before those rows are built: the filter becomes a test on
the mask, masks that differ only by swapping twins of the parent are
tried once (the cheap, exact part of orbit pruning), and an extension is
keyed only when its new vertex has the maximum of a vertex invariant
(canonical deletion, after McKay's canonical construction path).  A dict
on the canonical key removes the classes still reached more than once,
so no automorphism groups are needed.  This covers every class of any
hereditary filter.  On top of that sit the exhaustive bound checks: the
size-capped count bound with its exact equality characterization, the
max-degree-2 slack factors, and empirical tightness tables.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import bounds
from .graphio import decode_ascii, parse_graph6, to_graph6
from .graphs import (
    Graph,
    GuardError,
    components,
    is_clique,
    iter_bits,
    max_degree,
)
from .mibs import mibs_counts
from .misenum import mis_profile

GENERATION_CAP = 8


def _triangle_free_within(padj: tuple[int, ...], mask: int) -> bool:
    """Whether no triangle of the parent lies inside ``mask``."""
    for a in iter_bits(mask):
        inside = padj[a] & mask
        for b in iter_bits(inside):
            if padj[b] & inside:
                return False
    return True


# Hereditary filters as tests on a one-vertex extension, given the parent's
# rows, the new vertex's neighborhood mask and its degree d.  The parent
# passes the filter and, past the degree gate of ``_augment_chunk``, d is
# the maximum degree, so "maxdeg3" reads d alone and "k4free" asks that
# the new vertex close no triangle of the parent into a K4.
FILTERS = {
    "none": lambda padj, mask, d: True,
    "k4free": lambda padj, mask, d: _triangle_free_within(padj, mask),
    "maxdeg3": lambda padj, mask, d: d <= 3,
    "both": lambda padj, mask, d: d <= 3 and _triangle_free_within(padj, mask),
}


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
) -> tuple[int, ...]:
    """Canonical per-position adjacency segments of the graph with rows ``adj``.

    Position j's segment holds the adjacency bits between the vertex
    placed at j and the vertices placed at 0..j-1 (bit for position 0 is
    the most significant), so the tuple concatenates to the graph6 bit
    order of the relabeled graph and ``graph_from_key`` rebuilds it.

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

    The search only ever descends along placements that realize the best
    known prefix exactly; a placement whose segment beats the best prefix
    rewrites it and invalidates the deeper levels.  A vertex is skipped
    while one of its ``lower_twins`` is still unused: swapping the two is
    an automorphism fixing every placed vertex, so both subtrees yield the
    same segments.
    """
    n = len(adj)
    if n == 0:
        return ()
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

    def place(level: int, used: int) -> None:
        free = cells[level] & ~used
        if free & (free - 1):
            cands = []
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                if not twins[v] & ~used:
                    cands.append((segs[v], v))
            cands.sort()
        else:
            # The cell's last free vertex: its twins share its cell, so
            # they are all placed.
            v = free.bit_length() - 1
            cands = ((segs[v], v),)
        top = best[level]
        bit = 1 << (last - level)
        for seg, v in cands:
            if seg > top:
                break
            if seg < top:
                best[level] = top = seg
                best[level + 1 :] = [unset] * (last - level)
            if level < last:
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
    return tuple(b >> (n - j) for j, b in enumerate(best))


def graph_from_key(n: int, key: tuple[int, ...]) -> Graph:
    adj = [0] * n
    for j in range(1, n):
        # Bit j - 1 - i of the segment is the edge to position i.
        seg = key[j]
        while seg:
            low = seg & -seg
            seg ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def _augment_chunk(args: tuple[list[tuple[int, ...]], int, str]) -> dict[tuple[int, ...], None]:
    """Canonical keys of the filtered one-vertex extensions of each parent.

    Each mask is a candidate neighborhood of the new vertex, and it is
    tested on the mask and the parent's rows; no ``Graph`` is built:

    - Degree gate: the new vertex, of degree d, must reach the maximum
      degree.
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
    - Filter: the mask test ``FILTERS[filter_name]``.
    - Canonical deletion: the new vertex must have the maximum
      ``vertex_invariants`` entry, compared first on degree (the degree
      gate) and then, among the vertices of that degree, on the full
      invariant.  Every class of order n keeps at least one extension:
      deleting a vertex of maximum invariant leaves a graph of the
      hereditary class, isomorphic to a parent, and adding the vertex
      back is one of that parent's masks, or a twin-prefix image of one.

    A survivor's rows are keyed as they are, reusing the invariant list
    of the deletion gate when it was computed.  A class
    can still arise from several parents or masks, so the returned dict
    deduplicates.
    """
    parent_adjs, n, filter_name = args
    admits = FILTERS[filter_name]
    seen: dict[tuple[int, ...], None] = {}
    new_bit = 1 << (n - 1)
    for padj in parent_adjs:
        # geq[d]: parent vertices of degree >= d (geq[n] stays 0).
        geq = [0] * (n + 1)
        for v, row in enumerate(padj):
            for d in range(row.bit_count() + 1):
                geq[d] |= 1 << v
        twins = [(1 << v, low) for v, low in enumerate(lower_twins(padj)) if low]
        for mask in range(1 << (n - 1)):
            # The new vertex has degree d; a parent vertex ends above d if
            # it has degree > d, or degree >= d and gains the new edge.
            d = mask.bit_count()
            if geq[d + 1] or mask & geq[d]:
                continue
            if any(mask & v and low & ~mask for v, low in twins):
                continue
            if not admits(padj, mask, d):
                continue
            rows = [row | new_bit if mask >> v & 1 else row for v, row in enumerate(padj)]
            rows.append(mask)
            invariant = None
            # Parent vertices that end at degree d tie with the new vertex
            # (mask is 0 when d is 0, so geq[-1] never counts).
            if geq[d] | mask & geq[d - 1]:
                invariant = vertex_invariants(rows)
                if invariant[-1] < max(invariant):
                    continue
            seen.setdefault(canonical_key(rows, invariant))
    return seen


_class_cache: dict[tuple[int, str], list[Graph]] = {}


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
    classes by one vertex; ``_augment_chunk`` keys only the extensions
    whose new vertex has the maximum invariant, and the keys are merged
    in a dict and sorted, so the representatives and their order do not
    depend on which extension reached a class.  Results are memoized per
    process; ``workers`` > 1 splits the augmentation of the parent list
    across a process pool of at most ``os.cpu_count()`` processes
    (deterministic output either way); fewer than 1 is a ValueError.
    """
    check_order(n)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; options: {sorted(FILTERS)}")
    cached = _class_cache.get((n, filter_name))
    if cached is not None:
        return cached
    if n == 0:
        reps = [Graph(0, ())]
    elif n == 1:
        reps = [Graph(1, (0,))]
    else:
        parents = [g.adj for g in generate_all(n - 1, filter_name, workers)]
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

            keys: dict[tuple[int, ...], None] = {}
            with Pool(min(procs, len(jobs))) as pool:
                for part in pool.map(_augment_chunk, jobs):
                    keys.update(part)
        else:
            keys = _augment_chunk((parents, n, filter_name))
        reps = [graph_from_key(n, key) for key in sorted(keys)]
    _class_cache[(n, filter_name)] = reps
    return reps


def is_clique_union(g: Graph) -> tuple[bool, int]:
    """Whether every component is a triangle or a K4; returns the component count."""
    comps = components(g.adj)
    for comp in comps:
        if comp.bit_count() not in (3, 4) or not is_clique(g, comp):
            return False, len(comps)
    return True, len(comps)


def verify_equality_scan(n: int, workers: int = 1) -> list[dict]:
    """Check mis_{<=k} <= 3^{4k-n} 4^{n-3k} over every class, every k.

    Exact rationals throughout.  A class violates when it exceeds the
    bound, attains equality without being a disjoint union of exactly k
    cliques of size 3 or 4, or has that structure without equality.
    Returns the rows ``verify-theorem2`` prints, one per k: ``n``, ``k``,
    the ``bound`` as a Fraction, the ``max_count`` over the classes, the
    number of ``attainers`` and the graph6 list of ``violations``.
    """
    rows = []
    reps = generate_all(n, "none", workers)
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
            count = profile.at_most(k)
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


def nielsen_violations(n: int) -> list[tuple[str, int, int]]:
    """Classes with mis_k above 4^{5k-n} 5^{n-4k}; reported, expected empty."""
    out = []
    for g in generate_all(n, "none"):
        profile = mis_profile(g)
        for k in range(n + 1):
            if profile[k] > 0 and profile[k] > bounds.nielsen(n, k).exact:
                out.append((to_graph6(g), k, profile[k]))
    return out


@dataclass(frozen=True)
class SlackRow:
    graph6: str
    k: int
    count: int
    allowance: Fraction
    factor_name: str
    tight: bool


def verify_degree2_constants(n: int) -> tuple[list[SlackRow], list[SlackRow]]:
    """Slack factors for max-degree <= 2 classes, all k, exact arithmetic.

    A degree-1 vertex caps mis_{<=k} at 8/9 of the bound, an isolated
    vertex at 16/27, and a cycle component of length >= 4 at 11/12.
    Returns (checked rows, violations); the rows include tight cases.
    The classes come from the "maxdeg3" list (424 at n = 8, not the
    12,346 of "none"), less those with a degree-3 vertex.
    """
    factors = (
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
    rows: list[SlackRow] = []
    bad: list[SlackRow] = []
    for g in generate_all(n, "maxdeg3"):
        if max_degree(g) > 2:
            continue
        profile = mis_profile(g)
        applicable = [(name, f) for name, f, pred in factors if pred(g)]
        if not applicable:
            continue
        g6 = to_graph6(g)
        for k in range(n + 1):
            count = profile.at_most(k)
            for name, factor in applicable:
                allowance = factor * bounds.eppstein(n, k).exact
                row = SlackRow(g6, k, count, allowance, name, count == allowance)
                rows.append(row)
                if count > allowance:
                    bad.append(row)
    return rows, bad


def tightness_scan(n: int, reps: list[Graph], selector: str, eta: float = 0.4) -> list[dict]:
    """Empirical per-k maxima of mis_k over the order-n classes ``reps``
    against a chosen bound family."""
    evaluators = {
        "eppstein": lambda k: bounds.eppstein(n, k).ln_value,
        "nielsen": lambda k: bounds.nielsen(n, k).ln_value,
        "corollary1": lambda k: bounds.interpolated(n, k, eta).ln_value,
    }
    if selector not in evaluators:
        raise ValueError(f"unknown bound selector {selector!r}; options: {sorted(evaluators)}")
    profiles = [(g, mis_profile(g)) for g in reps]
    rows = []
    for k in range(n + 1):
        best_count = 0
        argmax = None
        for g, profile in profiles:
            if profile[k] > best_count:
                best_count = profile[k]
                argmax = g
        ln_bound = evaluators[selector](k)
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


def mibs_extremes(n: int, filter_name: str) -> dict:
    """Largest distinct MIBS count over the filtered classes of order n."""
    best = -1
    argmax = None
    for g in generate_all(n, filter_name):
        count = mibs_counts(g).mibs
        if count > best:
            best = count
            argmax = g
    return {
        "n": n,
        "filter": filter_name,
        "max_mibs": best,
        "argmax": to_graph6(argmax) if argmax is not None else None,
        "ln_twelve_target": n * bounds.LN12 / 4.0,
        "ln_six_target": n * math.log(6) / 4.0,
    }


def write_class_list(path: str, reps: list[Graph]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in reps:
            fh.write(to_graph6(g) + "\n")


def load_class_list(path: str) -> list[Graph]:
    """The graphs of a class list, one graph6 line each; a byte that is not
    ASCII raises FormatError, as it does in every other graph input."""
    with open(path, "rb") as fh:
        text = decode_ascii(fh.read())
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]
