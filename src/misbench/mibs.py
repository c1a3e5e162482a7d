"""Maximal induced bipartite subgraphs, counted from pairs of independent sets.

A vertex set W is counted when G[W] is bipartite and adding any outside
vertex breaks bipartiteness.  ``mibs_counts`` runs over the ordered pairs
(A, B), A a maximal independent set of G and B one of G - A, a connected
component at a time.  Every such set is a union A | B, but distinct pairs
can give the same set and some unions are not maximal, so the census keeps
both.  A and B 2-colour A | B, and (B, A) is a pair too iff B is maximal
independent in G, so no pair needs a bipartiteness test or a swap lookup.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import Graph, components, iter_bits
from .misenum import mis_sets


class MibsCounts(NamedTuple):
    """Distinct maximal unions A | B, all generator pairs, those with a
    nonmaximal union, and (k, unordered witnesses {A, B} whose larger side
    has k vertices) for each k with any, in increasing k."""

    mibs: int
    ordered_pairs: int
    nonmaximal_pairs: int
    a_size_histogram: tuple[tuple[int, int], ...]


def _convolve_sizes(x: dict[tuple[int, int], int], y: dict[tuple[int, int], int]) -> Counter:
    out: Counter = Counter()
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            out[a1 + a2, b1 + b2] += c1 * c2
    return out


def _is_maximal_union(g: Graph, a: int, b: int, part: int) -> bool:
    """Whether no vertex of part outside a | b extends it; a and b are independent."""
    sides = [(c & a, c & b) for c in components(g.adj, a | b) if c & a and c & b]
    return all(
        any(g.adj[w] & x and g.adj[w] & y for x, y in sides) for w in iter_bits(part & ~(a | b))
    )


def mibs_counts(g: Graph) -> MibsCounts:
    """The census numbers as products over components.

    Within a component G, each pair (A, B), A in MIS(G) and B in
    MIS(G - A), is listed on masks of g and judged by itself.  A and B
    2-colour A | B, so an outside vertex extends the union iff no
    component of G[A | B] has neighbours of it on both sides (tested once
    per distinct union).  A dominates G, so (B, A) is a pair iff B is in
    MIS(G).  A generator pair of a disjoint union is one per component, and
    its union is maximal iff every component's part is.  So the distinct,
    ordered and maximal pair counts multiply, and the maximal pairs by
    (|A|, |B|) (F) combine by 2-D convolution, as do those whose swap is
    also a maximal pair (S).  The unordered witnesses {A, B} with
    |A| = a >= |B| = b number D(a, b) = F(a, b) + F(b, a) - S(a, b), halved
    when a = b, rounding up for the empty graph's (∅, ∅), its swap's fixed point.
    """
    distinct = ordered = 1
    full: dict[tuple[int, int], int] = {(0, 0): 1}
    swap: dict[tuple[int, int], int] = {(0, 0): 1}
    for part in components(g.adj):
        mis = set(mis_sets(g, part))
        is_maximal: dict[int, bool] = {}
        part_full: Counter = Counter()
        part_swap: Counter = Counter()
        part_ordered = 0
        for a in mis:
            for b in mis_sets(g, part & ~a):
                part_ordered += 1
                union = a | b
                if union not in is_maximal:
                    is_maximal[union] = _is_maximal_union(g, a, b, part)
                if is_maximal[union]:
                    sizes = a.bit_count(), b.bit_count()
                    part_full[sizes] += 1
                    part_swap[sizes] += b in mis
        distinct *= sum(is_maximal.values())
        ordered *= part_ordered
        full = _convolve_sizes(full, part_full)
        swap = _convolve_sizes(swap, part_swap)
    hist: Counter = Counter()
    for a, b in {(max(key), min(key)) for key in full}:
        pairs = full.get((a, b), 0) + full.get((b, a), 0) - swap.get((a, b), 0)
        hist[a] += pairs if a > b else -(-pairs // 2)
    return MibsCounts(distinct, ordered, ordered - sum(full.values()), tuple(sorted(hist.items())))
