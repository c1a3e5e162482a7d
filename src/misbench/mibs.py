"""Maximal induced bipartite subgraphs, counted from pairs of independent sets.

A vertex set W is counted when G[W] is bipartite and adding any outside
vertex breaks bipartiteness.  ``mibs_counts`` runs over the ordered pairs
(A, B), A a maximal independent set of G and B one of G - A, a connected
component at a time.  Every such set is a union A | B, but distinct pairs
can give the same set and some unions are not maximal, so the census keeps
both the distinct sets and the pairs that overcount them.  The tests
derive every field of it from subset scans: ``enumerate_mibs_bruteforce``
and the maximal independent sets of G and of each G - A.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, GuardError, components, is_bipartite_induced, iter_bits
from .misenum import BRUTE_FORCE_CAP, enumerate_mis


def is_maximal_induced_bipartite(g: Graph, mask: int, within: int | None = None) -> bool:
    """Whether mask is a maximal induced bipartite subgraph of g[within].

    ``within`` defaults to all of g; only its vertices are tried as
    extensions.
    """
    if not is_bipartite_induced(g, mask):
        return False
    outside = (g.full_mask if within is None else within) & ~mask
    for w in iter_bits(outside):
        if is_bipartite_induced(g, mask | (1 << w)):
            return False
    return True


def enumerate_mibs_bruteforce(g: Graph) -> tuple[int, ...]:
    """Oracle enumerator: the masks of all maximal induced bipartite subgraphs, sorted.

    Scans all 2^n subsets.  Bipartiteness is tabulated once per subset so
    the maximality test is a table lookup per outside vertex.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise GuardError(f"subset scan capped at {BRUTE_FORCE_CAP} vertices, got {g.n}")
    size = 1 << g.n
    bip = bytearray(size)
    for s in range(size):
        bip[s] = is_bipartite_induced(g, s)
    out = []
    for s in range(size):
        if not bip[s]:
            continue
        maximal = True
        for w in iter_bits(g.full_mask & ~s):
            if bip[s | (1 << w)]:
                maximal = False
                break
        if maximal:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class MibsCounts:
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


def mibs_counts(g: Graph) -> MibsCounts:
    """The census numbers as products over components.

    Within a component G, every pair (A, B), A in MIS(G) and B in MIS(G - A),
    is listed on masks of g; maximality is tested once per distinct union.
    A generator pair of a disjoint union is one generator pair per
    component, and its union is maximal iff every component's part is.  So
    the distinct, ordered and maximal pair counts multiply, and the maximal
    pairs tabulated by (|A|, |B|) (F) combine by 2-D convolution, as do
    those whose swap (B, A) is also a maximal pair (S).  A witness is an
    unordered pair {A, B} from either order, so the witnesses with
    |A| = a >= |B| = b number D(a, b) = F(a, b) + F(b, a) - S(a, b), halved
    when a = b.  The swap fixes no pair except (∅, ∅) of the empty graph,
    which is its one witness.
    """
    if g.n == 0:
        return MibsCounts(1, 1, 0, ((0, 1),))
    distinct = ordered = 1
    full: dict[tuple[int, int], int] = {(0, 0): 1}
    swap: dict[tuple[int, int], int] = {(0, 0): 1}
    for part in components(g.adj):
        is_maximal: dict[int, bool] = {}
        maximal = set()
        part_ordered = 0
        for a in enumerate_mis(g, part).sets:
            for b in enumerate_mis(g, part & ~a).sets:
                part_ordered += 1
                union = a | b
                if union not in is_maximal:
                    is_maximal[union] = is_maximal_induced_bipartite(g, union, part)
                if is_maximal[union]:
                    maximal.add((a, b))
        distinct *= sum(is_maximal.values())
        ordered *= part_ordered
        full = _convolve_sizes(full, Counter((a.bit_count(), b.bit_count()) for a, b in maximal))
        swap = _convolve_sizes(
            swap,
            Counter((a.bit_count(), b.bit_count()) for a, b in maximal if (b, a) in maximal),
        )
    hist: Counter = Counter()
    for a, b in {(max(key), min(key)) for key in full}:
        pairs = full.get((a, b), 0) + full.get((b, a), 0) - swap.get((a, b), 0)
        hist[a] += pairs if a > b else pairs // 2
    return MibsCounts(distinct, ordered, ordered - sum(full.values()), tuple(sorted(hist.items())))
