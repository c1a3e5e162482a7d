"""Maximal induced bipartite subgraphs, enumerated two independent ways.

A vertex set W is counted when G[W] is bipartite and adding any outside
vertex breaks bipartiteness.  The generator method runs over pairs (A, B)
with A a maximal independent set of G and B a maximal independent set of
G - A; every maximal induced bipartite subgraph arises as such a union,
but distinct pairs can produce the same vertex set and some unions are
not maximal, so the census keeps both the distinct records and the
ordered-pair count that overcounts them.  ``mibs_counts`` gives the same
census numbers without the records, as products over the connected
components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .graphs import (
    Graph,
    GuardError,
    components,
    induced_subgraph,
    is_bipartite_induced,
    is_clique,
    iter_bits,
)
from .misenum import BRUTE_FORCE_CAP, enumerate_mis


@dataclass(frozen=True)
class MibsRecord:
    """One maximal induced bipartite subgraph with its generating pairs.

    Witnesses are the (A, B) splits that produced the vertex set,
    normalized to |A| >= |B|; an equal-size pair is stored once with the
    lexicographically smaller mask first.
    """

    vertices: int
    witnesses: tuple[tuple[int, int], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class MibsCensus:
    n: int
    records: tuple[MibsRecord, ...]
    ordered_pair_count: int
    nonmaximal_candidates: int

    @property
    def distinct_count(self) -> int:
        return len(self.records)

    def a_size_histogram(self) -> dict[int, int]:
        """Number of records having a witness with |A| = k, per k."""
        hist: dict[int, int] = {}
        for rec in self.records:
            for a, _ in rec.witnesses:
                k = a.bit_count()
                hist[k] = hist.get(k, 0) + 1
        return hist


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


def enumerate_mibs_bruteforce(g: Graph) -> MibsCensus:
    """Oracle enumerator: scan all 2^n subsets.

    Bipartiteness is tabulated once per subset so the maximality test is a
    table lookup per outside vertex.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise GuardError(f"subset scan capped at {BRUTE_FORCE_CAP} vertices, got {g.n}")
    size = 1 << g.n
    bip = bytearray(size)
    for s in range(size):
        bip[s] = is_bipartite_induced(g, s)
    records = []
    for s in range(size):
        if not bip[s]:
            continue
        maximal = True
        for w in iter_bits(g.full_mask & ~s):
            if bip[s | (1 << w)]:
                maximal = False
                break
        if maximal:
            records.append(MibsRecord(s))
    return MibsCensus(g.n, tuple(records), 0, 0)


def _normalize_pair(a: int, b: int) -> tuple[int, int]:
    ka, kb = a.bit_count(), b.bit_count()
    if ka > kb:
        return a, b
    if ka < kb:
        return b, a
    return (a, b) if a <= b else (b, a)


def _generator_pairs(g: Graph, within: int) -> Iterator[tuple[int, int, bool]]:
    """Every ordered pair (A, B), A in MIS(G) and B in MIS(G - A), for G = g[within].

    The pairs are masks in g's labels: B comes from the enumeration of g
    restricted to within - A.  Each pair comes with whether A | B is a
    maximal induced bipartite subgraph of G; the test runs once per
    distinct union.
    """
    maximal: dict[int, bool] = {}
    for a in enumerate_mis(g, within).sets:
        for b in enumerate_mis(g, within & ~a).sets:
            union = a | b
            if union not in maximal:
                maximal[union] = is_maximal_induced_bipartite(g, union, within)
            yield a, b, maximal[union]


def enumerate_mibs(g: Graph) -> MibsCensus:
    """Generator enumerator via maximal-independent-set pairs.

    Every ordered pair (A, B) with A in MIS(G) and B in MIS(G - A) is
    counted; the candidate A | B is kept iff it is a maximal induced
    bipartite subgraph of G, deduplicated by vertex mask.
    """
    by_mask: dict[int, set[tuple[int, int]]] = {}
    ordered = 0
    nonmaximal = 0
    for a, b, maximal in _generator_pairs(g, g.full_mask):
        ordered += 1
        if maximal:
            by_mask.setdefault(a | b, set()).add(_normalize_pair(a, b))
        else:
            nonmaximal += 1
    records = tuple(
        MibsRecord(mask, tuple(sorted(by_mask[mask]))) for mask in sorted(by_mask)
    )
    return MibsCensus(g.n, records, ordered, nonmaximal)


@dataclass(frozen=True)
class MibsCounts:
    """The numbers of a ``MibsCensus``, without its records.

    ``a_size_histogram`` lists (k, records) pairs in increasing k, the
    nonzero entries of ``MibsCensus.a_size_histogram``.
    """

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
    """Census numbers of ``enumerate_mibs`` as products over components.

    A generator pair of a disjoint union is one generator pair per
    component, and its union is maximal iff every component's part is.
    So the distinct, ordered and maximal pair counts multiply, and the
    maximal pairs tabulated by (|A|, |B|) (F) combine by 2-D convolution,
    as do those whose swap (B, A) is also a maximal pair (S).  A witness
    is an unordered pair {A, B} from either order, so the records with
    |A| = a >= |B| = b number D(a, b) = F(a, b) + F(b, a) - S(a, b), halved
    when a = b.  The swap fixes no pair except (∅, ∅) of the empty graph,
    which is its one record.
    """
    if g.n == 0:
        return MibsCounts(1, 1, 0, ((0, 1),))
    distinct = ordered = 1
    full: dict[tuple[int, int], int] = {(0, 0): 1}
    swap: dict[tuple[int, int], int] = {(0, 0): 1}
    for part in components(g):
        maximal = set()
        part_ordered = 0
        for a, b, is_maximal in _generator_pairs(g, part):
            part_ordered += 1
            if is_maximal:
                maximal.add((a, b))
        distinct *= len({a | b for a, b in maximal})
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


def k4_component_identity_check(g: Graph) -> dict:
    """Check the component reduction at a K4 component K.

    Requires some component of g to be a 4-clique; verifies by direct
    enumeration that mibs(g) = 6 * mibs(g - K) and that every maximal
    induced bipartite subgraph meets K in exactly 2 vertices.
    """
    k4 = None
    for comp in components(g):
        if comp.bit_count() == 4 and is_clique(g, comp):
            k4 = comp
            break
    if k4 is None:
        raise ValueError("no K4 component present")
    whole = enumerate_mibs(g)
    rest_graph, _ = induced_subgraph(g, g.full_mask & ~k4)
    rest = enumerate_mibs(rest_graph)
    meets = [(r.vertices & k4).bit_count() for r in whole.records]
    return {
        "mibs": whole.distinct_count,
        "mibs_without_k4": rest.distinct_count,
        "identity_holds": whole.distinct_count == 6 * rest.distinct_count,
        "meet_counts_all_two": all(m == 2 for m in meets),
    }
