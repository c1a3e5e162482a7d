"""Subset-scan oracles for the enumerators, a transfer-matrix count for
the ladders past the scan's cap, labelled graph counts for the class
lists, and a per-edge reference for the graph validator, sharing no code
with them.

Each scan tests every subset of a vertex set, so it refuses more than
SCAN_CAP vertices.  From misbench this module imports only
``misbench.graphs`` (``test_oracles.py`` checks it), so an oracle can never
call the search it checks.
"""

import itertools
import math

from misbench.graphs import MAX_VERTICES, GuardError, iter_bits, lowest_bit

SCAN_CAP = 20


def validate_table(adj):
    """Raise what ``Graph(adj)`` raises, with the same message, or return
    None: the order cap on n = len(adj), then each row in vertex order
    for neighbors outside 0..n-1 and a loop, then every edge v-u, in
    vertex order and increasing u, for its mirror u-v."""
    n = len(adj)
    if n > MAX_VERTICES:
        raise GuardError(f"graph order {n} outside 0..{MAX_VERTICES}")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"vertex {v} has neighbors outside 0..{n - 1}")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
    for v, row in enumerate(adj):
        for u in iter_bits(row):
            if not adj[u] >> v & 1:
                raise ValueError(f"asymmetric edge {v}-{u}")


def _check_scan(mask):
    if mask.bit_count() > SCAN_CAP:
        raise GuardError(f"subset scan capped at {SCAN_CAP} vertices, got {mask.bit_count()}")


def mis_scan(g, within=None):
    """The maximal independent sets of g[within] (default all of g), as
    sorted masks of g: every subset of ``within`` is tested for
    independence and for dominating ``within``."""
    if within is None:
        within = g.full_mask
    _check_scan(within)
    adj = g.adj
    out = []
    s = 0
    while True:
        dom = s
        for v in iter_bits(s):
            row = adj[v]
            if row & s:
                break
            dom |= row
        else:
            if dom & within == within:
                out.append(s)
        # The next subset of within, in increasing order; 0 after the last.
        s = (s - within) & within
        if not s:
            return out


def size_counts(n, masks):
    """The number of masks of each size 0..n."""
    counts = [0] * (n + 1)
    for mask in masks:
        counts[mask.bit_count()] += 1
    return tuple(counts)


def bipartition(g, mask):
    """Two-colour the subgraph induced by ``mask``, or None on an odd cycle.

    Each component is coloured from its lowest vertex, which gets colour
    0; an edge between equal colours means an odd cycle.  Returns the two
    colour classes as masks.
    """
    color = {}
    todo = mask
    while todo:
        root = lowest_bit(todo)
        color[root] = 0
        queue = [root]
        comp_seen = 1 << root
        while queue:
            v = queue.pop()
            cv = color[v]
            for u in iter_bits(g.adj[v] & mask):
                if u in color:
                    if color[u] == cv:
                        return None
                else:
                    color[u] = 1 - cv
                    comp_seen |= 1 << u
                    queue.append(u)
        todo &= ~comp_seen
    sides = [0, 0]
    for v, c in color.items():
        sides[c] |= 1 << v
    return sides[0], sides[1]


def is_maximal_induced_bipartite(g, mask, within=None):
    """Whether mask is a maximal induced bipartite subgraph of g[within].

    ``within`` defaults to all of g; only its vertices are tried as
    extensions.
    """
    if bipartition(g, mask) is None:
        return False
    outside = (g.full_mask if within is None else within) & ~mask
    return all(bipartition(g, mask | 1 << w) is None for w in iter_bits(outside))


def mibs_scan(g):
    """The maximal induced bipartite subgraphs of g, as sorted masks.

    Bipartiteness is tabulated once per subset, so the maximality test is
    a table lookup per outside vertex.
    """
    _check_scan(g.full_mask)
    bip = bytearray(bipartition(g, s) is not None for s in range(1 << g.n))
    return tuple(
        s
        for s in range(1 << g.n)
        if bip[s] and not any(bip[s | 1 << w] for w in iter_bits(g.full_mask & ~s))
    )


# Per-size counts of the ladders, past the subset-scan cap.


def ladder_profile(m, twisted=False):
    """Entry k counts the maximal independent sets of size k of the prism
    C_m x K2 (m >= 3), or with ``twisted`` of the Moebius ladder on 2m
    vertices, for k = 0..2m: a rung-by-rung transfer matrix whose entries
    are the polynomials 0, 1 and x.

    Rung i holds one vertex on each of two rails, joined to each other and
    to the vertex of the same rail in rungs i - 1 and i + 1.  A set takes
    from each rung nothing, the first or the second vertex (c = 0, 1, 2).
    The state at rung i is the pair (c[i - 1], c[i]), and the entry of T
    from (a, b) to (b, c) is x if c > 0 and 1 otherwise, provided b and c
    are not the same rail (independence) and, when b == 0, {a, c} is
    {1, 2} (both vertices of rung i dominated along their rails); every
    other entry is 0.  Going once round the m rungs, the profile of the
    prism is the trace of T^m.  The Moebius ladder swaps the rails between
    rung m - 1 and rung 0, so its walk ends at the rail swap S of the
    state it started from: the trace of T^m S.
    """
    swap = (0, 2, 1)
    states = [(a, b) for a in range(3) for b in range(3)]
    total = [0] * (2 * m + 1)
    for start in states:
        row = {start: [1]}  # the row of T^step at start, one polynomial per state
        for _ in range(m):
            nxt = {}
            for (a, b), poly in row.items():
                for c in range(3):
                    if b and b == c or not b and {a, c} != {1, 2}:
                        continue
                    out = nxt.setdefault((b, c), [0] * (len(poly) + 1))
                    for k, coef in enumerate(poly):
                        out[k + (c > 0)] += coef
            row = nxt
        a, b = start
        for k, coef in enumerate(row.get((swap[a], swap[b]) if twisted else start, ())):
            total[k] += coef
    return tuple(total)


# Labelled counts, for the orbit-stabilizer identity: the classes G of
# order n in a filter's class give sum n!/|Aut G| labelled graphs.


def labelled_subcubic(n):
    """Labelled graphs on n vertices of maximum degree at most 3.

    Vertices are added one by one, the state being the number of vertices
    of degree 0, 1, 2 and 3; a new vertex joins a, b, c of degree 0, 1, 2
    with a + b + c <= 3, each choice of vertices counted once.
    """
    states = {(0, 0, 0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (d0, d1, d2, d3), ways in states.items():
            for a in range(min(d0, 3) + 1):
                for b in range(min(d1, 3 - a) + 1):
                    for c in range(min(d2, 3 - a - b) + 1):
                        state = [d0 - a, d1 - b + a, d2 - c + b, d3 + c]
                        state[a + b + c] += 1
                        state = tuple(state)
                        choices = math.comb(d0, a) * math.comb(d1, b) * math.comb(d2, c)
                        nxt[state] = nxt.get(state, 0) + ways * choices
        states = nxt
    return sum(states.values())


def labelled_subcubic_k4_free(n):
    """Labelled K4-free graphs on n vertices of maximum degree at most 3.

    A K4 in a subcubic graph is a whole component, so by inclusion and
    exclusion over j marked K4 components (n! / (j! 24^j (n - 4j)!) ways
    to place them, an integer):
    sum over j of (-1)^j n! / (j! 24^j (n - 4j)!) labelled_subcubic(n - 4j).
    """
    total = 0
    for j in range(n // 4 + 1):
        placements = math.factorial(n) // (math.factorial(j) * 24**j * math.factorial(n - 4 * j))
        total += (-1) ** j * placements * labelled_subcubic(n - 4 * j)
    return total


LABELLED_COUNTS = {
    "none": lambda n: 1 << n * (n - 1) // 2,
    "maxdeg3": labelled_subcubic,
    "both": labelled_subcubic_k4_free,
}


def labelled_scan(n):
    """Per filter ("none", "k4free", "maxdeg3", "both"), its labelled graphs
    on n vertices, every edge set of the n(n-1)/2 pairs tested."""
    if n > 7:
        raise GuardError(f"labelled scan capped at 7 vertices, got {n}")
    pairs = list(itertools.combinations(range(n), 2))
    incident = [sum(1 << i for i, pair in enumerate(pairs) if v in pair) for v in range(n)]
    quads = [
        sum(1 << pairs.index(pair) for pair in itertools.combinations(quad, 2))
        for quad in itertools.combinations(range(n), 4)
    ]
    counts = dict.fromkeys(("none", "k4free", "maxdeg3", "both"), 0)
    for edges in range(1 << len(pairs)):
        k4_free = all(edges & quad != quad for quad in quads)
        subcubic = all((edges & inc).bit_count() <= 3 for inc in incident)
        counts["none"] += 1
        counts["k4free"] += k4_free
        counts["maxdeg3"] += subcubic
        counts["both"] += k4_free and subcubic
    return counts


def twin_group_order(g):
    """The order of the group that the twin swaps of g generate, the
    product of k! over its twin classes of k vertices: the product over
    vertices v of one plus the number of w < v with N(v) - w == N(w) - v."""
    order = 1
    for v in range(g.n):
        twins = sum(g.adj[v] & ~(1 << w) == g.adj[w] & ~(1 << v) for w in range(v))
        order *= 1 + twins
    return order


def labelled_total(reps, groups):
    """Sum of n!/|Aut G| over the classes ``reps`` of one order n, where
    |Aut G| is ``twin_group_order(G)`` times one plus the number of maps in
    G's entry of ``groups`` (with the identity, one automorphism of each
    coset of the twin swaps).  Each term must be an integer."""
    total = 0
    for g, generators in zip(reps, groups):
        term, rest = divmod(math.factorial(g.n), twin_group_order(g) * (1 + len(generators)))
        assert rest == 0, (g.adj, generators)
        total += term
    return total
