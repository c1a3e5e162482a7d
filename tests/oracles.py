"""Subset-scan oracles for the enumerators, sharing no code with them.

Each scan tests every subset of a vertex set, so it refuses more than
SCAN_CAP vertices.  From misbench this module imports only
``misbench.graphs`` (``test_oracles.py`` checks it), so an oracle can never
call the search it checks.
"""

from misbench.graphs import GuardError, iter_bits, lowest_bit

SCAN_CAP = 20


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
            return tuple(out)


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
