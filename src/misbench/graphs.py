"""Bitmask graph core for graphs on at most 64 vertices.

A graph is stored as one adjacency bitmask per vertex, its order ``n``
being the number of rows.  Vertex sets everywhere in this package are
plain Python ints used as bitmasks, so set algebra is word arithmetic:
union ``a | b``, intersection ``a & b``, difference ``a & ~b``,
cardinality ``a.bit_count()``.

The constructor checks a table in whole-table operations: the rows packed
64 bits apiece into one int form a 64 x 64 bit matrix, which is symmetric
iff it equals its transpose.  The transpose takes six rounds of masked
block swaps (Warren, *Hacker's Delight*, 2nd ed., section 7-3), so its
cost does not grow with the edge count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def _swap_rounds() -> tuple[tuple[int, int], ...]:
    """(shift, mask) per round of the 64 x 64 transpose, blocks of 32 down to 1.

    Bit 64 r + c of the packed matrix is entry (r, c).  The round for block
    size k swaps each entry (r, c) with r & k == 0 and c & k != 0, the ones
    the mask selects, with (r + k, c - k), 63 k bits above it.
    """
    rounds = []
    for k in (32, 16, 8, 4, 2, 1):
        cols = sum(1 << c for c in range(64) if c & k)
        rows = [0 if r & k else cols for r in range(64)]
        rounds.append((63 * k, int.from_bytes(struct.pack("<64Q", *rows), "little")))
    return tuple(rounds)


_SWAP_ROUNDS = _swap_rounds()
_DIAGONAL = sum(1 << 65 * v for v in range(64))  # entries (v, v) of the packed matrix


def _transpose(packed: int) -> int:
    """The transpose of a 64 x 64 bit matrix packed as bit 64 r + c = (r, c)."""
    for shift, mask in _SWAP_ROUNDS:
        t = (packed ^ packed >> shift) & mask
        packed ^= t ^ t << shift
    return packed


class GuardError(RuntimeError):
    """Raised when an input violates a documented size or domain guard."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertex positions set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lowest_bit(mask: int) -> int:
    """Index of the least significant set bit. ``mask`` must be nonzero."""
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``, n = ``len(adj)``.

    ``adj[v]`` is the open neighborhood of ``v`` as a bitmask.  The
    constructor validates symmetry, absence of loops, and the order cap,
    and no path builds a ``Graph`` without it: code that works on tables
    valid by construction passes the rows, not a ``Graph``.
    """

    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        adj = self.adj
        n = len(adj)
        if n > MAX_VERTICES:
            raise GuardError(f"graph order {n} outside 0..{MAX_VERTICES}")
        full = (1 << n) - 1
        # Rows in range pack into one int, row v at bits 64 v .. 64 v + 63;
        # a table with a row out of range is never packed, as the scan raises.
        in_range = not adj or min(adj) >= 0 and max(adj) <= full
        packed = int.from_bytes(struct.pack(f"<{n}Q", *adj), "little") if in_range else 0
        if not in_range or packed & _DIAGONAL:
            # Name the first faulty row, range before loop within a row.
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"vertex {v} has neighbors outside 0..{n - 1}")
                if row >> v & 1:
                    raise ValueError(f"loop at vertex {v}")
        # The lowest entry (v, u) with u in adj[v] and v not in adj[u].
        one_way = packed & ~_transpose(packed)
        if one_way:
            v, u = divmod((one_way & -one_way).bit_length() - 1, 64)
            raise ValueError(f"asymmetric edge {v}-{u}")

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_adj(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.  Duplicate edges are merged."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


def components(adj: Sequence[int], within: int | None = None) -> list[int]:
    """Connected components of the graph with adjacency rows ``adj``,
    restricted to the vertex mask ``within`` (default: every vertex), as
    bitmasks ordered by smallest member."""
    todo = (1 << len(adj)) - 1 if within is None else within
    out = []
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & todo & ~comp
            comp |= frontier
        out.append(comp)
        todo &= ~comp
    return out


def is_maximal_independent(g: Graph, mask: int) -> bool:
    """Independent and dominating: every vertex is in the set or adjacent to it."""
    dom = mask
    for v in iter_bits(mask):
        if g.adj[v] & mask:
            return False
        dom |= g.adj[v]
    return dom == g.full_mask


def is_clique(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if (g.adj[v] & mask) != mask ^ (1 << v):
            return False
    return True


def k4_witness(g: Graph) -> int | None:
    """A 4-clique as a bitmask, or None if the graph is K4-free."""
    for a in range(g.n):
        above_a = g.adj[a] >> (a + 1) << (a + 1)
        for b in iter_bits(above_a):
            common_ab = g.adj[a] & g.adj[b]
            for c in iter_bits(common_ab >> (b + 1) << (b + 1)):
                higher = common_ab & g.adj[c] >> (c + 1) << (c + 1)
                if higher:
                    d = lowest_bit(higher)
                    return mask_of((a, b, c, d))
    return None


def is_k4_free(g: Graph) -> bool:
    return k4_witness(g) is None
