"""Graph builders for the tests: named families, unions, induced copies,
relabelings, seeded and hypothesis-drawn graphs, and edge-list text.

No command needs any of these, so they live here and not in the package.
"""

from hypothesis import strategies as st

from misbench.graphs import Graph, from_edges, iter_bits


def empty_graph(n):
    return Graph((0,) * n)


def complete_graph(n):
    full = (1 << n) - 1
    return Graph(tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n):
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def prism_graph(m):
    """C_m x K2: rung i joins vertex i to m + i, and each rail is an m-cycle."""
    rails = [(i, (i + 1) % m) for i in range(m)]
    return from_edges(2 * m, [(i, m + i) for i in range(m)] + rails + [(m + a, m + b) for a, b in rails])


def mobius_ladder(m):
    """The Moebius ladder on 2m vertices: the cycle C_2m and its m diagonals
    v-(v + m), the rungs.  Going round, the rails swap between rung m - 1
    and rung 0."""
    return from_edges(2 * m, [(v, (v + 1) % (2 * m)) for v in range(2 * m)] + [(v, v + m) for v in range(m)])


def disjoint_union(a, b):
    """a beside b, b's vertices shifted up by a.n."""
    return Graph(a.adj + tuple(row << a.n for row in b.adj))


def induced_subgraph(g, mask):
    """Subgraph induced by ``mask``, relabeled, and the list mapping new
    vertex index to old vertex index (increasing order of the old labels)."""
    keep = list(iter_bits(mask))
    pos = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        row = 0
        for u in iter_bits(g.adj[old] & mask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(tuple(rows)), keep


def relabel(g, perm):
    """Graph with vertex ``v`` renamed to ``perm[v]``."""
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << perm[u]
        rows[perm[v]] = row
    return Graph(tuple(rows))


def edges(g):
    """All edges as (u, v) pairs with u < v, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1))]


def edge_count(g):
    return sum(row.bit_count() for row in g.adj) // 2


def to_edge_list(g):
    """The ``n m`` / ``u v`` text that ``graphio.parse_edge_list`` reads."""
    lines = [f"{g.n} {edge_count(g)}"]
    lines.extend(f"{u} {v}" for u, v in edges(g))
    return "\n".join(lines) + "\n"


def triangle_chain(t):
    """t triangles, one edge joining each pair of neighboring triangles."""
    edges = []
    for a in range(0, 3 * t, 3):
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        if a:
            edges.append((a - 1, a))
    return from_edges(3 * t, edges)


def random_graph_strategy(max_n=9):
    """Hypothesis strategy producing arbitrary simple graphs up to max_n."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.booleans()):
                    edges.append((u, v))
        return from_edges(n, edges)

    return build()


def random_union(rng, max_n=14, max_parts=4):
    """Seeded disjoint union of 1..max_parts parts, relabeled at random.

    A part is an isolated vertex, an edge, a 4-clique or a random graph
    on 2..6 vertices (itself possibly disconnected); a part that would
    take the order above max_n is skipped.
    """
    g = empty_graph(0)
    for _ in range(rng.randint(1, max_parts)):
        kind = rng.randrange(4)
        if kind < 3:
            part = complete_graph((1, 2, 4)[kind])
        else:
            n, p = rng.randint(2, 6), rng.random()
            part = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if g.n + part.n <= max_n:
            g = disjoint_union(g, part)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def record_graph_builds(monkeypatch):
    """A list that gets the order of every validated Graph built from now on."""
    built = []
    check = Graph.__post_init__

    def counted(self):
        built.append(self.n)
        check(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    return built
