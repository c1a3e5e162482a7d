"""Structural decomposition and transversal analysis on concrete instances.

Given a K4-free graph of maximum degree at most 3 and a maximal
independent set I0, this module builds the layered decomposition around
I0, labels the degree-3 cells, and verifies the counting argument's
claims on the instance: the integer inequalities between the layer
sizes, the cell-partition transversal census with its exact bad-event
probabilities, the product bound certified by structural disjointness,
and the capture of every maximal independent set by a good transversal
plus a subset of the leftover vertices.

All probability arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .graphs import (
    Graph,
    GuardError,
    components,
    is_maximal_independent,
    iter_bits,
    k4_witness,
    lowest_bit,
    mask_of,
)
from .misenum import min_mis, mis_of_size

CENSUS_CELL_CAP = 11  # cells per census component: 4^11 = 2^22 product states


class DecompositionError(ValueError):
    """A precondition of the decomposition failed; message names a witness."""


class CellConflictError(ValueError):
    """A cell neighbor has more than one root-set neighbor.

    The construction needs every neighbor of a cell center u to see u as
    its unique neighbor inside the root set.  That holds automatically
    when no center has a neighbor adjacent to the low-degree layer I1
    (in particular always on cubic instances, where I1 is empty), but
    fails on some irregular instances; this error reports the witness
    instead of silently mislabeling.
    """


class Decomposition(NamedTuple):
    n: int
    k: int
    I0: int
    J0: int
    I1: int
    J1: int
    J2: int
    I2: int
    I3: int
    ell: int
    edge_count_I0_J0: int

    def layer_sizes(self) -> dict[str, int]:
        return {
            "n": self.n,
            "k": self.k,
            "I1": self.I1.bit_count(),
            "J1": self.J1.bit_count(),
            "J2": self.J2.bit_count(),
            "I2": self.I2.bit_count(),
            "ell": self.ell,
            "edges_I0_J0": self.edge_count_I0_J0,
        }


class Cell(NamedTuple):
    """Closed neighborhood {u, x, y, z} of a degree-3 center u.

    x and y are the lexicographically first non-adjacent pair among the
    three neighbors (one exists: otherwise the cell would be a 4-clique);
    z is the remaining neighbor.
    """

    u: int
    x: int
    y: int
    z: int
    mask: int


def _check_preconditions(g: Graph, root=None) -> int | None:
    """The mask of the root set given as vertices of g, or None without one.

    Raises DecompositionError, naming a witness, when g has a vertex of
    degree above 3 or a 4-clique, or when the root names a vertex outside
    g or is not a maximal independent set of g.  The checks run in that
    order, and a vertex outside g is refused before any mask is built.
    """
    for v in range(g.n):
        if g.degree(v) > 3:
            raise DecompositionError(f"vertex {v} has degree {g.degree(v)} > 3")
    clique = k4_witness(g)
    if clique is not None:
        raise DecompositionError(f"4-clique on vertices {sorted(iter_bits(clique))}")
    if root is None:
        return None
    outside = [v for v in root if v >= g.n]
    if outside:
        raise DecompositionError(f"root set vertex {min(outside)} is not a vertex of the {g.n}-vertex graph")
    i0 = mask_of(root)
    if not is_maximal_independent(g, i0):
        raise DecompositionError(f"root set {sorted(iter_bits(i0))} is not a maximal independent set")
    return i0


def decompose(g: Graph, i0: int) -> Decomposition:
    """Layer the graph around a maximal independent set I0.

    I1 holds the I0-vertices with at most 2 neighbors; J1 their outside
    neighbors; J2 the remaining outside vertices with at least 2
    I0-neighbors; I2 the I0-vertices touching J2; I3 the rest of I0 (the
    cell centers).  Nothing is checked: g and I0 are taken to meet the
    preconditions that ``analyze_instance`` checks first.
    """
    j0 = g.full_mask & ~i0
    i1 = 0
    for v in iter_bits(i0):
        if (g.adj[v] & j0).bit_count() <= 2:
            i1 |= 1 << v
    j1 = 0
    for v in iter_bits(j0):
        if g.adj[v] & i1:
            j1 |= 1 << v
    j2 = 0
    for v in iter_bits(j0 & ~j1):
        if (g.adj[v] & i0).bit_count() >= 2:
            j2 |= 1 << v
    i2 = 0
    for v in iter_bits(i0):
        if g.adj[v] & j2:
            i2 |= 1 << v
    i3 = i0 & ~(i1 | i2)
    edges = sum((g.adj[v] & j0).bit_count() for v in iter_bits(i0))
    return Decomposition(
        n=g.n,
        k=i0.bit_count(),
        I0=i0,
        J0=j0,
        I1=i1,
        J1=j1,
        J2=j2,
        I2=i2,
        I3=i3,
        ell=i3.bit_count(),
        edge_count_I0_J0=edges,
    )


def decomposition_inequalities(dec: Decomposition) -> list[dict]:
    """The integer forms of the layer-size inequalities, with slack."""
    k, n = dec.k, dec.n
    s = dec.layer_sizes()
    i1, j1, j2, i2, e = s["I1"], s["J1"], s["J2"], s["I2"], s["edges_I0_J0"]
    recs = [
        ("j1_le_2i1", j1, 2 * i1),
        ("i2_le_3j2", i2, 3 * j2),
        ("i1_i2_disjoint", (dec.I1 & dec.I2).bit_count(), 0),
        ("edges_lower", n - k + j2, e),
        ("edges_upper", e, 3 * k - i1),
        ("size_budget", i1 + j2, 4 * k - n),
        ("ell_lower", k - i1 - 3 * j2, dec.ell),
    ]
    return [
        {"name": name, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}
        for name, lhs, rhs in recs
    ]


def label_cells(g: Graph, dec: Decomposition) -> list[Cell]:
    """Build the cell for every center in I3, validating the structure.

    A center has three neighbors (more than two, as it is not in I1), and
    some two of them are not adjacent in a K4-free graph.  Each must see
    the center as its only I0-neighbor (CellConflictError otherwise, with
    the witness).  The cells are then pairwise disjoint, with no further
    check: two cells could share a vertex only if their centers were
    adjacent, which I0, an independent set, rules out, or if a neighbor
    of one center touched the other, which the check above refuses.
    """
    cells = []
    for u in iter_bits(dec.I3):
        nbrs = sorted(iter_bits(g.adj[u]))
        for w in nbrs:
            others = g.adj[w] & dec.I0 & ~(1 << u)
            if others:
                raise CellConflictError(
                    f"cell neighbor {w} of center {u} also touches root vertex {lowest_bit(others)}"
                )
        a, b, c = nbrs
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if not g.has_edge(x, y):
                cells.append(Cell(u, x, y, z, mask_of((u, x, y, z))))
                break
    return cells


class SelectionState(NamedTuple):
    """Cell bookkeeping for one choice of the doubled-cell index set S.

    I4 holds the remaining cell indices and U their vertex union.  I5
    keeps the I4-cells whose x and y have all neighbors inside U; only
    those support the bad-event analysis, and the goodness condition is
    evaluated over them.  cell_adj is the adjacency over all I4 cells as
    one mask of cell indices per cell, 0 for the cells outside I4 (an edge
    when any graph edge joins the two cells; degree at most 6, as x, y and
    z each send at most two edges out under maximum degree 3).  I6 is a
    greedy independent set in the distance-2 sense over the full I4 cell
    graph, so distinct I6 cells have disjoint dependency neighborhoods; a
    pick removes at most 1 + 6 + 6*5 = 37 cells, so |I6| >= ceil(|I5| / 37).
    good_rows holds, in I5 order, one (x bit, N(y), y bit, N(x)) tuple per
    I5 cell: all that the goodness condition reads of the cell.
    """

    S: tuple[int, ...]
    I4: tuple[int, ...]
    I5: tuple[int, ...]
    I6: tuple[int, ...]
    U: int
    cell_adj: tuple[int, ...]
    good_rows: tuple[tuple[int, int, int, int], ...]


def select(g: Graph, dec: Decomposition, cells: list[Cell], s_indices) -> SelectionState:
    s_key = tuple(s_indices)
    if s_key and not dec.ell:
        raise ValueError(f"selection {sorted(set(s_key))} refused: the root set has no cells")
    if not all(0 <= i < dec.ell for i in s_key):
        raise ValueError(f"selection {sorted(set(s_key))} outside 0..{dec.ell - 1}")
    s_mask = mask_of(s_key)
    i4 = tuple(i for i in range(dec.ell) if not s_mask >> i & 1)
    u_mask = 0
    for i in i4:
        u_mask |= cells[i].mask
    i5 = tuple(
        i
        for i in i4
        if not ((g.adj[cells[i].x] | g.adj[cells[i].y]) & ~u_mask)
    )
    cell_adj = [0] * dec.ell
    for i in i4:
        reach = 0
        for v in iter_bits(cells[i].mask):
            reach |= g.adj[v]
        cell_adj[i] = mask_of(j for j in i4 if j != i and reach & cells[j].mask)
    alive = mask_of(i5)
    i6 = []
    for i in i5:
        if not alive >> i & 1:
            continue
        i6.append(i)
        ball = 1 << i | cell_adj[i]
        for j in iter_bits(cell_adj[i]):
            ball |= cell_adj[j]
        alive &= ~ball
    return SelectionState(
        S=tuple(iter_bits(s_mask)),
        I4=i4,
        I5=i5,
        I6=tuple(i6),
        U=u_mask,
        cell_adj=tuple(cell_adj),
        good_rows=tuple(
            (1 << cells[i].x, g.adj[cells[i].y], 1 << cells[i].y, g.adj[cells[i].x]) for i in i5
        ),
    )


class TransversalStats(NamedTuple):
    total: int
    good_count: int
    p_good: Fraction
    per_cell: tuple[dict, ...]
    bad_probability: dict[int, Fraction]
    product_bound: Fraction


def _is_good(rows, t_mask: int) -> bool:
    """Whether the vertex set t_mask picks, at none of the cells of
    ``rows`` (``SelectionState.good_rows`` entries), x without a neighbor
    of y or y without a neighbor of x."""
    for x_bit, y_nbrs, y_bit, x_nbrs in rows:
        if t_mask & x_bit and not t_mask & y_nbrs:
            return False
        if t_mask & y_bit and not t_mask & x_nbrs:
            return False
    return True


def transversal_census(g: Graph, cells: list[Cell], state: SelectionState) -> TransversalStats:
    """Exact census of the 4^{|I4|} transversals of the cell partition.

    A transversal picks one vertex per I4-cell; it is good when, at every
    I5-cell where it picks x (resp. y), it also contains a neighbor of y
    (resp. x).  At an I5-cell i that condition reads only the choices at i
    and at the cells of cell_adj[i], so the good count is the product over
    the connected components of cell_adj of each component's count, found
    by streaming that component's transversals through ``itertools.product``
    (no list of them is built).  The condition reads the selection's
    ``good_rows`` of the component's I5 cells; a component with none has
    all its 4^c transversals good and is not scanned.  Guarded to
    components of at most CENSUS_CELL_CAP cells (4^11 states each).

    Each I5 cell also gets its two exact bad-event probabilities: that a
    uniform transversal picks x (resp. y) while missing every neighbor of
    the opposite special vertex.  Those neighbors lie inside U, so the
    probability factors over the at most two other cells holding them.
    ``per_cell`` gives each with its factored pattern, which tells the four
    cases apart (no outside neighbor; one; two in a single cell; two in
    distinct cells), and ``bad_probability`` their sum per cell.
    """
    comps = components(state.cell_adj, mask_of(state.I4))
    largest = max(map(int.bit_count, comps), default=0)
    if largest > CENSUS_CELL_CAP:
        raise GuardError(
            f"census component of {largest} cells exceeds the 4^{CENSUS_CELL_CAP} cap"
        )
    rows = dict(zip(state.I5, state.good_rows))
    good = 1
    for comp in comps:
        checked = [rows[i] for i in iter_bits(comp) if i in rows]
        if not checked:
            good *= 4 ** comp.bit_count()
            continue
        slots = [tuple(1 << v for v in iter_bits(cells[i].mask)) for i in iter_bits(comp)]
        good *= sum(1 for choice in itertools.product(*slots) if _is_good(checked, sum(choice)))
    per_cell = []
    bad_prob: dict[int, Fraction] = {}
    for i in state.I5:
        cell = cells[i]
        for side, opposite in (("x", cell.y), ("y", cell.x)):
            outside = g.adj[opposite] & ~cell.mask
            hits = [(outside & cells[j].mask).bit_count() for j in iter_bits(state.cell_adj[i])]
            # The pattern's factors, the 1/4 included, each over 4.
            factors = [1] + [4 - h for h in hits if h]
            q = Fraction(prod(factors), 4 ** len(factors))
            bad_prob[i] = bad_prob.get(i, 0) + q
            pattern = "*".join(f"{f}/4" for f in factors)
            per_cell.append(
                {"cell": i, "side": side, "outside_degree": outside.bit_count(), "pattern": pattern, "q": q}
            )
    product = Fraction(1)
    for i in state.I6:
        product *= 1 - bad_prob[i]
    total = 4 ** len(state.I4)
    return TransversalStats(
        total=total,
        good_count=good,
        p_good=Fraction(good, total) if total else Fraction(1),
        per_cell=tuple(per_cell),
        bad_probability=bad_prob,
        product_bound=product,
    )


def verify_product_bound(
    g: Graph, cells: list[Cell], state: SelectionState, stats: TransversalStats
) -> dict:
    """Exact-rational product bound plus its structural independence certificate.

    Checks p_good <= prod_{i in I6} (1 - P(B_i)) <= (3/4)^{|I6|}, that
    every bad-event probability is at least 1/4, and that the events are
    genuinely independent: distinct I6 cells have disjoint dependency
    cell sets, equivalently disjoint closed neighborhoods of their x/y
    vertices.
    """
    violations = []
    for i, p_bad in stats.bad_probability.items():
        if not Fraction(1, 4) <= p_bad:
            violations.append(f"P(B_{i}) = {p_bad} < 1/4")
    ceiling = Fraction(3, 4) ** len(state.I6)
    if not stats.p_good <= stats.product_bound:
        violations.append(f"p_good {stats.p_good} > product {stats.product_bound}")
    if not stats.product_bound <= ceiling:
        violations.append(f"product {stats.product_bound} > (3/4)^{len(state.I6)}")
    for a_pos, i in enumerate(state.I6):
        for j in state.I6[a_pos + 1 :]:
            shared_cells = (1 << i | state.cell_adj[i]) & (1 << j | state.cell_adj[j])
            if shared_cells:
                shared = list(iter_bits(shared_cells))
                violations.append(f"I6 cells {i}, {j} share dependency cells {shared}")
            for v in (cells[i].x, cells[i].y):
                for w in (cells[j].x, cells[j].y):
                    if g.closed_adj(v) & g.closed_adj(w):
                        violations.append(
                            f"closed neighborhoods of {v} (cell {i}) and {w} (cell {j}) intersect"
                        )
    return {
        "p_good": stats.p_good,
        "product_bound": stats.product_bound,
        "ceiling": ceiling,
        "holds": not violations,
        "violations": violations,
    }


def verify_is_capture(
    g: Graph,
    dec: Decomposition,
    cells: list[Cell],
    k: int,
    sets,
    known: tuple[SelectionState, TransversalStats] | None = None,
) -> dict:
    """Partition the size-k masks among ``sets``, maximal independent sets
    of g, by doubled cells and check each family against its
    good-transversal envelope.

    ``sets`` must hold every maximal independent set of size k, such as
    ``mis_of_size(g, k)[1]``; masks of other sizes are skipped.  Family S
    collects the sets meeting cell i in >= 2 vertices exactly for i in S.
    Checks per nonempty family: (a) every set meets every cell, (b) k >=
    ell + |S|, (c) each set's trace on U is a good transversal of the
    S-reduced partition, (d) the family size is at most good_count *
    2^{n - |U|}.  ``known`` is a selection already made with its census;
    the family with that S reuses it instead of selecting again.

    Each set is read once, one popcount per cell: the cells it meets
    twice or more give its family key, and a cell it misses fails (a).
    The transversal half of (c) is read from the same pass: a set of
    family S holds at most one vertex of each cell outside S, so its
    trace on U is a transversal of the I4 cells iff it meets every cell.
    The good half of (c) is the census's own predicate on the
    selection's ``good_rows``.
    """
    cell_masks = [cell.mask for cell in cells]
    families: dict[tuple[int, ...], list[int]] = {}
    missing: set[tuple[int, ...]] = set()  # keys of families with a set missing a cell
    for mask in sets:
        if mask.bit_count() != k:
            continue
        doubled = []
        missed = False
        for i, cell_mask in enumerate(cell_masks):
            hits = (mask & cell_mask).bit_count()
            if hits >= 2:
                doubled.append(i)
            elif not hits:
                missed = True
        s_key = tuple(doubled)
        families.setdefault(s_key, []).append(mask)
        if missed:
            missing.add(s_key)
    rows = []
    all_ok = True
    for s_key in sorted(families):
        members = families[s_key]
        if known is not None and known[0].S == s_key:
            state, stats = known
        else:
            state = select(g, dec, cells, s_key)
            stats = transversal_census(g, cells, state)
        meets_every_cell = s_key not in missing
        checks = {
            "meets_every_cell": meets_every_cell,
            "k_ge_ell_plus_s": k >= dec.ell + len(s_key),
            "traces_are_good_transversals": meets_every_cell
            and all(_is_good(state.good_rows, mask & state.U) for mask in members),
            "family_within_envelope": len(members)
            <= stats.good_count * (1 << (g.n - state.U.bit_count())),
        }
        ok = all(checks.values())
        all_ok = all_ok and ok
        rows.append(
            {
                "S": list(s_key),
                "family_size": len(members),
                "good_count": stats.good_count,
                "leftover_vertices": g.n - state.U.bit_count(),
                "checks": checks,
                "holds": ok,
            }
        )
    return {"k": k, "families": rows, "holds": all_ok}


def analyze_instance(g: Graph, root=None, s_indices=()) -> dict:
    """Full instance report: decomposition, cells, census, capture.

    ``root`` gives the vertices of I0.  When it is omitted the
    minimum-size maximal independent set is used (smallest sorted vertex
    tuple among minimum sizes), matching the regime the counting argument
    targets.  Only the maximal independent sets of the root size are
    listed, after ``_check_preconditions`` holds; it runs once, as a root
    set picked from those sets is a maximal independent set.  Rationals
    stay Fractions, which the JSON writer prints as strings.
    """
    i0 = _check_preconditions(g, root)
    k, sets = mis_of_size(g, None if i0 is None else i0.bit_count())
    if i0 is None:
        i0 = min_mis(sets)
    dec = decompose(g, i0)
    cells = label_cells(g, dec)
    state = select(g, dec, cells, s_indices)
    stats = transversal_census(g, cells, state)
    product = verify_product_bound(g, cells, state, stats)
    capture = verify_is_capture(g, dec, cells, k, sets, (state, stats))
    inequalities = decomposition_inequalities(dec)
    violations = [rec["name"] for rec in inequalities if not rec["holds"]]
    violations += product["violations"]
    if not capture["holds"]:
        violations.append("is_capture")
    return {
        "n": g.n,
        "root_set": sorted(iter_bits(i0)),
        "layers": dec.layer_sizes(),
        "inequalities": inequalities,
        "cells": [
            {"u": c.u, "x": c.x, "y": c.y, "z": c.z} for c in cells
        ],
        "selection": {
            "S": list(state.S),
            "I4": list(state.I4),
            "I5": list(state.I5),
            "I6": list(state.I6),
            "U_size": state.U.bit_count(),
        },
        "census": {
            "total": stats.total,
            "good": stats.good_count,
            "p_good": stats.p_good,
            "per_cell": stats.per_cell,
            "product_bound": stats.product_bound,
            "ceiling": product["ceiling"],
        },
        "capture": capture,
        "violations": violations,
    }
