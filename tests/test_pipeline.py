"""Decomposition, cells, transversal census, product bound, and capture.

Fixture numbers below (good counts, bad-event probabilities, product
bounds) were derived by hand from the definitions and are asserted
exactly as rationals.  The factorized census is checked against the flat
scan over all 4^{|I4|} transversals (``reference_census``).
"""

import itertools
import random
from fractions import Fraction

import pytest

from misbench import pipeline
from misbench.corpus import diamond, diamond_union, pipeline_instances, random_cubic_k4free
from misbench.extremal import GENERATION_CAP, generate_all
from misbench.graphs import (
    GuardError,
    components,
    from_edges,
    is_maximal_independent,
    iter_bits,
    mask_of,
)
from misbench.misenum import min_mis, mis_of_size, mis_sets
from misbench.pipeline import (
    CellConflictError,
    DecompositionError,
    analyze_instance,
    decompose,
    decomposition_inequalities,
    label_cells,
    select,
    transversal_census,
    verify_is_capture,
    verify_product_bound,
)

from fixtures import complete_graph, cycle_graph, disjoint_union


def linked_diamonds():
    """Two diamond cells joined by one edge between their x vertices."""
    edges = diamond(0) + diamond(4) + [(1, 5)]
    return from_edges(8, edges)


def claw_two_diamonds(split_targets):
    """A claw cell whose y vertex sends two edges into diamond cells.

    split_targets picks the endpoints: (5, 9) puts one edge into each
    diamond; (5, 6) puts both into the first diamond.
    """
    edges = [(0, 1), (0, 2), (0, 3)] + diamond(4) + diamond(8)
    edges += [(2, t) for t in split_targets]
    return from_edges(12, edges)


def diamond_chain(t):
    """t diamond cells chained by the edges y_i - x_{i+1}: one t-cell component."""
    edges = []
    for i in range(t):
        edges.extend(diamond(4 * i))
    edges += [(4 * i + 2, 4 * i + 5) for i in range(t - 1)]
    return from_edges(4 * t, edges)


def pendant_tail():
    """Two diamonds plus a pendant path hanging off one x vertex.

    Root set {0, 4, 9}: two cells and one low-degree root vertex whose
    neighborhood pulls cell 1's x vertex out of the analyzable set.
    """
    edges = diamond(0) + diamond(4) + [(5, 8), (8, 9)]
    return from_edges(10, edges)


def reference_good(g, cells, state, t_mask):
    """The goodness condition from its statement, over cells and g.adj:
    at each I5 cell, a pick of x needs a picked neighbor of y, and a pick
    of y a picked neighbor of x."""
    picked = set(iter_bits(t_mask))
    for i in state.I5:
        x, y = cells[i].x, cells[i].y
        for v, w in ((x, y), (y, x)):
            if v in picked and not picked & set(iter_bits(g.adj[w])):
                return False
    return True


def reference_census(g, cells, state):
    """Flat census: (total, good) over every transversal of the I4 cells."""
    slots = [tuple(iter_bits(cells[i].mask)) for i in state.I4]
    total = 0
    good = 0
    for choice in itertools.product(*slots):
        total += 1
        if reference_good(g, cells, state, mask_of(choice)):
            good += 1
    return total, good


def reference_capture_rows(g, dec, cells, k, sets):
    """The capture rows built member by member: each size-k set's family
    key, whether it meets every cell, whether its trace on U is a
    transversal of the I4 cells, and whether that trace is good."""
    families = {}
    for mask in sets:
        if mask.bit_count() == k:
            key = tuple(i for i in range(dec.ell) if len(set(iter_bits(mask & cells[i].mask))) >= 2)
            families.setdefault(key, []).append(mask)
    rows = []
    for key in sorted(families):
        members = families[key]
        state = select(g, dec, cells, key)
        good_count = transversal_census(g, cells, state).good_count
        meets = all(mask & cells[i].mask for mask in members for i in range(dec.ell))
        transversal = all(
            len(set(iter_bits(mask & state.U & cells[i].mask))) == 1
            for mask in members
            for i in state.I4
        )
        good = all(reference_good(g, cells, state, mask & state.U) for mask in members)
        leftover = g.n - state.U.bit_count()
        checks = {
            "meets_every_cell": meets,
            "k_ge_ell_plus_s": k >= dec.ell + len(key),
            "traces_are_good_transversals": transversal and good,
            "family_within_envelope": len(members) <= good_count * 2**leftover,
        }
        rows.append(
            {
                "S": list(key),
                "family_size": len(members),
                "good_count": good_count,
                "leftover_vertices": leftover,
                "checks": checks,
                "holds": all(checks.values()),
            }
        )
    return rows


def assert_capture_matches_reference(g, dec, cells, k, sets):
    report = verify_is_capture(g, dec, cells, k, sets)
    rows = reference_capture_rows(g, dec, cells, k, sets)
    assert report == {"k": k, "families": rows, "holds": all(row["holds"] for row in rows)}
    return report


def altered_member_lists(g, dec, cells, k, sets):
    """Size-k member lists that some capture check must fail on.

    Each adds one mask to the maximal independent sets of size k: k
    vertices outside cell 0 (missing a cell); the x vertex of an I5 cell
    of the empty selection with, in every other cell, a vertex that is no
    neighbor of that cell's y, padded outside the cells (a transversal
    that is not good); and, at an even k below 2 ell, x and y of each of
    the first k/2 cells (more doubled cells than k leaves room for).  A
    mask that cannot be built at this k is left out.
    """
    members = [m for m in sets if m.bit_count() == k]
    outside = [v for v in range(g.n) if not any(c.mask >> v & 1 for c in cells)]
    altered = []
    free = [v for v in range(g.n) if not cells[0].mask >> v & 1]
    if len(free) >= k:
        altered.append(members + [mask_of(free[:k])])
    state = select(g, dec, cells, ())
    if state.I5 and k - dec.ell <= len(outside):
        i = state.I5[0]
        picks = [cells[i].x] + [
            next(v for v in iter_bits(c.mask) if not g.adj[cells[i].y] >> v & 1)
            for j, c in enumerate(cells)
            if j != i
        ]
        altered.append(members + [mask_of(picks + outside[: k - dec.ell])])
    if k % 2 == 0 and k // 2 < dec.ell:
        altered.append(members + [mask_of(v for c in cells[: k // 2] for v in (c.x, c.y))])
    return altered


def assert_census_matches_reference(g, cells, state):
    stats = transversal_census(g, cells, state)
    total, good = reference_census(g, cells, state)
    assert (stats.total, stats.good_count) == (total, good), state.S
    assert stats.p_good == Fraction(good, total)


def cells_of(g, i0):
    dec = decompose(g, i0)
    return dec, label_cells(g, dec)


def vertices(i0):
    """The root mask i0 as the vertex tuple that analyze_instance takes."""
    return tuple(iter_bits(i0))


def bad_event(g, i0, cell, side):
    """The census row of one side of one I5 cell, under the empty selection."""
    dec, cells = cells_of(g, i0)
    stats = transversal_census(g, cells, select(g, dec, cells, ()))
    (row,) = [row for row in stats.per_cell if (row["cell"], row["side"]) == (cell, side)]
    return row


FIXTURES = (
    (diamond_union(1), mask_of((0,))),
    (diamond_union(2), mask_of((0, 4))),
    (diamond_union(3), mask_of((0, 4, 8))),
    (linked_diamonds(), mask_of((0, 4))),
    (claw_two_diamonds((5, 9)), mask_of((0, 4, 8))),
    (claw_two_diamonds((5, 6)), mask_of((0, 4, 8))),
    (pendant_tail(), mask_of((0, 4, 9))),
    (diamond_chain(4), mask_of((0, 4, 8, 12))),
    (cycle_graph(5), mask_of((0, 2))),
)


def irregular_instances(count, min_cells=2, max_cells=8, seed=9100):
    """Seeded K4-free instances of maximum degree 3 with their cells.

    Each graph is a cubic K4-free graph on 16, 20 or 24 vertices with one
    or two edges removed, rooted at its minimum maximal independent set;
    every third instance is the disjoint union of two such graphs, so its
    cell graph has several components.  Draws whose cells conflict, or
    whose cell count lies outside min_cells..max_cells, are skipped; the
    number of draws is bounded, so a generator gone wrong fails the test.
    """
    rng = random.Random(seed)

    def draw():
        n = rng.choice((16, 20, 24))
        edges = random_cubic_k4free(n, rng.randrange(1 << 30)).edges()
        for _ in range(rng.randint(1, 2)):
            edges.pop(rng.randrange(len(edges)))
        g = from_edges(n, edges)
        return g, min_mis(mis_of_size(g)[1])

    out = []
    for _ in range(20 * count):
        g, i0 = draw()
        if len(out) % 3 == 2:
            h, j0 = draw()
            g, i0 = disjoint_union(g, h), i0 | j0 << g.n
        dec = decompose(g, i0)
        try:
            cells = label_cells(g, dec)
        except CellConflictError:
            continue
        if min_cells <= dec.ell <= max_cells:
            out.append((g, dec, cells))
            if len(out) == count:
                return out
    pytest.fail(f"{len(out)} of {count} instances drawn")


class TestDecompose:
    def test_single_diamond_layers(self):
        g = diamond_union(1)
        dec = decompose(g, mask_of((0,)))
        assert dec.k == 1 and dec.ell == 1
        assert dec.I1 == 0 and dec.J1 == 0 and dec.J2 == 0 and dec.I2 == 0
        assert dec.I3 == 1
        assert dec.edge_count_I0_J0 == 3

    def test_inequalities_hold_and_report_slack(self):
        g = diamond_union(2)
        dec = decompose(g, mask_of((0, 4)))
        recs = decomposition_inequalities(dec)
        assert all(rec["holds"] for rec in recs)
        names = {rec["name"] for rec in recs}
        assert names == {
            "j1_le_2i1",
            "i2_le_3j2",
            "i1_i2_disjoint",
            "edges_lower",
            "edges_upper",
            "size_budget",
            "ell_lower",
        }

    def test_cycle_has_no_cells(self):
        g = cycle_graph(5)
        dec = decompose(g, mask_of((0, 2)))
        assert dec.ell == 0
        assert dec.I1 == mask_of((0, 2))

    def test_rejects_degree_above_three(self):
        star = from_edges(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(DecompositionError, match="degree"):
            analyze_instance(star, (0,))

    def test_rejects_k4(self):
        g = complete_graph(4)
        with pytest.raises(DecompositionError, match="clique"):
            analyze_instance(g, (0,))

    def test_rejects_non_maximal_root(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(DecompositionError, match="maximal"):
            analyze_instance(g, (0,))

    def test_rejects_dependent_root(self):
        g = cycle_graph(5)
        with pytest.raises(DecompositionError, match="maximal"):
            analyze_instance(g, (0, 1))

    def test_pendant_tail_layers(self):
        g = pendant_tail()
        dec = decompose(g, mask_of((0, 4, 9)))
        assert dec.I1 == mask_of((9,))
        assert dec.J1 == mask_of((8,))
        assert dec.J2 == 0
        assert dec.ell == 2


class TestCells:
    def test_diamond_cell_orientation(self):
        g = diamond_union(1)
        dec = decompose(g, mask_of((0,)))
        (cell,) = label_cells(g, dec)
        # x and y are the lexicographically first non-adjacent neighbors.
        assert (cell.u, cell.x, cell.y, cell.z) == (0, 1, 2, 3)
        assert cell.mask == 15

    def test_claw_cell_takes_lowest_pair(self):
        g = claw_two_diamonds((5, 9))
        dec = decompose(g, mask_of((0, 4, 8)))
        cells = label_cells(g, dec)
        assert [(c.u, c.x, c.y, c.z) for c in cells] == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
        ]

    def test_conflict_when_neighbor_sees_two_roots(self):
        # Root {0, 4}; vertex 1 touches both roots, so the cell of 0
        # cannot claim it exclusively.
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 1)])
        dec = decompose(g, mask_of((0, 4)))
        with pytest.raises(CellConflictError, match="also touches"):
            label_cells(g, dec)

    def test_cells_disjoint_on_corpus_instance(self):
        instances = [cells_of(g, i0)[1] for g, i0 in pipeline_instances(100)]
        instances += [cells for _, _, cells in irregular_instances(60)]
        for cells in instances:
            union = 0
            for c in cells:
                assert union & c.mask == 0
                union |= c.mask


class TestSelect:
    def test_empty_selection_keeps_all_cells(self):
        g = diamond_union(2)
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        assert state.I4 == (0, 1)
        assert state.I5 == (0, 1)
        assert state.I6 == (0, 1)  # disjoint diamonds: no cell adjacency
        assert state.U == 255

    def test_nonempty_selection_drops_cells(self):
        g = diamond_union(2)
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, (0,))
        assert state.S == (0,)
        assert state.I4 == (1,)
        assert state.U == mask_of((4, 5, 6, 7))

    def test_rejects_out_of_range_selection(self):
        g = diamond_union(1)
        dec = decompose(g, mask_of((0,)))
        cells = label_cells(g, dec)
        with pytest.raises(ValueError):
            select(g, dec, cells, (1,))

    def test_linked_diamonds_cell_graph(self):
        g = linked_diamonds()
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        assert state.cell_adj == (0b10, 0b01)
        assert state.I5 == (0, 1)
        # Distance-2 greedy: picking cell 0 removes its neighbor too.
        assert state.I6 == (0,)

    def test_degree_and_greedy_bounds_on_corpus_and_sweep(self, monkeypatch):
        # select relies on maximum degree 3 for two bounds it does not
        # check: at most 6 neighbor cells per cell, and a greedy I6 of at
        # least ceil(|I5| / 37) cells.  Every state that the 100-instance
        # corpus and the sweep of every K4-free subcubic class to order 8
        # produce keeps both.
        real_select, states = pipeline.select, []

        def recording_select(g, dec, cells, s_indices):
            states.append(real_select(g, dec, cells, s_indices))
            return states[-1]

        monkeypatch.setattr(pipeline, "select", recording_select)
        for g, i0 in pipeline_instances(100):
            analyze_instance(g, vertices(i0))
        for n in range(1, GENERATION_CAP + 1):
            for g in generate_all(n, "both"):
                try:
                    analyze_instance(g)
                except CellConflictError:
                    pass
        assert max(row.bit_count() for state in states for row in state.cell_adj) <= 6
        assert all(37 * len(state.I6) >= len(state.I5) for state in states)
        # The corpus has states with I5 cells, but none with more than 37.
        assert any(state.I5 for state in states)

    def test_pendant_tail_excludes_touched_cell(self):
        g = pendant_tail()
        dec = decompose(g, mask_of((0, 4, 9)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        assert state.I4 == (0, 1)
        # Cell 1's x vertex reaches outside the cell union, so only cell 0
        # supports the bad-event analysis.
        assert state.I5 == (0,)
        assert state.I6 == (0,)


class TestBadEvents:
    def test_pattern_no_outside_neighbor(self):
        row = bad_event(diamond_union(1), mask_of((0,)), 0, "x")
        assert row["q"] == Fraction(1, 4)
        assert row["pattern"] == "1/4"

    def test_pattern_single_outside_neighbor(self):
        row_x = bad_event(linked_diamonds(), mask_of((0, 4)), 0, "x")
        row_y = bad_event(linked_diamonds(), mask_of((0, 4)), 0, "y")
        assert row_x["q"] == Fraction(1, 4) and row_x["pattern"] == "1/4"
        assert row_y["q"] == Fraction(3, 16) and row_y["pattern"] == "1/4*3/4"

    def test_pattern_two_cells(self):
        row = bad_event(claw_two_diamonds((5, 9)), mask_of((0, 4, 8)), 0, "x")
        assert row["q"] == Fraction(9, 64)
        assert row["pattern"] == "1/4*3/4*3/4"

    def test_pattern_same_cell(self):
        row = bad_event(claw_two_diamonds((5, 6)), mask_of((0, 4, 8)), 0, "x")
        assert row["q"] == Fraction(1, 8)
        assert row["pattern"] == "1/4*2/4"


class TestCensus:
    def test_single_diamond(self):
        g = diamond_union(1)
        dec = decompose(g, mask_of((0,)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        stats = transversal_census(g, cells, state)
        assert stats.total == 4 and stats.good_count == 2
        assert stats.p_good == Fraction(1, 2)
        assert stats.bad_probability[0] == Fraction(1, 2)
        assert stats.product_bound == Fraction(1, 2)

    def test_diamond_powers(self):
        for t in (2, 3):
            g = diamond_union(t)
            dec = decompose(g, mask_of(tuple(4 * i for i in range(t))))
            cells = label_cells(g, dec)
            state = select(g, dec, cells, ())
            stats = transversal_census(g, cells, state)
            assert stats.total == 4**t
            assert stats.good_count == 2**t
            assert stats.p_good == Fraction(1, 2) ** t

    def test_linked_diamonds_exact(self):
        g = linked_diamonds()
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        stats = transversal_census(g, cells, state)
        assert stats.total == 16 and stats.good_count == 4
        assert stats.p_good == Fraction(1, 4)
        assert stats.bad_probability[0] == Fraction(7, 16)
        # I6 = {0}: the product runs over that single cell.
        assert stats.product_bound == Fraction(9, 16)

    def test_degenerate_no_cells(self):
        g = cycle_graph(5)
        dec = decompose(g, mask_of((0, 2)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        stats = transversal_census(g, cells, state)
        assert stats.total == 1 and stats.p_good == 1

    def test_census_guard(self):
        # One connected 12-cell component: 4^12 states trip the guard.
        g = diamond_chain(12)
        dec, cells = cells_of(g, mask_of(tuple(4 * i for i in range(12))))
        state = select(g, dec, cells, ())
        with pytest.raises(GuardError, match="component of 12 cells"):
            transversal_census(g, cells, state)

    def test_guard_bounds_largest_component(self, monkeypatch):
        monkeypatch.setattr(pipeline, "CENSUS_CELL_CAP", 3)
        for t, tripped in ((3, False), (4, True)):
            g = disjoint_union(diamond_chain(t), diamond_union(3))
            dec, cells = cells_of(g, mask_of(tuple(4 * i for i in range(t + 3))))
            state = select(g, dec, cells, ())
            if tripped:
                with pytest.raises(GuardError):
                    transversal_census(g, cells, state)
            else:
                assert_census_matches_reference(g, cells, state)

    @pytest.mark.parametrize("t", [12, 16])
    def test_diamond_union_beyond_flat_cap(self, t):
        # t one-cell components: exact at any t up to the order cap.
        g = diamond_union(t)
        dec, cells = cells_of(g, mask_of(tuple(4 * i for i in range(t))))
        stats = transversal_census(g, cells, select(g, dec, cells, ()))
        assert stats.good_count == 2**t
        assert stats.total == 4**t
        assert stats.p_good == Fraction(1, 2**t)


class TestCensusOracle:
    """The factorized census equals the flat scan over all transversals."""

    def test_fixtures_every_selection(self):
        for g, i0 in FIXTURES:
            dec, cells = cells_of(g, i0)
            for r in range(dec.ell + 1):
                for s_key in itertools.combinations(range(dec.ell), r):
                    assert_census_matches_reference(g, cells, select(g, dec, cells, s_key))

    def test_corpus_empty_and_capture_families(self):
        for g, i0 in pipeline_instances(30):
            dec, cells = cells_of(g, i0)
            report = verify_is_capture(g, dec, cells, dec.k, mis_sets(g))
            selections = {(), *(tuple(fam["S"]) for fam in report["families"])}
            for s_key in selections:
                assert_census_matches_reference(g, cells, select(g, dec, cells, s_key))

    def test_irregular_with_and_without_selections(self):
        rng = random.Random(9200)
        multi_component = 0
        for g, dec, cells in irregular_instances(60):
            selections = {()}
            for _ in range(3):
                selections.add(tuple(i for i in range(dec.ell) if rng.random() < 0.3))
            for s_key in selections:
                state = select(g, dec, cells, s_key)
                multi_component += len(components(state.cell_adj, mask_of(state.I4))) > 1
                assert_census_matches_reference(g, cells, state)
        assert multi_component > 0


class TestCaptureOracle:
    """verify_is_capture gives the rows built member by member."""

    def test_corpus(self):
        for g, i0 in pipeline_instances(100):
            dec, cells = cells_of(g, i0)
            assert_capture_matches_reference(g, dec, cells, dec.k, mis_of_size(g, dec.k)[1])

    def test_irregular_instances(self):
        for g, dec, cells in irregular_instances(60):
            assert_capture_matches_reference(g, dec, cells, dec.k, mis_of_size(g, dec.k)[1])

    def test_both_sweep(self):
        for n in range(1, GENERATION_CAP + 1):
            for g in generate_all(n, "both"):
                k, sets = mis_of_size(g)
                dec = decompose(g, min_mis(sets))
                try:
                    cells = label_cells(g, dec)
                except CellConflictError:
                    continue
                assert_capture_matches_reference(g, dec, cells, k, sets)

    def test_altered_member_lists_fail_each_check(self):
        instances = [(g, *cells_of(g, i0)) for g, i0 in FIXTURES + tuple(pipeline_instances(30))]
        instances += irregular_instances(20)
        failed = dict.fromkeys(
            ("meets_every_cell", "k_ge_ell_plus_s", "traces_are_good_transversals", "family_within_envelope"),
            0,
        )
        for g, dec, cells in instances:
            if not cells:
                continue
            k = dec.k
            for sets in altered_member_lists(g, dec, cells, k, mis_of_size(g, k)[1]):
                report = assert_capture_matches_reference(g, dec, cells, k, sets)
                assert not report["holds"]
                for row in report["families"]:
                    for name, ok in row["checks"].items():
                        failed[name] += not ok
        assert all(failed.values()), failed


class TestProductBound:
    def test_holds_on_fixtures(self):
        for g, i0 in (
            (diamond_union(1), mask_of((0,))),
            (diamond_union(3), mask_of((0, 4, 8))),
            (linked_diamonds(), mask_of((0, 4))),
            (claw_two_diamonds((5, 9)), mask_of((0, 4, 8))),
            (claw_two_diamonds((5, 6)), mask_of((0, 4, 8))),
            (pendant_tail(), mask_of((0, 4, 9))),
        ):
            dec = decompose(g, i0)
            cells = label_cells(g, dec)
            state = select(g, dec, cells, ())
            stats = transversal_census(g, cells, state)
            report = verify_product_bound(g, cells, state, stats)
            assert report["holds"], report["violations"]
            assert report["p_good"] <= report["product_bound"] <= report["ceiling"]

    def test_every_bad_event_at_least_quarter(self):
        g = claw_two_diamonds((5, 9))
        dec = decompose(g, mask_of((0, 4, 8)))
        cells = label_cells(g, dec)
        state = select(g, dec, cells, ())
        stats = transversal_census(g, cells, state)
        for p in stats.bad_probability.values():
            assert p >= Fraction(1, 4)


class TestCapture:
    def test_single_diamond_tight(self):
        g = diamond_union(1)
        dec = decompose(g, mask_of((0,)))
        cells = label_cells(g, dec)
        report = verify_is_capture(g, dec, cells, 1, mis_sets(g))
        assert report["holds"]
        (family,) = report["families"]
        assert family["S"] == [] and family["family_size"] == 2
        assert family["good_count"] == 2  # tight envelope

    def test_diamond_powers_tight(self):
        for t in (2, 3):
            g = diamond_union(t)
            dec = decompose(g, mask_of(tuple(4 * i for i in range(t))))
            cells = label_cells(g, dec)
            report = verify_is_capture(g, dec, cells, t, mis_sets(g))
            assert report["holds"]
            (family,) = report["families"]
            assert family["family_size"] == 2**t == family["good_count"]

    def test_linked_diamonds(self):
        g = linked_diamonds()
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        report = verify_is_capture(g, dec, cells, 2, mis_sets(g))
        assert report["holds"]
        (family,) = report["families"]
        assert family["S"] == [] and family["family_size"] == 4
        assert family["good_count"] == 4

    def test_families_with_doubled_cells(self):
        # Size-3 maximal independent sets on linked diamonds must double
        # up somewhere; every family still verifies.
        g = linked_diamonds()
        dec = decompose(g, mask_of((0, 4)))
        cells = label_cells(g, dec)
        report = verify_is_capture(g, dec, cells, 3, mis_sets(g))
        assert report["holds"]
        assert any(fam["S"] for fam in report["families"])

    def test_size_search_gives_the_enumeration_report(self):
        # Each instance is rooted at its minimum set and at a maximum one;
        # the capture report must not depend on which list of sets it reads,
        # nor on reusing the census of the empty selection.  The unions of
        # two irregular graphs are left out: a maximum root there lists
        # about 4*10^5 sets.
        instances = [*FIXTURES, *pipeline_instances(20)]
        instances += [(g, dec.I0) for g, dec, _ in irregular_instances(20) if g.n <= 24]
        non_minimum = 0
        for g, i0 in instances:
            all_sets = mis_sets(g)
            for root in (i0, max(all_sets, key=lambda m: m.bit_count())):
                try:
                    dec, cells = cells_of(g, root)
                except CellConflictError:
                    continue
                k = dec.k
                non_minimum += k > i0.bit_count()
                report = verify_is_capture(g, dec, cells, k, mis_of_size(g, k)[1])
                assert report == verify_is_capture(g, dec, cells, k, all_sets)
                state = select(g, dec, cells, ())
                known = (state, transversal_census(g, cells, state))
                assert report == verify_is_capture(g, dec, cells, k, all_sets, known)
                assert report == analyze_instance(g, vertices(root))["capture"]
        assert non_minimum >= 20


class TestAnalyzeInstance:
    def test_default_root_is_minimum(self):
        g = diamond_union(2)
        report = analyze_instance(g)
        assert report["layers"]["k"] == 2
        assert report["violations"] == []

    def test_full_report_shape(self):
        report = analyze_instance(linked_diamonds())
        assert report["selection"]["I6"] == [0]
        assert report["census"]["p_good"] == Fraction(1, 4)
        assert report["census"]["product_bound"] == Fraction(9, 16)
        assert report["capture"]["holds"]

    def test_corpus_smoke(self):
        for g, i0 in pipeline_instances(8):
            report = analyze_instance(g, vertices(i0))
            assert report["violations"] == [], report["violations"]

    def test_each_selection_is_censused_once(self, monkeypatch):
        # The capture check reuses the report's own selection and census
        # when a family has the same S.
        real_select, real_census = pipeline.select, pipeline.transversal_census
        calls = []

        def counted_select(g, dec, cells, s_indices):
            state = real_select(g, dec, cells, s_indices)
            calls.append(("select", state.S))
            return state

        def counted_census(g, cells, state):
            calls.append(("census", state.S))
            return real_census(g, cells, state)

        monkeypatch.setattr(pipeline, "select", counted_select)
        monkeypatch.setattr(pipeline, "transversal_census", counted_census)
        reused = 0
        for g, i0 in [*FIXTURES, *pipeline_instances(8)]:
            for s_indices in ((), (0,)):
                if s_indices and not decompose(g, i0).ell:
                    continue
                calls.clear()
                report = analyze_instance(g, vertices(i0), s_indices)
                own = tuple(report["selection"]["S"])
                families = {tuple(fam["S"]) for fam in report["capture"]["families"]}
                expected = [(name, s) for name in ("select", "census") for s in families | {own}]
                assert sorted(calls) == sorted(expected)
                reused += own in families
        assert reused > 0

    def test_explicit_root_respected(self):
        g = diamond_union(1)
        report = analyze_instance(g, (3,))
        assert report["root_set"] == [3]
        assert report["violations"] == []

    def test_preconditions_checked_once(self, monkeypatch):
        # analyze_instance checks before its search, and decompose does not
        # check again; the degree check refuses a claw before any 4-clique
        # search.
        real_witness = pipeline.k4_witness
        calls = []

        def counted_witness(g):
            calls.append(g)
            return real_witness(g)

        monkeypatch.setattr(pipeline, "k4_witness", counted_witness)
        # Given roots on the fixtures, the default root on cubic instances.
        cubic = [g for g, _ in pipeline_instances(8)]
        for g, i0 in FIXTURES:
            analyze_instance(g, vertices(i0))
        for g in cubic:
            analyze_instance(g)
        assert calls == [g for g, _ in FIXTURES] + cubic
        star = from_edges(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(DecompositionError, match="degree"):
            analyze_instance(star, (0,))
        with pytest.raises(DecompositionError, match="clique"):
            analyze_instance(complete_graph(4), (0,))
        assert calls[len(FIXTURES) + len(cubic) :] == [complete_graph(4)]


class TestCorpusHelpers:
    def test_min_mis_is_maximal_and_minimum(self):
        g = linked_diamonds()
        sets = mis_sets(g)
        i0 = min_mis(sets)
        assert is_maximal_independent(g, i0)
        assert i0.bit_count() == min(m.bit_count() for m in sets)

    def test_pipeline_instances_are_cubic_k4free(self):
        from misbench.graphs import is_k4_free

        for g, i0 in pipeline_instances(6):
            assert is_k4_free(g)
            assert all(g.degree(v) == 3 for v in range(g.n))
            assert is_maximal_independent(g, i0)

    def test_pipeline_instances_deterministic(self):
        a = pipeline_instances(4)
        b = pipeline_instances(4)
        assert [(g.adj, i0) for g, i0 in a] == [(g.adj, i0) for g, i0 in b]
