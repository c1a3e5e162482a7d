"""Acceptance gate: every primary criterion, each with its time budget.

Each test prints one PASS line with its measured wall time.  Budgets are
asserted, so a regression that blows a budget fails loudly.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from collections import Counter

from misbench.bounds import (
    curve_rows,
    eppstein,
    find_two_sum_witness,
    induction_identity_residual,
    interpolated,
    monotonicity_constants,
    moon_moser,
    nielsen,
    transversal_exponent,
    two_sum_estimate,
)
from misbench.corpus import oracle_graphs, pipeline_instances
from misbench.extremal import (
    GENERATION_CAP,
    generate_all,
    verify_equality_scan,
)
from misbench.graphs import iter_bits
from misbench.mibs import mibs_counts
from misbench.misenum import mis_profile, mis_sets
from misbench.pipeline import CellConflictError, analyze_instance

from fixtures import complete_graph, disjoint_union
from oracles import mis_scan
from test_cli import emitted, reference_json
from test_extremal import slack_rows
from test_mibs import assert_k4_identity, reference_mibs_counts

# Classes of order 5..8, K4-free with maximum degree <= 3, whose default
# root gives overlapping cells (ROADMAP item 5).  A count may fall as the
# pipeline learns to report these graphs; it must not grow.
CELL_CONFLICT_REFUSALS = {5: 3, 6: 10, 7: 17, 8: 89}


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"FAIL {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
            return False
        if elapsed >= self.seconds:
            print(f"FAIL {self.name} (over budget: {elapsed:.2f}s / {self.seconds:.0f}s)")
            raise AssertionError(f"{self.name}: {elapsed:.2f}s exceeds {self.seconds:.0f}s")
        print(f"PASS {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        return False


def test_k4_census():
    with Budget("k4-census", 1.0):
        assert len(mis_sets(complete_graph(4))) == 4
        assert mis_profile(complete_graph(4)) == (0, 4, 0, 0, 0)
        counts = mibs_counts(complete_graph(4))
        assert counts.mibs == 6
        assert counts.ordered_pairs == 12
        assert assert_k4_identity(complete_graph(3)) == 18


def test_triangle_union_attains_classic_bound():
    with Budget("triangle-unions", 1.0):
        g = complete_graph(3)
        for t in range(1, 7):
            sets = mis_sets(g)
            assert len(sets) == 3**t == moon_moser(3 * t).exact
            assert all(m.bit_count() == t for m in sets)
            g = disjoint_union(g, complete_graph(3))


def test_size_capped_bound_exhaustive_to_seven():
    with Budget("size-capped-bound-n7", 2.0):
        for n in range(1, 8):
            for row in verify_equality_scan(generate_all(n, "none")):
                assert row["violations"] == [], (
                    f"n={row['n']} k={row['k']}: violations {row['violations']}"
                )


def test_size_capped_bound_exhaustive_eight():
    with Budget("size-capped-bound-n8", 10.0):
        for row in verify_equality_scan(generate_all(8, "none")):
            assert row["violations"] == [], f"k={row['k']}: violations {row['violations']}"


def test_low_degree_slack_constants():
    with Budget("low-degree-slack", 5.0):
        tight_seen = set()
        for n in range(1, 9):
            rows = list(slack_rows(n))
            assert [row for row in rows if row[3] > row[4]] == []
            tight_seen.update((name, g6, k) for name, g6, k, count, allowance in rows if count == allowance)
        # The stated extremal witnesses attain their allowances exactly.
        assert ("degree1", "A_", 1) in tight_seen  # single edge at k = 1
        assert ("isolated", "@", 1) in tight_seen  # single vertex at k = 1


def test_enumerator_oracle_equivalence():
    with Budget("oracle-equivalence", 600.0):
        for g in oracle_graphs(1000, max_n=14):
            assert mis_sets(g) == mis_scan(g)
        for g in oracle_graphs(500, max_n=12):
            assert mibs_counts(g) == reference_mibs_counts(g)


def test_pipeline_corpus_zero_violations():
    with Budget("pipeline-corpus", 900.0):
        instances = pipeline_instances(100)
        assert len(instances) == 100
        for g, i0 in instances:
            report = analyze_instance(g, tuple(iter_bits(i0)))
            assert report["violations"] == [], (
                f"order {g.n}: {report['violations']}"
            )


def test_pipeline_every_k4free_subcubic_class_to_eight():
    # The whole input class of the pipeline up to the generation cap: 658
    # classes.  Each gives a report with no violations, printed exactly as
    # the json module prints it, or a cell conflict; nothing else.
    with Budget("pipeline-both-classes", 5.0):
        refused = Counter()
        classes = 0
        for n in range(1, GENERATION_CAP + 1):
            for g in generate_all(n, "both"):
                classes += 1
                try:
                    report = analyze_instance(g)
                except CellConflictError:
                    refused[n] += 1
                    continue
                assert report["violations"] == []
                assert emitted(report) == reference_json(report)
        assert classes == 658
        assert set(refused) <= set(CELL_CONFLICT_REFUSALS)
        for n, count in refused.items():
            assert count <= CELL_CONFLICT_REFUSALS[n], (n, count)


def test_analytic_anchors():
    with Budget("analytic-anchors", 10.0):
        # Exponent function at 0, frozen to 9 decimals.
        assert abs(transversal_exponent(0.0) - 0.9943914) < 1e-6
        assert abs(transversal_exponent(0.0) - 0.99439138514488) < 1e-9

        # Curve anchors at 5e-4.
        rows = {row["x"]: row for row in curve_rows(0.4)}
        assert abs(rows[0.2]["nielsen"] - 0.32188) < 5e-4
        assert abs(rows[0.25]["eppstein"] - 0.3465) < 5e-4
        assert abs(rows[0.333]["eppstein"] - 0.366) < 5e-4

        # Sign pattern of the per-step increments on a 1001-point grid.
        for i in range(1001):
            c1, c2 = monotonicity_constants(i / 1000)
            assert c1 > 0 and c2 < 0

        # Induction identity residual on a parameter grid.
        for eta10 in range(1, 10):
            eta = eta10 / 10
            for n in range(8, 41, 4):
                for k in range(1, n // 4 + 1):
                    assert induction_identity_residual(n, k, eta) < 1e-10

        # Interpolation endpoints collapse to the pure families.
        for n, k in ((8, 2), (12, 3), (20, 5), (40, 10)):
            assert abs(
                interpolated(n, k, 0.0).ln_value - nielsen(n, k).ln_value
            ) < 1e-12
            assert abs(
                interpolated(n, k, 1.0).ln_value - eppstein(n, k).ln_value
            ) < 1e-12


def test_two_sum_estimate_and_witness():
    with Budget("two-sum", 1.0):
        # At the quarter cut both extremal terms hit the target exactly.
        r = two_sum_estimate(40, 10, 0.0)
        target = 10 * math.log(12)
        assert abs(r.ln_max1 - target) < 1e-9
        assert abs(r.ln_max2 - target) < 1e-9

        # A computed witness order puts both full sums strictly below.
        w = find_two_sum_witness(0.4)
        assert w.report.ln_sum1 < w.report.ln_target
        assert w.report.ln_sum2 < w.report.ln_target
