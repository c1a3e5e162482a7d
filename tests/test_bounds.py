"""Closed-form bounds: exact rational anchors, frozen high-precision
reference values, analytic identities, and the two-sum estimate.

Reference constants marked "frozen" were computed independently with
mpmath at 30 significant digits and pasted as literals; the tests compare
the float implementations against them at stated tolerances.
"""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misbench.bounds import (
    binary_entropy,
    curve_rows,
    eppstein,
    find_two_sum_witness,
    induction_identity_residual,
    interpolated,
    monotonicity_constants,
    moon_moser,
    nielsen,
    solve_eps_delta,
    transversal_exponent,
    two_sum_estimate,
)

# Frozen references (mpmath, 30 digits).
C1_AT_0 = 0.4416041547240375774077
C1_AT_04 = 0.3463769954043043042888
C1_AT_1 = 0.183450070173752890716
C2 = -0.1306380249099363213875
F_AT_0 = 0.9943913851448804889386
F_AT_0001 = 1.076917209081361399742
INTERP_4_1_04 = 3.970860527134717554017
LN_INTERP_10_3_05 = 3.632631691345650948222


class TestExactRationalAnchors:
    def test_moon_moser_multiples_of_three(self):
        assert moon_moser(3).exact == 3
        assert moon_moser(9).exact == 27
        assert moon_moser(30).exact == 3**10

    def test_moon_moser_non_multiple_is_ln_only(self):
        b = moon_moser(10)
        assert b.exact is None
        assert b.ln_value == pytest.approx(10 * math.log(3) / 3, rel=1e-14)

    def test_eppstein_values(self):
        assert eppstein(6, 2).exact == 9
        assert eppstein(5, 2).exact == Fraction(27, 4)
        assert eppstein(4, 1).exact == 4
        assert eppstein(8, 2).exact == 16  # two 4-cliques
        assert eppstein(7, 2).exact == 12  # one 3-clique plus one 4-clique

    def test_nielsen_values(self):
        assert nielsen(9, 2).exact == 20
        assert nielsen(4, 1).exact == 4
        assert nielsen(5, 1).exact == 5
        assert nielsen(10, 2).exact == 25  # two 5-cliques

    def test_exact_matches_ln(self):
        for n, k in ((6, 2), (9, 2), (13, 4), (17, 5)):
            for fam in (eppstein, nielsen):
                b = fam(n, k)
                assert b.ln_value == pytest.approx(math.log(b.exact), rel=1e-13)

    def test_exact_stops_at_digit_cap(self):
        # 4^2150 5^4299 = 2 * 10^4299 has 4,300 digits; 4^2150 5^4300 =
        # 10^4300 has one more, so its exact value is not built.
        assert nielsen(30095, 6449).exact == 2 * 10**4299
        assert nielsen(30100, 6450).exact is None
        assert nielsen(30100, 6450).ln_value == pytest.approx(4300 * math.log(10), rel=1e-13)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_exact_stops_at_interpreter_digit_limit(self):
        # 4^320 5^639 = 2 * 10^639 has 640 digits, 10^640 one more.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert str(nielsen(4475, 959).exact) == "2" + "0" * 639
            assert nielsen(4480, 960).exact is None
        finally:
            sys.set_int_max_str_digits(old)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eppstein(-1, 0)
        with pytest.raises(ValueError):
            eppstein(3, -1)
        with pytest.raises(ValueError):
            nielsen(3, 4)


class TestInterpolation:
    def test_endpoints_match_pure_families(self):
        for n, k in ((12, 3), (10, 3), (20, 5), (9, 2)):
            assert interpolated(n, k, 0.0).ln_value == pytest.approx(
                nielsen(n, k).ln_value, abs=1e-12
            )
            assert interpolated(n, k, 1.0).ln_value == pytest.approx(
                eppstein(n, k).ln_value, abs=1e-12
            )

    def test_frozen_reference_values(self):
        assert interpolated(4, 1, 0.4).as_float() == pytest.approx(INTERP_4_1_04, rel=1e-12)
        assert interpolated(10, 3, 0.5).ln_value == pytest.approx(LN_INTERP_10_3_05, rel=1e-12)

    def test_induction_residual_small_everywhere(self):
        for eta in (0.1, 0.25, 0.4, 0.5, 0.75, 0.9):
            for n, k in ((10, 2), (20, 5), (40, 10), (33, 8)):
                assert induction_identity_residual(n, k, eta) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=6, max_value=60),
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_induction_residual_property(self, n, k, eta):
        if k > n:
            k = n
        assert induction_identity_residual(n, k, eta) < 1e-10


class TestMonotonicityConstants:
    def test_frozen_values(self):
        assert monotonicity_constants(0.0)[0] == pytest.approx(C1_AT_0, rel=1e-13)
        assert monotonicity_constants(0.4)[0] == pytest.approx(C1_AT_04, rel=1e-13)
        assert monotonicity_constants(1.0)[0] == pytest.approx(C1_AT_1, rel=1e-13)
        assert monotonicity_constants(0.3)[1] == pytest.approx(C2, rel=1e-13)

    def test_signs_on_grid(self):
        for i in range(1001):
            eta = i / 1000
            c1, c2 = monotonicity_constants(eta)
            assert c1 > 0, f"c1({eta}) = {c1} not positive"
            assert c2 < 0

    def test_c1_matches_term_increment(self):
        # c1 must equal the actual per-k log increment of the first-sum term.
        from misbench.bounds import _term1_ln

        n, eta = 200, 0.35
        for k in (10, 20, 40):
            inc = _term1_ln(n, k + 1, eta) - _term1_ln(n, k, eta)
            assert inc == pytest.approx(monotonicity_constants(eta)[0], abs=1e-9)

    def test_c2_matches_term_increment(self):
        from misbench.bounds import _term2_ln

        n = 200
        for k in (10, 20, 40):
            inc = _term2_ln(n, k + 1) - _term2_ln(n, k)
            assert inc == pytest.approx(C2, abs=1e-9)


class TestEntropyAndSubsets:
    def test_entropy_anchors(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # h(1/4) = 2 - (3/4) log2 3, frozen: 0.811278124459133
        assert binary_entropy(0.25) == pytest.approx(0.811278124459133, abs=1e-12)

    def test_subset_count_check_holds(self):
        # sum_{s <= alpha N} C(N, s) <= 2^{h(alpha) N} for 0 < alpha <= 1/2.
        for big_n in (10, 37, 100, 200):
            for alpha in (0.1, 0.25, 1 / 3, 0.5):
                lhs = sum(math.comb(big_n, s) for s in range(math.floor(alpha * big_n) + 1))
                assert math.log2(lhs) <= binary_entropy(alpha) * big_n


class TestTransversalExponent:
    def test_frozen_values(self):
        assert transversal_exponent(0.0) == pytest.approx(F_AT_0, abs=1e-9)
        assert transversal_exponent(0.001) == pytest.approx(F_AT_0001, abs=1e-9)

    def test_below_one_at_zero(self):
        assert transversal_exponent(0.0) < 1.0

    def test_strictly_increasing(self):
        xs = [i / 12 / 400 for i in range(400)]
        vals = [transversal_exponent(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            transversal_exponent(1 / 12)
        with pytest.raises(ValueError):
            transversal_exponent(-0.01)


class TestSolve:
    def test_margin_zero(self):
        w = solve_eps_delta(0.0)
        assert w.eps_star == pytest.approx(5.1842660799863405e-05, rel=1e-6)
        assert w.f_value <= 1.0
        assert w.delta_star >= 0.0
        assert transversal_exponent(w.eps_star) <= 1.0
        assert solve_eps_delta(-0.0) == w

    def test_positive_margin(self):
        w = solve_eps_delta(0.001)
        assert 0 < w.eps_star < solve_eps_delta(0.0).eps_star
        assert w.delta_star > 0
        assert w.base == pytest.approx(4.0 ** w.f_value, rel=1e-12)
        assert transversal_exponent(w.eps_star) <= 0.999

    def test_impossible_margin(self):
        with pytest.raises(ValueError):
            solve_eps_delta(0.01)

    @pytest.mark.parametrize("margin", [-1.0, -1e-9, -5e-324])
    def test_negative_margin_is_refused(self, margin):
        # f(eps*) > 1 would give a negative deficit, which certifies nothing.
        with pytest.raises(ValueError, match=re.escape(f"nonnegative, got {margin}")):
            solve_eps_delta(margin)


class TestTwoSum:
    def test_max_terms_meet_target_at_quarter_cut(self):
        # With the 3/4-base first factor, a cut at exactly n/4 makes both
        # extremal terms equal the target 12^{n/4}.
        r = two_sum_estimate(40, 10, 0.0)
        target = 10 * math.log(12)
        assert r.ln_max1 == pytest.approx(target, abs=1e-9)
        assert r.ln_max2 == pytest.approx(target, abs=1e-9)
        assert r.argmax1 == 10 and r.argmax2 == 10
        assert r.ln_target == pytest.approx(target, abs=1e-12)

    def test_full_sums_exceed_target_at_small_n(self):
        # The geometric tails push the full sums above the single-term
        # target at this order; a witness needs n in the thousands.
        r = two_sum_estimate(40, 10, 0.0)
        assert r.ln_sum1 > r.ln_target
        assert r.ln_sum2 > r.ln_target

    def test_witness_found_and_verified(self):
        w = find_two_sum_witness(0.4)
        r = w.report
        assert w.both_below_target
        assert r.ln_sum1 < r.ln_target
        assert r.ln_sum2 < r.ln_target
        assert (r.eta, r.p_cut) == (0.4, math.floor((1 + w.xi) * r.n / 4))
        # Minimality: one step down fails at least one sum.
        prev = two_sum_estimate(r.n - 1, math.floor((1 + w.xi) * (r.n - 1) / 4), r.eta)
        assert prev.ln_sum1 >= prev.ln_target or prev.ln_sum2 >= prev.ln_target

    def test_witness_scale(self):
        w = find_two_sum_witness(0.4)
        assert 3000 < w.report.n < 4500
        assert 0.015 < w.xi < 0.020

    def test_sum_bounds_by_max_plus_tail(self):
        # Each sum is at most its max term times the geometric tail factor.
        c1, c2 = monotonicity_constants(0.3)
        r = two_sum_estimate(300, 80, 0.3)
        tail1 = math.log(1 / (1 - math.exp(-c1)))
        ratio2 = math.exp(c2)
        tail2 = math.log(ratio2 / (1 - ratio2))
        assert r.ln_sum1 <= r.ln_max1 + tail1 + 1e-9
        assert r.ln_sum2 <= r.ln_max2 + tail2 + 1e-9

    def test_rejects_bad_cut(self):
        with pytest.raises(ValueError):
            two_sum_estimate(10, 11, 0.0)


class TestCurves:
    def test_header_abscissas_present(self):
        xs = [row["x"] for row in curve_rows(0.4)]
        for anchor in (0.2, 0.25, 0.333, 1 / 3):
            assert any(abs(x - anchor) < 1e-12 for x in xs)

    def test_anchor_values(self):
        rows = {row["x"]: row for row in curve_rows(0.4)}
        assert rows[0.2]["nielsen"] == pytest.approx(0.32188, abs=5e-4)
        assert rows[0.25]["eppstein"] == pytest.approx(0.3465, abs=5e-4)
        assert rows[0.25]["nielsen"] == pytest.approx(0.3465, abs=5e-4)
        assert rows[0.333]["eppstein"] == pytest.approx(0.366, abs=5e-4)
        assert rows[0.333]["interp"] == pytest.approx(0.366, abs=5e-4)

    def test_interp_touches_envelope_at_simple_fractions(self):
        rows = {row["x"]: row for row in curve_rows(0.0)}
        third = rows[1 / 3]
        assert third["interp"] == pytest.approx(third["eppstein"], abs=1e-12)
        quarter = rows[0.25]
        assert quarter["interp"] == pytest.approx(quarter["eppstein"], abs=1e-12)
        fifth = rows[0.2]
        assert fifth["interp"] == pytest.approx(fifth["nielsen"], abs=1e-12)

    def test_eta_column_collapses_to_pure_families_at_endpoints(self):
        for row in curve_rows(0.0):
            assert row["corollary1_eta"] == pytest.approx(row["nielsen"], abs=1e-12)
        for row in curve_rows(1.0):
            assert row["corollary1_eta"] == pytest.approx(row["eppstein"], abs=1e-12)
