"""Closed-form bounds on maximal-independent-set counts and their analytics.

Covers the per-size count bounds (3^{n/3}; 3^{4k-n} 4^{n-3k};
4^{5k-n} 5^{n-4k}; the eta-interpolated family (4-eta)^{(5-eta)k-n}
(5-eta)^{n-(4-eta)k}), the induction identity behind the interpolated
family, the two-sum estimate for maximal induced bipartite subgraphs,
term-monotonicity constants, the binary entropy estimate for binomial
tails, and the epsilon/delta solver for the transversal-counting exponent.

Counts with integer exponents are exact rationals; everything else lives
in the natural-log domain (documented relative tolerance 1e-12).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .graphs import GuardError

LN3 = math.log(3)
LN4 = math.log(4)
LN12 = math.log(12)

EXACT_DIGITS_CAP = 4300  # Python's default digit limit for str() of an int
CURVE_POINTS_CAP = 100_000  # grid points of ``curve_rows``, about 0.7 KB each


class ExactBound(NamedTuple):
    """A bound value: exact rational when exponents are integral, plus ln.

    ``exact`` is None on the irrational-base path and past
    ``EXACT_DIGITS_CAP`` digits (or the interpreter's lower limit);
    ``ln_value`` is always populated and is the natural log of the bound.
    """

    ln_value: float
    exact: Fraction | None = None

    def as_float(self) -> float | None:
        """The bound as a float, or None when it lies past float range."""
        try:
            return math.exp(self.ln_value)
        except OverflowError:
            return None


def _rational_power_bound(bases_and_exps: list[tuple[int, int]]) -> ExactBound:
    """The product of base**exp over coprime bases; the exponents decide if its
    numerator and denominator fit in EXACT_DIGITS_CAP digits, or in the running
    interpreter's int-to-str limit when that is lower (built if close)."""
    ln = sum(exp * math.log(base) for base, exp in bases_and_exps)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or before 3.10.7
    cap = min(EXACT_DIGITS_CAP, limit) if limit else EXACT_DIGITS_CAP
    parts = []
    for sign in (1, -1):
        powers = [(base, sign * exp) for base, exp in bases_and_exps if sign * exp > 0]
        digits = sum(exp * math.log10(base) for base, exp in powers)
        if digits > cap + 1:
            return ExactBound(ln)
        part = math.prod(base**exp for base, exp in powers)
        if digits > cap - 1 and part >= 10**cap:
            return ExactBound(ln)
        parts.append(part)
    return ExactBound(ln, Fraction(*parts))


def moon_moser(n: int) -> ExactBound:
    """3^{n/3}; exact when 3 divides n."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n % 3 == 0:
        return _rational_power_bound([(3, n // 3)])
    return ExactBound(n * LN3 / 3.0)


def eppstein(n: int, k: int) -> ExactBound:
    """3^{4k-n} 4^{n-3k}, exact rational (exponents may be negative)."""
    _check_nk(n, k)
    return _rational_power_bound([(3, 4 * k - n), (4, n - 3 * k)])


def nielsen(n: int, k: int) -> ExactBound:
    """4^{5k-n} 5^{n-4k}, exact rational."""
    _check_nk(n, k)
    return _rational_power_bound([(4, 5 * k - n), (5, n - 4 * k)])


def _check_nk(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def _family_ln(a: float, c: float, n: float, k: float) -> float:
    """ln of a^{ck-n} c^{n-ak}: (a, c) = (3, 4) is ``eppstein``, (4, 5)
    ``nielsen`` and (4-eta, 5-eta) ``interpolated``."""
    return (c * k - n) * math.log(a) + (n - a * k) * math.log(c)


def _interp_ln(n: float, k: float, eta: float) -> float:
    return _family_ln(4.0 - eta, 5.0 - eta, n, k)


# ln of the bound family each ``search --selector`` choice names, at
# (n, k, eta), in the order of the command's choices.
SELECTORS = {
    "eppstein": lambda n, k, eta: _family_ln(3, 4, n, k),
    "nielsen": lambda n, k, eta: _family_ln(4, 5, n, k),
    "corollary1": _interp_ln,
}


def interpolated(n: int, k: int, eta: float) -> ExactBound:
    """(4-eta)^{(5-eta)k-n} (5-eta)^{n-(4-eta)k} for eta in [0, 1].

    Interpolates between the 4/5-base bound (eta=0) and the 3/4-base bound
    (eta=1); log-domain only since the bases are irrational in between.
    """
    _check_nk(n, k)
    check_eta(eta)
    return ExactBound(_interp_ln(n, k, eta))


def check_eta(eta: float) -> None:
    """Raise ValueError unless eta lies in [0, 1]; NaN is refused too."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def induction_identity_residual(n: int, k: int, eta: float) -> float | None:
    """Relative residual of the branching induction step for the bound above.

    The bound B must satisfy B(n-1, k) + B(n-(5-eta), k-1) = B(n, k): the
    first term covers excluding a maximum-degree vertex, the second
    including it and deleting its closed neighborhood of formal size
    5-eta.  Both terms are evaluated from the closed form at the shifted
    arguments and the result is |T1 + T2 - B| / B.  The step is defined
    only for 0 < eta < 1, k >= 1 and n >= 5 - eta; elsewhere the result
    is None.
    """
    _check_nk(n, k)
    if not (0 < eta < 1 and k >= 1 and n >= 5 - eta):
        return None
    ln_b = _interp_ln(n, k, eta)
    t1 = math.exp(_interp_ln(n - 1, k, eta) - ln_b)
    t2 = math.exp(_interp_ln(n - (5.0 - eta), k - 1, eta) - ln_b)
    return abs(t1 + t2 - 1.0)


def monotonicity_constants(eta: float) -> tuple[float, float]:
    """Per-step log increments (c1, c2) of the two-sum terms.

    c1 is the k-derivative of ln(interpolated(n,k,eta) * eppstein(n-k,k)),
    positive on [0, 1] so the first sum's terms increase; c2 is the
    k-derivative of ln(eppstein(n,k) * 3^{(n-k)/3}), a negative constant
    so the second sum's terms decrease.
    """
    a, c = 4.0 - eta, 5.0 - eta
    c1 = c * math.log(a) - a * math.log(c) + 5 * LN3 - 4 * LN4
    c2 = 4 * LN3 - 3 * LN4 - LN3 / 3.0
    return c1, c2


def binary_entropy(alpha: float) -> float:
    """h(alpha) = -alpha log2 alpha - (1-alpha) log2(1-alpha); 0 at the ends."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha in (0.0, 1.0):
        return 0.0
    return -alpha * math.log2(alpha) - (1.0 - alpha) * math.log2(1.0 - alpha)


EPS_DOMAIN_END = 1.0 / 12.0


def transversal_exponent(eps: float) -> float:
    """The exponent f(eps) governing the transversal-counting argument.

    f(eps) = 1 + h(12 eps/(1+eps)) (1+eps)/2 + 35 eps
               - (1 - log2(3)/2) (1 - 112 eps)/37.

    Defined here on 0 <= eps < 1/12 (the value at 0 is the continuous
    limit).  The binomial-tail step behind the entropy term needs its
    argument at most 1/2, which actually caps eps at 1/23; on the larger
    conventional domain f is still well-defined and strictly increasing,
    and the roots of interest sit far below either cap.
    """
    if not 0.0 <= eps < EPS_DOMAIN_END:
        raise ValueError(f"eps must lie in [0, 1/12), got {eps}")
    ent = binary_entropy(12.0 * eps / (1.0 + eps))
    return (
        1.0
        + ent * (1.0 + eps) / 2.0
        + 35.0 * eps
        - (1.0 - math.log2(3) / 2.0) * (1.0 - 112.0 * eps) / 37.0
    )


class EpsDeltaWitness(NamedTuple):
    eps_star: float
    f_value: float
    base: float
    delta_star: float
    margin: float


def solve_eps_delta(margin: float = 0.0) -> EpsDeltaWitness:
    """Largest eps with f(eps) <= 1 - margin, and the implied count deficit.

    f is strictly increasing with f(0) < 1, so bisection on [0, 1/12) has
    a unique crossing.  The returned base is 4^{f(eps*)} and delta_star is
    4 - base, the count deficit against the 4^{n/4} budget.  delta_star is
    strictly positive for positive margins; at margin 0 the bisection
    drives f(eps*) to 1 within machine precision and the deficit can round
    to 0.0.  These are admissible computed witnesses, not quoted constants.
    A negative margin would certify nothing (a negative deficit) and is
    refused.
    """
    if not math.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    target = 1.0 - margin
    if transversal_exponent(0.0) > target:
        raise ValueError(f"margin {margin} admits no positive eps")
    # f(hi) is about 4.18, above every target, so the crossing lies inside.
    lo, hi = 0.0, EPS_DOMAIN_END * (1.0 - 1e-12)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if transversal_exponent(mid) <= target:
            lo = mid
        else:
            hi = mid
    f_val = transversal_exponent(lo)
    base = 4.0 ** f_val
    return EpsDeltaWitness(lo, f_val, base, 4.0 - base, margin)


class TwoSumReport(NamedTuple):
    """Log-domain evaluation of the two-part count estimate.

    The first sum runs over k = 0..p_cut (pair counts: size-k first side
    times a bounded second side on n-k vertices); the second over
    k = p_cut+1..n (size-k first side times 3^{(n-k)/3}).  Since the
    second sum's terms decrease in k, ln_max2 reports the supremum of its
    term formula over the closed range starting at k = p_cut, which the
    in-range terms approach from below; argmax2 names the k attaining it.
    both_below_target tells whether both sums lie below ln_target, the
    log of 12^{n/4}.
    """

    n: int
    p_cut: int
    eta: float
    ln_sum1: float
    ln_sum2: float
    ln_max1: float
    argmax1: int
    ln_max2: float
    argmax2: int
    ln_target: float
    both_below_target: bool


def _log_sum_exp(values: list[float]) -> float:
    if not values:
        return float("-inf")
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _term1_ln(n: int, k: int, eta: float) -> float:
    first = _family_ln(3, 4, n, k) if eta == 0.0 else _interp_ln(n, k, eta)
    return first + _family_ln(3, 4, n - k, k)


def _term2_ln(n: int, k: int) -> float:
    return _family_ln(3, 4, n, k) + (n - k) * LN3 / 3.0


def two_sum_estimate(n: int, p_cut: int, eta: float) -> TwoSumReport:
    """Evaluate both sums of the bipartite-subgraph count estimate.

    The first sum's per-k first factor is the eta-interpolated bound when
    eta > 0 and the 3/4-base bound when eta = 0; the second factor is the
    3/4-base bound on n-k vertices at size k.
    """
    if not 0 <= p_cut <= n:
        raise ValueError(f"need 0 <= p_cut <= n, got p_cut={p_cut}, n={n}")
    check_eta(eta)
    terms1 = [_term1_ln(n, k, eta) for k in range(0, p_cut + 1)]
    # The second sum runs over k > p_cut; its maximum is taken from p_cut on.
    terms2 = [_term2_ln(n, k) for k in range(p_cut, n + 1)]
    argmax1 = max(range(len(terms1)), key=terms1.__getitem__)
    argmax2 = max(range(len(terms2)), key=terms2.__getitem__) + p_cut
    ln_sum1 = _log_sum_exp(terms1)
    ln_sum2 = _log_sum_exp(terms2[1:])
    ln_target = n * LN12 / 4.0
    return TwoSumReport(
        n=n,
        p_cut=p_cut,
        eta=eta,
        ln_sum1=ln_sum1,
        ln_sum2=ln_sum2,
        ln_max1=terms1[argmax1],
        argmax1=argmax1,
        ln_max2=terms2[argmax2 - p_cut],
        argmax2=argmax2,
        ln_target=ln_target,
        both_below_target=ln_sum1 < ln_target and ln_sum2 < ln_target,
    )


class TwoSumWitness(NamedTuple):
    """The balance point xi and the two-sum report at the witness order
    n, with p_cut = floor((1 + xi) n / 4); the report carries eta, n and
    p_cut."""

    xi: float
    report: TwoSumReport


# Largest order the witness search tries before giving up (GuardError).
TWO_SUM_N_CAP = 1 << 17


def find_two_sum_witness(eta: float = 0.4) -> TwoSumWitness:
    """Concrete (eta, xi, n) making both full sums beat the 12^{n/4} target.

    At any fixed n near the crossover the full sums exceed the target (the
    geometric tails contribute a constant factor), so a witness needs n
    large enough for the per-quarter deficit to absorb the tails.  xi is
    chosen in closed form to balance the two sums' linear-rate conditions:
    the first sum needs xi below (ln 12 - L(eta))/c1 where L is the
    per-quarter log base at k = n/4, the second benefits from larger xi.
    The smallest admissible n is then located by doubling and bisection;
    past TWO_SUM_N_CAP the doubling stops with GuardError.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    c1, c2 = monotonicity_constants(eta)
    gap = LN12 - (
        (1.0 - eta) * math.log(4.0 - eta) + eta * math.log(5.0 - eta) + LN3
    )
    tail1 = math.log(1.0 / (1.0 - math.exp(-c1)))
    r = math.exp(c2)
    tail2 = math.log(r / (1.0 - r))
    # Balance point of the two linear admissibility conditions; always
    # strictly inside the first sum's budget gap/c1.
    xi = gap * tail2 / (c1 * tail2 + (-c2) * tail1)

    def at(n: int) -> TwoSumWitness:
        return TwoSumWitness(xi, two_sum_estimate(n, math.floor((1.0 + xi) * n / 4.0), eta))

    best = at(64)
    while not best.report.both_below_target:
        n = 2 * best.report.n
        if n > TWO_SUM_N_CAP:
            raise GuardError(f"no witness n found below {TWO_SUM_N_CAP}")
        best = at(n)
    # Bisection moves best only to orders that pass, so it ends at the witness.
    lo = best.report.n // 2
    while best.report.n - lo > 1:
        trial = at((lo + best.report.n) // 2)
        if trial.report.both_below_target:
            best = trial
        else:
            lo = trial.report.n
    return best


def curve_rows(eta: float, points: int = 28) -> list[dict]:
    """Per-n log-bound exponents over x = k/n in [1/5, 1/3].

    Columns: the two piecewise-linear bound exponents, the smooth
    interpolation x ln(1/x) they touch at integer 1/x, and the
    eta-interpolated line.  The grid always includes the reference
    abscissas 0.2, 0.25, 0.333 and 1/3.  Past CURVE_POINTS_CAP, GuardError.
    """
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if points > CURVE_POINTS_CAP:
        raise GuardError(f"curves capped at {CURVE_POINTS_CAP} grid points, got {points}")
    check_eta(eta)
    lo, hi = 0.2, 1.0 / 3.0
    xs = {lo + (hi - lo) * i / (points - 1) for i in range(points)}
    xs.update((0.2, 0.25, 0.333, hi))
    rows = []
    for x in sorted(xs):
        rows.append(
            {
                "x": x,
                "eppstein": _family_ln(3, 4, 1, x),
                "nielsen": _family_ln(4, 5, 1, x),
                "interp": x * math.log(1.0 / x),
                "corollary1_eta": _interp_ln(1, x, eta),
            }
        )
    return rows
