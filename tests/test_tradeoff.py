"""Tests for tradeoff curves, the converse bound, density feasibility
checks, and the renewal simulation.

Oracles used here:

* BMRQ staircase values are exact powers of two, derived by hand from the
  single-atom size law.
* The dithered curve has a closed-form infimum (error grows monotonically
  in the step), evaluated independently of the octave scan.
* For the two-power law both integral inequalities hold with equality, and
  the constant values off the equality region (2 log2 e, and -2 log2 e for
  the refinement integral at zeta = 4) come from direct integration of
  c/x^2 pieces.
* The biased-tree density gives slack log2(e)/H(alpha) on the lower piece
  of its support and 0 on the upper piece, again by hand integration.
* The exact piecewise sums of both integral inequalities are checked
  against scipy quadrature of the laws' own pointwise densities, and
  ``converse_bound`` against a 50-digit mpmath evaluation of its formula.
* The renewal simulator is checked against the exact first-crossing law,
  computed by dynamic programming over the lattice of visit counts: the
  walk visits i steps of -log2(alpha) and j of -log2(1-alpha) with
  probability C(i+j, i) alpha^i (1-alpha)^j.
"""

import math
import warnings
from math import comb

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mrquant.cdf_analysis import (
    LOG2E,
    BiasAlphaCdf,
    StepCdf,
    TwoPowUnifCdf,
    empirical_cell_cdf,
    levy_distance,
    lp_error_asymptotic,
    renyi_rate,
)
from mrquant.quantizers import DomainError, QuantizerSpec, Scheme
from mrquant.tradeoff import (
    RateErrorPoint,
    RenewalConfig,
    SizeDensity,
    converse_bound,
    density_bound_slack,
    refinement_inequality_value,
    renewal_oracle_cdf,
    tradeoff_curve,
)

UNIFORM = QuantizerSpec(Scheme.SIMPLE_UNIFORM)
BMRQ = QuantizerSpec(Scheme.BMRQ)
DBMRQ = QuantizerSpec(Scheme.DBMRQ)


def bias_spec(alpha: float) -> QuantizerSpec:
    return QuantizerSpec(Scheme.BBMRQ, alpha=alpha)


def dbmrq_curve_value(p: float, x: float) -> float:
    """Independent closed form for the dithered infimum at log-rate x.

    R_0 equals -log2 s exactly and the error grows monotonically with s,
    so the infimum sits at s = 2^-x; evaluate the two-atom law there.
    """
    t = -x
    m = math.floor(t)
    u = 2.0 ** (m + 1 - t)
    integral = (u - 1.0) * 2.0 ** (p * m) + (2.0 - u) * 2.0 ** (p * (m + 1))
    rate = -math.log2(integral) / p
    return 2.0 ** (-p * (rate + 1.0)) / (p + 1.0)


class TestConfigs:
    def test_renewal_config_validation(self):
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.0, horizon_t=30.0, samples=100, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=1.0, horizon_t=30.0, samples=100, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.6, horizon_t=0.0, samples=100, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.6, horizon_t=math.inf, samples=100, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.6, horizon_t=30.0, samples=0, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.6, horizon_t=30.0, samples=10.5, seed=1)
        with pytest.raises(DomainError):
            RenewalConfig(alpha=0.6, horizon_t=30.0, samples=10, seed=1.5)

    def test_point_is_frozen(self):
        pt = RateErrorPoint(log_rate=0.0, error=0.25, s=1.0)
        with pytest.raises(AttributeError):
            pt.error = 0.5


class TestTradeoffCurve:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            tradeoff_curve(BMRQ, 1.0, [])
        with pytest.raises(DomainError):
            tradeoff_curve(BMRQ, 1.0, [0.0, math.nan])
        with pytest.raises(DomainError):
            tradeoff_curve(BMRQ, 0.0, [1.0])
        with pytest.raises(DomainError):
            tradeoff_curve(BMRQ, math.inf, [1.0])

    def test_bmrq_staircase_exact(self):
        pts = tradeoff_curve(BMRQ, 1.0, [0.0, 0.3, 0.7, 0.999, 1.0, 2.5])
        errors = [q.error for q in pts]
        assert errors == [0.25, 0.25, 0.25, 0.25, 0.125, 0.0625]
        assert [q.s for q in pts] == [1.0, 1.0, 1.0, 1.0, 0.5, 0.25]

    def test_bmrq_other_orders(self):
        (pt,) = tradeoff_curve(BMRQ, 2.0, [0.0])
        assert pt.error == pytest.approx(1.0 / 12.0, rel=1e-15)
        (pt,) = tradeoff_curve(BMRQ, 0.5, [2.0])
        assert pt.error == pytest.approx(2.0 ** (-1.5) / 1.5, rel=1e-15)

    def test_uniform_line(self):
        for p in (0.5, 1.0, 3.0):
            for x in (-1.0, 0.0, 0.8, 2.7):
                (pt,) = tradeoff_curve(UNIFORM, p, [x])
                assert pt.error == pytest.approx(
                    2.0 ** (-p * (x + 1.0)) / (p + 1.0), rel=1e-12
                )
                assert pt.s == pytest.approx(2.0 ** (-x), rel=1e-12)

    def test_dbmrq_matches_closed_infimum(self):
        for p in (0.5, 1.0, 2.0):
            for x in (0.0, 0.3, 0.62, 1.0, 1.45, 2.9):
                (pt,) = tradeoff_curve(DBMRQ, p, [x])
                assert pt.error == pytest.approx(
                    dbmrq_curve_value(p, x), rel=1e-11
                ), (p, x)

    def test_dbmrq_equals_bmrq_at_integers_else_beats_it(self):
        grid = np.round(np.arange(0.0, 3.01, 0.05), 10).tolist()
        db = tradeoff_curve(DBMRQ, 1.0, grid)
        bm = tradeoff_curve(BMRQ, 1.0, grid)
        un = tradeoff_curve(UNIFORM, 1.0, grid)
        for qd, qb, qu in zip(db, bm, un):
            if qd.log_rate == round(qd.log_rate):
                assert qd.error == pytest.approx(qb.error, rel=1e-11)
            else:
                assert qd.error < qb.error
            assert qd.error >= qu.error * (1.0 - 1e-11)

    def test_dbmrq_half_per_octave(self):
        grid = [0.17, 1.17, 2.17]
        pts = tradeoff_curve(DBMRQ, 1.0, grid)
        assert pts[1].error == pytest.approx(pts[0].error / 2.0, rel=1e-12)
        assert pts[2].error == pytest.approx(pts[1].error / 2.0, rel=1e-12)

    def test_bbmrq_line_slope(self):
        pts = tradeoff_curve(bias_spec(0.501), 1.0, [0.0, 1.0, 2.0, 3.0])
        logs = [math.log2(q.error) for q in pts]
        for a, b in zip(logs, logs[1:]):
            assert b - a == pytest.approx(-1.0, abs=1e-9)

    def test_bbmrq_anchor_value(self):
        # at x = R_0 of the stationary law the achieving step is s = 1 and
        # the error equals the asymptotic L^1 error of that law
        stationary = BiasAlphaCdf(0.51)
        x0 = renyi_rate(stationary, 0.0)
        (pt,) = tradeoff_curve(bias_spec(0.51), 1.0, [x0])
        assert pt.s == pytest.approx(1.0, rel=1e-12)
        assert pt.error == pytest.approx(
            lp_error_asymptotic(stationary, 1.0), rel=1e-12
        )
        assert pt.error == pytest.approx(0.1803, abs=2e-4)
        assert x0 == pytest.approx(0.52918, abs=1e-4)

    def test_bbmrq_near_bmrq_only_at_integers(self):
        # away from integer rates the near-unbiased tree strictly beats the
        # plain dyadic staircase
        grid = np.round(np.arange(0.0, 3.001, 0.05), 10).tolist()
        bb = tradeoff_curve(bias_spec(0.501), 1.0, grid)
        bm = tradeoff_curve(BMRQ, 1.0, grid)
        for qb, qm in zip(bb, bm):
            near_integer = abs(qb.log_rate - round(qb.log_rate)) <= 0.1
            assert qb.error <= qm.error * (1.0 + 1e-3) or near_integer

    def test_output_sorted_regardless_of_grid_order(self):
        pts = tradeoff_curve(BMRQ, 1.0, [2.0, 0.0, 1.0])
        assert [q.log_rate for q in pts] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "spec, p, x",
        [
            (UNIFORM, 1.0, -1100.0),  # the step 2**1100 overflows
            (BMRQ, 1.0, -1100.0),
            (DBMRQ, 1.0, -1100.0),
            (UNIFORM, 6.0, -200.0),  # the error (s/2)**6 overflows
            (bias_spec(0.6), 3.0, -400.0),
            (bias_spec(0.6), 0.5, -1100.0),
            # the step 2**-x, or the error, underflows to 0
            *((spec, 1.0, x) for spec in (UNIFORM, BMRQ, DBMRQ, bias_spec(0.6)) for x in (1074.5, 1100.0, 2000.0)),
            (UNIFORM, 6.0, 200.0),  # the error (s/2)**6 underflows at s = 2**-200
        ],
    )
    def test_overflow_is_a_domain_error(self, spec, p, x):
        with pytest.raises(DomainError):
            tradeoff_curve(spec, p, [x])


class TestConverseBound:
    def test_p1_closed_form(self):
        assert converse_bound(1.0) == pytest.approx(
            math.log2(0.5 * LOG2E**2), rel=1e-14
        )
        assert converse_bound(1.0) == pytest.approx(0.0575327, abs=1e-7)

    def test_monotone_and_finite(self):
        ps = [0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0]
        vals = [converse_bound(p) for p in ps]
        assert all(math.isfinite(v) for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_p_limit(self):
        assert converse_bound(1e-3) == pytest.approx(
            math.log2(LOG2E) - 0.5, abs=1e-3
        )

    @pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 2.0, 50.0])
    def test_against_50_digits(self, p):
        # the numerator cancels to 0 as p -> 0 when taken as written
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            want = mpmath.log((1 - mpmath.mpf(2) ** -q) / q / mpmath.log(2) ** (q + 1), 2) / q
            assert abs(converse_bound(p) - want) <= 1e-12 * abs(want)

    def test_validation(self):
        with pytest.raises(DomainError):
            converse_bound(0.0)
        with pytest.raises(DomainError):
            converse_bound(-1.0)
        with pytest.raises(DomainError):
            converse_bound(math.nan)

    def test_gap_dominates_bound_and_shrinks_toward_half(self):
        for p in (0.5, 1.0, 2.0):
            bound = converse_bound(p)
            gaps = []
            for a in (0.74, 0.7, 0.6, 0.55, 0.51, 0.501):
                law = BiasAlphaCdf(a)
                gaps.append(renyi_rate(law, 0.0) - renyi_rate(law, p + 1.0))
            assert all(g >= bound for g in gaps)
            assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_near_half_gap_is_close_to_bound(self):
        law = BiasAlphaCdf(0.501)
        gap = renyi_rate(law, 0.0) - renyi_rate(law, 2.0)
        assert 0.0 < gap - converse_bound(1.0) <= 1e-3


class TestDensityBoundSlack:
    def test_two_pow_is_the_equality_case(self):
        # the bound is tight on the whole support of the two-power law
        tp = TwoPowUnifCdf()
        for s in density_bound_slack(tp, [0.5, 0.6, 0.75, 0.9, 0.999]):
            assert abs(s) <= 1e-8

    def test_two_pow_off_support(self):
        tp = TwoPowUnifCdf()
        below, above = density_bound_slack(tp, [0.25, 1.5])
        assert below == pytest.approx(2.0 * LOG2E, rel=1e-9)
        assert above == pytest.approx(LOG2E, rel=1e-9)

    def test_bias_slack_piecewise_constant(self):
        # hand integration: slack is log2(e)/H(alpha) on [1-a, a), zero on
        # [a, 1)
        a = 0.6
        law = BiasAlphaCdf(a)
        expected = LOG2E / law.split_entropy
        lo_vals = density_bound_slack(law, [0.41, 0.5, 0.59])
        hi_vals = density_bound_slack(law, [0.6, 0.8, 0.99])
        for v in lo_vals:
            assert v == pytest.approx(expected, rel=1e-8)
        for v in hi_vals:
            assert abs(v) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7, 0.74])
    def test_bias_always_feasible(self, alpha):
        law = BiasAlphaCdf(alpha)
        ys = np.linspace(0.2, 1.1, 60).tolist()
        assert min(density_bound_slack(law, ys)) >= -1e-6

    def test_narrow_uniform_flagged_infeasible(self):
        bad = SizeDensity(((0.9, 1.0, 10.0, 0.0),))
        (slack,) = density_bound_slack(bad, [0.95])
        expected = 10.0 * math.log(1.0 / 0.9) + 10.0 * math.log(1.0 / 0.95) - 10.0
        assert slack == pytest.approx(expected, abs=1e-12)
        assert slack < -1e-6

    def test_validation(self):
        tp = TwoPowUnifCdf()
        with pytest.raises(DomainError):
            density_bound_slack(tp, [])
        with pytest.raises(DomainError):
            density_bound_slack(tp, [0.5, -1.0])
        with pytest.raises(DomainError):
            SizeDensity(((0.0, 1.0, 1.0, 0.0),))
        with pytest.raises(DomainError):
            SizeDensity(((0.5, math.inf, 1.0, 0.0),))

    @pytest.mark.parametrize(
        "pieces",
        [
            (),
            ((0.5, 0.8, 1.0, 0.0), (0.7, 1.0, 1.0, 0.0)),  # overlapping
            ((0.7, 1.0, 1.0, 0.0), (0.5, 0.7, 1.0, 0.0)),  # unsorted
            ((0.7, 0.5, 1.0, 0.0),),  # r < l
            ((0.5, 1.0, -1.0, 0.0),),
            ((0.5, 1.0, math.inf, 0.0),),
            ((0.5, 1.0, math.nan, 0.0),),
            ((0.5, 1.0, 1.0, math.nan),),
            ((0.5, 1.0, 1.0),),
        ],
    )
    def test_piece_validation(self, pieces):
        with pytest.raises(DomainError):
            SizeDensity(pieces)

    def test_pieces_define_support_and_closed_laws(self):
        den = SizeDensity([(0.5, 0.7, 1, 0), (0.7, 1.0, 2.0, -1.0)])
        assert den.pieces == ((0.5, 0.7, 1.0, 0.0), (0.7, 1.0, 2.0, -1.0))
        assert den.support == (0.5, 1.0)
        assert SizeDensity.from_closed(TwoPowUnifCdf()).pieces == ((0.5, 1.0, LOG2E, -1.0),)
        assert len(SizeDensity.from_closed(BiasAlphaCdf(0.5)).pieces) == 1
        with pytest.raises(DomainError):
            SizeDensity.from_closed(StepCdf(np.array([1.0]), np.array([1.0])))


class TestRefinementInequality:
    def test_two_pow_equality_below_two(self):
        tp = TwoPowUnifCdf()
        for z in (1.1, 1.3, 1.7, 2.0):
            assert abs(refinement_inequality_value(tp, z)) <= 1e-8

    def test_two_pow_at_four(self):
        # supports of f(x) and f(4x) are disjoint; both pieces integrate to
        # multiples of log2(e)
        val = refinement_inequality_value(TwoPowUnifCdf(), 4.0)
        assert val == pytest.approx(-2.0 * LOG2E, rel=1e-9)

    def test_bias_at_two(self):
        # piecewise c/x^2 integration gives -(1/5) log2(e)/H(0.6)
        law = BiasAlphaCdf(0.6)
        val = refinement_inequality_value(law, 2.0)
        assert val == pytest.approx(-0.2 * LOG2E / law.split_entropy, rel=1e-8)

    def test_vanishes_toward_one(self):
        val = refinement_inequality_value(BiasAlphaCdf(0.6), 1.0 + 1e-4)
        assert abs(val) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7])
    @pytest.mark.parametrize("zeta", [1.5, 2.0, 3.0, 4.0])
    def test_nonpositive_for_feasible_laws(self, alpha, zeta):
        assert refinement_inequality_value(BiasAlphaCdf(alpha), zeta) <= 1e-6

    def test_single_zeta_can_miss_infeasibility(self):
        # the narrow uniform density fails the pointwise bound, yet at
        # zeta = 2 the two lobes of this integral cancel exactly; a single
        # refinement check is weaker than the pointwise one
        bad = SizeDensity(((0.9, 1.0, 10.0, 0.0),))
        assert abs(refinement_inequality_value(bad, 2.0)) <= 1e-8

    def test_validation(self):
        with pytest.raises(DomainError):
            refinement_inequality_value(TwoPowUnifCdf(), 1.0)
        with pytest.raises(DomainError):
            refinement_inequality_value(TwoPowUnifCdf(), math.inf)


def test_sums_beyond_float64_raise():
    beyond = [
        lambda: density_bound_slack(SizeDensity(((1e-200, 1.0, 1.0, -2.0),)), [0.5]),  # a ** k overflows
        lambda: refinement_inequality_value(SizeDensity(((0.5, 1.0, 1.0, 3.0),)), 1e300),  # zeta ** (k + 1)
        lambda: refinement_inequality_value(SizeDensity(((5e-324, 1.0, 1.0, -1.0),)), 2.0),  # l / zeta is 0
        lambda: density_bound_slack(SizeDensity(((0.5, 1.0, 1e308, -1.0),)), [0.5]),  # inf - inf
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in beyond:
            with pytest.raises(DomainError):
                check()


def quad_sum(fn, cuts):
    """Quadrature of fn over consecutive cuts, one call per interval."""
    parts = (quad(fn, l, r, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for l, r in zip(cuts, cuts[1:]))
    return math.fsum(parts)


def quad_slack(pdf, kinks, y):
    """density_bound_slack at y by quadrature of the pointwise density."""
    base = quad_sum(lambda x: pdf(x) / x, kinks)
    tail = quad_sum(lambda x: pdf(x) / x, sorted({max(k, y) for k in kinks})) if y < kinks[-1] else 0.0
    return base + tail - pdf(y)


def quad_refinement(pdf, kinks, zeta):
    """refinement_inequality_value by quadrature of the pointwise integrand,
    split at the kinks of f and of f(zeta x) and at every sign change of
    f - zeta f(zeta x) that brentq finds inside those intervals; also
    returns how many it found."""
    def gap(x):
        return pdf(x) - zeta * pdf(zeta * x)

    def integrand(x):
        d = gap(x)
        return (1.0 + (d >= 0.0)) * d / x

    cuts = sorted(set(kinks) | {k / zeta for k in kinks})
    roots = []
    for u, v in zip(cuts, cuts[1:]):
        a, b = u + 1e-9 * (v - u), v - 1e-9 * (v - u)
        if gap(a) * gap(b) < 0.0 and abs(gap(a)) > 1e-9 and abs(gap(b)) > 1e-9:
            roots.append(brentq(gap, a, b, xtol=1e-15))
    return quad_sum(integrand, sorted(cuts + roots)), len(roots)


def closed_pdf(law):
    """The density of a closed law (TwoPowUnifCdf is BiasAlphaCdf(0.5)):
    ``(log2 e / H) (a 1{a <= x} + (1 - a) 1{1 - a <= x}) / x`` below 1."""
    a, h = law.alpha, law.split_entropy
    return lambda x: LOG2E / h * (a * (a <= x < 1.0) + (1.0 - a) * (1.0 - a <= x < 1.0)) / x


CLOSED_LAWS = [BiasAlphaCdf(a) for a in (0.501, 0.51, 0.55, 0.6, 0.7, 0.74, 0.3, 0.9)] + [
    TwoPowUnifCdf()
]


def law_id(law):
    return "TwoPowUnifCdf()" if law == TwoPowUnifCdf() else repr(law)
ZETAS = (1.2, 1.5, 2.0, 4.0, 7.3)
VERIFY_YS = np.linspace(0.2, 1.1, 64).tolist()

# mixed exponents: 1/Z on [0.4, 0.7) and 0.65/(Z x) on [0.7, 1), a
# probability density; its k = 0 piece meets the k = -1 piece of
# zeta f(zeta x), 0.65/(Z x) on [0.7/zeta, 1/zeta), and they cross at
# x = 0.65 for 0.7/0.65 <= zeta < 1/0.65, as at 1.2 and 1.5
MIXED_Z = 0.3 + 0.65 * math.log(1.0 / 0.7)
MIXED = SizeDensity(((0.4, 0.7, 1.0 / MIXED_Z, 0.0), (0.7, 1.0, 0.65 / MIXED_Z, -1.0)))


def mixed_pdf(x):
    if 0.4 <= x < 0.7:
        return 1.0 / MIXED_Z
    if 0.7 <= x < 1.0:
        return 0.65 / MIXED_Z / x
    return 0.0


class TestClosedFormsAgainstQuadrature:
    """The exact sums against scipy quadrature of pointwise densities: the
    closed laws' densities (:func:`closed_pdf`; standard, near-half and
    nonstandard alphas, and the two-power law) and a density with k = 0 and k = -1 pieces."""

    @pytest.mark.parametrize("law", CLOSED_LAWS, ids=law_id)
    def test_pointwise_slack(self, law):
        kinks = law.kinks().tolist()  # the support's ends and the interior kink
        got = density_bound_slack(law, VERIFY_YS)
        want = [quad_slack(closed_pdf(law), kinks, y) for y in VERIFY_YS]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13

    @pytest.mark.parametrize("law", CLOSED_LAWS, ids=law_id)
    def test_refinement_integral(self, law):
        kinks = law.kinks().tolist()
        for zeta in ZETAS:
            want, _ = quad_refinement(closed_pdf(law), kinks, zeta)
            assert abs(refinement_inequality_value(law, zeta) - want) <= 1e-13, zeta

    def test_mixed_exponents(self):
        kinks = [0.4, 0.7, 1.0]
        got = density_bound_slack(MIXED, VERIFY_YS)
        want = [quad_slack(mixed_pdf, kinks, y) for y in VERIFY_YS]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13
        crossed = 0
        for zeta in ZETAS:
            want, roots = quad_refinement(mixed_pdf, kinks, zeta)
            crossed += roots
            assert abs(refinement_inequality_value(MIXED, zeta) - want) <= 1e-13, zeta
        assert crossed >= 2  # the crossing cut is exercised at zeta = 1.2 and 1.5


def exact_first_crossing_law(alpha: float, horizon: float) -> StepCdf:
    """Exact law of 2^-(overshoot) at the first crossing of the horizon.

    The walk that has taken i short and j long steps sits at
    i*la + j*lb with probability C(i+j, i) alpha^i (1-alpha)^j; summing the
    crossing transitions out of every interior state gives the atom masses.
    """
    la = -math.log2(alpha)
    lb = -math.log2(1.0 - alpha)
    atoms: dict = {}
    i = 0
    while i * la < horizon:
        j = 0
        while i * la + j * lb < horizon:
            t = i * la + j * lb
            prob = comb(i + j, i) * alpha**i * (1.0 - alpha) ** j
            for step, mass in ((la, alpha * prob), ((lb), (1.0 - alpha) * prob)):
                if t + step >= horizon:
                    w = 2.0 ** (-(t + step - horizon))
                    atoms[w] = atoms.get(w, 0.0) + mass
            j += 1
        i += 1
    keys = sorted(atoms)
    return StepCdf(np.array(keys), np.array([atoms[k] for k in keys]))


class TestRenewalOracle:
    def test_same_seed_identical(self):
        cfg = RenewalConfig(alpha=0.6, horizon_t=30.0, samples=5000, seed=42)
        f1 = renewal_oracle_cdf(cfg)
        f2 = renewal_oracle_cdf(cfg)
        assert np.array_equal(f1.breakpoints, f2.breakpoints)
        assert np.array_equal(f1.masses, f2.masses)

    def test_different_seed_differs(self):
        base = dict(alpha=0.6, horizon_t=30.0, samples=5000)
        f1 = renewal_oracle_cdf(RenewalConfig(seed=1, **base))
        f2 = renewal_oracle_cdf(RenewalConfig(seed=2, **base))
        assert not (
            f1.breakpoints.shape == f2.breakpoints.shape
            and np.array_equal(f1.breakpoints, f2.breakpoints)
        )

    def test_support_inside_unit_interval(self):
        f = renewal_oracle_cdf(
            RenewalConfig(alpha=0.6, horizon_t=30.0, samples=20000, seed=9)
        )
        assert f.breakpoints.max() <= 1.0
        # overshoot is strictly below the longest interarrival step
        assert f.breakpoints.min() > 1.0 - 0.6

    def test_lattice_alpha_half(self):
        # both steps equal 1, the walk lands exactly on an integer horizon,
        # so the residual collapses to a point mass
        f = renewal_oracle_cdf(
            RenewalConfig(alpha=0.5, horizon_t=30.0, samples=1000, seed=5)
        )
        assert f.breakpoints.tolist() == [1.0]
        assert f.masses.tolist() == [1.0]

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7])
    def test_matches_exact_crossing_law(self, alpha):
        # strong oracle: the simulator must reproduce the exact
        # first-crossing law up to Monte-Carlo noise
        exact = exact_first_crossing_law(alpha, 12.0)
        sim = renewal_oracle_cdf(
            RenewalConfig(alpha=alpha, horizon_t=12.0, samples=100000, seed=31)
        )
        assert levy_distance(exact, sim) <= 0.01

    def test_exact_law_is_a_probability(self):
        exact = exact_first_crossing_law(0.6, 12.0)
        assert math.fsum(exact.masses) == pytest.approx(1.0, abs=1e-12)


class TestStationaryConvergence:
    """Convergence toward the closed-form stationary law.

    The interarrival ratios log2(alpha)/log2(1-alpha) at these alphas sit
    near rationals with small denominators (3/4 at 0.55, 29/52 at 0.6), so
    the walk mixes on a near-lattice and the residual law approaches its
    limit slowly: at horizon 30 the true distances are 0.079, 0.039 and
    0.030 for alpha 0.55, 0.6, 0.7 (verified against the exact crossing
    law). Tolerances below are those measured values with margin; the
    distances do shrink with the horizon, which the last test pins down.
    """

    BOUNDS = {0.55: 0.13, 0.6: 0.075, 0.7: 0.06}

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7])
    def test_three_way_agreement(self, alpha):
        closed = BiasAlphaCdf(alpha)
        window = empirical_cell_cdf(
            QuantizerSpec(Scheme.BBMRQ, alpha=alpha), 1.0, 0.0, 1e5
        )
        renewal = renewal_oracle_cdf(
            RenewalConfig(alpha=alpha, horizon_t=30.0, samples=100000, seed=20260819)
        )
        bound = self.BOUNDS[alpha]
        assert levy_distance(closed, window) <= bound
        assert levy_distance(closed, renewal) <= bound
        assert levy_distance(window, renewal) <= 1.7 * bound

    def test_long_horizon_closes_the_gap(self):
        renewal = renewal_oracle_cdf(
            RenewalConfig(alpha=0.6, horizon_t=200.0, samples=30000, seed=3)
        )
        assert levy_distance(renewal, BiasAlphaCdf(0.6)) <= 0.02
