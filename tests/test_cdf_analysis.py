"""Tests for cell-size distributions, the Levy metric, and derived rates.

Closed-form values are cross-checked against independent numerical
integration of the densities (scipy, and mpmath at 50 digits where the
float formulas cancel), the exact Levy distance against a gridded
bisection, a brute-force grid scan of the defining infimum and mpmath, and
the level-count integral against exact rational arithmetic.
"""

import bisect
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mrquant import DomainError, QuantizerSpec, cdf_analysis, cell_of, enumerate_cells, quantizers
from mrquant.quantizers import _lattice_index, _window_cells
from mrquant.cdf_analysis import (
    BiasAlphaCdf,
    DbmrqAtomsCdf,
    StepCdf,
    TwoPowUnifCdf,
    count_levels,
    empirical_cell_cdf,
    levy_distance,
    lp_error_asymptotic,
    lp_error_exact,
    output_entropy,
    renyi_rate,
    scale_shift_rate,
)

LOG2E = math.log2(math.e)


def closed_pdf(law):
    """The density of a closed law (TwoPowUnifCdf is BiasAlphaCdf(0.5)):
    ``(log2 e / H) (a 1{a <= x} + (1 - a) 1{1 - a <= x}) / x`` below 1."""
    a, h = law.alpha, law.split_entropy
    return lambda x: LOG2E / h * (a * (a <= x < 1.0) + (1.0 - a) * (1.0 - a <= x < 1.0)) / x


def level_count_integral(spec, s, x0, x1) -> Fraction:
    """(x1 - x0) * integral of 1/size dF over the window's clipped cells, in
    exact rational arithmetic, so each cell contributes exactly one."""
    width = Fraction(x1) - Fraction(x0)
    total = Fraction(0)
    for c in enumerate_cells(spec, s, x0, x1):
        g = min(c.hi, x1) - max(c.lo, x0)
        if g <= 0.0:
            continue
        gf = Fraction(g)
        total += width * (1 / gf) * (gf / width)
    return total


def gridded_levy(F, G, tol=1e-4):
    """The gridded Levy check, the reference for the exact one: kinks, kinks
    shifted by +-eps, their left neighbours and 20 001 grid points."""
    kf, kg = F.kinks(), G.kinks()
    lo_x, hi_x = min(kf[0], kg[0]), max(kf[-1], kg[-1])
    pad = 0.0625 * (hi_x - lo_x) + 2.0 * tol
    grid = np.linspace(lo_x - pad, hi_x + pad, 20_001)

    def feasible(eps):
        xs = np.concatenate((grid, kf, kg, kf - eps, kf + eps, kg - eps, kg + eps))
        xs = np.concatenate((xs, np.nextafter(xs, -np.inf)))
        gv = G.cdf(xs)
        if (gv - F.cdf(xs + eps) - eps > 1e-12).any():
            return False
        return not (F.cdf(xs - eps) - eps - gv > 1e-12).any()

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 0.5 * tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def brute_levy(F, G, xs, eps_step=1e-4):
    """The defining infimum on a fixed grid of x and eps: the first feasible
    eps of the grid, found by bisection, as feasibility is monotone in eps."""
    Gv = G.cdf(xs)
    epss = np.arange(0.0, 1.0 + eps_step, eps_step)

    def feasible(i):
        eps = epss[i]
        return bool((Gv <= F.cdf(xs + eps) + eps + 1e-12).all() and (F.cdf(xs - eps) - eps <= Gv + 1e-12).all())

    i = bisect.bisect_left(range(epss.size), True, key=feasible)
    return float(epss[i]) if i < epss.size else 1.0


class TestStepCdf:
    def test_validation(self):
        with pytest.raises(DomainError):
            StepCdf(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            StepCdf(np.array([-0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            StepCdf(np.array([0.4, 0.5]), np.array([0.5, 0.4]))
        with pytest.raises(DomainError):
            StepCdf(np.array([0.4]), np.array([0.5, 0.5]))

    def test_evaluation_semantics(self):
        F = StepCdf(np.array([0.25, 0.5]), np.array([0.25, 0.75]))
        assert F.cdf(0.25) == 0.25  # right continuous at atoms
        assert F.cdf(0.5) == 1.0
        assert F.cdf(0.1) == 0.0 and F.cdf(9.0) == 1.0
        np.testing.assert_array_equal(F.cdf([0.25, 0.3, 0.5]), [0.25, 0.25, 1.0])

    def test_scaled_merges_colliding_atoms(self):
        # adjacent floats whose products round to the same value
        a = 1.913837667673163
        b = math.nextafter(a, math.inf)
        f = 0.5238073535984377
        assert a * f == b * f
        F = StepCdf(np.array([a, b]), np.array([0.5, 0.5]))
        G = F.scaled(f)
        assert G.breakpoints.size == 1
        assert G.masses[0] == 1.0

    def test_scaled_rates_shift(self):
        F = StepCdf(np.array([0.5, 1.0]), np.array([0.25, 0.75]))
        for eta in (0.0, 1.0, 2.0):
            shifted = renyi_rate(F.scaled(0.25), eta)
            assert shifted == pytest.approx(renyi_rate(F, eta) + 2.0, abs=1e-12)


class TestClosedForms:
    def test_twopow_point_values(self):
        tp = TwoPowUnifCdf()
        assert float(tp.cdf(2.0 ** -0.5)) == pytest.approx(0.5, abs=1e-15)
        assert float(tp.cdf(0.5)) == 0.0
        assert float(tp.cdf(1.0)) == 1.0
        assert float(tp.cdf(0.1)) == 0.0
        assert float(tp.cdf(7.0)) == 1.0

    def test_bias_point_values(self):
        b = BiasAlphaCdf(0.6)
        assert float(b.cdf(1.0)) == 1.0
        assert float(b.cdf(0.39)) == 0.0  # below the support floor 0.4
        h = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
        assert b.split_entropy == pytest.approx(h, abs=1e-15)
        assert float(b.cdf(0.6)) == pytest.approx(
            0.4 * math.log2(0.6 / 0.4) / h, abs=1e-14
        )
        assert b.support == (0.4, 1.0)

    def test_cdf_matches_integrated_density(self):
        # independent check: integrate the density and compare with the cdf
        for cdf in (BiasAlphaCdf(0.6), BiasAlphaCdf(0.51), TwoPowUnifCdf()):
            lo = cdf.support[0]
            for g in (0.55, 0.7, 0.85, 0.99):
                want, err = quad(
                    closed_pdf(cdf),
                    lo,
                    g,
                    points=[p for p in cdf.kinks() if lo < p < g],
                    limit=200,
                )
                assert float(cdf.cdf(np.asarray(g))) == pytest.approx(
                    want, abs=1e-9 + 10 * err
                )

    @pytest.mark.parametrize("alpha", [0.5 - 1e-8, 0.5 + 1e-8, 0.5 + 1e-12, 0.5 + 1e-4, 0.6, 0.74, 0.3])
    def test_bias_cdf_against_50_digits(self, alpha):
        # The oracle integrates the density's pieces c / (H ln 2 x), one
        # above each of c = a and c = 1 - a, at 50 digits from the exact
        # binary alpha and x.  The worst absolute error measured on these
        # points is 3.0e-16; the kinks a and 1 - a merge as alpha nears 1/2.
        cdf = BiasAlphaCdf(alpha)
        xs = np.linspace(cdf.support[0], 1.0, 200).tolist()
        xs += [y for k in cdf.kinks().tolist() for y in (math.nextafter(k, 0.0), k, math.nextafter(k, 2.0))]
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            h = -a * mpmath.log(a, 2) - (1 - a) * mpmath.log(1 - a, 2)
            for x, got in zip(xs, cdf.cdf(np.array(xs)).tolist()):
                x = mpmath.mpf(x)
                want = min(1, sum(c * mpmath.log(x / c, 2) for c in (a, 1 - a) if x > c) / h)
                assert abs(got - want) <= 1e-15, x

    def test_dbmrq_atoms(self):
        st = DbmrqAtomsCdf(1.5)
        assert isinstance(st, StepCdf)
        np.testing.assert_array_equal(st.breakpoints, [1.0, 2.0])
        assert st.masses[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert st.masses[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        # a power-of-two step collapses to a single atom at the step itself
        st4 = DbmrqAtomsCdf(4.0)
        np.testing.assert_array_equal(st4.breakpoints, [4.0])
        np.testing.assert_array_equal(st4.masses, [1.0])

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            BiasAlphaCdf(1.0)
        with pytest.raises(DomainError):
            DbmrqAtomsCdf(0.0)

    @pytest.mark.parametrize("alpha", [1e-310, 5e-324, math.nextafter(2.0 ** -1022, 0.0)])
    def test_subnormal_alpha_is_refused(self, alpha):
        with pytest.raises(DomainError, match="at least 2"):
            BiasAlphaCdf(alpha)

    def test_the_least_alpha_accepted_stays_finite(self):
        # 2**-1022, the least normal float: its cdf, rates and distances, with
        # RuntimeWarning an error, as every test runs
        law = BiasAlphaCdf(2.0 ** -1022)
        xs = np.array([-1.0, 0.0, 5e-324, 1e-310, 2.0 ** -1022, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0, 2.0])
        got = law.cdf(xs)
        assert got[:5].tolist() == [0.0] * 5 and got[-2:].tolist() == [1.0, 1.0]
        assert (np.diff(got) >= 0.0).all()
        for eta in (0.0, 0.5, 1.0, 2.0, 10.0):
            assert math.isfinite(renyi_rate(law, eta))
        for other in (BiasAlphaCdf(0.6), BiasAlphaCdf(0.9), law, StepCdf(np.array([5e-324, 0.7]), np.array([0.5, 0.5]))):
            for d in (levy_distance(law, other), levy_distance(other, law)):
                assert 0.0 <= d <= 1.0

    def test_closed_forms_far_from_one_half_stay_finite(self):
        # A grid of 120 log-spaced alphas from 2**-1022 to 1/2 and six toward
        # 1 once overflowed in the balance points for 7 020 of its 15 876
        # pairs, each with the smaller alpha (or 1 - alpha) at most 1.4e-158
        # and the larger at most 1.3e-3.  Every sixth alpha of it, each pair
        # in both orders; a sample of those far pairs against the grid.
        alphas = np.logspace(-1022 * math.log10(2.0), math.log10(0.5), 120)
        alphas = [max(float(a), 2.0 ** -1022) for a in alphas[::6]]
        alphas += [0.5, 0.6, 0.74, 0.9, 0.999, 1.0 - 1e-12, 1.0 - 2.0 ** -53]
        laws = [BiasAlphaCdf(a) for a in alphas]
        far = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, f in zip(alphas, laws):
                for b, g in zip(alphas, laws):
                    d = levy_distance(f, g)
                    assert 0.0 <= d <= 1.0, (a, b)
                    least, most = sorted((min(a, 1.0 - a), min(b, 1.0 - b)))
                    if least <= 1.4e-158 and most <= 1.3e-3:
                        far.append((f, g, d))
        assert len(far) > 200
        for f, g, d in far[::8]:
            assert abs(d - gridded_levy(f, g)) <= 1e-4, (f.alpha, g.alpha)


class TestEmpiricalCdf:
    def test_dyadic_single_atom(self):
        F = empirical_cell_cdf(QuantizerSpec.bmrq(), 1.0, 0.0, 4.0)
        np.testing.assert_array_equal(F.breakpoints, [1.0])
        np.testing.assert_array_equal(F.masses, [1.0])

    def test_merged_pair_single_atom(self):
        F = empirical_cell_cdf(QuantizerSpec.dbmrq(), 1.5, 0.0, 2.0)
        np.testing.assert_array_equal(F.breakpoints, [2.0])
        np.testing.assert_array_equal(F.masses, [1.0])

    def test_biased_unit_window(self):
        F = empirical_cell_cdf(QuantizerSpec.bbmrq(0.6), 0.5, 0.0, 1.0)
        np.testing.assert_allclose(F.breakpoints, [0.24, 0.36, 0.4], rtol=0, atol=1e-15)
        np.testing.assert_allclose(F.masses, [0.24, 0.36, 0.4], rtol=0, atol=1e-15)

    def test_clipped_boundary_cells(self):
        # window [0.5, 2.5) over unit dyadic cells: two half cells, one whole
        F = empirical_cell_cdf(QuantizerSpec.bmrq(), 1.0, 0.5, 2.5)
        np.testing.assert_array_equal(F.breakpoints, [0.5, 1.0])
        np.testing.assert_allclose(F.masses, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_against_random_point_sampling(self):
        # the cdf should match the law of the cell size at a uniform point
        spec = QuantizerSpec.bbmrq(0.62)
        F = empirical_cell_cdf(spec, 1.0, 0.0, 500.0)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 500.0, 4000)
        sizes = np.array([cell_of(spec, 1.0, float(x)).size for x in pts])
        grid = np.linspace(0.3, 1.05, 200)
        emp = (sizes[:, None] <= grid[None, :]).mean(axis=0)
        assert np.abs(emp - F.cdf(grid)).max() < 0.04

    def test_mass_total_on_large_windows(self):
        for spec, s in (
            (QuantizerSpec.bbmrq(0.6), 1.0),
            (QuantizerSpec.uniform(), 0.3),
            (QuantizerSpec.dbmrq(), 1.3),
        ):
            F = empirical_cell_cdf(spec, s, 0.0, 30_000.0)
            assert abs(math.fsum(F.masses.tolist()) - 1.0) < 1e-12

    def test_degenerate_window(self):
        with pytest.raises(DomainError):
            empirical_cell_cdf(QuantizerSpec.bmrq(), 1.0, 2.0, 2.0)

    def test_window_starting_on_a_mirrored_cell_end(self):
        # x0 = -0.6 closes the mirrored cell (-1, -0.6], which meets the
        # window only there: its level counts, but it adds no piece.
        spec = QuantizerSpec.bbmrq(0.6)
        cells = enumerate_cells(spec, 0.5, -0.6, 1.0)
        assert (cells[0].lo, cells[0].hi) == (-1.0, -0.6)
        assert count_levels(spec, 0.5, -0.6, 1.0) == len(cells) == 6
        F = empirical_cell_cdf(spec, 0.5, -0.6, 1.0)
        np.testing.assert_allclose(F.breakpoints, [0.24, 0.36, 0.4], rtol=0, atol=1e-15)
        np.testing.assert_allclose(F.masses, [0.3, 0.45, 0.25], rtol=0, atol=1e-15)
        w = np.array([0.24, 0.36, 0.24, 0.36, 0.4]) / 1.6
        assert output_entropy(spec, 0.5, -0.6, 1.0) == pytest.approx(-(w @ np.log2(w)), abs=1e-12)
        interior = sum(g * (g / 2) ** 2 / 3 for g in (0.24, 0.36, 0.24, 0.36, 0.4)) / 1.6
        assert lp_error_exact(spec, 0.5, -0.6, 1.0, 2.0) == pytest.approx(interior, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            QuantizerSpec.uniform(),
            QuantizerSpec.bmrq(),
            QuantizerSpec.dbmrq(),
            QuantizerSpec.bbmrq(0.6),
        ],
        ids=lambda s: s.scheme.value,
    )
    def test_window_at_the_smallest_step(self, spec):
        # One cell, [0, 5e-324); the cell budget once divided by an underflowed length.
        args = (spec, 5e-324, 0.0, 5e-324)
        F = empirical_cell_cdf(*args)
        assert (F.breakpoints.tolist(), F.masses.tolist()) == ([5e-324], [1.0])
        assert count_levels(*args) == 1
        assert output_entropy(*args) == 0.0
        assert lp_error_exact(*args, 1.0) == 0.0


def rand_step(rng, most=6, twins=0.0):
    """A step cdf of 1 to ``most - 1`` atoms on [0.2, 1.5); with probability
    ``twins`` two of them get a one-ulp neighbour."""
    bp = np.unique(rng.uniform(0.2, 1.5, rng.integers(1, most)))
    if twins and rng.random() < twins:
        bp = np.unique(np.concatenate((bp, np.nextafter(bp[:2], np.inf))))
    m = rng.random(bp.size)
    m /= m.sum()
    m[-1] += 1.0 - math.fsum(m.tolist())
    return StepCdf(bp, m)


def bisected_bracket(F, G, rounds=50):
    """``(lo, hi)`` from bisecting the defining check, at least one of F, G
    a step cdf: eps is infeasible iff ``p(x) - q(x + eps) > eps`` for some
    x, either way round, and that gap peaks at a kink of p or just below a
    kink of q shifted by -eps.  ``lo`` stays infeasible and ``hi`` feasible."""

    def left(D, x):  # the left limit of D at x
        return D.cdf(np.nextafter(x, -np.inf))

    def infeasible(p, q, eps):
        kp, kq = p.kinks(), q.kinks()
        return bool((p.cdf(kp) - q.cdf(kp + eps) > eps).any() or (left(p, kq - eps) - left(q, kq) > eps).any())

    lo, hi = 0.0, 1.0
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if infeasible(F, G, mid) or infeasible(G, F, mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def mp_height(law, c):
    """The height at which the closed form's graph meets ``x + y = c``, to
    50 digits: the root of ``x + G(x) = c`` on the support, bracketed."""
    with mpmath.workdps(50):
        a, lo = mpmath.mpf(law.alpha), mpmath.mpf(min(law.alpha, 1.0 - law.alpha))
        h = -a * mpmath.log(a, 2) - (1 - a) * mpmath.log(1 - a, 2)

        def G(x):
            return (a * max(mpmath.log(x / a, 2), 0) + (1 - a) * max(mpmath.log(x / (1 - a), 2), 0)) / h

        c = mpmath.mpf(c)
        if c <= lo:
            return mpmath.mpf(0)
        if c >= 2:
            return mpmath.mpf(1)
        x = mpmath.findroot(lambda x: x + G(x) - c, (lo, mpmath.mpf(1)), solver="anderson")
        return c - x


class TestLevyDistance:
    def test_identity(self):
        F = StepCdf(np.array([0.3, 0.8]), np.array([0.4, 0.6]))
        assert levy_distance(F, F) == 0.0
        assert levy_distance(BiasAlphaCdf(0.6), BiasAlphaCdf(0.6)) == 0.0

    def test_point_mass_pair(self):
        A = StepCdf(np.array([0.3]), np.array([1.0]))
        B = StepCdf(np.array([0.5]), np.array([1.0]))
        assert levy_distance(A, B) == pytest.approx(0.2, abs=1e-15)

    def test_matches_brute_force(self):
        # brute_levy reads the first feasible eps of its 1e-4 grid
        rng = np.random.default_rng(3)
        xs = np.linspace(0.0, 2.0, 100_001)
        for _ in range(4):
            bp = np.unique(rng.uniform(0.2, 1.5, rng.integers(2, 6)))
            m = rng.random(bp.size)
            m /= m.sum()
            m[-1] += 1.0 - math.fsum(m.tolist())
            F = StepCdf(bp, m)
            G = BiasAlphaCdf(0.6)
            assert levy_distance(F, G) == pytest.approx(brute_levy(F, G, xs), abs=1e-4)

    def test_point_mass_against_smooth(self):
        # one atom at 1/2 against the log-uniform law; the binding constraint
        # is log2(1/2 + eps) + 1 >= 1 - eps, solvable independently
        F = StepCdf(np.array([0.5]), np.array([1.0]))
        root = brentq(lambda e: math.log2(0.5 + e) + e, 1e-12, 0.5)
        assert levy_distance(F, TwoPowUnifCdf()) == pytest.approx(root, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            A, B, C = rand_step(rng), rand_step(rng), rand_step(rng)
            assert levy_distance(A, B) == levy_distance(B, A)
            assert levy_distance(A, C) <= levy_distance(A, B) + levy_distance(B, C) + 1e-12

    def test_bias_approaches_loguniform(self):
        tp = TwoPowUnifCdf()
        d51 = levy_distance(BiasAlphaCdf(0.51), tp)
        d55 = levy_distance(BiasAlphaCdf(0.55), tp)
        d60 = levy_distance(BiasAlphaCdf(0.60), tp)
        assert d51 <= 0.02
        assert d51 < d55 < d60

    def test_closed_forms_pin(self):
        # Where the slopes balance: without that line the corners alone read
        # 0.025169105883633802.  mpmath agrees (test_closed_pairs_match_mpmath).
        A, B = BiasAlphaCdf(0.7), BiasAlphaCdf(0.74)
        assert levy_distance(A, B) == levy_distance(B, A) == pytest.approx(0.025248469503133975, abs=1e-15)
        assert gridded_levy(A, B) == pytest.approx(levy_distance(A, B), abs=1e-4)

    def test_rejects_non_cdf(self):
        class DuckCdf:
            cdf = BiasAlphaCdf(0.6).cdf
            kinks = BiasAlphaCdf(0.6).kinks

        for other in (object(), DuckCdf()):
            with pytest.raises(DomainError):
                levy_distance(BiasAlphaCdf(0.6), other)
        with pytest.raises(TypeError):  # there is no tolerance to pass
            levy_distance(BiasAlphaCdf(0.6), TwoPowUnifCdf(), 1e-4)

    def test_matches_the_gridded_check(self):
        # gridded_levy bisects its own check to tol, so the exact value lies
        # within tol of it: step against step, where the kinks make that
        # check exact, and a window's cdf against its law.
        rng = np.random.default_rng(2026)
        for _ in range(25):
            A, B = rand_step(rng, 40, 0.3), rand_step(rng, 40, 0.3)
            tol = float(10.0 ** rng.uniform(-9, -2))
            for X, Y in ((A, B), (A, A.scaled(1.0 + 1e-9))):
                assert abs(levy_distance(X, Y) - gridded_levy(X, Y, tol)) <= tol
        for _ in range(8):
            alpha = float(rng.uniform(0.51, 0.74))
            s = float(10.0 ** rng.uniform(-3.0, -1.0))
            x0 = float(rng.uniform(0.0, 1.0))
            x1 = x0 + float(rng.uniform(5.0, 200.0)) * s
            for spec, law in (
                (QuantizerSpec.bbmrq(alpha), BiasAlphaCdf(alpha)),
                (QuantizerSpec.bmrq(), TwoPowUnifCdf()),
                (QuantizerSpec.dbmrq(), TwoPowUnifCdf()),
            ):
                F = empirical_cell_cdf(spec, s, x0, x1).scaled(1.0 / s)
                for A, B in ((F, law), (law, F)):
                    assert abs(levy_distance(A, B) - gridded_levy(A, B)) <= 1e-4, (spec, s, x0, x1)

    def test_never_above_the_bisected_feasible_offset(self):
        # The heights are exact to a few ulps of 1, so the exact value lies
        # in the bracket of a 50-round bisection, within 2**-50.
        rng = np.random.default_rng(2027)
        for closed in (False, True):
            for _ in range(300):
                A = rand_step(rng, 40, 0.3)
                B = BiasAlphaCdf(float(rng.uniform(0.51, 0.74))) if closed else rand_step(rng, 40, 0.3)
                lo, hi = bisected_bracket(A, B)
                assert lo - 2.0**-50 <= levy_distance(A, B) <= hi + 2.0**-50, (A, B)

    def test_newton_heights_match_mpmath(self):
        # below the support, on both log pieces, and past 1
        for alpha in (0.51, 0.6, 0.74):
            law = BiasAlphaCdf(alpha)
            k = law.kinks()
            c = np.concatenate((np.linspace(k[0] - 0.1, 2.1, 97), k + law.cdf(k)))
            got = cdf_analysis._height(law, c, np.zeros_like(c))
            pieces = np.searchsorted(k + law.cdf(k), c)
            assert set(pieces.tolist()) == {0, 1, 2, 3}
            for ci, yi in zip(c.tolist(), got.tolist()):
                assert abs(yi - mp_height(law, ci)) <= 4e-16, (alpha, ci)

    def test_closed_pairs_match_mpmath(self):
        # The supremum over c of the height gap, by golden section in mpmath
        # around the argmax of a dense scan: an interior peak where the
        # slopes balance, or a corner.
        for a, b in ((0.7, 0.74), (0.6, 0.5), (0.51, 0.55), (0.74, 0.51)):
            A, B = BiasAlphaCdf(a), BiasAlphaCdf(b)
            c = np.linspace(0.2, 2.1, 4001)
            zero = np.zeros_like(c)
            gap = np.abs(cdf_analysis._height(A, c, zero) - cdf_analysis._height(B, c, zero))
            i = int(gap.argmax())
            with mpmath.workdps(50):
                def mp_gap(t):
                    return abs(mp_height(A, t) - mp_height(B, t))

                left, right = mpmath.mpf(c[max(i - 1, 0)]), mpmath.mpf(c[min(i + 1, c.size - 1)])
                for _ in range(120):  # golden section on the peak's bracket
                    m1, m2 = left + (right - left) * 0.382, left + (right - left) * 0.618
                    if mp_gap(m1) < mp_gap(m2):
                        left = m1
                    else:
                        right = m2
                want = float(mp_gap(left))
            assert abs(levy_distance(A, B) - want) <= 1e-15, (a, b)

    def test_dense_step_cdfs_are_checked_exactly(self):
        # Half the mass sits on one atom of a 30 001-atom grid; moving that
        # atom right by 0.01 must show, however many atoms surround it: the
        # distance is the atom's float displacement.
        bp = np.linspace(1.0, 1000.0, 30_001)
        m = np.full(bp.size, 0.5 / (bp.size - 1))
        m[15_001] = 0.5
        moved = bp.copy()
        moved[15_001] += 0.01
        assert levy_distance(StepCdf(bp, m), StepCdf(moved, m)) == moved[15_001] - bp[15_001]


class TestRenyiRates:
    def test_loguniform_reference_values(self):
        tp = TwoPowUnifCdf()
        assert renyi_rate(tp, 0.0) == pytest.approx(math.log2(LOG2E), abs=1e-14)
        assert renyi_rate(tp, 1.0) == 0.5

    def test_closed_forms_match_quadrature(self):
        # independent oracle: integrate gamma^(eta-1) (and -log2 gamma)
        # against the densities
        for cdf in (BiasAlphaCdf(0.6), BiasAlphaCdf(0.51), TwoPowUnifCdf()):
            lo = cdf.support[0]
            pts = [p for p in cdf.kinks() if lo < p < 1.0]
            for eta in (0.0, 0.5, 2.0, 3.0):
                integral, _ = quad(
                    lambda x: x ** (eta - 1.0) * closed_pdf(cdf)(x),
                    lo,
                    1.0,
                    points=pts,
                    limit=200,
                )
                want = math.log2(integral) / (1.0 - eta)
                assert renyi_rate(cdf, eta) == pytest.approx(want, abs=1e-9)
            shannon, _ = quad(
                lambda x: -math.log2(x) * closed_pdf(cdf)(x),
                lo,
                1.0,
                points=pts,
                limit=200,
            )
            assert renyi_rate(cdf, 1.0) == pytest.approx(shannon, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.5 + 1e-8, 0.5 + 1e-4, 0.6, 0.74, 0.3])
    @pytest.mark.parametrize(
        "eta",
        [0.0, 0.5, 0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-8, 1.0 + 3e-8, 1.0 - 1e-7, 1.0 + 1e-7]
        + [1.0 + 1e-6, 1.0 + 1e-5, 2.0, 3.0, 7.0],
    )
    def test_bias_rates_against_50_digits(self, alpha, eta):
        # Near eta = 1 the integral is within |eta - 1| of 1, and the rate
        # comes from the integral minus 1; alpha = 1/2 stands for
        # TwoPowUnifCdf, the same law.  The oracle integrates gamma^(eta - 1)
        # against the density's two pieces, (log2 e / H) min(a, 1 - a) / x
        # below max(a, 1 - a) and (log2 e / H) / x above it.
        law = TwoPowUnifCdf() if alpha == 0.5 else BiasAlphaCdf(alpha)
        with mpmath.workdps(50):
            a, e = mpmath.mpf(alpha), mpmath.mpf(eta)
            lo, mid = sorted((a, 1 - a))
            scale = 1 / (mpmath.log(2) * (-a * mpmath.log(a, 2) - (1 - a) * mpmath.log(1 - a, 2)))
            integral = mpmath.quad(lambda x: scale * lo * x ** (e - 2), [lo, mid]) + mpmath.quad(
                lambda x: scale * x ** (e - 2), [mid, 1]
            )
            want = mpmath.log(integral, 2) / (1 - e)
            assert abs(renyi_rate(law, eta) - want) <= 1e-14 * abs(want)

    def test_single_atom_is_rate_free(self):
        F = StepCdf(np.array([1.0]), np.array([1.0]))
        for eta in (0.0, 0.5, 1.0, 2.0, 7.0):
            assert renyi_rate(F, eta) == 0.0

    def test_two_atom_hand_values(self):
        F = StepCdf(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
        assert renyi_rate(F, 0.0) == pytest.approx(math.log2(1.5), abs=1e-14)
        assert renyi_rate(F, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert renyi_rate(F, 2.0) == pytest.approx(-math.log2(0.75), abs=1e-14)

    def test_pole_continuity(self):
        for F in (TwoPowUnifCdf(), BiasAlphaCdf(0.51),
                  StepCdf(np.array([0.5, 0.8]), np.array([0.5, 0.5]))):
            r1 = renyi_rate(F, 1.0)
            for de in (1e-5, 1e-6, 1e-7, 1e-9, 1e-12):
                assert renyi_rate(F, 1.0 + de) == pytest.approx(r1, abs=1e-4)
                assert renyi_rate(F, 1.0 - de) == pytest.approx(r1, abs=1e-4)

    def test_zero_order_continuity(self):
        b = BiasAlphaCdf(0.6)
        assert renyi_rate(b, 1e-9) == pytest.approx(renyi_rate(b, 0.0), abs=1e-6)

    def test_divergence_reported_as_inf(self):
        F = StepCdf(np.array([5e-324, 1.0]), np.array([0.5, 0.5]))
        assert renyi_rate(F, 0.0) == math.inf
        G = StepCdf(np.array([1.0, 1e300]), np.array([0.5, 0.5]))
        assert math.isinf(renyi_rate(G, 1e4))
        with pytest.raises(DomainError):
            lp_error_asymptotic(G, 1e4)

    def test_rejects_bad_eta(self):
        with pytest.raises(DomainError):
            renyi_rate(TwoPowUnifCdf(), -0.5)
        with pytest.raises(DomainError):
            renyi_rate(TwoPowUnifCdf(), math.nan)

    def test_scale_shift(self):
        assert scale_shift_rate(0.5288, 2.0) == pytest.approx(-0.4712, abs=1e-12)
        assert scale_shift_rate(0.5288, 1.0) == 0.5288
        with pytest.raises(DomainError):
            scale_shift_rate(0.5, 0.0)


class TestLevelCounts:
    def test_dyadic_window(self):
        spec = QuantizerSpec.bmrq()
        assert count_levels(spec, 1.0, 0.0, 8.0) == 8
        assert output_entropy(spec, 1.0, 0.0, 8.0) == pytest.approx(3.0, abs=1e-12)

    def test_biased_unit_window(self):
        spec = QuantizerSpec.bbmrq(0.6)
        assert count_levels(spec, 0.5, 0.0, 1.0) == 3
        want = -(0.36 * math.log2(0.36) + 0.24 * math.log2(0.24) + 0.4 * math.log2(0.4))
        assert output_entropy(spec, 0.5, 0.0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_integral_formula_agrees_exactly(self):
        rng = np.random.default_rng(17)
        specs = [
            QuantizerSpec.uniform(),
            QuantizerSpec.bmrq(),
            QuantizerSpec.dbmrq(),
            QuantizerSpec.bbmrq(0.6),
            QuantizerSpec.bbmrq(0.51),
        ]
        for i in range(100):
            spec = specs[i % len(specs)]
            s = float(rng.uniform(0.1, 3.0))
            x0 = float(rng.uniform(-40.0, 40.0))
            x1 = x0 + float(rng.uniform(0.5, 60.0))
            n = count_levels(spec, s, x0, x1)
            assert level_count_integral(spec, s, x0, x1) == Fraction(n)


def count_or_error(count, spec, s, x0, x1):
    try:
        return count(spec, s, x0, x1)
    except DomainError:
        return DomainError


def listed(spec, s, x0, x1):
    return len(enumerate_cells(spec, s, x0, x1))


LATTICE_SPECS = [QuantizerSpec.uniform(), QuantizerSpec.bmrq(), QuantizerSpec.dbmrq()]
BB6 = QuantizerSpec.bbmrq(0.6)


class TestLatticeCounts:
    """The lattice schemes count their window's cells by index arithmetic;
    the scalar walk of enumerate_cells is the oracle."""

    def test_matches_the_walk_on_seeded_windows(self):
        rng = np.random.default_rng(20261018)
        counted = 0
        for i in range(600):
            spec = LATTICE_SPECS[i % 3]
            scale = 10.0 ** rng.uniform(-310.0, 308.0) if i % 4 == 0 else 10.0 ** rng.uniform(-8.0, 17.0)
            width = scale * rng.uniform(0.1, 2.0)
            x0 = [
                scale * rng.uniform(0.0, 3.0),
                -width * rng.uniform(0.0, 1.0),
                -width - scale * rng.uniform(0.0, 3.0),
                -(10.0 ** rng.uniform(-323.0, 0.0)) * scale,
            ][i % 4 if i % 4 else int(rng.integers(0, 4))]
            x1 = x0 + width
            s = width / 10.0 ** rng.uniform(-1.0, 3.0)
            if not (x0 < x1 < math.inf and 0.0 < s < math.inf):
                continue
            expected = count_or_error(listed, spec, s, x0, x1)
            assert count_or_error(count_levels, spec, s, x0, x1) == expected, (spec, s, x0, x1)
            counted += expected is not DomainError
        assert counted >= 500

    def test_spacing_below_two_ulps_counts_the_cells_that_hold_floats(self):
        # Cells 1.5e-16 long at 1 are shorter than the float spacing there, so
        # some hold no float and the walk passes them by.
        spec, s, x0, x1 = QuantizerSpec.uniform(), 1.5e-16, 1.0, 1.0 + 1e-14
        by_index = _lattice_index(s, math.nextafter(x1, -math.inf))[0] - _lattice_index(s, x0)[0] + 1
        assert by_index == 66
        assert count_levels(spec, s, x0, x1) == listed(spec, s, x0, x1) == 45

    def test_merged_pairs_at_two_to_the_53(self):
        # The level-0 index of 2^53 is not exact, but every dbmrq pair there
        # is merged, into cells 2 long whose index is.
        x0, x1 = 2.0 ** 53, 2.0 ** 53 + 3000.0
        with pytest.raises(DomainError):
            _lattice_index(1.0, x0)
        assert count_levels(QuantizerSpec.dbmrq(), 1.5, x0, x1) == 1500
        with pytest.raises(DomainError):
            count_levels(QuantizerSpec.bmrq(), 1.5, x0, x1)

    def test_more_dbmrq_pairs_than_the_budget_raise_before_any_is_tested(self, monkeypatch):
        # [0, 1e8) at step 1.5 holds 5e7 pairs of level-0 cells
        tested = []
        monkeypatch.setattr(cdf_analysis, "_merges", lambda *args: tested.append(args))
        with pytest.raises(DomainError, match="would test over 20000000 pairs"):
            count_levels(QuantizerSpec.dbmrq(), 1.5, 0.0, 1e8)
        assert tested == []

    def test_merged_pairs_follow_the_rule_on_the_pair_starts(self):
        # The count asks the merge rule about pair indices; the cells are
        # merged by _dyadic_level at each pair's start, j 2**(m+1).
        rng = np.random.default_rng(20261020)
        spec, checked = QuantizerSpec.dbmrq(), 0
        for i in range(2000):
            kind = i % 5
            if kind == 0:  # a step at a power of two, or the float below one
                s = math.ldexp(1.0, int(rng.integers(-30, 30)))
                s = math.nextafter(s, 0.0) if rng.random() < 0.5 else s
            elif kind == 1:  # subnormal steps
                s = float(rng.integers(1, 2 ** 40)) * 5e-324
            elif kind == 2:  # near 2**1000
                s = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(995, 1005)))
            else:
                s = 10.0 ** rng.uniform(-300.0, 280.0)
            w = math.ldexp(1.0, math.frexp(s)[1] - 1)
            width = w * rng.uniform(0.5, 3000.0)
            if kind == 4:  # an end near 2**51 w, where w > 2 ulp(top) stops holding
                x1 = w * (2.0 ** 51 - rng.uniform(-4.0, 4.0) - rng.uniform(0.0, 3000.0) * (i % 2))
            else:
                x1 = w * (float(rng.integers(-(2 ** 40), 2 ** 40)) * 2.0 ** -float(rng.integers(0, 40))
                          + rng.uniform(0.0, 3000.0))
            x0, x1 = (x1 - width, x1) if rng.random() < 0.5 else (-x1, width - x1)
            counted = cdf_analysis._lattice_count(spec, s, x0, x1) if x0 < x1 < math.inf else None
            if counted is None:
                continue
            m = math.frexp(s)[1] - 1
            j0 = _lattice_index(w, x0)[0]
            j1 = _lattice_index(w, math.nextafter(x1, -math.inf))[0]
            pairs = np.arange((j0 + 1) // 2, (j1 + 1) // 2, dtype=np.float64)
            merged = quantizers._dyadic_level(spec, np.full(pairs.size, s), np.ldexp(pairs, m + 1)) > m
            np.testing.assert_array_equal(quantizers._merges(spec, s, m, pairs), merged)
            assert counted == (j1 - j0 + 1 - np.count_nonzero(merged), np.count_nonzero(merged)), (s, x0, x1)
            checked += 1
        assert checked >= 1700

    def test_tiny_negative_start_takes_the_pair_below_zero(self):
        # x0's pair index underflows to -0.0, the pair of 0, which the step
        # merges; x0's own pair, -1, it does not.
        spec, s = QuantizerSpec.dbmrq(), 1.1 * 2.0 ** 60
        x0, x1 = -5e-324, 2.0 ** 64
        first = enumerate_cells(spec, s, x0, x1)[0]
        assert (first.lo, first.hi) == (-(2.0 ** 60), 0.0)
        assert count_levels(spec, s, x0, x1) == listed(spec, s, x0, x1)

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=lambda s: s.scheme.value)
    @pytest.mark.parametrize(
        "s, x0, x1",
        [(5e-324, 0.0, 5e-324), (5e-324, -1e-322, 1e-322), (1e308, -1.7e308, 1.7e308)],
    )
    def test_extreme_windows(self, spec, s, x0, x1):
        expected = count_or_error(listed, spec, s, x0, x1)
        assert count_or_error(count_levels, spec, s, x0, x1) == expected


def listed_functionals(spec, s, x0, x1, ps):
    """The window functionals cell by cell over the walk: (count, cdf or
    None where the listed pieces miss some of the window, entropy, L^p)."""
    cells = enumerate_cells(spec, s, x0, x1)
    lo, hi, level = (np.array([getattr(c, f) for c in cells]) for f in ("lo", "hi", "level"))
    top, bottom = np.minimum(hi, x1), np.maximum(lo, x0)
    keep = top - bottom > 0.0
    clipped, a, b = (top - bottom)[keep], bottom[keep] - level[keep], top[keep] - level[keep]
    sizes, counts = np.unique(clipped, return_counts=True)
    masses = sizes * counts / (x1 - x0)
    cdf = StepCdf(sizes, masses) if abs(math.fsum(masses.tolist()) - 1.0) <= 1e-12 else None
    w = clipped / (x1 - x0)
    t = math.ldexp(1.0, min(1023, 1 - math.frexp(s)[1]))  # offsets near 1: no power underflows

    def lp(p):
        anti = lambda u: np.copysign(np.abs(t * u) ** (p + 1.0), u) / (p + 1.0)  # noqa: E731
        return float(np.sum(anti(b) - anti(a)) / (t * (x1 - x0))) * t**-p

    return len(cells), cdf, float(-(w @ np.log2(w))), [lp(p) for p in ps]


def class_margin(spec, s, x0, x1):
    """The stated margin M / s of the size classes: the class tables' for
    BBMRQ at the deepest table the window allows, 2 ulps of the window's
    largest magnitude for the lattices."""
    top = max(abs(x0), abs(x1))
    if spec.alpha is None:
        return 2.0 * math.ulp(top) / s
    a, b = spec.alpha, 1.0 - spec.alpha
    depth = math.log(max((x1 - x0) / s, 1.0)) * (1.0 / -math.log(a) + 1.0 / -math.log(b)) + 2.0
    return (2.0 ** -52 * (top + 2.0 * (depth + 4.0) * s) + (depth + 4.0) * 2.0 ** -1074) / min(a, b) / s


with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    KERNEL_SPECS = LATTICE_SPECS + [QuantizerSpec.bbmrq(a) for a in (0.51, 0.6, 0.74)] + [
        QuantizerSpec.bbmrq(a, nonstandard_alpha=True) for a in (0.3, 0.9)
    ]


def seeded_window(rng, kind):
    """(s, x0, x1): a window of 1 to 300 steps that straddles 0, is negative,
    is offset by 1e6 to 1e15 steps, is subnormal, or is positive."""
    s = float(10.0 ** rng.uniform(-3.0, 3.0))
    width = s * float(10.0 ** rng.uniform(0.0, 2.5))
    if kind == 0:
        x0 = -width * rng.uniform(0.0, 1.0)
    elif kind == 1:
        x0 = -width * rng.uniform(1.0, 4.0)
    elif kind == 2:
        x0 = s * 10.0 ** rng.uniform(6.0, 15.0) * rng.choice([-1.0, 1.0])
    elif kind == 3:
        s = 5e-324 * int(rng.integers(1, 40))
        width = s * rng.uniform(1.0, 300.0)
        x0 = -width * rng.uniform(0.0, 1.2)
    else:
        x0 = width * rng.uniform(0.0, 3.0)
    return s, float(x0), float(x0 + width)


class TestWindowKernel:
    """The four functionals count whole cells by size class; the scalar walk
    of enumerate_cells, cell by cell, is the oracle."""

    def test_matches_the_walk_on_seeded_windows(self):
        rng = np.random.default_rng(20261018)
        ps = (0.5, 1.0, 2.0)
        windows = compared = raised = 0
        for i in range(1500):
            spec = KERNEL_SPECS[i % len(KERNEL_SPECS)]
            s, x0, x1 = seeded_window(rng, (i // len(KERNEL_SPECS)) % 5)
            steps = [s]
            if spec.alpha is not None and i % 3 == 0:
                # a cell's float length at a coarser step, and the float below it
                lo, hi, _ = _window_cells(spec, s * rng.uniform(1.2, 4.0), x0, x1)
                k = int(rng.integers(0, lo.size))
                steps += [hi[k] - lo[k], math.nextafter(hi[k] - lo[k], -math.inf)]
            for s in steps:
                windows += 1
                try:
                    n, cdf, entropy, lps = listed_functionals(spec, s, x0, x1, ps)
                except DomainError:
                    n = DomainError
                assert count_or_error(count_levels, spec, s, x0, x1) == n, (spec, s, x0, x1)
                if n is DomainError:
                    raised += 1
                    continue
                bound = 1e-12 + class_margin(spec, s, x0, x1)
                F = empirical_cell_cdf(spec, s, x0, x1)
                assert abs(math.fsum(F.masses.tolist()) - 1.0) <= 1e-12
                if cdf is None:  # the listing misses the float-less mirrored leaf
                    continue
                compared += 1
                scale = math.ldexp(1.0, min(1023, 1 - math.frexp(s)[1]))
                assert levy_distance(F.scaled(scale), cdf.scaled(scale)) <= bound, (spec, s, x0, x1)
                got = output_entropy(spec, s, x0, x1)
                assert abs(got - entropy) <= bound * (entropy + 2.0), (spec, s, x0, x1)
                for p, want in zip(ps, lps):
                    got = lp_error_exact(spec, s, x0, x1, p)
                    assert abs(got - want) <= (p + 1.0) * bound * abs(want), (spec, s, x0, x1, p)
        assert windows >= 2000 and compared >= 1800 and raised >= 1

    def test_float_less_mirrored_leaf_keeps_its_length(self):
        # (-5e-324, 0) mirrors the leaf [0, 5e-324) and holds no float: it is
        # no level, but its length belongs to the window.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = QuantizerSpec.bbmrq(0.3, nonstandard_alpha=True)
        args = (spec, 1e-323, -1e-323, 1e-323)
        F = empirical_cell_cdf(*args)
        assert (F.breakpoints.tolist(), F.masses.tolist()) == ([5e-324], [1.0])
        # four pieces of 5e-324: (-1e-323, -5e-324], (-5e-324, 0), [0, 5e-324), [5e-324, 1e-323)
        assert output_entropy(*args) == 2.0
        assert lp_error_exact(*args, 1.0) == pytest.approx(5e-324 / 4, rel=1e-12)
        assert count_levels(*args) == listed(*args) == 4
        assert listed_functionals(*args, ())[1] is None  # the walk's pieces fall short

    def test_uniform_cells_enter_at_their_mean_length(self):
        # Far from zero the float lengths of uniform cells miss s by ulps of
        # the window (here 0.1%); their one class sits at their mean length,
        # so the classes still add up to the window.
        spec, s, x0, x1 = QuantizerSpec.uniform(), 0.0030854300445975757, 153588420012.7003, 153588420012.7147
        cells = enumerate_cells(spec, s, x0, x1)
        whole = [c for c in cells if x0 <= c.lo and c.hi <= x1]
        mean = (whole[-1].hi - whole[0].lo) / len(whole)
        assert len(whole) == 4 and mean != s
        F = empirical_cell_cdf(spec, s, x0, x1)
        assert mean in F.breakpoints.tolist()
        assert count_levels(spec, s, x0, x1) == len(cells) == 6

    def test_class_exponents_past_the_table_raise(self):
        # The table of alpha = 0.99999 stops at its cap, at a**n_max ~ 0.05:
        # a node whose first row needs I_0 > n_max raises as pow does.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = QuantizerSpec.bbmrq(0.99999, nonstandard_alpha=True)
        pows = spec._powers
        assert pows.n_max == 299_999
        with pytest.raises(DomainError, match="tabulated"):
            cdf_analysis._class_table(pows, spec.alpha, 1.0, 1.0, 1.0 + 1e6)
        edge = 1.0 / pows.pow(pows.n_max)  # I_0 is n_max just below it
        cdf_analysis._class_table(pows, spec.alpha, 1.0, 0.0, edge * (1.0 - 1e-9))
        with pytest.raises(DomainError, match="tabulated"):
            cdf_analysis._class_table(pows, spec.alpha, 1.0, 0.0, edge * (1.0 + 1e-9))

    def test_undecided_classes_are_walked(self):
        # s is a node's float length, so its class is undecided in every
        # table and its nodes are walked down to their leaves.
        spec, s, x0, x1 = BB6, 13.491455078125, 1599964920302.1597, 1599964933406.2957
        assert count_levels(spec, s, x0, x1) == listed(spec, s, x0, x1) == 1303
        F = empirical_cell_cdf(spec, s, x0, x1)
        assert abs(math.fsum(F.masses.tolist()) - 1.0) <= 1e-12

    @staticmethod
    def count_splits(monkeypatch):
        """A list collecting, per call of the kernel's _split, the nodes it
        splits and whether they came as an array."""
        calls = []

        def split(pows, alpha, lo, hi, *rest):
            calls.append((np.size(lo), isinstance(lo, np.ndarray)))
            return quantizers._split(pows, alpha, lo, hi, *rest)

        monkeypatch.setattr(cdf_analysis, "_split", split)
        return calls

    def test_undecided_classes_beyond_the_budget_raise_before_walking(self, monkeypatch):
        # Only the 117 nodes of the boundary paths are split before the
        # raise, one by one; nothing below an undecided class.
        L = cell_of(BB6, 1.0, 5e11).size
        calls = self.count_splits(monkeypatch)
        for s in (L, math.nextafter(L, -math.inf)):
            calls.clear()
            with pytest.raises(DomainError, match="walk more than"):
                count_levels(BB6, s, 0.0, 1e12)
            assert calls == [(1, False)] * 117

    @pytest.mark.parametrize(
        "alpha, s, x0, x1, count, split",
        [
            # s within 2.5e-8 of a populous class's length: a long walk
            (0.6, 1.4608138613384036e-08, 0.0, 1.0, 102_748_973, 10_400_649),
            (0.6, 1.0, 1e15, 1e15 + 1e6, 1_349_591, 1_349_645),  # every table refused
            (0.74, 1.0, 0.0, 1e12, 1_705_576_403_238, 1_058_958),
            (0.6180339887498949, 1.0, 0.0, 1e5, 117_150, 117_159),  # a lattice alpha
        ],
    )
    def test_nodes_split_are_pinned(self, monkeypatch, alpha, s, x0, x1, count, split):
        # the nodes the kernel splits, whether one by one or as arrays
        calls = self.count_splits(monkeypatch)
        assert count_levels(QuantizerSpec.bbmrq(alpha), s, x0, x1) == count
        assert sum(n for n, _ in calls) == split

    @pytest.mark.parametrize("alpha, x0, x1, boundary", [(0.6, 1e15, 1e15 + 1e8, 85), (0.6180339887498949, 0.0, 1e8, 87)])
    def test_beyond_the_budget_only_the_boundary_paths_are_split(self, monkeypatch, alpha, x0, x1, boundary):
        # Refused tables whose leaves pass the budget (at 1e15), or walks to
        # undecided classes that may (a lattice alpha), raise first.
        calls = self.count_splits(monkeypatch)
        with pytest.raises(DomainError, match="walk more than"):
            count_levels(QuantizerSpec.bbmrq(alpha), 1.0, x0, x1)
        assert calls == [(1, False)] * boundary

    @pytest.mark.parametrize("x0", [0.0, 3.3e11, -4.4e11])
    def test_large_windows_split_only_the_boundary_paths(self, x0, monkeypatch):
        calls = []

        def split(*args):
            calls.append(args)
            return quantizers._split(*args)

        monkeypatch.setattr(cdf_analysis, "_split", split)
        n = count_levels(BB6, 1.0, x0, x0 + 1e12)
        assert 1.48e12 < n < 1.49e12 and len(calls) < 300

    def test_counts_add_up_at_inner_points(self):
        # count[x0, x2) = count[x0, x1) + count[x1, x2) - [the cell of x1
        # starts below x1]: checked against the walk, then alone at 1e8 and
        # 1e12 steps.
        def split_rule(spec, s, x0, x1, x2, count):
            below = cell_of(spec, s, x1).lo < x1
            return count(spec, s, x0, x2) == count(spec, s, x0, x1) + count(spec, s, x1, x2) - below

        rng = np.random.default_rng(7)
        for i in range(300):
            spec = KERNEL_SPECS[i % len(KERNEL_SPECS)]
            s, x0, x2 = seeded_window(rng, i % 5)
            x1 = float(x0 + (x2 - x0) * rng.uniform(0.01, 0.99))
            if i % 4 == 0:  # a cell end, of either orientation
                cell = cell_of(spec, s, x1)
                x1 = cell.lo if x0 < cell.lo else cell.hi
            if not x0 < x1 < x2:
                continue
            assert split_rule(spec, s, x0, x1, x2, listed), (spec, s, x0, x1, x2)
            assert split_rule(spec, s, x0, x1, x2, count_levels), (spec, s, x0, x1, x2)
        # At 1e12 steps a cell's float length is known to about 1e-4 of s,
        # so a populous class that near s can only be walked, and beyond the
        # budget the count raises instead.
        counted = 0
        for i in range(60):
            spec = KERNEL_SPECS[i % 6]
            steps = 1e8 if i % 2 else 1e12
            if spec.scheme.value == "dbmrq":  # merged pairs are tested one by one
                steps = 1e6
            s = float(10.0 ** rng.uniform(-2.0, 2.0))
            x0 = float(-steps * s * rng.uniform(0.0, 1.0))
            x2 = x0 + steps * s
            x1 = float(x0 + (x2 - x0) * rng.uniform(0.01, 0.99))
            try:
                assert split_rule(spec, s, x0, x1, x2, count_levels), (spec, s, x0, x1, x2)
                counted += 1
            except DomainError:
                assert steps == 1e12
        assert counted >= 54


def window_functionals(spec, s, x0, x1, cold):
    """The five window functionals' results as bits, each call after
    clearing the kernel's memo if ``cold``."""
    out = []
    for functional in (
        lambda: (lambda F: (F.breakpoints.tobytes(), F.masses.tobytes()))(empirical_cell_cdf(spec, s, x0, x1)),
        lambda: count_levels(spec, s, x0, x1),
        lambda: output_entropy(spec, s, x0, x1).hex(),
        lambda: lp_error_exact(spec, s, x0, x1, 1.0).hex(),
        lambda: lp_error_exact(spec, s, x0, x1, 2.0).hex(),
    ):
        if cold:
            cdf_analysis._window_kernel.cache_clear()
        out.append(functional())
    return out


def kernel_bits(spec, s, x0, x1):
    cdf_analysis._window_kernel.cache_clear()
    return [(array.dtype, array.tobytes()) for array in cdf_analysis._window_kernel(spec, s, x0, x1)]


MEMO_SPECS = LATTICE_SPECS + [BB6]


class TestWindowMemo:
    """The kernel keeps the last window: a kept window gives every
    functional the bits a fresh walk gives."""

    @pytest.mark.parametrize(
        "spec, s, x0, x1",
        [(spec, 0.37, -5.2, 11.9) for spec in MEMO_SPECS]
        + [
            (BB6, 0.8, -20.3, 31.7),  # straddles 0: the mirrored side runs
            (QuantizerSpec.dbmrq(), 1.5 * 0.99, -30.1, 70.3),  # a non-dyadic step: pairs merge
            (QuantizerSpec.dbmrq(), 1.5, 2.0 ** 53, 2.0 ** 53 + 3000.0),  # _lattice_count gives None
        ]
        + [(spec, 0.37, x0, x1) for spec in MEMO_SPECS for x0, x1 in ((-3.3, 0.0), (-3.3, -0.0), (0.0, 3.3), (-0.0, 3.3))],
    )
    def test_warm_results_are_the_cold_ones(self, spec, s, x0, x1):
        cold = window_functionals(spec, s, x0, x1, cold=True)
        cdf_analysis._window_kernel.cache_clear()
        assert window_functionals(spec, s, x0, x1, cold=False) == cold
        assert window_functionals(spec, s, x0, x1, cold=False) == cold
        assert cdf_analysis._window_kernel.cache_info().currsize <= 1

    def test_the_listing_runs_where_the_lattice_count_cannot(self):
        assert cdf_analysis._lattice_count(QuantizerSpec.dbmrq(), 1.5, 2.0 ** 53, 2.0 ** 53 + 3000.0) is None

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_signed_zero_ends_share_one_kernel(self, spec):
        # -0.0 == 0.0, so the two windows of a pair share a memo entry: their
        # kernels are the same bits, and either one kept serves the other.
        pairs = [((-3.3, -0.0), (-3.3, 0.0)), ((-0.0, 3.3), (0.0, 3.3)), ((-0.0, 0.1), (0.0, 0.1))]  # the last one cell
        for a, b in pairs:
            assert kernel_bits(spec, 0.37, *a) == kernel_bits(spec, 0.37, *b)
            for kept, asked in ((a, b), (b, a)):
                cold = window_functionals(spec, 0.37, *asked, cold=True)
                window_functionals(spec, 0.37, *kept, cold=False)
                assert window_functionals(spec, 0.37, *asked, cold=False) == cold

    def test_five_functionals_walk_each_side_once(self, monkeypatch):
        sides, biased_side = [], cdf_analysis._biased_side

        def side(spec, s, bounds, *rest):
            sides.append(bounds)
            return biased_side(spec, s, bounds, *rest)

        monkeypatch.setattr(cdf_analysis, "_biased_side", side)
        window_functionals(BB6, 0.8, -20.3, 31.7, cold=False)
        assert len(sides) == 2 and sides[0] != sides[1]

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_kept_arrays_are_read_only(self, spec):
        win = cdf_analysis._window_kernel(spec, 0.37, -5.2, 11.9)
        for array in win:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert cdf_analysis._window_kernel(spec, 0.37, -5.2, 11.9) is win

    def test_errors_are_raised_on_every_call(self):
        # past the cell budget: nothing is kept, so each call walks and raises
        s = cell_of(BB6, 1.0, 5e11).size
        for _ in range(3):
            with pytest.raises(DomainError, match="walk more than"):
                count_levels(BB6, s, 0.0, 1e12)
        assert cdf_analysis._window_kernel.cache_info()[:2] == (0, 3)  # no hit, three misses


class TestLpError:
    def test_unit_dyadic_cells(self):
        assert lp_error_exact(QuantizerSpec.bmrq(), 1.0, 0.0, 1e4, 1.0) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_uniform_aligned_window(self):
        got = lp_error_exact(QuantizerSpec.uniform(), 1.0 / 3.0, 0.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_matches_quadrature(self):
        # independent oracle: integrate |x - Q(x)|^p numerically, splitting
        # at the cell boundaries where the integrand kinks
        spec = QuantizerSpec.bbmrq(0.6)
        s, x0, x1 = 0.7, 0.2, 9.1
        cells = enumerate_cells(spec, s, x0, x1)
        edges = [c.lo for c in cells if x0 < c.lo < x1]
        edges += [c.level for c in cells if x0 < c.level < x1]  # |.|^p cusps
        for p in (0.5, 1.0, 2.0):
            want, err = quad(
                lambda x: abs(x - cell_of(spec, s, x).level) ** p,
                x0,
                x1,
                points=edges,
                limit=400,
            )
            want /= x1 - x0
            assert lp_error_exact(spec, s, x0, x1, p) == pytest.approx(
                want, rel=1e-6 + err
            )

    def test_lower_bound_from_size_law(self):
        # centered intervals meet the per-cell floor (gamma/2)^p/(p+1), so
        # the exact value can only exceed the bound through clipped boundary
        # cells whose levels sit off center
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = QuantizerSpec.bbmrq(float(rng.uniform(0.51, 0.74)))
            s = float(rng.uniform(0.2, 2.0))
            x0 = float(rng.uniform(-20.0, 20.0))
            x1 = x0 + float(rng.uniform(3.0, 40.0))
            p = float(rng.uniform(0.5, 3.0))
            F = empirical_cell_cdf(spec, s, x0, x1)
            bound = float(
                (F.breakpoints / 2.0) ** p / (p + 1.0) @ F.masses
            )
            assert lp_error_exact(spec, s, x0, x1, p) >= bound - 1e-12

    def test_asymptotic_formulas(self):
        atom = StepCdf(np.array([1.0]), np.array([1.0]))
        assert lp_error_asymptotic(atom, 1.0) == pytest.approx(0.25, abs=1e-15)
        tp = TwoPowUnifCdf()
        r2 = renyi_rate(tp, 2.0)
        assert lp_error_asymptotic(tp, 1.0) == pytest.approx(
            0.5 * 2.0 ** (-(r2 + 1.0)), abs=1e-15
        )
        r3 = renyi_rate(tp, 3.0)
        assert lp_error_asymptotic(tp, 2.0) == pytest.approx(
            (1.0 / 3.0) * 2.0 ** (-2.0 * (r3 + 1.0)), abs=1e-15
        )

    def test_long_window_approaches_asymptote(self):
        # at alpha = 0.51 the finite-window size law happens to match the
        # stationary one closely in the eta = 2 integral, so the p = 1
        # error lands within a percent of the asymptotic value
        got = lp_error_exact(QuantizerSpec.bbmrq(0.51), 1.0, 0.0, 1e5, 1.0)
        want = lp_error_asymptotic(BiasAlphaCdf(0.51), 1.0)
        assert got == pytest.approx(want, rel=0.01)

    @pytest.mark.parametrize(
        "alpha, s, x0, x1",
        [
            (0.9, 2.23434753782182, -408108754890542.8, -408108754870542.8),  # 28 472 cut pieces
            (0.6, 0.37, -1234.5, 8.9e3),  # 367 size classes and 87 cut pieces
        ],
    )
    def test_sums_do_not_depend_on_the_order_of_the_pieces(self, monkeypatch, alpha, s, x0, x1):
        # the array walk may list the pieces in any order
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            args = (QuantizerSpec.bbmrq(alpha, nonstandard_alpha=True), s, x0, x1)
        width, sizes, counts, clipped, a, b = cdf_analysis._pieces(*args)
        values = output_entropy(*args), lp_error_exact(*args, 1.5)
        reversed_pieces = (width, sizes[::-1], counts[::-1], clipped[::-1], a[::-1], b[::-1])
        monkeypatch.setattr(cdf_analysis, "_pieces", lambda *_: reversed_pieces)
        assert (output_entropy(*args), lp_error_exact(*args, 1.5)) == values


class TestFloat64Edges:
    """Windows at the edges of float64 give a finite value or DomainError,
    never nan, with every warning raised as an error."""

    def test_unit_window_far_from_its_level(self):
        # the cut cell is about 7e276 long, so the window's offsets from its
        # level round to one float and their squares overflow
        spec, s = QuantizerSpec.bbmrq(0.6), 1.1632527543155014e277
        level = cell_of(spec, s, -0.5).level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_error_exact(spec, s, -1.0, -5e-324, 1.0) == pytest.approx(-level, rel=1e-12)
            assert lp_error_exact(spec, s, -1.0, -5e-324, 0.5) == pytest.approx((-level) ** 0.5, rel=1e-12)
            with pytest.raises(DomainError):
                lp_error_exact(spec, s, -1.0, -5e-324, 2.0)  # about 1.4e553

    def test_subnormal_window_far_from_its_level(self):
        # the window's length over its offset from the level, 3e-317 / 3e129,
        # underflows to 0; the mean of |x - level|^p is still |level|^p
        spec, s = QuantizerSpec.uniform(), 6.72990168472957e129
        level = cell_of(spec, s, -1e-317).level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (0.5, 1.0, 2.0):
                assert lp_error_exact(spec, s, -2.990801e-317, -5e-324, p) == pytest.approx(
                    (-level) ** p, rel=1e-12
                )

    def test_piece_whose_share_underflows(self):
        # [0, 5e-324) is 5e-324 / 9e15 of the window, which underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = QuantizerSpec.bbmrq(0.9, nonstandard_alpha=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert output_entropy(spec, 5.45741447151355e241, -9007199254740992.0, 5e-324) == 0.0


class TestFiniteWindowConvergence:
    """Stationary-law convergence at enumerable window lengths.

    The interarrival ratios log2(alpha)/log2(1-alpha) are numerically close
    to small rationals for the alphas used here (29/52 at 0.6, 3/4 at 0.55),
    so the renewal mixing toward the stationary law is slow and a window of
    1e5 cells leaves a visible gap.  The bounds below are measured values
    plus margin, not statements of full convergence; the gap closes only at
    window lengths far beyond enumeration reach.
    """

    def test_window_law_near_stationary(self):
        for alpha, bound in ((0.6, 0.08), (0.7, 0.06)):
            F = empirical_cell_cdf(QuantizerSpec.bbmrq(alpha), 1.0, 0.0, 1e5)
            assert levy_distance(F, BiasAlphaCdf(alpha)) <= bound

    def test_window_rates_near_stationary(self):
        F = empirical_cell_cdf(QuantizerSpec.bbmrq(0.6), 1.0, 0.0, 1e5)
        for eta in (0.0, 1.0, 2.0, 3.0):
            assert renyi_rate(F, eta) == pytest.approx(
                renyi_rate(BiasAlphaCdf(0.6), eta), abs=0.08
            )

    def test_rescaled_windows_agree(self):
        spec = QuantizerSpec.bbmrq(0.6)
        cdfs = [
            empirical_cell_cdf(spec, s, 0.0, 1e5 * s).scaled(1.0 / s)
            for s in (0.3, 1.0, math.pi, 10.0)
        ]
        for i in range(len(cdfs)):
            for j in range(i + 1, len(cdfs)):
                assert levy_distance(cdfs[i], cdfs[j]) <= 0.12

    def test_rate_shift_across_octave(self):
        # doubling the step doubles the sizes, costing one bit of rate, up
        # to the finite-window gap between the two laws
        spec = QuantizerSpec.bbmrq(0.6)
        r1 = renyi_rate(empirical_cell_cdf(spec, 1.0, 0.0, 4e4), 1.0)
        r2 = renyi_rate(empirical_cell_cdf(spec, 2.0, 0.0, 8e4), 1.0)
        assert r2 == pytest.approx(scale_shift_rate(r1, 2.0), abs=0.12)
        assert scale_shift_rate(r1, 2.0) == pytest.approx(r1 - 1.0, abs=1e-12)

    def test_merged_pair_masses_equidistribute(self):
        # golden-ratio dithering picks merged pairs with low discrepancy, so
        # atom masses settle to the closed form quickly
        for s in (1.5, 1.2, 3.0):
            m = math.frexp(s)[1] - 1
            period = math.ldexp(2.0, m)
            F = empirical_cell_cdf(QuantizerSpec.dbmrq(), s, 0.0, period * 1e4)
            G = DbmrqAtomsCdf(s)
            for g, mass in zip(G.breakpoints, G.masses):
                got = float(F.masses[np.isclose(F.breakpoints, g, rtol=1e-12)].sum())
                assert got == pytest.approx(mass, abs=0.01)
