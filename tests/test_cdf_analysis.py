"""Tests for cell-size distributions, the Levy metric, and derived rates.

Closed-form values are cross-checked against independent numerical
integration of the densities, the Levy bisection against a brute-force grid
scan of the defining infimum, and the level-count integral against exact
rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mrquant import DomainError, QuantizerSpec, cell_of, enumerate_cells
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


def brute_levy(F, G, xs, eps_step=1e-4):
    """Direct scan of the defining infimum on a fixed grid of x and eps."""
    Gv = G.cdf(xs)
    for eps in np.arange(0.0, 1.0 + eps_step, eps_step):
        hi = F.cdf(xs + eps) + eps
        lo = F.cdf(xs - eps) - eps
        if (Gv <= hi + 1e-12).all() and (lo <= Gv + 1e-12).all():
            return eps
    return 1.0


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
        assert F.cdf_left(0.25) == 0.0
        assert F.cdf(0.5) == 1.0
        assert F.cdf_left(0.5) == 0.25
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
                    lambda x: float(cdf.pdf(np.asarray(x))),
                    lo,
                    g,
                    points=[p for p in cdf.kinks() if lo < p < g],
                    limit=200,
                )
                assert float(cdf.cdf(np.asarray(g))) == pytest.approx(
                    want, abs=1e-9 + 10 * err
                )

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


class TestLevyDistance:
    def test_identity(self):
        F = StepCdf(np.array([0.3, 0.8]), np.array([0.4, 0.6]))
        assert levy_distance(F, F) == 0.0
        assert levy_distance(BiasAlphaCdf(0.6), BiasAlphaCdf(0.6)) == 0.0

    def test_point_mass_pair(self):
        A = StepCdf(np.array([0.3]), np.array([1.0]))
        B = StepCdf(np.array([0.5]), np.array([1.0]))
        assert levy_distance(A, B) == pytest.approx(0.2, abs=2e-4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0.0, 2.0, 100_001)
        for _ in range(4):
            bp = np.unique(rng.uniform(0.2, 1.5, rng.integers(2, 6)))
            m = rng.random(bp.size)
            m /= m.sum()
            m[-1] += 1.0 - math.fsum(m.tolist())
            F = StepCdf(bp, m)
            G = BiasAlphaCdf(0.6)
            assert levy_distance(F, G) == pytest.approx(
                brute_levy(F, G, xs), abs=3e-4
            )

    def test_point_mass_against_smooth(self):
        # one atom at 1/2 against the log-uniform law; the binding constraint
        # is log2(1/2 + eps) + 1 >= 1 - eps, solvable independently
        F = StepCdf(np.array([0.5]), np.array([1.0]))
        root = brentq(lambda e: math.log2(0.5 + e) + e, 1e-12, 0.5)
        assert levy_distance(F, TwoPowUnifCdf()) == pytest.approx(root, abs=2e-4)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)

        def rand_step():
            bp = np.unique(rng.uniform(0.2, 1.5, rng.integers(1, 6)))
            m = rng.random(bp.size)
            m /= m.sum()
            m[-1] += 1.0 - math.fsum(m.tolist())
            return StepCdf(bp, m)

        for _ in range(8):
            A, B, C = rand_step(), rand_step(), rand_step()
            assert levy_distance(A, B) == pytest.approx(levy_distance(B, A), abs=1e-4)
            assert levy_distance(A, C) <= (
                levy_distance(A, B) + levy_distance(B, C) + 2e-4
            )

    def test_bias_approaches_loguniform(self):
        tp = TwoPowUnifCdf()
        d51 = levy_distance(BiasAlphaCdf(0.51), tp)
        d55 = levy_distance(BiasAlphaCdf(0.55), tp)
        d60 = levy_distance(BiasAlphaCdf(0.60), tp)
        assert d51 <= 0.02
        assert d51 < d55 < d60

    def test_rejects_non_cdf(self):
        with pytest.raises(DomainError):
            levy_distance(BiasAlphaCdf(0.6), object())

    def test_dense_step_cdfs_are_checked_exactly(self):
        # Half the mass sits on one atom of a 30 001-atom grid; moving that
        # atom right by 0.01 must show, however many atoms surround it.
        bp = np.linspace(1.0, 1000.0, 30_001)
        m = np.full(bp.size, 0.5 / (bp.size - 1))
        m[15_001] = 0.5
        moved = bp.copy()
        moved[15_001] += 0.01
        d = levy_distance(StepCdf(bp, m), StepCdf(moved, m))
        assert d == pytest.approx(0.01, abs=2e-4)


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
                    lambda x: x ** (eta - 1.0) * float(cdf.pdf(np.asarray(x))),
                    lo,
                    1.0,
                    points=pts,
                    limit=200,
                )
                want = math.log2(integral) / (1.0 - eta)
                assert renyi_rate(cdf, eta) == pytest.approx(want, abs=1e-9)
            shannon, _ = quad(
                lambda x: -math.log2(x) * float(cdf.pdf(np.asarray(x))),
                lo,
                1.0,
                points=pts,
                limit=200,
            )
            assert renyi_rate(cdf, 1.0) == pytest.approx(shannon, abs=1e-9)

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
