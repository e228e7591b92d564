"""Tests for the relay-chain simulator.

The golden chain values (errors 3/14, 5/42, 1/28 for input 2/7) are checked
bitwise on the outputs; final errors are compared to the rationals at the
resolution of the data scale, since the input's own rounding (float(2/7)
is off by about 1.3e-17) already exceeds one ulp of the smallest target.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrquant.cdf_analysis import count_levels
from mrquant.quantizers import DomainError, QuantizerSpec, Scheme, quantize
from mrquant.relay_sim import (
    DEFAULT_GRID_SIZE,
    CapacityPolicy,
    RelayChainConfig,
    adversarial_ratio,
    average_chain_error,
    capacity_to_step,
    run_chain,
)

UNIFORM = QuantizerSpec(Scheme.SIMPLE_UNIFORM)
BMRQ = QuantizerSpec(Scheme.BMRQ)
DBMRQ = QuantizerSpec(Scheme.DBMRQ)
BB6 = QuantizerSpec(Scheme.BBMRQ, alpha=0.6)

ULP_AT_DATA_SCALE = math.ulp(2.0 / 7.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(), spec=UNIFORM)
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(4, 1), spec=UNIFORM)
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(4, 3.0), spec=UNIFORM)
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(True, 4), spec=UNIFORM)
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(4,), spec=UNIFORM, domain=(1.0, 1.0))
        with pytest.raises(DomainError):
            RelayChainConfig(capacities=(4,), spec=UNIFORM, domain=(0.0, math.inf))

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6])
    def test_one_capacity_rule_for_every_scheme(self, spec):
        cfg = RelayChainConfig(capacities=(4,), spec=spec)
        assert cfg.resolved_policy is CapacityPolicy.LEVEL_COUNT_SEARCH
        assert list(CapacityPolicy) == [CapacityPolicy.LEVEL_COUNT_SEARCH]


class TestCapacityToStep:
    def test_uniform(self):
        assert capacity_to_step(UNIFORM, 3) == 1.0 / 3.0
        assert capacity_to_step(UNIFORM, 4, (1.0, 3.0)) == 0.5

    def test_bmrq_floors_to_power_of_two(self):
        assert capacity_to_step(BMRQ, 3) == 0.5
        assert capacity_to_step(BMRQ, 4) == 0.25
        assert capacity_to_step(BMRQ, 31) == 0.0625
        assert capacity_to_step(BMRQ, 32) == 0.03125
        assert capacity_to_step(BMRQ, 4, (0.0, 2.0)) == 0.5

    def test_bbmrq_three_cells(self):
        # splitting [0,1) at 0.6, then [0,0.6) at 0.36, gives three cells
        # once the step reaches 0.4; the search should sit at that threshold
        s = capacity_to_step(BB6, 3)
        assert s == pytest.approx(0.4, abs=1e-14)
        assert count_levels(BB6, s, 0.0, 1.0) == 3

    @pytest.mark.parametrize("scheme_spec", [BB6, DBMRQ])
    @pytest.mark.parametrize("k", [2, 3, 7, 16, 33, 100])
    def test_search_is_feasible_and_tight(self, scheme_spec, k):
        s = capacity_to_step(scheme_spec, k)
        assert count_levels(scheme_spec, s, 0.0, 1.0) <= k
        # a slightly smaller step must already need more than k levels
        assert count_levels(scheme_spec, s * (1.0 - 1e-9), 0.0, 1.0) > k

    @pytest.mark.parametrize("k", [24, 33, 34])
    def test_search_is_tight_where_merged_cells_outgrow_the_step(self, k):
        # On this domain width/(k+1) already fits in k dbmrq levels, since a
        # merged cell is up to twice the step long.
        domain = (0.31868288352858964, 1.3055845199791705)
        s = capacity_to_step(DBMRQ, k, domain)
        assert count_levels(DBMRQ, s, *domain) <= k
        assert count_levels(DBMRQ, s * (1.0 - 1e-11), *domain) > k

    def test_search_policy_on_uniform_matches_closed_form(self):
        s = capacity_to_step(UNIFORM, 3)
        assert s == 1.0 / 3.0
        assert count_levels(UNIFORM, s, 0.0, 1.0) == 3

    @pytest.mark.parametrize(
        "spec, k, domain, closed_form",
        [
            (BMRQ, 16, (0.123, 1.0), 0.877 / 16),
            (BMRQ, 32, (0.35, 1.35), (1.35 - 0.35) / 32),
            (UNIFORM, 10, (0.35, 1.35), (1.35 - 0.35) / 10),
        ],
        ids=["bmrq-16", "bmrq-32", "uniform-10"],
    )
    def test_unaligned_domains_fit_in_k(self, spec, k, domain, closed_form):
        # width/k and width * 2^-floor(log2 k) hold only on domains aligned
        # with the lattice; on these they give 29, 33 and 11 levels
        assert count_levels(spec, closed_form, *domain) > k
        s = capacity_to_step(spec, k, domain)
        assert count_levels(spec, s, *domain) <= k

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from([UNIFORM, BMRQ, DBMRQ, BB6]),
        k=st.integers(2, 40),
        x0=st.floats(0.0, 1.0),
        width=st.floats(0.8, 1.25),
    )
    def test_every_scheme_fits_in_k_on_shifted_domains(self, scheme, k, x0, width):
        domain = (x0, x0 + width)
        try:
            s = capacity_to_step(scheme, k, domain)
        except DomainError:
            # only a domain straddling more whole-at-any-step cells than k
            assert count_levels(scheme, domain[1] - domain[0], *domain) > k
            return
        assert count_levels(scheme, s, *domain) <= k

    def test_shifted_domain(self):
        s = capacity_to_step(BB6, 5, (2.0, 5.0))
        assert count_levels(BB6, s, 2.0, 5.0) <= 5

    def test_wide_domains_still_fit(self):
        # base cells [0, alpha^n) exist at every scale, so even very wide
        # domains coarsen down to a handful of levels
        s = capacity_to_step(BB6, 3, (0.0, 5.0))
        assert count_levels(BB6, s, 0.0, 5.0) <= 3
        s = capacity_to_step(BB6, 2, (0.0, 100.0))
        assert count_levels(BB6, s, 0.0, 100.0) <= 2

    def test_capacity_too_small_for_window(self):
        # a window straddling three whole-at-any-step cells cannot fit in 2
        with pytest.raises(DomainError):
            capacity_to_step(BB6, 2, (0.99, 3.01))

    def test_validation(self):
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 1)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 4.0)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, True)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 4, (0.0, math.nan))


class TestRunChain:
    def test_uniform_two_hops(self):
        cfg = RelayChainConfig(capacities=(4, 3), spec=UNIFORM)
        tr = run_chain(cfg, 2.0 / 7.0)
        assert tr.outputs == (0.375, 0.5)
        assert abs(tr.final_abs_error - 3.0 / 14.0) <= ULP_AT_DATA_SCALE
        assert tr.steps_used == (0.25, 1.0 / 3.0)

    def test_uniform_single_hop(self):
        cfg = RelayChainConfig(capacities=(3,), spec=UNIFORM)
        tr = run_chain(cfg, 2.0 / 7.0)
        assert tr.outputs == (1.0 / 6.0,)
        assert abs(tr.final_abs_error - 5.0 / 42.0) <= ULP_AT_DATA_SCALE

    def test_bmrq_two_hops(self):
        cfg = RelayChainConfig(capacities=(4, 3), spec=BMRQ)
        tr = run_chain(cfg, 2.0 / 7.0)
        assert tr.outputs == (0.375, 0.25)
        assert abs(tr.final_abs_error - 1.0 / 28.0) <= ULP_AT_DATA_SCALE

    def test_golden_error_is_exact_for_the_rounded_input(self):
        # the only deviation from the rational 1/28 is the representation
        # error of the input itself; the chain arithmetic is exact
        cfg = RelayChainConfig(capacities=(4, 3), spec=BMRQ)
        tr = run_chain(cfg, 2.0 / 7.0)
        exact = Fraction(2.0 / 7.0) - Fraction(1, 4)
        assert Fraction(tr.final_abs_error) == exact

    def test_trace_error_matches_outputs(self):
        cfg = RelayChainConfig(capacities=(5, 3, 2), spec=BB6)
        tr = run_chain(cfg, 0.37)
        assert tr.final_abs_error == abs(tr.outputs[-1] - 0.37)
        assert len(tr.outputs) == len(tr.steps_used) == 3

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6])
    def test_equal_capacities_settle_after_first_hop(self, spec):
        cfg = RelayChainConfig(capacities=(8, 8, 8), spec=spec)
        tr = run_chain(cfg, 0.619)
        assert tr.outputs[0] == tr.outputs[1] == tr.outputs[2]

    def test_finer_link_passes_through(self):
        cfg = RelayChainConfig(capacities=(3, 4), spec=UNIFORM)
        tr = run_chain(cfg, 0.9)
        assert tr.outputs[0] == tr.outputs[1]

    def test_input_outside_domain(self):
        cfg = RelayChainConfig(capacities=(4,), spec=UNIFORM)
        with pytest.raises(DomainError):
            run_chain(cfg, 1.0)
        with pytest.raises(DomainError):
            run_chain(cfg, -0.1)
        with pytest.raises(DomainError):
            run_chain(cfg, math.nan)

    @pytest.mark.parametrize(
        "spec", [BMRQ, DBMRQ, BB6], ids=["bmrq", "dbmrq", "bbmrq"]
    )
    def test_chain_collapses_to_coarsest_step(self, spec):
        # the requantizable families end up exactly where one pass at the
        # coarsest step would have put them
        rng = np.random.default_rng(20260819)
        for _ in range(10000):
            n_hops = int(rng.integers(1, 4))
            caps = tuple(int(k) for k in rng.integers(2, 65, n_hops))
            x = float(rng.uniform(0.0, 1.0))
            cfg = RelayChainConfig(capacities=caps, spec=spec)
            tr = run_chain(cfg, x)
            assert tr.outputs[-1] == quantize(spec, max(tr.steps_used), x)

    def test_uniform_breaks_the_collapse(self):
        cfg = RelayChainConfig(capacities=(4, 3), spec=UNIFORM)
        tr = run_chain(cfg, 2.0 / 7.0)
        one_shot = quantize(UNIFORM, max(tr.steps_used), 2.0 / 7.0)
        assert tr.outputs[-1] != one_shot


class TestAverageChainError:
    def test_uniform_single_hop_exact(self):
        cfg = RelayChainConfig(capacities=(4,), spec=UNIFORM)
        assert average_chain_error(cfg, 1.0) == 0.0625

    def test_bmrq_single_hop_exact(self):
        cfg = RelayChainConfig(capacities=(3,), spec=BMRQ)
        assert average_chain_error(cfg, 1.0) == 0.125

    def test_bmrq_chain_equals_single_coarse_hop(self):
        two = RelayChainConfig(capacities=(4, 3), spec=BMRQ)
        one = RelayChainConfig(capacities=(3,), spec=BMRQ)
        assert average_chain_error(two, 1.0) == average_chain_error(one, 1.0)

    def test_uniform_chain_pays_for_requantizing(self):
        two = RelayChainConfig(capacities=(4, 3), spec=UNIFORM)
        one = RelayChainConfig(capacities=(3,), spec=UNIFORM)
        assert average_chain_error(two, 1.0) > average_chain_error(one, 1.0)
        assert average_chain_error(one, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-9)

    def test_quadratic_error(self):
        cfg = RelayChainConfig(capacities=(4,), spec=UNIFORM)
        # midpoint grids underestimate the cell variance s^2/12 by exactly
        # 1/n^2 relative, n points per cell
        n = DEFAULT_GRID_SIZE // 4
        expected = (0.25**2 / 12.0) * (1.0 - 1.0 / n**2)
        assert average_chain_error(cfg, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        cfg = RelayChainConfig(capacities=(4,), spec=UNIFORM)
        with pytest.raises(DomainError):
            average_chain_error(cfg, 0.0)
        with pytest.raises(DomainError):
            average_chain_error(cfg, 1.0, 0)
        with pytest.raises(DomainError):
            average_chain_error(cfg, 1.0, 100.5)


class TestAdversarialRatio:
    def test_bmrq_power_of_two_doubles(self):
        cfg = RelayChainConfig(capacities=(32,), spec=BMRQ)
        worst, ratio = adversarial_ratio(cfg, 1)
        assert worst.capacities == (31,)
        assert ratio == 2.0

    def test_bmrq_off_power_is_immune(self):
        cfg = RelayChainConfig(capacities=(12,), spec=BMRQ)
        worst, ratio = adversarial_ratio(cfg, 1)
        assert ratio == 1.0
        assert worst.capacities == (12,)

    def test_budget_zero(self):
        cfg = RelayChainConfig(capacities=(32,), spec=BMRQ)
        worst, ratio = adversarial_ratio(cfg, 0)
        assert worst is cfg
        assert ratio == 1.0

    def test_bbmrq_degrades_gracefully(self):
        cfg = RelayChainConfig(capacities=(32,), spec=BB6)
        _, ratio = adversarial_ratio(cfg, 1)
        assert ratio <= 1.05

    def test_bbmrq_bounded_bmrq_spikes_across_capacities(self):
        # the tree's attainable level counts over [0,1) are sparse (ties of
        # equal-size cells split together), so shaving one unit of capacity
        # can force the step past a count gap; the worst measured inflation
        # over this range is 1.2497 at k=28, still nowhere near the doubling
        # the dyadic staircase suffers at every power of two
        bmrq_ratios = []
        bb_ratios = []
        for k in range(8, 65):
            _, rb = adversarial_ratio(
                RelayChainConfig(capacities=(k,), spec=BMRQ), 1
            )
            _, rq = adversarial_ratio(
                RelayChainConfig(capacities=(k,), spec=BB6), 1
            )
            bmrq_ratios.append(rb)
            assert rq <= 1.3, k
            bb_ratios.append(rq)
        for m in (8, 16, 32, 64):
            assert bmrq_ratios[m - 8] == 2.0
        assert max(bb_ratios) < max(bmrq_ratios)

    def test_multi_hop_budget_spreads(self):
        cfg = RelayChainConfig(capacities=(4, 8), spec=BMRQ)
        worst, ratio = adversarial_ratio(cfg, 1)
        # decrementing either power of two doubles its step; the coarser
        # hop dominates the chain, so the adversary attacks k=4
        assert worst.capacities == (3, 8)
        assert ratio == 2.0

    def test_decrements_respect_floor(self):
        cfg = RelayChainConfig(capacities=(2, 3), spec=UNIFORM)
        worst, _ = adversarial_ratio(cfg, 5)
        assert all(k >= 2 for k in worst.capacities)

    def test_validation(self):
        cfg = RelayChainConfig(capacities=(4,), spec=UNIFORM)
        with pytest.raises(DomainError):
            adversarial_ratio(cfg, -1)
        with pytest.raises(DomainError):
            adversarial_ratio(cfg, 1.5)
