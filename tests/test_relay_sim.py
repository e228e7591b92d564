"""Tests for the relay-chain simulator.

The golden chain values (errors 3/14, 5/42, 1/28 for input 2/7) are checked
bitwise on the outputs; final errors are compared to the rationals at the
resolution of the data scale, since the input's own rounding (float(2/7)
is off by about 1.3e-17) already exceeds one ulp of the smallest target.
"""

import importlib
import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrquant.cdf_analysis import count_levels
from mrquant import relay_sim
from mrquant.quantizers import DomainError, QuantizerSpec, Scheme, enumerate_cells, quantize, quantize_many
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

SWEEP_SPECS = [UNIFORM, BMRQ, DBMRQ] + [QuantizerSpec.bbmrq(a) for a in (0.51, 0.6, 0.74)]
SWEEP_IDS = ["uniform", "bmrq", "dbmrq", "bbmrq-0.51", "bbmrq-0.6", "bbmrq-0.74"]


def midpoint_grid(domain, grid_size):
    x0, x1 = domain
    return x0 + (np.arange(grid_size) + 0.5) * ((x1 - x0) / grid_size)


def per_point_chain_error(cfg, p, grid_size=DEFAULT_GRID_SIZE):
    """Reference: every grid point requantized hop by hop."""
    xs = midpoint_grid(cfg.domain, grid_size)
    ys = xs.copy()
    coarsest = 0.0
    for k in cfg.capacities:
        s = capacity_to_step(cfg.spec, k, cfg.domain)
        if s > coarsest:
            ys = quantize_many(cfg.spec, s, ys)
            coarsest = s
    return float(np.mean(np.abs(ys - xs) ** p))


def candidate_capacities(caps, budget):
    """Every capacity vector the exhaustive adversary tries, in its order."""
    for dec in itertools.product(*(range(min(budget, k - 2) + 1) for k in caps)):
        if 0 < sum(dec) <= budget:
            yield tuple(k - d for k, d in zip(caps, dec))


def applied_steps(cfg, caps):
    out, coarsest = [], 0.0
    for k in caps:
        s = capacity_to_step(cfg.spec, k, cfg.domain)
        out.append(s if s > coarsest else None)
        coarsest = max(coarsest, s)
    return tuple(out)


def bisected_step(spec, k, x0, x1):
    """The capacity search by bisection on the level count down to adjacent
    floats, which every scheme once used: the oracle of the dyadic and BBMRQ
    searches, which must return its step bit for bit wherever it returns
    one.  Where a probe below the answer meets a split float64 cannot
    resolve, the bisection raises DomainError; the refinement, which stops
    at its answer, may not."""
    width = x1 - x0
    lo = width / (k + 1)
    hi = width
    if count_levels(spec, hi, x0, x1) > k:
        raise DomainError(f"capacity {k} cannot cover [{x0}, {x1})")
    while count_levels(spec, lo, x0, x1) <= k:
        lo *= 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count_levels(spec, mid, x0, x1) <= k:
            hi = mid
        else:
            lo = mid
    return hi


def search_outcome(search, spec, k, domain):
    try:
        return search(spec, k, *domain)
    except DomainError:
        return DomainError


def walked_counts(spec, step, domain):
    """Cells the scalar walk lists at ``step`` and at the float below it."""
    below = math.nextafter(step, -math.inf)
    return len(enumerate_cells(spec, step, *domain)), len(enumerate_cells(spec, below, *domain))


def fresh_capacity_to_step(spec, k, x0, x1):
    relay_sim._searched_step.cache_clear()
    return capacity_to_step(spec, k, (x0, x1))


with pytest.warns(UserWarning):
    ORACLE_SPECS = [QuantizerSpec.bbmrq(a, nonstandard_alpha=True) for a in (0.51, 0.6, 0.74, 0.3, 0.9)]


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

    def test_a_domain_wider_than_float64_is_refused(self):
        # both ends are finite, but x1 - x0 overflows to inf
        with pytest.raises(DomainError, match=r"^domain must be an interval .* of finite width"):
            RelayChainConfig(capacities=(4,), spec=UNIFORM, domain=(-1e308, 1e308))
        for spec in (UNIFORM, BMRQ, DBMRQ, BB6):
            with pytest.raises(DomainError, match=r"^domain must be an interval .* of finite width"):
                capacity_to_step(spec, 4, (-1e308, 1e308))
        assert RelayChainConfig((4,), UNIFORM, (-8e307, 8e307)).domain == (-8e307, 8e307)

    @pytest.mark.parametrize("domain", [(0.0, 1.0, 2.0), (1.0,), 1.0, None])
    def test_a_domain_that_is_no_pair_is_refused(self, domain):
        with pytest.raises(DomainError, match=r"^domain must be a pair \(x0, x1\)"):
            RelayChainConfig(capacities=(4,), spec=UNIFORM, domain=domain)
        with pytest.raises(DomainError, match=r"^domain must be a pair \(x0, x1\)"):
            capacity_to_step(UNIFORM, 4, domain)

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
        # the float below the step must already need more than k levels
        assert count_levels(scheme_spec, math.nextafter(s, -math.inf), 0.0, 1.0) > k

    @pytest.mark.parametrize("k", [24, 33, 34])
    def test_search_is_tight_where_merged_cells_outgrow_the_step(self, k):
        # On this domain width/(k+1) already fits in k dbmrq levels, since a
        # merged cell is up to twice the step long.
        domain = (0.31868288352858964, 1.3055845199791705)
        s = capacity_to_step(DBMRQ, k, domain)
        assert count_levels(DBMRQ, s, *domain) <= k
        assert count_levels(DBMRQ, math.nextafter(s, -math.inf), *domain) > k

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
        with pytest.raises(DomainError, match="cannot cover"):
            capacity_to_step(BB6, 2, (0.99, 3.01))
        # a lattice scheme: the bmrq cells [0, 1), [1, 2), [2, 3) stay apart at step width
        with pytest.raises(DomainError, match="cannot cover"):
            capacity_to_step(BMRQ, 2, (0.9, 2.4))
        for spec in ORACLE_SPECS:
            outcome = search_outcome(bisected_step, spec, 2, (0.99, 3.01))
            assert search_outcome(fresh_capacity_to_step, spec, 2, (0.99, 3.01)) == outcome

    def test_bbmrq_search_matches_the_bisection_on_a_seeded_sweep(self):
        rng = np.random.default_rng(20261018)
        stepped = 0
        for i in range(150):
            spec = ORACLE_SPECS[i % len(ORACLE_SPECS)]
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            width = scale * rng.uniform(0.8, 1.25)
            x0 = [
                scale * rng.uniform(0.0, 2.0),  # positive
                -width * rng.uniform(0.05, 0.95),  # straddling 0
                -width - scale * rng.uniform(0.0, 2.0),  # all negative
            ][i % 3]
            k = int(rng.integers(2, 65))
            domain = (x0, x0 + width)
            expected = search_outcome(bisected_step, spec, k, domain)
            assert search_outcome(fresh_capacity_to_step, spec, k, domain) == expected, (spec, k, domain)
            stepped += expected is not DomainError
        assert stepped >= 140

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(ORACLE_SPECS),
        k=st.integers(2, 64),
        x0=st.floats(-2.0, 2.0),
        width=st.floats(0.8, 1.25),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    )
    def test_bbmrq_search_matches_the_bisection(self, spec, k, x0, width, scale):
        domain = (x0 * scale, (x0 + width) * scale)
        expected = search_outcome(bisected_step, spec, k, domain)
        assert search_outcome(fresh_capacity_to_step, spec, k, domain) == expected

    @pytest.mark.parametrize(
        "alpha, k, domain, expected",
        [
            # The mirrored cell (-(1e15 + 1.75), -(1e15 + 0.875)] holds x1, not a
            # float of the window, but the walk lists it: it starts below x1.
            (0.6, 12, (-1000000000000005.6, -1000000000000001.6), 0.625),
            # The bisection raises on both: it probes width/(k+1), which splits
            # nodes of 2 to 4 ulps that alpha = 0.9 cannot resolve.  The
            # refinement stops at its answer, above those nodes.
            (0.9, 7, (1000000000000002.1, 1000000000000006.1), 1.0),
            (0.9, 44, (-1000000000000028.9, -1000000000000008.0), 1.625),
        ],
    )
    def test_bbmrq_search_far_from_zero(self, alpha, k, domain, expected):
        spec = ORACLE_SPECS[(0.51, 0.6, 0.74, 0.3, 0.9).index(alpha)]
        assert search_outcome(bisected_step, spec, k, domain) == (expected if alpha < 0.9 else DomainError)
        assert search_outcome(fresh_capacity_to_step, spec, k, domain) == expected
        # the scalar walk's cell counts at the step and at the float below it bracket k
        assert walked_counts(spec, expected, domain) == {12: (9, 13), 7: (7, 10), 44: (39, 47)}[k]

    def test_bbmrq_search_at_1e15_keeps_the_bisections_steps(self):
        # At 1e15 a float is 0.125 from the next, so many of these domains
        # hold too few floats, or too few resolvable splits, for k levels.
        rng = np.random.default_rng(1015)
        bisected = returned = 0
        for i in range(40):
            spec = ORACLE_SPECS[i % len(ORACLE_SPECS)]
            width = 10.0 ** rng.uniform(-1.0, 1.5)
            x0 = 1e15 + width * rng.uniform(0.0, 2.0)
            domain = (x0, x0 + width) if i % 2 else (-x0 - width, -x0)
            k = int(rng.integers(2, 65))
            expected = search_outcome(bisected_step, spec, k, domain)
            step = search_outcome(fresh_capacity_to_step, spec, k, domain)
            if expected is not DomainError:
                assert step == expected, (spec, k, domain)
            elif step is not DomainError:
                at, below = walked_counts(spec, step, domain)
                assert at <= k < below, (spec, k, domain)
            bisected += expected is not DomainError
            returned += step is not DomainError
        assert (bisected, returned) == (14, 20)

    def test_bbmrq_capacity_above_the_cell_budget_raises_before_splitting(self, monkeypatch):
        # count_levels counts such a window by size class, but the search
        # would split its cells one by one.
        assert count_levels(BB6, 1.0 / (10**8 + 1), 0.0, 1.0) > 10**8

        def split(*args):
            raise AssertionError("split a node")

        monkeypatch.setattr(relay_sim, "_split", split)
        with pytest.raises(DomainError, match="exceed"):
            fresh_capacity_to_step(BB6, 10**8, 0.0, 1.0)

    @pytest.mark.parametrize(
        "spec, k, step",
        [(UNIFORM, 1000, 0.000980243161094225), (DBMRQ, 5000, 0.00019605313002937666), (BMRQ, 5000, 2.0**-12)],
        ids=["uniform", "dbmrq", "bmrq"],
    )
    def test_lattice_search_bisects_down_to_adjacent_floats(self, spec, k, step):
        # These need 62 to 65 halvings; a fixed 60 stopped a few ulps above.
        assert fresh_capacity_to_step(spec, k, 0.31, 1.29) == step
        assert bisected_step(spec, k, 0.31, 1.29) == step
        assert count_levels(spec, step, 0.31, 1.29) <= k < count_levels(spec, math.nextafter(step, -math.inf), 0.31, 1.29)

    def test_lattice_search_matches_the_bisection_on_a_seeded_sweep(self):
        # Uniform's bracket, and the scan of powers of two with DBMRQ's one
        # merge threshold, against the bisection on the count: the same step
        # or the same refusal on every case, and more than k levels at the
        # float below each step.
        rng = np.random.default_rng(20261019)
        stepped = 0
        for i in range(3000):
            spec = (BMRQ, DBMRQ, UNIFORM)[i % 3]
            scale = 10.0 ** rng.uniform(-5.0, 5.0)
            x0 = scale * rng.uniform(-3.0, 3.0)
            domain = (x0, x0 + scale * math.exp(rng.uniform(-2.0, 2.0)))
            k = int(math.exp(rng.uniform(math.log(2.0), math.log(3001.0))))
            expected = search_outcome(bisected_step, spec, k, domain)
            step = search_outcome(fresh_capacity_to_step, spec, k, domain)
            assert step == expected, (spec, k, domain)
            if step is not DomainError:
                assert count_levels(spec, math.nextafter(step, -math.inf), *domain) > k
                stepped += 1
        assert stepped >= 2850

    @pytest.mark.parametrize("spec, tally", [(BMRQ, (60, 2, 18)), (DBMRQ, (61, 2, 17))], ids=["bmrq", "dbmrq"])
    def test_dyadic_search_at_the_edges_of_float64(self, spec, tally):
        # Offsets near 1e15, where a float is 0.125 from the next; subnormal
        # widths; domains within four cells of 2^1023; domains straddling 0.
        # Where the bisection returns a step the search returns it too.  The
        # bisection also raises where a probe above the answer meets a cell
        # past float64, which the search, bracketing the answer's octave from
        # below, may not meet.
        def domains(rng):
            for i in range(20):
                w = 10.0 ** rng.uniform(-1.0, 1.5)
                x0 = 1e15 + w * rng.uniform(0.0, 2.0)
                yield (x0, x0 + w) if i % 2 else (-x0 - w, -x0)
            for _ in range(20):
                x0 = 5e-324 * int(rng.integers(-300, 300))
                yield x0, x0 + 5e-324 * int(rng.integers(1, 400))
            for i in range(20):
                x1 = sys.float_info.max * rng.uniform(0.5, 1.0)
                w = x1 * 10.0 ** rng.uniform(-3.0, -0.5)
                yield (x1 - w, x1) if i % 2 else (-x1, w - x1)
            for _ in range(20):
                w = 10.0 ** rng.uniform(-5.0, 5.0)
                x0 = -w * rng.uniform(0.01, 0.99)
                yield x0, x0 + w

        rng = np.random.default_rng(20261019)
        counts = [0, 0, 0]  # same step, a step where the bisection raises, both raise
        for domain in domains(rng):
            k = int(rng.integers(2, 65))
            expected = search_outcome(bisected_step, spec, k, domain)
            step = search_outcome(fresh_capacity_to_step, spec, k, domain)
            if expected is not DomainError:
                assert step == expected, (k, domain)
            if step is not DomainError:
                at, below = (count_levels(spec, s, *domain) for s in (step, math.nextafter(step, -math.inf)))
                assert at <= k < below, (k, domain)
            counts[(expected is DomainError) + (step is DomainError)] += 1
        assert tuple(counts) == tally

    def test_uniform_search_below_a_top_past_float64(self):
        # At step width the cell of x0 would end past float64, so the search
        # halves the top of its bracket until the count can be taken there.
        domain = (-1.743025249500593e308, -1.464019291906702e308)
        with pytest.raises(DomainError, match="not representable in float64"):
            count_levels(UNIFORM, domain[1] - domain[0], *domain)
        step = fresh_capacity_to_step(UNIFORM, 51, *domain)
        assert step == 5.5159026882930154e305
        assert count_levels(UNIFORM, step, *domain) == 51
        assert count_levels(UNIFORM, math.nextafter(step, -math.inf), *domain) == 52

    def test_dbmrq_search_bisects_where_the_lattice_count_cannot(self, monkeypatch):
        # At 1e15 the spacing 0.125 is one ulp, so cells may hold no float
        # and only the listing counts them; the threshold of the one pair
        # does not apply, and the search bisects on the count instead.
        def fraction(*args):
            raise AssertionError("looked for the pair threshold")

        monkeypatch.setattr(relay_sim, "_dither_fraction", fraction)
        for domain in [(1e15, 1e15 + 4.0), (-1e15 - 4.0, -1e15)]:
            step = fresh_capacity_to_step(DBMRQ, 20, *domain)
            assert step == math.nextafter(0.125, 1.0)
            assert walked_counts(DBMRQ, step, domain) == (16, 32)

    @pytest.mark.parametrize(
        "spec, most", [(UNIFORM, 61), (BMRQ, 3), (DBMRQ, 5), (BB6, 2)], ids=["uniform", "bmrq", "dbmrq", "bbmrq"]
    )
    def test_cold_search_probes_on_relay_domains(self, monkeypatch, spec, most):
        # The count_levels probes of one cold search on domains like those of
        # a relay chain stay within what the searches took when these bounds
        # were set; BBMRQ's are the two counts that verify its refinement.
        counted = []

        def counting(*args):
            counted.append(args[1])
            return count_levels(*args)

        monkeypatch.setattr(relay_sim, "count_levels", counting)
        rng = np.random.default_rng(23)
        for _ in range(100):
            x0 = rng.uniform(0.0, 1.0)
            domain = (x0, x0 + rng.uniform(0.8, 1.25))
            counted.clear()
            s = fresh_capacity_to_step(spec, int(rng.integers(6, 37)), *domain)
            assert len(counted) <= most, domain
            if spec is BB6:
                assert counted == [s, math.nextafter(s, -math.inf)]

    def test_validation(self):
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 1)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 4.0)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, True)
        with pytest.raises(DomainError):
            capacity_to_step(UNIFORM, 4, (0.0, math.nan))

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6])
    def test_a_capacity_past_float64_is_a_domain_error(self, spec):
        # the search divides the width by k + 1, which has no float64 value
        for k in (int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(DomainError, match=r"^capacity k must be an integer in \[2, "):
                capacity_to_step(spec, k)
            with pytest.raises(DomainError, match=r"^capacity k must be an integer in \[2, "):
                run_chain(RelayChainConfig((k,), spec), 0.5)


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

    def test_matches_per_point_reference_on_seeded_sweep(self):
        with pytest.warns(UserWarning):
            specs = SWEEP_SPECS + [QuantizerSpec.bbmrq(0.3, nonstandard_alpha=True)]
        rng = np.random.default_rng(20261018)
        checked = 0
        for i in range(70):
            spec = specs[i % len(specs)]
            scale = 10.0 ** rng.uniform(-8.0, 8.0)
            width = scale * rng.uniform(0.8, 1.25)
            x0 = [
                scale * rng.uniform(0.0, 2.0),  # positive
                -width * rng.uniform(0.05, 0.95),  # straddling 0
                -width - scale * rng.uniform(0.0, 2.0),  # all negative
            ][i % 3]
            caps = tuple(int(k) for k in rng.integers(2, 40, int(rng.integers(1, 4))))
            grid_size = int(2.0 ** rng.uniform(0.0, 17.0))
            p = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            cfg = RelayChainConfig(caps, spec, domain=(x0, x0 + width))
            try:
                expected = per_point_chain_error(cfg, p, grid_size)
            except DomainError:  # a capacity too small for the domain
                with pytest.raises(DomainError):
                    average_chain_error(cfg, p, grid_size)
                continue
            assert average_chain_error(cfg, p, grid_size) == expected, (cfg, p, grid_size)
            checked += 1
        assert checked >= 60

    def test_grid_point_on_a_lattice_cell_end(self):
        # The grid points are exactly 0, 0.25, 0.5 and 0.75, and the step is
        # 0.5, so 0 and 0.5 are cell ends.
        cfg = RelayChainConfig((4,), BMRQ, domain=(-0.125, 0.875))
        assert midpoint_grid(cfg.domain, 4).tolist() == [0.0, 0.25, 0.5, 0.75]
        assert capacity_to_step(BMRQ, 4, cfg.domain) == 0.5
        for p in (0.5, 1.0, 2.0):
            assert average_chain_error(cfg, p, 4) == per_point_chain_error(cfg, p, 4)

    def test_grid_point_on_a_mirrored_cell_end(self):
        # -0.36 is the upper end of the mirrored cell (-0.6, -0.36], which
        # owns it, and the lower end of (-0.36, 0]; the two cells differ in
        # length, so the owner decides the point's error.
        x0 = -0.36 - 2.5 * 0.125
        domain = (x0, x0 + 1.0)
        xs = midpoint_grid(domain, 8)
        s = capacity_to_step(BB6, 5, domain)
        mirrored_ends = {
            end for c in enumerate_cells(BB6, s, *domain) if c.lo < 0.0 for end in (c.lo, c.hi)
        }
        assert -0.36 in xs.tolist() and -0.36 in mirrored_ends
        for caps in [(5,), (5, 3)]:
            cfg = RelayChainConfig(caps, BB6, domain=domain)
            for p in (0.5, 1.0, 2.0, 3.0):
                assert average_chain_error(cfg, p, 8) == per_point_chain_error(cfg, p, 8)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=SWEEP_IDS)
    def test_repeated_grid_points_far_from_zero(self, spec):
        # At 1e15 a float is 0.125 apart from the next, so the grid points,
        # 64 / 2^15 apart, repeat.
        cfg = RelayChainConfig((32, 16, 8), spec, domain=(1e15, 1e15 + 64.0))
        xs = midpoint_grid(cfg.domain, 1 << 15)
        assert np.unique(xs).size < xs.size
        assert average_chain_error(cfg, 1.0, 1 << 15) == per_point_chain_error(cfg, 1.0, 1 << 15)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(SWEEP_SPECS),
        caps=st.lists(st.integers(2, 40), min_size=1, max_size=3),
        x0=st.floats(-2.0, 2.0),
        width=st.floats(0.5, 2.0),
        grid_size=st.integers(1, 1 << 12),
        p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_matches_per_point_reference(self, spec, caps, x0, width, grid_size, p):
        cfg = RelayChainConfig(tuple(caps), spec, domain=(x0, x0 + width))
        try:
            expected = per_point_chain_error(cfg, p, grid_size)
        except DomainError:
            return
        assert average_chain_error(cfg, p, grid_size) == expected

    @pytest.mark.parametrize("spec", SWEEP_SPECS[1:], ids=SWEEP_IDS[1:])
    def test_hop_by_hop_is_one_hop_at_the_coarsest_step(self, spec):
        # The collapse the error average rests on: every grid point
        # requantized hop by hop gives, bit for bit, the error of the one-hop
        # chain whose capacity is the smallest, the chain's coarsest step.
        rng = np.random.default_rng(20261019)
        checked = 0
        for _ in range(12):
            caps = tuple(int(k) for k in rng.integers(2, 40, int(rng.integers(2, 4))))
            x0 = float(rng.uniform(-2.0, 2.0))
            cfg = RelayChainConfig(caps, spec, domain=(x0, x0 + float(rng.uniform(0.5, 2.0))))
            grid_size, p = int(2.0 ** rng.uniform(0.0, 15.0)), float(rng.choice([0.5, 1.0, 2.0]))
            try:
                expected = per_point_chain_error(cfg, p, grid_size)
            except DomainError:  # a capacity too small for the domain
                continue
            one_hop = replace(cfg, capacities=(min(caps),))
            assert capacity_to_step(spec, min(caps), cfg.domain) == max(
                capacity_to_step(spec, k, cfg.domain) for k in caps
            )
            assert average_chain_error(one_hop, p, grid_size) == expected, (cfg, p, grid_size)
            checked += 1
        assert checked >= 10

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

    @pytest.mark.parametrize(
        "cfg",
        [
            RelayChainConfig((32, 16, 8), BMRQ),
            RelayChainConfig((33, 21, 13), BB6, domain=(0.31, 1.29)),
        ],
        ids=["bmrq", "bbmrq"],
    )
    def test_one_evaluation_per_distinct_chain(self, monkeypatch, cfg):
        # A requantizable chain is one quantization at its coarsest step, so
        # chains are distinct only by that step, and the baseline's error
        # serves every candidate that shares its step.
        evaluated = []

        def counted(chain, p, *args):
            evaluated.append(chain.capacities)
            return average_chain_error(chain, p, *args)

        def coarsest(caps):
            return max(s for s in applied_steps(cfg, caps) if s is not None)

        monkeypatch.setattr(relay_sim, "average_chain_error", counted)
        worst, ratio = adversarial_ratio(cfg, 2)
        candidates = list(candidate_capacities(cfg.capacities, 2))
        distinct = {coarsest(caps) for caps in candidates}
        assert len(distinct) < len({applied_steps(cfg, caps) for caps in candidates}) < len(candidates)
        assert coarsest(cfg.capacities) in distinct
        assert evaluated[0] == cfg.capacities
        assert sorted(map(coarsest, evaluated)) == sorted(distinct)

        base = average_chain_error(cfg, 1.0)
        expected_cfg, expected_ratio = cfg, 1.0
        for caps in candidates:
            cand = replace(cfg, capacities=caps)
            r = average_chain_error(cand, 1.0) / base
            if r > expected_ratio:
                expected_cfg, expected_ratio = cand, r
        assert (worst, ratio) == (expected_cfg, expected_ratio)

    @pytest.mark.parametrize("spec", [BMRQ, DBMRQ, BB6], ids=["bmrq", "dbmrq", "bbmrq"])
    def test_matches_the_benchmark_oracle(self, monkeypatch, spec):
        # The relay benchmark's correctness gate: the chain collapses to one
        # quantization at its coarsest step, whose grid error the oracle
        # sums in closed form.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        oracles = importlib.import_module("oracles")
        rng = np.random.default_rng(20261018)
        for _ in range(3):
            caps = (int(rng.integers(28, 37)), int(rng.integers(13, 20)), int(rng.integers(6, 11)))
            x0 = float(rng.uniform(0.0, 1.0))
            cfg = RelayChainConfig(caps, spec, domain=(x0, x0 + float(rng.uniform(0.8, 1.25))))
            worst, ratio = adversarial_ratio(cfg, 2)

            def error(caps):
                s = max(capacity_to_step(spec, k, cfg.domain) for k in caps)
                return oracles.collapsed_chain_error(spec, s, cfg.domain, DEFAULT_GRID_SIZE)

            base = error(cfg.capacities)
            best = max([1.0] + [error(c) / base for c in candidate_capacities(cfg.capacities, 2)])
            assert math.isclose(ratio, best, rel_tol=1e-9)
            reported = 1.0 if worst == cfg else error(worst.capacities) / base
            assert math.isclose(ratio, reported, rel_tol=1e-9)

    def test_matches_the_exhaustive_adversary_on_a_seeded_sweep(self):
        # Every capacity vector of the itertools.product reference, each
        # distinct chain evaluated once: the ratios agree bit for bit, and
        # the reported chain gives the ratio.  A uniform chain's worst is
        # the reference's own; a requantizable chain's may be another chain
        # of the same coarsest step, which ties with it.
        specs = [UNIFORM, BMRQ, DBMRQ, BB6, QuantizerSpec.bbmrq(0.51)]
        rng = np.random.default_rng(20261021)
        for n in range(400):
            spec = specs[n % len(specs)]
            caps = tuple(int(k) for k in rng.integers(3, 70, int(rng.integers(1, 5))))
            budget = int(rng.integers(1, 6))
            x0 = float(rng.uniform(-1.0, 0.5)) if n % 2 else float(rng.uniform(0.0, 1.0))
            cfg = RelayChainConfig(caps, spec, domain=(x0, x0 + float(rng.uniform(0.8, 1.25))))
            errors = {}

            def error(caps):
                key = applied_steps(cfg, caps)
                if spec is not UNIFORM:
                    key = max(s for s in key if s is not None)
                if key not in errors:
                    errors[key] = average_chain_error(replace(cfg, capacities=caps), 1.0)
                return errors[key]

            try:
                base = error(caps)
                want_caps, want = caps, 1.0
                for c in candidate_capacities(caps, budget):
                    if error(c) / base > want:
                        want_caps, want = c, error(c) / base
            except DomainError:
                with pytest.raises(DomainError):
                    adversarial_ratio(cfg, budget)
                continue
            worst, ratio = adversarial_ratio(cfg, budget)
            assert ratio == want, (cfg, budget)
            assert error(worst.capacities) / base == ratio or worst == cfg and ratio == 1.0
            if spec is UNIFORM:
                assert worst.capacities == want_caps, (cfg, budget)

    @pytest.mark.parametrize(
        "caps, budget", [((5,), 2), ((4, 3), 3), ((2, 7, 3), 4), ((9, 2, 6, 4), 3), ((3, 3), 5)]
    )
    def test_uniform_tries_every_vector_in_the_exhaustive_order(self, caps, budget):
        cfg = RelayChainConfig(caps, UNIFORM)
        tried = [c.capacities for c in relay_sim._shaved(cfg, budget)]
        assert tried == list(candidate_capacities(caps, budget))

    @pytest.mark.parametrize("spec", [BMRQ, DBMRQ, BB6], ids=["bmrq", "dbmrq", "bbmrq"])
    @pytest.mark.parametrize(
        "caps, budget", [((32, 16, 8), 2), ((8, 16, 8), 5), ((40,) * 8, 8), ((9, 3, 12), 4)]
    )
    def test_a_requantizable_chain_shaves_its_last_smallest_link(self, spec, caps, budget):
        # at most budget chains, one per value of the chain's least capacity
        cfg = RelayChainConfig(caps, spec)
        tried = [c.capacities for c in relay_sim._shaved(cfg, budget)]
        smallest = len(caps) - 1 - caps[::-1].index(min(caps))
        assert len(tried) == min(budget, min(caps) - 2) <= budget
        assert tried == [caps[:smallest] + (min(caps) - e,) + caps[smallest + 1:] for e in range(1, len(tried) + 1)]

    def test_eight_uniform_links_at_budget_eight(self):
        # C(16, 8) - 1 vectors of sum 1 to 8 over eight links, against the
        # 9**8 of the product
        assert len(relay_sim._shaved(RelayChainConfig((40,) * 8, UNIFORM), 8)) == 12_869
