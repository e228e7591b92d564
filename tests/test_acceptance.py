"""Acceptance checks for the package as a whole.

Each test covers one numbered criterion and prints a single PASS or
FAIL line with the measured values, so ``pytest -v tests/test_acceptance.py``
reads as a checklist.  The tolerances are stated once, next to the
assertion, and are not loosened to fit the implementation.

Two criteria are known to fail and are kept failing on purpose.
Criteria 4 and 5 ask the empirical cell-size laws to sit within a
Lévy distance of 0.02 of the stationary law at desk-scale horizons
(windows of about 1e5 cells, renewal horizon 30).  The chains mix
too slowly for that: the exact first-crossing law at horizon 30 is
itself about 0.04 away from the stationary law, and the measured
window distances for alpha = 0.6 are near 0.06 (window) and 0.10
(pairwise rescaled).  The distances do shrink at longer horizons,
which the module tests pin down quantitatively.  README.md walks
through the numbers; the module suites assert the honest measured
bounds so that regressions are still caught.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from mrquant import (
    BiasAlphaCdf,
    QuantizerSpec,
    RelayChainConfig,
    RenewalConfig,
    Scheme,
    SizeDensity,
    TwoPowUnifCdf,
    adversarial_ratio,
    cell_of,
    converse_bound,
    density_bound_slack,
    empirical_cell_cdf,
    levy_distance,
    lp_error_asymptotic,
    lp_error_exact,
    quantize,
    quantize_many,
    refinement_inequality_value,
    renewal_oracle_cdf,
    renyi_rate,
    run_chain,
)
from mrquant.cli import main as cli_main

UNIFORM = QuantizerSpec(Scheme.SIMPLE_UNIFORM)
BMRQ = QuantizerSpec(Scheme.BMRQ)
DBMRQ = QuantizerSpec(Scheme.DBMRQ)
BB6 = QuantizerSpec(Scheme.BBMRQ, alpha=0.6)
BB51 = QuantizerSpec(Scheme.BBMRQ, alpha=0.51)

# Golden chains are fed float(2/7); that one rounding is the only
# inexactness in the whole computation, so agreement is checked at
# the ulp of the input rather than of the much smaller error.
ULP_AT_DATA_SCALE = math.ulp(2.0 / 7.0)


def report(num, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {detail}")
    return passed


def run_tradeoff_csv(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(["tradeoff", *argv])
    assert code == 0
    rows = [line.split(",") for line in out.getvalue().strip().splitlines()[1:]]
    return [(r[0], float(r[1]), float(r[2])) for r in rows]


def test_criterion_01_golden_relay_values():
    t0 = time.perf_counter()
    x = 2.0 / 7.0

    chain = run_chain(RelayChainConfig(capacities=(4, 3), spec=UNIFORM), x)
    single = run_chain(RelayChainConfig(capacities=(3,), spec=UNIFORM), x)
    tree = run_chain(RelayChainConfig(capacities=(4, 3), spec=BMRQ), x)

    errs = (
        abs(chain.final_abs_error - 3.0 / 14.0),
        abs(single.final_abs_error - 5.0 / 42.0),
        abs(tree.final_abs_error - 1.0 / 28.0),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        tree.outputs == (0.375, 0.25)
        and single.outputs == (1.0 / 6.0,)
        and all(e <= ULP_AT_DATA_SCALE for e in errs)
        and elapsed < 1.0
    )
    assert report(
        1,
        ok,
        "golden chains at x=2/7: errors off the rationals by "
        f"{errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e} "
        f"(cap {ULP_AT_DATA_SCALE:.2e}, one ulp of the input), {elapsed:.2f}s",
    )


def test_criterion_02_mrq_identity_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    n = 10**5
    failures = {}
    for spec in (BMRQ, DBMRQ, BB6):
        s1 = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
        s2 = s1 * np.exp(rng.uniform(0.0, np.log(100.0), n))
        x = rng.uniform(0.0, 120.0, n)
        refined = quantize_many(spec, s1, x)
        coarse_of_fine = quantize_many(spec, s2, refined)
        coarse = quantize_many(spec, s2, x)
        failures[spec.scheme.value] = int(np.sum(coarse_of_fine != coarse))

    xs = np.linspace(0.0, 1.0, 10**4, endpoint=False)
    once = quantize_many(UNIFORM, 1.0 / 3.0, quantize_many(UNIFORM, 0.25, xs))
    direct = quantize_many(UNIFORM, 1.0 / 3.0, xs)
    counterexample_found = bool(np.any(once != direct))

    elapsed = time.perf_counter() - t0
    ok = (
        all(v == 0 for v in failures.values())
        and counterexample_found
        and elapsed < 10.0
    )
    assert report(
        2,
        ok,
        f"coarse-of-fine identity failures {failures} over {n} triples each, "
        f"uniform counterexample found={counterexample_found}, {elapsed:.2f}s",
    )


def test_criterion_03_cell_length_bounds():
    rng = np.random.default_rng(31)
    n = 10**4
    alphas = rng.uniform(0.5001, 0.7499, n)
    steps = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    xs = rng.uniform(0.0, 1000.0, n) * steps
    bad = 0
    for a, s, x in zip(alphas, steps, xs):
        cell = cell_of(QuantizerSpec(Scheme.BBMRQ, alpha=float(a)), float(s), float(x))
        length = cell.hi - cell.lo
        if not ((1.0 - a) * s < length <= s):
            bad += 1
    assert report(
        3,
        bad == 0,
        f"cell length in ((1-alpha)s, s] for {n} random (alpha, s, x): {bad} violations",
    )


def test_criterion_04_stationary_law_at_desk_scale():
    t0 = time.perf_counter()
    law = BiasAlphaCdf(0.6)
    d_window = levy_distance(empirical_cell_cdf(BB6, 1.0, 0.0, 1e5), law)
    oracle = renewal_oracle_cdf(
        RenewalConfig(alpha=0.6, horizon_t=30, samples=10**5, seed=42)
    )
    d_renewal = levy_distance(oracle, law)
    elapsed = time.perf_counter() - t0
    ok = d_window <= 0.02 and d_renewal <= 0.02 and elapsed < 30.0
    assert report(
        4,
        ok,
        f"Levy distance to the stationary law: window {d_window:.4f}, "
        f"renewal {d_renewal:.4f} (target 0.02 each), {elapsed:.1f}s",
    )


def test_criterion_05_scale_invariance_of_rescaled_cdfs():
    steps = (0.3, 1.0, math.pi, 10.0)
    scaled = [empirical_cell_cdf(BB6, s, 0.0, 1e5 * s).scaled(1.0 / s) for s in steps]
    worst = max(
        levy_distance(scaled[i], scaled[j])
        for i in range(len(steps))
        for j in range(i + 1, len(steps))
    )
    assert report(
        5,
        worst <= 0.02,
        f"max pairwise Levy distance of rescaled cdfs over s={steps}: "
        f"{worst:.4f} (target 0.02)",
    )


def test_criterion_06_rate_constants_near_half_bias():
    law = BiasAlphaCdf(0.51)
    r0 = renyi_rate(law, 0.0)
    r1 = renyi_rate(law, 1.0)
    ok = abs(r0 - 0.5288) <= 0.01 and abs(r1 - 0.5) <= 0.01
    assert report(
        6,
        ok,
        f"R_0={r0:.5f} (target 0.5288 +- 0.01), R_1={r1:.5f} (target 0.5 +- 0.01)",
    )


def test_criterion_07_exact_error_matches_asymptotic_form():
    measured = lp_error_exact(BB51, 1.0, 0.0, 1e5, 1.0)
    target = lp_error_asymptotic(BiasAlphaCdf(0.51), 1.0)
    rel = abs(measured - target) / target
    assert report(
        7,
        rel <= 0.01,
        f"mean absolute error {measured:.5f} vs closed form {target:.5f} "
        f"(rel {rel:.2e}, target 1%)",
    )


def test_criterion_08_converse_bound_holds_and_is_approached():
    worst = math.inf
    for alpha in (0.74, 0.7, 0.6, 0.55, 0.51, 0.501):
        law = BiasAlphaCdf(alpha)
        r0 = renyi_rate(law, 0.0)
        for p in (0.5, 1.0, 2.0):
            gap = r0 - renyi_rate(law, p + 1.0)
            worst = min(worst, gap - converse_bound(p))
    near = BiasAlphaCdf(0.501)
    excess = renyi_rate(near, 0.0) - renyi_rate(near, 2.0) - converse_bound(1.0)
    ok = worst >= -1e-9 and 0.0 <= excess <= 1e-3
    assert report(
        8,
        ok,
        f"min(gap - bound) over 6 alphas x 3 p: {worst:.3e} (floor -1e-9); "
        f"excess at (0.501, p=1): {excess:.3e} (cap 1e-3)",
    )


def test_criterion_09_density_inequalities_feasible():
    y_grid = np.linspace(0.2, 1.1, 181)
    zetas = (1.5, 2.0, 4.0)
    laws = [BiasAlphaCdf(a) for a in (0.55, 0.6, 0.7)] + [TwoPowUnifCdf()]
    min_pointwise = math.inf
    max_integral = -math.inf
    for law in laws:
        f = SizeDensity.from_closed(law)
        min_pointwise = min(min_pointwise, min(density_bound_slack(f, y_grid)))
        max_integral = max(
            max_integral, max(refinement_inequality_value(f, z) for z in zetas)
        )
    bad = SizeDensity(((0.9, 1.0, 10.0, 0.0),))  # 10 on [0.9, 1)
    bad_slack = min(density_bound_slack(bad, [0.92, 0.95, 0.99]))
    ok = min_pointwise >= -1e-6 and max_integral <= 1e-6 and bad_slack < -1e-6
    assert report(
        9,
        ok,
        f"min pointwise slack {min_pointwise:.2e} (floor -1e-6), "
        f"max refinement integral {max_integral:.2e} (cap 1e-6), "
        f"counterexample slack {bad_slack:.2f} flagged={bad_slack < -1e-6}",
    )


def test_criterion_10_tradeoff_curves_from_the_cli():
    t0 = time.perf_counter()
    rows = run_tradeoff_csv(
        [
            "--schemes",
            "bmrq,bbmrq",
            "--alpha",
            "0.501",
            "--p",
            "1",
            "--xmin",
            "0",
            "--xmax",
            "3.5",
            "--points",
            "71",
        ]
    )
    bmrq = [(x, e) for scheme, x, e in rows if scheme == "bmrq"]
    bb = [(x, e) for scheme, x, e in rows if scheme == "bbmrq"]

    plateau_ok = all(e == 0.25 for x, e in bmrq if x < 1.0)

    anchor_rows = run_tradeoff_csv(
        [
            "--schemes",
            "bbmrq",
            "--alpha",
            "0.501",
            "--p",
            "1",
            "--xmin",
            "0.5288",
            "--xmax",
            "2.5288",
            "--points",
            "41",
        ]
    )
    slopes = [
        (math.log2(e2) - math.log2(e1)) / (x2 - x1)
        for (_, x1, e1), (_, x2, e2) in zip(anchor_rows, anchor_rows[1:])
    ]
    slope_dev = max(abs(m + 1.0) for m in slopes)
    anchor_err = anchor_rows[0][2]
    anchor_ok = abs(anchor_err - 0.1804) <= 0.002

    off_integer = [
        (e_bb, e_bm)
        for (x, e_bm), (_, e_bb) in zip(bmrq, bb)
        if abs(x - round(x)) > 0.1
    ]
    beats = all(e_bb < e_bm for e_bb, e_bm in off_integer)

    elapsed = time.perf_counter() - t0
    ok = (
        plateau_ok
        and slope_dev <= 1e-9
        and anchor_ok
        and beats
        and elapsed < 10.0
    )
    assert report(
        10,
        ok,
        f"staircase plateau 0.25 on [0,1)={plateau_ok}, slope -1 dev {slope_dev:.1e} "
        f"(cap 1e-9), value {anchor_err:.4f} at x=0.5288 (target 0.1804 +- 0.002), "
        f"beats staircase off integers at {len(off_integer)} points={beats}, {elapsed:.2f}s",
    )


def test_criterion_11_adversarial_scale_dependence():
    _, ratio_bmrq = adversarial_ratio(
        RelayChainConfig(capacities=(32,), spec=BMRQ), budget=1
    )
    _, ratio_bb = adversarial_ratio(
        RelayChainConfig(capacities=(32,), spec=BB6), budget=1
    )
    ok = ratio_bmrq == 2.0 and ratio_bb <= 1.1
    assert report(
        11,
        ok,
        f"one lost level at k=32: power-of-two ratio {ratio_bmrq} (exactly 2.0), "
        f"biased-tree ratio {ratio_bb:.4f} (cap 1.1)",
    )
