"""Self-check suites runnable from the command line.

Each suite returns a list of :class:`CheckResult`; a check that fails is not
an internal error but a measured fact about the library, reported with the
observed value so the caller can judge it.  In particular the
distributional convergence checks compare finite-horizon empirical laws
against the closed-form limit at the documented horizons, where the
distances for near-lattice split ratios are genuinely above the 0.02
target; those lines are expected to read FAIL and say by how much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .cdf_analysis import (
    BiasAlphaCdf,
    TwoPowUnifCdf,
    empirical_cell_cdf,
    levy_distance,
    renyi_rate,
)
from .quantizers import DomainError, QuantizerSpec, Scheme, _integer, quantize_many
from .tradeoff import (
    RenewalConfig,
    SizeDensity,
    converse_bound,
    density_bound_slack,
    refinement_inequality_value,
    renewal_oracle_cdf,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

DEFAULT_SEED = 42

MRQ_SCHEMES = (
    ("bmrq", QuantizerSpec(Scheme.BMRQ)),
    ("dbmrq", QuantizerSpec(Scheme.DBMRQ)),
    ("bbmrq(0.6)", QuantizerSpec(Scheme.BBMRQ, alpha=0.6)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: Optional[float]
    detail: str


def _suite_mrq(seed: int) -> List[CheckResult]:
    """Coarse-after-fine equals coarse-alone, bitwise, en masse."""
    rng = np.random.default_rng(seed)
    n = 100000
    out = []
    for label, spec in MRQ_SCHEMES:
        x = rng.uniform(-20.0, 120.0, n)
        s1 = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n))
        s2 = s1 * np.exp(rng.uniform(0.0, math.log(100.0), n))
        fine = quantize_many(spec, s1, x)
        coarse_of_fine = quantize_many(spec, s2, fine)
        coarse = quantize_many(spec, s2, x)
        failures = int(np.sum(coarse_of_fine != coarse))
        out.append(
            CheckResult(
                name=f"mrq.identity.{label}",
                passed=failures == 0,
                value=float(failures),
                detail=f"{failures} mismatches in {n} random (x, s1 <= s2) triples",
            )
        )
    # the plain uniform quantizer must break the identity somewhere
    spec = QuantizerSpec(Scheme.SIMPLE_UNIFORM)
    x = rng.uniform(0.0, 1.0, 10000)
    s1 = np.full(x.shape, 0.25)
    s2 = np.full(x.shape, 1.0 / 3.0)
    mism = quantize_many(spec, s2, quantize_many(spec, s1, x)) != quantize_many(
        spec, s2, x
    )
    found = bool(mism.any())
    witness = float(x[np.argmax(mism)]) if found else math.nan
    out.append(
        CheckResult(
            name="mrq.uniform_counterexample",
            passed=found,
            value=witness,
            detail=(
                f"uniform breaks the identity at x={witness!r} (s1=1/4, s2=1/3)"
                if found
                else "no counterexample found"
            ),
        )
    )
    return out


def _suite_scale(seed: int) -> List[CheckResult]:
    """Exact octave doubling for the dyadic schemes, distributional
    scale invariance for the biased tree."""
    rng = np.random.default_rng(seed)
    out = []
    n = 10000
    for label, spec in (
        ("uniform", QuantizerSpec(Scheme.SIMPLE_UNIFORM)),
        ("bmrq", QuantizerSpec(Scheme.BMRQ)),
        ("dbmrq", QuantizerSpec(Scheme.DBMRQ)),
    ):
        x = rng.uniform(-5.0, 50.0, n)
        s = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), n))
        doubled = quantize_many(spec, 2.0 * s, 2.0 * x)
        failures = int(np.sum(doubled != 2.0 * quantize_many(spec, s, x)))
        out.append(
            CheckResult(
                name=f"scale.octave_doubling.{label}",
                passed=failures == 0,
                value=float(failures),
                detail=f"Q(2s, 2x) == 2 Q(s, x): {failures} mismatches in {n}",
            )
        )
    spec = QuantizerSpec(Scheme.BBMRQ, alpha=0.6)
    steps = (0.3, 1.0, math.pi, 10.0)
    rescaled = [
        empirical_cell_cdf(spec, s, 0.0, 1e5 * s).scaled(1.0 / s) for s in steps
    ]
    worst = 0.0
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            worst = max(worst, levy_distance(rescaled[i], rescaled[j]))
    out.append(
        CheckResult(
            name="scale.rescaled_cdfs_pairwise",
            passed=worst <= 0.02,
            value=worst,
            detail=(
                f"max pairwise Levy distance {worst:.4f} over steps "
                f"{steps} on windows of ~1e5 cells (target 0.02; known to "
                "exceed it at this window length, see README)"
            ),
        )
    )
    return out


def _suite_converse(seed: int) -> List[CheckResult]:
    """Rate-gap floor and the two integral inequalities."""
    del seed  # deterministic suite
    out = []
    worst_slack = math.inf
    worst_at = ""
    for p in (0.5, 1.0, 2.0):
        bound = converse_bound(p)
        for a in (0.74, 0.7, 0.6, 0.55, 0.51, 0.501):
            law = BiasAlphaCdf(a)
            gap = renyi_rate(law, 0.0) - renyi_rate(law, p + 1.0)
            slack = gap - bound
            if slack < worst_slack:
                worst_slack = slack
                worst_at = f"alpha={a}, p={p}"
    out.append(
        CheckResult(
            name="converse.rate_gap_floor",
            passed=worst_slack >= -1e-9,
            value=worst_slack,
            detail=f"min gap minus bound = {worst_slack:.3e} at {worst_at}",
        )
    )
    ys = np.linspace(0.2, 1.1, 64).tolist()
    for label, law in (
        ("bias(0.55)", BiasAlphaCdf(0.55)),
        ("bias(0.6)", BiasAlphaCdf(0.6)),
        ("bias(0.7)", BiasAlphaCdf(0.7)),
        ("twopow", TwoPowUnifCdf()),
    ):
        slack = min(density_bound_slack(law, ys))
        out.append(
            CheckResult(
                name=f"converse.pointwise_bound.{label}",
                passed=slack >= -1e-6,
                value=slack,
                detail=f"min slack {slack:.3e} over y in [0.2, 1.1]",
            )
        )
        worst = max(
            refinement_inequality_value(law, z) for z in (1.5, 2.0, 4.0)
        )
        out.append(
            CheckResult(
                name=f"converse.refinement_bound.{label}",
                passed=worst <= 1e-6,
                value=worst,
                detail=f"max integral {worst:.3e} over zeta in {{1.5, 2, 4}}",
            )
        )
    bad = SizeDensity(((0.9, 1.0, 10.0, 0.0),))  # 10 on [0.9, 1)
    slack = min(density_bound_slack(bad, [0.92, 0.95, 0.99]))
    out.append(
        CheckResult(
            name="converse.counterexample_flagged",
            passed=slack < -1e-6,
            value=slack,
            detail=f"uniform density on [0.9, 1) has slack {slack:.3f} < 0",
        )
    )
    return out


def _suite_renewal(seed: int) -> List[CheckResult]:
    """Random-split renewal simulation against the closed-form limit."""
    out = []
    cfg = RenewalConfig(alpha=0.6, horizon_t=30.0, samples=100000, seed=seed)
    first = renewal_oracle_cdf(cfg)
    second = renewal_oracle_cdf(cfg)
    identical = np.array_equal(first.breakpoints, second.breakpoints) and np.array_equal(
        first.masses, second.masses
    )
    out.append(
        CheckResult(
            name="renewal.same_seed_deterministic",
            passed=identical,
            value=None,
            detail=f"two runs with seed {seed} produced identical cdfs: {identical}",
        )
    )
    d = levy_distance(first, BiasAlphaCdf(0.6))
    out.append(
        CheckResult(
            name="renewal.matches_closed_form",
            passed=d <= 0.02,
            value=d,
            detail=(
                f"Levy distance {d:.4f} at horizon 30 (target 0.02; the "
                "exact first-crossing law sits 0.0397 away at this horizon, "
                "see README)"
            ),
        )
    )
    lattice = renewal_oracle_cdf(
        RenewalConfig(alpha=0.5, horizon_t=30.0, samples=1000, seed=seed)
    )
    ok = lattice.breakpoints.tolist() == [1.0]
    out.append(
        CheckResult(
            name="renewal.lattice_case_runs",
            passed=ok,
            value=None,
            detail="alpha=1/2 walk lands exactly on the horizon, one atom at 1",
        )
    )
    return out


_SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "mrq": _suite_mrq,
    "scale": _suite_scale,
    "converse": _suite_converse,
    "renewal": _suite_renewal,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run one named suite, or every suite for ``all``, from an integer
    ``seed >= 0``."""
    seed = _integer(seed, "seed", 0)
    if name == "all":
        results: List[CheckResult] = []
        for key in _SUITES:
            results.extend(_SUITES[key](seed))
        return results
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](seed)
