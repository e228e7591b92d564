"""Rate against error: tradeoff curves, the converse bound, and feasibility
checks for candidate stationary size densities.

The central object is the curve x -> inf{asymptotic L^p error : R_0 <= x}
over the step parameter.  Dyadic schemes trace a staircase (their rates move
in integer steps), the dithered scheme interpolates inside each octave, and
the biased tree gives a straight line of slope -p in log2 coordinates
because its rescaled size law does not depend on the step at all.

Two integral inequalities constrain which size densities any such
scale-invariant family can have; ``refinement_inequality_value`` and
``density_bound_slack`` evaluate them numerically for a density, and
``converse_bound`` gives the closed-form floor on R_0 - R_{p+1} they imply.
``renewal_oracle_cdf`` simulates the random-split renewal process directly,
providing a sampling-based check of the biased tree's closed-form size law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad

from .cdf_analysis import (
    LOG2E,
    BiasAlphaCdf,
    StepCdf,
    TwoPowUnifCdf,
    _lattice_law,
    renyi_rate,
)
from .quantizers import DomainError, QuantizerSpec, Scheme

__all__ = [
    "RateErrorPoint",
    "RenewalConfig",
    "SizeDensity",
    "tradeoff_curve",
    "converse_bound",
    "density_bound_slack",
    "refinement_inequality_value",
    "renewal_oracle_cdf",
]


@dataclass(frozen=True)
class RateErrorPoint:
    """One point of a rate-error tradeoff curve.

    ``log_rate`` is the requested ceiling x on R_0 (bits per unit length at
    the achieving step), ``error`` the smallest asymptotic L^p error among
    steps meeting it, and ``s`` a step that attains the value.
    """

    log_rate: float
    error: float
    s: float


@dataclass(frozen=True)
class RenewalConfig:
    """Parameters for the random-split renewal simulation."""

    alpha: float
    horizon_t: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0) or not math.isfinite(self.alpha):
            raise DomainError("alpha must lie in (0, 1)")
        if not (self.horizon_t > 0.0 and math.isfinite(self.horizon_t)):
            raise DomainError("horizon_t must be positive and finite")
        if not (isinstance(self.samples, int) and self.samples >= 1):
            raise DomainError("samples must be a positive integer")
        if not isinstance(self.seed, int):
            raise DomainError("seed must be an integer")


# ---------------------------------------------------------------------------
# Tradeoff curves


def _validate_grid(x_grid: Sequence[float]) -> List[float]:
    xs = [float(x) for x in x_grid]
    if not xs:
        raise DomainError("x_grid must be nonempty")
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("x_grid entries must be finite")
    return sorted(xs)


def _lattice_error(law: StepCdf, p: float) -> float:
    """Sum of m (g/2)^p / (p + 1) over the atoms; log2 keeps powers of two
    exact, so the BMRQ staircase is exact."""
    terms = zip(law.breakpoints.tolist(), law.masses.tolist())
    return math.fsum(m * 2.0 ** (p * (math.log2(g) - 1.0)) for g, m in terms) / (p + 1.0)


def tradeoff_curve(
    spec: QuantizerSpec, p: float, x_grid: Sequence[float]
) -> List[RateErrorPoint]:
    """Asymptotic L^p error against a ceiling on the log-rate R_0.

    For each x in the grid, minimizes 2^(-p (R_{p+1} + 1)) / (p + 1) over all
    steps s whose R_0 stays at or below x.  The lattice schemes' error, from
    their exact step-s size laws, rises with s, so the best step is 2^-x
    (2^-floor(x) on the BMRQ staircase); the biased tree uses its stationary
    law with the log2(s) rate shift.  Points the family cannot reach are
    skipped with a warning; for these families every finite x is reachable,
    so that is a guard rather than an expected path.  A point whose step or
    error exceeds float64 (log rates below about -1023, or higher for large
    p) raises DomainError.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    p = float(p)
    xs = _validate_grid(x_grid)
    points: List[RateErrorPoint] = []
    for x in xs:
        try:
            if spec.scheme is Scheme.BBMRQ:
                stationary = BiasAlphaCdf(spec.alpha)
                gap = renyi_rate(stationary, 0.0) - renyi_rate(stationary, p + 1.0)
                err = 2.0 ** (-p * (x + 1.0 - gap)) / (p + 1.0)
                s = 2.0 ** (renyi_rate(stationary, 0.0) - x)
            else:
                s = 2.0 ** -(math.floor(x) if spec.scheme is Scheme.BMRQ else x)
                err = _lattice_error(_lattice_law(spec, s), p) if s > 0.0 else 0.0
        except OverflowError:
            raise DomainError(f"log rate {x} overflows float64 for {spec.scheme.value}") from None
        if not math.isfinite(err) or err <= 0.0:
            warnings.warn(
                f"no step reaches log rate {x} for {spec.scheme.value}; "
                "point skipped",
                stacklevel=2,
            )
            continue
        points.append(RateErrorPoint(log_rate=x, error=err, s=s))
    return points


def converse_bound(p: float) -> float:
    """Floor on R_0 - R_{p+1} for scale-invariant requantizable families:
    (1/p) log2( (1 - 2^-p)/p * (log2 e)^(p+1) )."""
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    p = float(p)
    return (
        math.log2(-math.expm1(-p * math.log(2.0)) / p)
        + (p + 1.0) * math.log2(LOG2E)
    ) / p


# ---------------------------------------------------------------------------
# Density feasibility checks


ClosedDensity = Union[BiasAlphaCdf, TwoPowUnifCdf]


@dataclass(frozen=True)
class SizeDensity:
    """A probability density on (0, inf) used by the feasibility checks.

    ``pdf`` is evaluated pointwise; ``support`` bounds where it may be
    nonzero; ``kinks`` lists interior discontinuities so the quadrature can
    split there.
    """

    pdf: Callable[[float], float]
    support: Tuple[float, float]
    kinks: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise DomainError("support must satisfy 0 < lo < hi < inf")

    @classmethod
    def from_closed(cls, cdf: ClosedDensity) -> "SizeDensity":
        if not isinstance(cdf, (BiasAlphaCdf, TwoPowUnifCdf)):
            raise DomainError(f"no density available for {cdf!r}")
        lo, hi = cdf.support
        kinks = tuple(float(k) for k in cdf.kinks() if lo < k < hi)
        return cls(
            pdf=lambda x: float(cdf.pdf(np.asarray(x))),
            support=(lo, hi),
            kinks=kinks,
        )

    def _segments(self, extra: Sequence[float] = ()) -> List[float]:
        lo, hi = self.support
        pts = {lo, hi}
        pts.update(k for k in self.kinks if lo < k < hi)
        pts.update(e for e in extra if lo < e < hi)
        return sorted(pts)

    def integrate(self, weight: Callable[[float], float], lo: float, hi: float,
                  extra: Sequence[float] = ()) -> float:
        """Integral of weight(x) pdf(x) over [lo, hi] (clipped to support)."""
        a = max(lo, self.support[0])
        b = min(hi, self.support[1])
        if a >= b:
            return 0.0
        total = 0.0
        cuts = [a] + [c for c in self._segments(extra) if a < c < b] + [b]
        for left, right in zip(cuts, cuts[1:]):
            val, _ = quad(
                lambda x: weight(x) * self.pdf(x),
                left,
                right,
                epsabs=1e-11,
                epsrel=1e-11,
                limit=200,
            )
            total += val
        return total


def _as_density(f: Union[SizeDensity, ClosedDensity]) -> SizeDensity:
    if isinstance(f, SizeDensity):
        return f
    return SizeDensity.from_closed(f)


def density_bound_slack(
    f: Union[SizeDensity, ClosedDensity], y_grid: Sequence[float]
) -> List[float]:
    """Pointwise feasibility slack of a candidate stationary size density.

    Any size density of a scale-invariant requantizable family satisfies
    f(y) <= integral of x^-1 (1 + 1{x > y}) f(x) dx for almost all y > 0.
    Returns RHS - f(y) for each grid y; a negative slack (beyond quadrature
    noise) certifies the density infeasible.
    """
    den = _as_density(f)
    ys = [float(y) for y in y_grid]
    if not ys or not all(math.isfinite(y) and y > 0.0 for y in ys):
        raise DomainError("y_grid must be nonempty positive finite reals")
    lo, hi = den.support
    base = den.integrate(lambda x: 1.0 / x, lo, hi)
    out = []
    for y in ys:
        tail = den.integrate(lambda x: 1.0 / x, y, hi, extra=(y,))
        out.append(base + tail - den.pdf(y))
    return out


def refinement_inequality_value(
    f: Union[SizeDensity, ClosedDensity], zeta: float
) -> float:
    """Integral inequality tying a size density to its zeta-fold refinement.

    Evaluates integral of x^-1 (1 + 1{f(x) >= zeta f(x zeta)})
    (f(x) - zeta f(x zeta)) dx, which is at most zero for the stationary
    size density of any scale-invariant requantizable family.
    """
    if not (isinstance(zeta, (int, float)) and math.isfinite(zeta)) or zeta <= 1.0:
        raise DomainError(f"zeta must exceed 1, got {zeta!r}")
    zeta = float(zeta)
    den = _as_density(f)
    lo, hi = den.support

    def integrand(x: float) -> float:
        fx = den.pdf(x)
        fz = zeta * den.pdf(x * zeta)
        return (1.0 + (fx >= fz)) * (fx - fz) / x

    # the integrand can be nonzero wherever f(x) or f(x zeta) is
    a = lo / zeta
    b = hi
    cuts = {a, b, lo, hi / zeta}
    cuts.update(k for k in den.kinks if a < k < b)
    cuts.update(k / zeta for k in den.kinks if a < k / zeta < b)
    grid = sorted(c for c in cuts if a <= c <= b)
    total = 0.0
    for left, right in zip(grid, grid[1:]):
        val, _ = quad(integrand, left, right, epsabs=1e-11, epsrel=1e-11, limit=200)
        total += val
    return total


# ---------------------------------------------------------------------------
# Renewal simulation


def renewal_oracle_cdf(cfg: RenewalConfig) -> StepCdf:
    """Empirical law of W = 2^(-residual) for the random-split renewal walk.

    Each sample runs an independent walk with increments -log2(alpha) with
    probability alpha and -log2(1-alpha) otherwise, starting from 0, and
    records 2^-(overshoot) at the first crossing of horizon_t.  This is the
    law the biased tree's cell sizes follow at scale separation horizon_t,
    so for large horizons it converges to the closed-form stationary cdf.
    Output is deterministic given the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    a = cfg.alpha
    la = -math.log2(a)
    lb = -math.log2(1.0 - a)
    n = cfg.samples
    t = cfg.horizon_t
    out = np.empty(n)
    times = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    while alive.any():
        steps = np.where(rng.random(n) < a, la, lb)
        crossed_t = times + steps
        crossed = alive & (crossed_t >= t)
        out[crossed] = 2.0 ** (-(crossed_t[crossed] - t))
        alive &= ~crossed
        times = np.where(alive, crossed_t, times)
    values, counts = np.unique(out, return_counts=True)
    return StepCdf(values, counts / n)
