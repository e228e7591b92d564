"""Rate against error: tradeoff curves, the converse bound, and feasibility
checks for candidate stationary size densities.

The central object is the curve x -> inf{asymptotic L^p error : R_0 <= x}
over the step parameter.  Dyadic schemes trace a staircase (their rates move
in integer steps), the dithered scheme interpolates inside each octave, and
the biased tree gives a straight line of slope -p in log2 coordinates
because its rescaled size law does not depend on the step at all.

Two integral inequalities constrain which size densities any such
scale-invariant family can have; ``refinement_inequality_value`` and
``density_bound_slack`` evaluate them as exact piecewise sums for a density
made of ``c x^k`` pieces, and ``converse_bound`` gives the closed-form floor
on R_0 - R_{p+1} they imply.
``renewal_oracle_cdf`` simulates the random-split renewal process directly,
providing a sampling-based check of the biased tree's closed-form size law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .cdf_analysis import (
    LOG2E,
    BiasAlphaCdf,
    StepCdf,
    _lattice_law,
    renyi_rate,
)
from .quantizers import DomainError, QuantizerSpec, Scheme, _integer, _real

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
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", "(0, 1)"))
        object.__setattr__(self, "horizon_t", _real(self.horizon_t, "horizon_t", "(0, inf)"))
        object.__setattr__(self, "samples", _integer(self.samples, "samples", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


# ---------------------------------------------------------------------------
# Tradeoff curves


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
    law with the log2(s) rate shift.  A point whose step or error leaves
    float64 raises DomainError: it overflows at log rates below about -1023
    (or higher for large p) and underflows to 0 above about 1074 (or lower
    for large p).
    """
    p = _real(p, "p", "(0, inf)")
    xs = sorted(_real(x, "x_grid entry") for x in x_grid)
    if not xs:
        raise DomainError("x_grid must be nonempty")
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
        if not (s > 0.0 and err > 0.0):
            raise DomainError(f"log rate {x} underflows float64 for {spec.scheme.value}")
        points.append(RateErrorPoint(log_rate=x, error=err, s=s))
    return points


def converse_bound(p: float) -> float:
    """Floor on R_0 - R_{p+1} for scale-invariant requantizable families:
    (1/p) log2( (1 - 2^-p)/p * (log2 e)^(p+1) ).

    With ``x = p ln 2`` it is ``log2(log2 e) + ln((1 - e^-x) / x) / x``, and
    the logarithm, near ``-x/2``, would lose ``2^-52 / x`` to rounding; below
    ``x = 1`` it is ``-x/2 + log1p(S)``, ``S = sinh(h)/h - 1`` for ``h = x/2``
    summed as its series, whose positive terms ``h^(2n) / (2n+1)!`` fall at
    least 80-fold, so nothing cancels as ``p -> 0``.
    """
    x = _real(p, "p", "(0, inf)") * math.log(2.0)
    if x >= 1.0:
        return math.log2(LOG2E) + math.log(-math.expm1(-x) / x) / x
    h2, s, term, n = 0.25 * x * x, 0.0, x * x / 24.0, 3
    while s + term != s:
        s, term, n = s + term, term * h2 / ((n + 1) * (n + 2)), n + 2
    return (math.log2(LOG2E) - 0.5) + math.log1p(s) / x


# ---------------------------------------------------------------------------
# Density feasibility checks


Piece = Tuple[float, float, float, float]


@dataclass(frozen=True)
class SizeDensity:
    """A density on (0, inf) for the feasibility checks: sorted, disjoint
    pieces ``(l, r, c, k)``, each ``c x^k`` on ``[l, r)`` with ``0 < l < r <
    inf``, ``0 <= c < inf`` and ``k`` finite, and zero off them.  The closed
    laws are ``c / x`` pieces; on pieces both checks are exact finite sums."""

    pieces: Tuple[Piece, ...]

    def __post_init__(self) -> None:
        try:
            pieces = tuple(
                (_real(l, "l of pieces", "(0, inf)"), _real(r, "r of pieces", "(0, inf)"),
                 _real(c, "c of pieces", "[0, inf)"), _real(k, "k of pieces"))
                for l, r, c, k in self.pieces
            )
        except DomainError:
            raise
        except (TypeError, ValueError):  # not an iterable of 4-tuples
            raise DomainError("pieces must be (l, r, c, k) tuples of reals") from None
        floors = [0.0] + [r for _, r, _, _ in pieces[:-1]]
        if not pieces or not all(floor <= l < r for floor, (l, r, _, _) in zip(floors, pieces)):
            raise DomainError("pieces must be nonempty, sorted and disjoint, each with l < r")
        object.__setattr__(self, "pieces", pieces)

    @property
    def support(self) -> Tuple[float, float]:
        return self.pieces[0][0], self.pieces[-1][1]

    @classmethod
    def from_closed(cls, cdf: BiasAlphaCdf) -> "SizeDensity":
        if not isinstance(cdf, BiasAlphaCdf):
            raise DomainError(f"no density available for {cdf!r}")
        # (log2 e / H) (a 1{a <= x} + (1 - a) 1{1 - a <= x}) / x below 1
        lo, mid = sorted((cdf.alpha, 1.0 - cdf.alpha))
        c = LOG2E / cdf.split_entropy
        return cls(tuple(p for p in ((lo, mid, c * lo, -1.0), (mid, 1.0, c, -1.0)) if p[0] < p[1]))


def _pieces_of(f: Union[SizeDensity, BiasAlphaCdf]) -> Tuple[Piece, ...]:
    return (f if isinstance(f, SizeDensity) else SizeDensity.from_closed(f)).pieces


def _piece_at(pieces: Tuple[Piece, ...], x: float) -> Tuple[float, float]:
    """``(c, k)`` of the piece holding ``x``, or ``(0, 0)`` off the pieces."""
    return next(((c, k) for l, r, c, k in pieces if l <= x < r), (0.0, 0.0))


def _weighted(c: float, k: float, a: float, b: float) -> float:
    """Integral of ``c x^k / x`` over ``[a, b]``, ``0 < a <= b``: ``c a^k
    (e^(k t) - 1) / k`` with ``t = ln(b / a)``, or ``c t`` when ``k = 0``."""
    t = math.log1p((b - a) / a)
    return c * a ** k * (math.expm1(k * t) / k if k else t)


def _in_float64(what: str, values: Callable[[], List[float]]) -> List[float]:
    """``values()``, or DomainError when a sum over user-built pieces leaves
    float64: a float ``**`` or ``math.fsum`` overflows, an end divided by
    zeta underflows to 0, or inf - inf gives nan."""
    try:
        out = values()
    except (ArithmeticError, ValueError):
        out = [math.nan]
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{what} leaves float64 on these pieces")
    return out


def density_bound_slack(
    f: Union[SizeDensity, BiasAlphaCdf], y_grid: Sequence[float]
) -> List[float]:
    """Pointwise feasibility slack of a candidate stationary size density.

    Any size density of a scale-invariant requantizable family satisfies
    f(y) <= integral of x^-1 (1 + 1{x > y}) f(x) dx for almost all y > 0.
    Returns RHS - f(y) for each grid y, summed exactly over the pieces; a
    negative slack certifies the density infeasible.  A sum beyond float64
    raises DomainError.
    """
    pieces = _pieces_of(f)
    ys = [_real(y, "y_grid entry", "(0, inf)") for y in y_grid]
    if not ys:
        raise DomainError("y_grid must be nonempty")

    def tail(y: float) -> float:
        return math.fsum(_weighted(c, k, max(l, y), r) for l, r, c, k in pieces if r > y)

    def slacks() -> List[float]:
        base = tail(0.0)
        return [base + tail(y) - c * y ** k for y, (c, k) in ((y, _piece_at(pieces, y)) for y in ys)]

    return _in_float64("density_bound_slack", slacks)


def refinement_inequality_value(
    f: Union[SizeDensity, BiasAlphaCdf], zeta: float
) -> float:
    """Integral inequality tying a size density to its zeta-fold refinement.

    Evaluates integral of x^-1 (1 + 1{f(x) >= zeta f(x zeta)})
    (f(x) - zeta f(x zeta)) dx, which is at most zero for the stationary
    size density of any scale-invariant requantizable family.  The sum is
    exact: ``zeta f(zeta x)`` is the piece ``c zeta^(k+1) x^k`` on
    ``[l / zeta, r / zeta)``, and between the ends of both densities' pieces
    the indicator is constant, except that two pieces of different ``k``
    cross once, where the interval is cut again.  A sum beyond float64
    raises DomainError.
    """
    zeta = _real(zeta, "zeta", "(1, inf)")
    fs = _pieces_of(f)

    def value() -> List[float]:
        gs = tuple((l / zeta, r / zeta, c * zeta ** (k + 1.0), k) for l, r, c, k in fs)
        cuts = sorted({e for l, r, _, _ in fs + gs for e in (l, r)})
        terms = []
        for u, v in zip(cuts, cuts[1:]):
            (cf, kf), (cg, kg) = _piece_at(fs, u), _piece_at(gs, u)
            cross = (cg / cf) ** (1.0 / (kf - kg)) if kf != kg and cf > 0.0 and cg > 0.0 else u
            ends = [u, cross, v] if u < cross < v else [u, v]
            for a, b in zip(ends, ends[1:]):
                m = math.sqrt(a * b)
                ahead = cf * m ** kf >= cg * m ** kg
                terms.append((1.0 + ahead) * (_weighted(cf, kf, a, b) - _weighted(cg, kg, a, b)))
        return [math.fsum(terms)]

    return _in_float64("refinement_inequality_value", value)[0]


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
