"""Cell-size distributions and the numbers derived from them.

For a quantizer at step bound ``s`` restricted to a window ``[x0, x1]``, the
cell-size cdf weights each cell's (clipped) length by the fraction of the
window it covers.  Everything downstream is a functional of that cdf: Renyi
entropy rates of the output, exact level counts, output entropy, and exact or
asymptotic L^p quantization error.  The Levy metric compares empirical cdfs
against the closed forms they converge to.

Closed forms provided:

* :class:`BiasAlphaCdf` -- stationary size law of the biased tree, supported
  on ``[1 - alpha, 1]`` (sizes relative to ``s = 1``).
* :class:`TwoPowUnifCdf` -- the law of ``2**U`` with ``U`` uniform on
  ``[-1, 0]``; the size law shared by BMRQ under log-uniform step placement
  and DBMRQ averaged over its octave.
* :func:`DbmrqAtomsCdf` -- the exact two-atom law of DBMRQ at a fixed step,
  as a :class:`StepCdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .quantizers import (
    DomainError,
    QuantizerSpec,
    Scheme,
    _checked_window,
    _dyadic_level,
    _lattice_index,
    _window_cells,
    enumerate_cells,  # noqa: F401 - not called here; perfbench's traced run wraps it
)

__all__ = [
    "StepCdf",
    "BiasAlphaCdf",
    "TwoPowUnifCdf",
    "DbmrqAtomsCdf",
    "empirical_cell_cdf",
    "levy_distance",
    "renyi_rate",
    "scale_shift_rate",
    "count_levels",
    "output_entropy",
    "lp_error_exact",
    "lp_error_asymptotic",
]

LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class StepCdf:
    """A finitely supported size distribution: atoms at positive sizes."""

    breakpoints: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        ms = np.asarray(self.masses, dtype=np.float64)
        if bp.ndim != 1 or bp.shape != ms.shape or bp.size == 0:
            raise DomainError("breakpoints and masses must be matching 1-d arrays")
        if not np.isfinite(bp).all() or (bp <= 0.0).any():
            raise DomainError("breakpoints must be positive finite sizes")
        if (np.diff(bp) <= 0.0).any():
            raise DomainError("breakpoints must be strictly increasing")
        if not np.isfinite(ms).all() or (ms < 0.0).any():
            raise DomainError("masses must be nonnegative")
        if abs(math.fsum(ms.tolist()) - 1.0) > 1e-12:
            raise DomainError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "masses", ms)
        cum = np.concatenate(([0.0], np.cumsum(ms)))
        object.__setattr__(self, "_cum", cum)

    def cdf(self, x) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=np.float64), side="right")
        return self._cum[idx]

    def cdf_left(self, x) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=np.float64), side="left")
        return self._cum[idx]

    def kinks(self) -> np.ndarray:
        return self.breakpoints

    def scaled(self, factor: float) -> "StepCdf":
        """The cdf of the sizes multiplied by ``factor > 0``.

        Distinct sizes may round to the same float after scaling; such
        atoms are merged.
        """
        if not (factor > 0.0 and math.isfinite(factor)):
            raise DomainError("scale factor must be positive and finite")
        bp, inverse = np.unique(self.breakpoints * factor, return_inverse=True)
        ms = np.zeros(bp.size)
        np.add.at(ms, inverse, self.masses)
        return StepCdf(bp, ms)


@dataclass(frozen=True)
class BiasAlphaCdf:
    """Stationary relative-size law of the biased tree with ratio ``alpha``."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0) or not math.isfinite(self.alpha):
            raise DomainError("alpha must lie in (0, 1)")

    @property
    def split_entropy(self) -> float:
        a = self.alpha
        return -a * math.log2(a) - (1.0 - a) * math.log2(1.0 - a)

    @property
    def support(self) -> Tuple[float, float]:
        return min(self.alpha, 1.0 - self.alpha), 1.0

    def cdf(self, x) -> np.ndarray:
        a = self.alpha
        h = self.split_entropy
        x = np.asarray(x, dtype=np.float64)
        c = np.minimum(np.maximum(x, 1e-300), 1.0)
        val = (
            a * np.maximum(np.log2(c / a), 0.0)
            + (1.0 - a) * np.maximum(np.log2(c / (1.0 - a)), 0.0)
        ) / h
        return np.where(x <= 0.0, 0.0, np.minimum(val, 1.0))

    cdf_left = cdf  # continuous

    def pdf(self, x) -> np.ndarray:
        a = self.alpha
        h = self.split_entropy
        x = np.asarray(x, dtype=np.float64)
        safe = np.maximum(x, 1e-300)
        piece = a * ((a <= x) & (x < 1.0)) + (1.0 - a) * (((1.0 - a) <= x) & (x < 1.0))
        return (LOG2E / h) * piece / safe

    def kinks(self) -> np.ndarray:
        a = self.alpha
        return np.unique([min(a, 1.0 - a), max(a, 1.0 - a), 1.0])


@dataclass(frozen=True)
class TwoPowUnifCdf:
    """Law of ``2**U`` for ``U`` uniform on ``[-1, 0]``: F(x) = log2(x) + 1."""

    @property
    def support(self) -> Tuple[float, float]:
        return 0.5, 1.0

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        safe = np.maximum(x, 1e-300)
        return np.where(x <= 0.0, 0.0, np.clip(np.log2(safe) + 1.0, 0.0, 1.0))

    cdf_left = cdf

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        safe = np.maximum(x, 1e-300)
        return np.where((0.5 <= x) & (x < 1.0), LOG2E / safe, 0.0)

    def kinks(self) -> np.ndarray:
        return np.array([0.5, 1.0])


def DbmrqAtomsCdf(s: float) -> StepCdf:  # noqa: N802 - the law's long-standing name
    """Exact two-atom size law of DBMRQ at step bound ``s``: atoms
    ``2**m <= s < 2**(m+1)`` with masses ``u - 1`` and ``2 - u`` for
    ``u = 2**(m+1)/s``, one atom at ``s`` when ``s`` is a power of two."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError("step bound must be positive and finite")
    m = math.frexp(s)[1] - 1
    small, big = math.ldexp(1.0, m), math.ldexp(1.0, m + 1)
    u = big / s  # in (1, 2]
    if u >= 2.0:
        return StepCdf(np.array([small]), np.array([1.0]))
    return StepCdf(np.array([small, big]), np.array([u - 1.0, 2.0 - u]))


def _lattice_law(spec: QuantizerSpec, s: float) -> StepCdf:
    """Exact size law of a SIMPLE_UNIFORM, BMRQ or DBMRQ quantizer at step
    ``s``: one atom at ``s``, one at ``2**floor(log2 s)`` (the lower DBMRQ
    atom), or the two atoms of :func:`DbmrqAtomsCdf`."""
    law = DbmrqAtomsCdf(s)  # which also checks the step
    if spec.scheme is Scheme.DBMRQ:
        return law
    atom = s if spec.scheme is Scheme.SIMPLE_UNIFORM else law.breakpoints[0]
    return StepCdf(np.array([atom]), np.array([1.0]))


CdfLike = Union[StepCdf, BiasAlphaCdf, TwoPowUnifCdf]


# ---------------------------------------------------------------------------
# Empirical cdf


def _clipped_cells(
    spec: QuantizerSpec, s: float, x0: float, x1: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, level, clipped length) arrays over the window's pieces of
    positive length; a mirrored BBMRQ cell ``(a, x0]`` meets it in x0 only."""
    lo, hi, lvl = _window_cells(spec, s, x0, x1)
    clipped = np.minimum(hi, x1) - np.maximum(lo, x0)
    keep = clipped > 0.0
    return lo[keep], hi[keep], lvl[keep], clipped[keep]


def empirical_cell_cdf(spec: QuantizerSpec, s: float, x0: float, x1: float) -> StepCdf:
    """Length-weighted cdf of clipped cell sizes over the window ``[x0, x1]``.

    Boundary cells enter with their clipped length both as the size and as
    the weight, so the masses are ``length / (x1 - x0)``.  Equal sizes are
    aggregated as ``size * count``, which keeps the mass total within a few
    ulps of one no matter how many cells the window holds.
    """
    _, _, _, clipped = _clipped_cells(spec, s, x0, x1)
    sizes, counts = np.unique(clipped, return_counts=True)
    weights = sizes * counts / (x1 - x0)
    return StepCdf(sizes, weights)


# ---------------------------------------------------------------------------
# Levy metric


def _operand(F) -> CdfLike:
    if not (hasattr(F, "cdf") and hasattr(F, "cdf_left") and hasattr(F, "kinks")):
        raise DomainError(f"not a cdf object: {F!r}")
    return F


def levy_distance(F, G, tol: float = 1e-4) -> float:
    """Levy metric between two size cdfs, bisected to absolute accuracy tol.

    Feasibility of an offset eps is checked on a candidate grid: every kink
    of either cdf, each kink shifted by +-eps, one-ulp left neighbours of all
    of those (to capture one-sided limits at jumps), and a uniform grid over
    the joint support for the continuous parts.  For step cdfs the candidate
    set is exhaustive and the check exact, however many atoms they have.
    """
    f = _operand(F)
    g = _operand(G)
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    kf = np.asarray(f.kinks(), dtype=np.float64)
    kg = np.asarray(g.kinks(), dtype=np.float64)
    lo_x = min(kf[0], kg[0])
    hi_x = max(kf[-1], kg[-1])
    pad = 0.0625 * (hi_x - lo_x) + 2.0 * tol
    grid = np.linspace(lo_x - pad, hi_x + pad, 20_001)

    def feasible(eps: float) -> bool:
        xs = np.concatenate((grid, kf, kg, kf - eps, kf + eps, kg - eps, kg + eps))
        xs = np.concatenate((xs, np.nextafter(xs, -np.inf)))
        gv = g.cdf(xs)
        fv_hi = f.cdf(xs + eps)
        if (gv - fv_hi - eps > 1e-12).any():
            return False
        fv_lo = f.cdf(xs - eps)
        return not (fv_lo - eps - gv > 1e-12).any()

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


# ---------------------------------------------------------------------------
# Renyi rates


def _renyi_from_atoms(sizes: np.ndarray, masses: np.ndarray, eta: float) -> float:
    if eta == 1.0:
        return float(-(masses @ np.log2(sizes)))
    d = eta - 1.0
    # work with integral - 1 = sum m * expm1(d * ln gamma); this keeps the
    # log2(integral)/(1 - eta) quotient accurate as eta approaches 1
    with np.errstate(over="ignore"):
        im1 = float(masses @ np.expm1(d * np.log(sizes)))
    if math.isinf(im1):
        return math.inf
    if im1 <= -1.0:
        raise DomainError("degenerate size distribution")
    return -math.log1p(im1) * LOG2E / d


def renyi_rate(F: CdfLike, eta: float) -> float:
    """Order-``eta`` Renyi entropy rate of the size distribution ``F``.

    This is the rate of the quantizer output when the sizes are measured at
    step 1; see :func:`scale_shift_rate` for other steps.  ``eta = 0`` gives
    the log level count rate, ``eta = 1`` the Shannon rate (handled as the
    analytic limit), general ``eta`` interpolates.  A divergent integral is
    reported as ``math.inf``.

    The formulas have a removable singularity at ``eta = 1``; values within
    1e-8 of 1 are evaluated as the limit, since closer than that the direct
    expression loses its accuracy to cancellation.
    """
    if not (isinstance(eta, (int, float)) and math.isfinite(eta)) or eta < 0.0:
        raise DomainError(f"eta must be a nonnegative finite real, got {eta!r}")
    eta = float(eta)
    if abs(eta - 1.0) < 1e-8:
        eta = 1.0
    if isinstance(F, StepCdf):
        return _renyi_from_atoms(F.breakpoints, F.masses, eta)
    if isinstance(F, TwoPowUnifCdf):
        if eta == 1.0:
            return 0.5
        d = eta - 1.0
        # integral of gamma^(eta-1) dF = log2(e) * (1 - 2^(-d)) / d
        im1 = LOG2E * (-math.expm1(-d * math.log(2.0)) / d) - 1.0
        return -math.log1p(im1) * LOG2E / d
    if isinstance(F, BiasAlphaCdf):
        a = F.alpha
        h = F.split_entropy
        if eta == 0.0:
            return math.log2(LOG2E / h)
        if eta == 1.0:
            return (a * math.log2(a) ** 2 + (1.0 - a) * math.log2(1.0 - a) ** 2) / (2.0 * h)
        d = eta - 1.0
        # integral = (log2 e / H) * (a (1 - a^d) + (1-a)(1 - (1-a)^d)) / d
        t = (-a * math.expm1(d * math.log(a)) - (1.0 - a) * math.expm1(d * math.log1p(-a))) / d
        im1 = LOG2E / h * t - 1.0
        return -math.log1p(im1) * LOG2E / d
    raise DomainError(f"unsupported cdf object: {F!r}")


def scale_shift_rate(rate_at_unit_step: float, s: float) -> float:
    """Renyi rate at step ``s`` from the rate at step 1: subtract log2(s)."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError("step bound must be positive and finite")
    return rate_at_unit_step - math.log2(s)


# ---------------------------------------------------------------------------
# Level counts, entropy, L^p error


def count_levels(spec: QuantizerSpec, s: float, x0: float, x1: float) -> int:
    """Number of distinct output levels on the window ``[x0, x1)``.

    These are the cells :func:`~mrquant.quantizers.enumerate_cells` lists.
    The lattice schemes count them by index arithmetic (see
    :func:`_lattice_count`); BBMRQ, and a lattice whose spacing is too fine
    for every cell to hold a float, count the vector cell rule's listing.
    The test suite checks the count against the level-count integral
    ``(x1 - x0) * integral of 1/size dF`` evaluated in exact rational
    arithmetic.
    """
    s, x0, x1, _ = _checked_window(spec, s, x0, x1)
    if spec.scheme is not Scheme.BBMRQ:
        n = _lattice_count(spec, s, x0, x1)
        if n is not None:
            return n
    return _window_cells(spec, s, x0, x1)[0].size


def _lattice_count(spec: QuantizerSpec, s: float, x0: float, x1: float) -> Optional[int]:
    """Cells of a SIMPLE_UNIFORM, BMRQ or DBMRQ window from the lattice
    indices of its first float and its last, or None where the listing must
    count them: where the spacing (``s``, or ``2**m`` for the dyadic
    schemes) is within 2 ulps of the window's largest magnitude, so that
    cells can hold no float and the walk of
    :func:`~mrquant.quantizers.enumerate_cells` skips them, or where a cell
    within four spacings of the window may leave float64.

    Elsewhere the computed cell ends rise strictly with the index, so the
    walk meets every index from the first to the last.  A DBMRQ pair of
    level-m cells that :func:`~mrquant.quantizers._dyadic_level` merges is
    one cell, so each merged pair wholly inside that range counts once.  The
    rule sees the pairs' exact starts, so no pair index underflows to -0.0.
    """
    m = math.frexp(s)[1] - 1
    w = s if spec.scheme is Scheme.SIMPLE_UNIFORM else math.ldexp(1.0, m)
    top = max(abs(x0), abs(x1))
    if w <= 2.0 * math.ulp(top) or top + 4.0 * w >= 2.0 ** 1023:
        return None
    j0 = _lattice_index(w, x0)[0]
    j1 = _lattice_index(w, math.nextafter(x1, -math.inf))[0]
    if spec.scheme is not Scheme.DBMRQ:
        return j1 - j0 + 1
    pairs = np.arange((j0 + 1) // 2, (j1 + 1) // 2, dtype=np.float64)
    levels = _dyadic_level(spec, np.full(pairs.size, s), np.ldexp(pairs, m + 1))
    return j1 - j0 + 1 - int(np.count_nonzero(levels > m))


def output_entropy(spec: QuantizerSpec, s: float, x0: float, x1: float) -> float:
    """Shannon entropy (bits) of the quantizer output for uniform input."""
    _, _, _, clipped = _clipped_cells(spec, s, x0, x1)
    w = clipped / (x1 - x0)
    return float(-(w @ np.log2(w)))


def lp_error_exact(spec: QuantizerSpec, s: float, x0: float, x1: float, p: float) -> float:
    """Exact E|X - Q(X)|^p for X uniform on [x0, x1], by per-cell integrals.

    Interior cells contribute (size/2)^p * size / (p+1); boundary cells use
    the antiderivative of |x - level|^p over the clipped range, so the value
    is exact up to float rounding even when the window cuts cells.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    p = float(p)
    lo, hi, lvl, clipped = _clipped_cells(spec, s, x0, x1)
    a = np.maximum(lo, x0) - lvl
    b = np.minimum(hi, x1) - lvl

    def anti(u: np.ndarray) -> np.ndarray:
        return np.copysign(np.abs(u) ** (p + 1.0), u) / (p + 1.0)

    contrib = anti(b) - anti(a)
    return float(np.sum(contrib) / (x1 - x0))


def lp_error_asymptotic(F: CdfLike, p: float) -> float:
    """Asymptotic E|X - Q(X)|^p per unit step from the size cdf at step 1:
    2**(-p * (R_{p+1} + 1)) / (p + 1)."""
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    rate = renyi_rate(F, p + 1.0)
    if math.isinf(rate):
        raise DomainError("divergent Renyi rate; no asymptotic error")
    return 2.0 ** (-p * (rate + 1.0)) / (p + 1.0)
