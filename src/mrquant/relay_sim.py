"""Relay chains: hop-by-hop requantization under per-link capacities.

A chain of nodes forwards one number; the link out of node i can carry only
k_i distinct values, so the node requantizes its incoming value whenever the
outgoing link forces a coarser step than anything applied so far.  For the
requantizable families the whole chain collapses to a single quantization at
the coarsest step; the plain uniform quantizer lacks that property, which is
what the error comparison and the adversarial capacity experiment quantify.
The error of a chain is averaged over a fixed midpoint grid on the domain,
from the cells of the chain's first hop, whose output every later hop
requantizes; a requantizable chain is that one hop at its coarsest step.

Every scheme turns a capacity into a step by one rule, a step with at most
that many levels over the domain and more at the float below, found by the
one search of :func:`capacity_to_step`: a bracket per scheme, a bisection
down to adjacent floats, and a check by the count of a step from a proof.
A closed form such as width/k holds only on domains aligned with the
lattice and overshoots k elsewhere.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cdf_analysis import _lattice_count, count_levels
from .quantizers import (
    DomainError,
    QuantizerSpec,
    Scheme,
    _dither_fraction,
    _first_float,
    _integer,
    _lattice_index,
    _listing_bounds,
    _merges,
    _real,
    _split,
    _window_args,
    _window_cells,
    quantize,
    quantize_many,
)

__all__ = [
    "DEFAULT_GRID_SIZE",
    "CapacityPolicy",
    "RelayChainConfig",
    "RelayTrace",
    "capacity_to_step",
    "run_chain",
    "average_chain_error",
    "adversarial_ratio",
]

# Power of two, about 1.3e5: every dyadic cell then contains an even number
# of midpoint-offset grid points, so plateau averages like s/4 come out
# exact instead of off by one part in (points per cell)^2.
DEFAULT_GRID_SIZE = 1 << 17


class CapacityPolicy(Enum):
    """How a link capacity k becomes a step bound: always by the verified
    level-count search of :func:`capacity_to_step`.

    Kept, with its one member, for callers that read
    :attr:`RelayChainConfig.resolved_policy`.
    """

    LEVEL_COUNT_SEARCH = "LevelCountSearch"


@dataclass(frozen=True)
class RelayChainConfig:
    """A relay chain: per-link capacities, the value domain, the scheme."""

    capacities: Tuple[int, ...]
    spec: QuantizerSpec
    domain: Tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        caps = tuple(_integer(k, "capacities entry", 2) for k in self.capacities)
        if not caps:
            raise DomainError("capacities must be nonempty")
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "domain", _domain(self.domain))

    @property
    def resolved_policy(self) -> CapacityPolicy:
        """Always ``LEVEL_COUNT_SEARCH``, the one capacity rule; kept for
        callers that still read it."""
        return CapacityPolicy.LEVEL_COUNT_SEARCH


@dataclass(frozen=True)
class RelayTrace:
    """What one value experienced along the chain."""

    input: float
    outputs: Tuple[float, ...]
    final_abs_error: float
    steps_used: Tuple[float, ...]


def _domain(domain: Tuple[float, float]) -> Tuple[float, float]:
    """The ends of ``domain`` as floats, or DomainError unless it is a pair of
    reals ``x0 < x1`` whose distance is finite in float64."""
    try:
        x0, x1 = domain
    except (TypeError, ValueError):
        raise DomainError(f"domain must be a pair (x0, x1), got {domain!r}") from None
    x0, x1 = _real(x0, "domain x0"), _real(x1, "domain x1")
    if not (x0 < x1 and x1 - x0 < math.inf):
        raise DomainError(f"domain must be an interval x0 < x1 of finite width, got {domain!r}")
    return x0, x1


def capacity_to_step(
    spec: QuantizerSpec, k: int, domain: Tuple[float, float] = (0.0, 1.0)
) -> float:
    """Step bound for a link that can carry k distinct values: at most k
    levels on the domain at the step, more at the float below.

    One search: a bracket ``(lo, hi]`` per scheme and one bisection to
    adjacent floats.  A step a proof gives is checked by ``count_levels``
    on both sides; a bisection on the count needs no check.  For uniform,
    ``lo`` is width/(k+1) halved until it needs more than k cells, and
    ``hi`` the width, halved near 2**1023 while a cell at it would leave
    float64.  The step need not be the smallest with at most k levels: on
    (0.35, 1.35) the count rises from 9 to 10 as the step passes 0.11667.

    BMRQ and DBMRQ scan powers of two from the one at or below width/(k+1)
    (halved while it needs at most k cells) to the first, ``2**(m+1)``,
    with at most k levels.  BMRQ's cells at a step s are the dyadic cells
    of length ``2**floor(log2 s)``, so its count is constant on each octave
    and ``2**(m+1)`` is the answer.  DBMRQ's count on ``[2**m, 2**(m+1))``
    is the cells at ``2**m`` less the pairs of them wholly inside the window
    whose dithered fraction lies below the fill ``2 - 2**(m+1)/s``, which
    rises with s.  So with r = cells - k, the answer is the first float at
    which the pair of the r-th smallest fraction merges, a bisection on
    that pair; where ``_lattice_count`` cannot count the window, DBMRQ
    bisects the octave on the count.  A step above the width is refused.

    For BBMRQ the count can change only at a cell's float length, so the
    search refines the partition at step width, longest cells first, to the
    first length L whose cells would exceed k just below it, and returns L.
    It raises DomainError where a split it needs cannot be resolved in
    float64, and where the partition at width/(k+1) would exceed the cell
    budget, or k + 1 has no float64 value.
    """
    k = _integer(k, "capacity k", 2)
    if k > sys.float_info.max:  # the search divides by k + 1 in float64
        raise DomainError(f"capacity k must be an integer in [2, {sys.float_info.max!r}], "
                          f"got one of {k.bit_length()} bits")
    return _searched_step(spec, k, *_domain(domain))


@lru_cache(maxsize=1024)
def _searched_step(spec: QuantizerSpec, k: int, x0: float, x1: float) -> float:
    width, proved = x1 - x0, spec.scheme is Scheme.BBMRQ  # a step from a proof is checked

    def fits(s: float) -> bool:
        return count_levels(spec, s, x0, x1) <= k

    if spec.scheme is Scheme.BBMRQ:
        lo = hi = _refined_step(spec, k, x0, x1)
    elif spec.scheme is Scheme.SIMPLE_UNIFORM:
        lo, hi, covered = width / (k + 1), width, None
        while covered is None and hi > lo:
            try:
                covered = fits(hi)
            except DomainError:  # near 2**1023 a cell at the top may leave float64
                hi *= 0.5
        if not covered:
            raise _uncoverable(spec, k, x0, x1)
        while fits(lo):
            lo *= 0.5
    else:
        lo = math.ldexp(1.0, math.frexp(width / (k + 1))[1] - 1)
        while fits(lo):
            lo *= 0.5
        while not fits(hi := 2.0 * lo):
            lo = hi
        if spec.scheme is Scheme.BMRQ:
            lo = hi
        elif (counted := _lattice_count(spec, lo, x0, x1)) is not None:  # no pair merges at lo
            j0, m, r = _lattice_index(lo, x0)[0], math.frexp(lo)[1] - 1, counted[0] - k
            # r of the pairs wholly inside must merge: the step is where the r-th by fraction does
            pairs = np.arange((j0 + 1) // 2, (j0 + counted[0]) // 2, dtype=np.float64)
            pair = float(pairs[np.argpartition(_dither_fraction(spec, pairs), r - 1)[r - 1]])
            proved = True

            def fits(s: float) -> bool:
                return _merges(spec, s, m, pair, math)

    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    below = math.nextafter(hi, -math.inf)
    if proved and not count_levels(spec, hi, x0, x1) <= k < count_levels(spec, below, x0, x1):
        raise DomainError("level-count search failed to verify its result")  # pragma: no cover
    if hi > width:
        raise _uncoverable(spec, k, x0, x1)
    return hi


def _uncoverable(spec: QuantizerSpec, k: int, x0: float, x1: float) -> DomainError:
    return DomainError(f"capacity {k} cannot cover [{x0}, {x1}) with {spec.scheme.value}")


def _refined_step(spec: QuantizerSpec, k: int, x0: float, x1: float) -> float:
    """The BBMRQ search: refine the partition at step ``width``.

    The cells at a step are the first nodes on each root path no longer than
    it, so a step just below the longest cell length L splits every node of
    length L, and nothing else.  Nodes are kept in a heap by float length,
    in positive coordinates with the side of zero they lie on; a child the
    walk of :func:`~mrquant.quantizers.enumerate_cells` would not list is
    dropped.  Splitting stops at the first L whose split partition has more
    than k cells.

    It raises DomainError where a split it needs cannot be resolved, and,
    before any split, where the partition at ``width / (k + 1)`` would
    exceed the cell budget.
    """
    width = x1 - x0
    lo, hi, _ = _window_cells(spec, width, x0, x1)
    if lo.size > k:
        raise _uncoverable(spec, k, x0, x1)
    _window_args(spec, width / (k + 1), x0, x1)  # the cell budget, before any splitting
    pows, alpha = spec._powers, spec.alpha
    bounds = _listing_bounds(x0, x1)
    base = pows.largest_exponent_above(width) + 1  # the base leaf is [0, alpha**base)
    heap = [
        (a - b, a, b, 0, base) if a >= 0.0 else (a - b, -b, -a, 1, base)
        for a, b in zip(lo.tolist(), hi.tolist())
    ]
    heapq.heapify(heap)
    count = len(heap)
    while count <= k:
        longest = heap[0][2] - heap[0][1]
        todo = []
        while heap and heap[0][0] <= -longest:
            todo.append(heapq.heappop(heap))
        while todo:
            _, a, b, side, n = todo.pop()
            split = _split(pows, alpha, a, b, n)
            bottom, top = bounds[side]
            count -= 1
            for child in ((a - split, a, split, side, n + 1), (split - b, split, b, side, n)):
                if child[1] <= top and child[2] > bottom:
                    count += 1
                    if -child[0] >= longest:
                        todo.append(child)
                    else:
                        heapq.heappush(heap, child)
    return longest


def _chain_steps(cfg: RelayChainConfig) -> List[float]:
    return [capacity_to_step(cfg.spec, k, cfg.domain) for k in cfg.capacities]


def _applied_steps(steps: Sequence[float]) -> List[Optional[float]]:
    """Per hop, the step actually applied, or None for a pass-through hop.

    A node requantizes only when its link forces a strictly coarser step
    than anything applied upstream; an equal or finer link forwards the
    value unchanged.
    """
    out: List[Optional[float]] = []
    coarsest = 0.0
    for s in steps:
        if s > coarsest:
            out.append(s)
            coarsest = s
        else:
            out.append(None)
    return out


def _hops(cfg: RelayChainConfig) -> Tuple[float, ...]:
    """The steps a chain's output needs, ascending: the applied steps, or
    for a requantizable scheme the coarsest alone."""
    hops = tuple(s for s in _applied_steps(_chain_steps(cfg)) if s is not None)
    return hops if cfg.spec.scheme is Scheme.SIMPLE_UNIFORM else hops[-1:]


def run_chain(cfg: RelayChainConfig, x: float) -> RelayTrace:
    """Push one value through the chain, recording every hop's output."""
    x0, x1 = cfg.domain
    x = _real(x, "x")
    if not (x0 <= x < x1):
        raise DomainError(f"input {x!r} outside domain [{x0}, {x1})")
    steps = _chain_steps(cfg)
    y = x
    outputs = []
    for s in _applied_steps(steps):
        if s is not None:
            y = quantize(cfg.spec, s, y)
        outputs.append(y)
    return RelayTrace(
        input=x,
        outputs=tuple(outputs),
        final_abs_error=abs(outputs[-1] - x),
        steps_used=tuple(steps),
    )


@lru_cache(maxsize=8)
def _midpoint_grid(x0: float, x1: float, grid_size: int) -> np.ndarray:
    """The read-only grid ``x0 + (i + 1/2) * (x1 - x0) / grid_size``."""
    xs = x0 + (np.arange(grid_size) + 0.5) * ((x1 - x0) / grid_size)
    xs.flags.writeable = False
    return xs


def average_chain_error(
    cfg: RelayChainConfig, p: float, grid_size: int = DEFAULT_GRID_SIZE
) -> float:
    """Mean of |final output - x|^p over the points x of the midpoint grid
    ``x0 + (i + 1/2) * width / grid_size`` on the domain.

    A requantizable chain's output is, by the refinement identity, bit for
    bit ``quantize`` at its coarsest step, so its cells are listed at that
    step alone; a uniform chain's at its first hop, whose levels the later
    hops requantize (see :func:`_hops`).  Each cell owns the grid points from
    the first at or above its first float (see
    :func:`~mrquant.quantizers._first_float`), and each point gets the final
    output of its cell.  The library always uses the default grid;
    ``grid_size`` stays for callers that check against a smaller one.
    """
    p, grid_size = _real(p, "p", "(0, inf)"), _integer(grid_size, "grid_size", 1)
    xs = _midpoint_grid(*cfg.domain, grid_size)
    first, *later = _hops(cfg)
    lo, _, levels = _window_cells(cfg.spec, first, xs[0], math.nextafter(xs[-1], math.inf))
    starts = np.searchsorted(xs, _first_float(cfg.spec, lo))
    for s in later:
        levels = quantize_many(cfg.spec, s, levels)
    ys = np.repeat(levels, np.diff(starts, append=grid_size))
    ys -= xs  # in place: the one buffer as long as the grid
    np.abs(ys, out=ys)
    ys **= p
    return float(ys.mean())


def _shaved(cfg: RelayChainConfig, budget: int) -> List[RelayChainConfig]:
    """The chains an adversary with ``budget`` tries: every way to take a
    total of 1 to ``budget`` levels off the links that may be shaved, never
    below 2 per link, in the lexicographic order of the decrement vectors.

    The vectors grow a link at a time, and no prefix's sum passes the
    budget.  A uniform chain may shave any link.  A requantizable chain may
    shave only its smallest link, and that loses nothing: its output is
    one quantization at ``step(min k)``, and as its partitions are nested,
    ``count_levels`` is nonincreasing in s, so ``step(k)`` does not rise
    with k.  So taking ``d_i`` off link i gives the chain of ``min_i(k_i -
    d_i)``, which lies in ``[max(2, k_min - budget), k_min]``, and shaving
    the smallest link alone reaches every value there.  Of equal smallest
    links the last is shaved, as the order of all vectors tries it first;
    a larger link shaved to the same least capacity ties with it, and is
    not tried.
    """
    caps = cfg.capacities
    smallest = len(caps) - 1 - caps[::-1].index(min(caps))
    uniform = cfg.spec.scheme is Scheme.SIMPLE_UNIFORM
    vectors: List[Tuple[int, ...]] = [()]
    for i, k in enumerate(caps):
        most = min(budget, k - 2) if uniform or i == smallest else 0
        vectors = [d + (e,) for d in vectors for e in range(min(most, budget - sum(d)) + 1)]
    return [replace(cfg, capacities=tuple(k - e for k, e in zip(caps, d))) for d in vectors if any(d)]


def adversarial_ratio(
    cfg: RelayChainConfig, budget: int, p: float = 1.0
) -> Tuple[RelayChainConfig, float]:
    """Worst error inflation an adversary gets by shaving link capacities.

    Tries every chain that decrementing the capacities by a total of at
    most ``budget`` (never below 2 per link) can give, up to chains of
    equal error (:func:`_shaved`), and returns the perturbed config
    maximizing the ratio of average errors, with the ratio.  Budget zero returns the
    original config and 1.0.
    """
    budget, p = _integer(budget, "budget", 0), _real(p, "p", "(0, inf)")
    if budget == 0:
        return cfg, 1.0
    base = average_chain_error(cfg, p)
    if base == 0.0:
        raise DomainError("baseline error is zero on the evaluation grid")
    # Chains with the same hops have the same error: one evaluation each.
    errors = {_hops(cfg): base}
    worst_cfg = cfg
    worst_ratio = 1.0
    for cand in _shaved(cfg, budget):
        key = _hops(cand)
        if key not in errors:
            errors[key] = average_chain_error(cand, p)
        ratio = errors[key] / base
        if ratio > worst_ratio:
            worst_cfg = cand
            worst_ratio = ratio
    return worst_cfg, worst_ratio
