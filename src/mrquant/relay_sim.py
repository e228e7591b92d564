"""Relay chains: hop-by-hop requantization under per-link capacities.

A chain of nodes forwards one number; the link out of node i can carry only
k_i distinct values, so the node requantizes its incoming value whenever the
outgoing link forces a coarser step than anything applied so far.  For the
requantizable families the whole chain collapses to a single quantization at
the coarsest step; the plain uniform quantizer lacks that property, which is
what the error comparison and the adversarial capacity experiment quantify.

Every scheme turns a capacity into a step by one rule, the verified
level-count search of :func:`capacity_to_step`; a closed form such as width/k
holds only on domains aligned with the lattice and overshoots k elsewhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cdf_analysis import count_levels
from .quantizers import DomainError, QuantizerSpec, quantize, quantize_many

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
        caps = tuple(self.capacities)
        object.__setattr__(self, "capacities", caps)
        if not caps:
            raise DomainError("capacities must be nonempty")
        for k in caps:
            if not isinstance(k, int) or isinstance(k, bool) or k < 2:
                raise DomainError(f"capacities must be integers >= 2, got {k!r}")
        dom = (float(self.domain[0]), float(self.domain[1]))
        object.__setattr__(self, "domain", dom)
        if not (math.isfinite(dom[0]) and math.isfinite(dom[1]) and dom[0] < dom[1]):
            raise DomainError(f"domain must be a finite interval, got {dom!r}")

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


def capacity_to_step(
    spec: QuantizerSpec, k: int, domain: Tuple[float, float] = (0.0, 1.0)
) -> float:
    """Step bound for a link that can carry k distinct values.

    60 bisection steps on (lo, width] locate a step whose level count over
    the domain is at most k while the bracket just below needs more; the
    count is verified before returning.  A full-width step needs the fewest
    cells the scheme can manage; ``lo`` starts at width/(k+1) and is halved
    until it needs more than k cells, since a cell may be longer than the
    step (merged DBMRQ cells reach twice it).  For the nested schemes the
    count only falls as the step grows, so this is the smallest such step.
    The uniform count need not: on (0.35, 1.35) it rises from 9 to 10 as
    the step passes about 0.11667, so there the result is a verified
    threshold, not a proven smallest step.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise DomainError(f"capacity must be an integer >= 2, got {k!r}")
    x0, x1 = float(domain[0]), float(domain[1])
    if not (math.isfinite(x0) and math.isfinite(x1) and x0 < x1):
        raise DomainError(f"domain must be a finite interval, got {domain!r}")
    return _searched_step(spec, k, x0, x1)


@lru_cache(maxsize=1024)
def _searched_step(spec: QuantizerSpec, k: int, x0: float, x1: float) -> float:
    width = x1 - x0
    lo = width / (k + 1)
    hi = width
    if count_levels(spec, hi, x0, x1) > k:
        raise DomainError(
            f"capacity {k} cannot cover [{x0}, {x1}) with {spec.scheme.value}"
        )
    while count_levels(spec, lo, x0, x1) <= k:
        lo *= 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count_levels(spec, mid, x0, x1) <= k:
            hi = mid
        else:
            lo = mid
    if count_levels(spec, hi, x0, x1) > k:  # pragma: no cover - guarded above
        raise DomainError("level-count search failed to verify its result")
    return hi


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


def run_chain(cfg: RelayChainConfig, x: float) -> RelayTrace:
    """Push one value through the chain, recording every hop's output."""
    x0, x1 = cfg.domain
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        raise DomainError(f"input must be a finite real, got {x!r}")
    if not (x0 <= x < x1):
        raise DomainError(f"input {x!r} outside domain [{x0}, {x1})")
    x = float(x)
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


def average_chain_error(
    cfg: RelayChainConfig, p: float, grid_size: int = DEFAULT_GRID_SIZE
) -> float:
    """Mean of |final output - x|^p over the domain, on a deterministic
    midpoint-offset grid (no point ever sits on a cell boundary of any
    reasonable step).  The library always uses the default grid; ``grid_size``
    stays for callers that check against a smaller one."""
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 1:
        raise DomainError(f"grid_size must be a positive integer, got {grid_size!r}")
    x0, x1 = cfg.domain
    xs = x0 + (np.arange(grid_size) + 0.5) * ((x1 - x0) / grid_size)
    ys = xs.copy()
    for s in _applied_steps(_chain_steps(cfg)):
        if s is not None:
            ys = quantize_many(cfg.spec, s, ys)
    return float(np.mean(np.abs(ys - xs) ** p))


def _decrement_vectors(caps: Tuple[int, ...], budget: int):
    ranges = [range(min(budget, k - 2) + 1) for k in caps]
    for d in itertools.product(*ranges):
        if 0 < sum(d) <= budget:
            yield d


def adversarial_ratio(
    cfg: RelayChainConfig, budget: int, p: float = 1.0
) -> Tuple[RelayChainConfig, float]:
    """Worst error inflation an adversary gets by shaving link capacities.

    Exhaustively tries every way to decrement the capacities by a total of
    at most ``budget`` (never below 2 per link) and returns the perturbed
    config maximizing the ratio of average errors, with the ratio.  Budget
    zero returns the original config and 1.0.
    """
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise DomainError(f"budget must be a nonnegative integer, got {budget!r}")
    if budget == 0:
        return cfg, 1.0
    base = average_chain_error(cfg, p)
    if base == 0.0:
        raise DomainError("baseline error is zero on the evaluation grid")
    worst_cfg = cfg
    worst_ratio = 1.0
    for dec in _decrement_vectors(cfg.capacities, budget):
        caps = tuple(k - d for k, d in zip(cfg.capacities, dec))
        cand = replace(cfg, capacities=caps)
        ratio = average_chain_error(cand, p) / base
        if ratio > worst_ratio:
            worst_cfg = cand
            worst_ratio = ratio
    return worst_cfg, worst_ratio
