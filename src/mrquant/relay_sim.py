"""Relay chains: hop-by-hop requantization under per-link capacities.

A chain of nodes forwards one number; the link out of node i can carry only
k_i distinct values, so the node requantizes its incoming value whenever the
outgoing link forces a coarser step than anything applied so far.  For the
requantizable families the whole chain collapses to a single quantization at
the coarsest step; the plain uniform quantizer lacks that property, which is
what the error comparison and the adversarial capacity experiment quantify.
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
from .quantizers import DomainError, QuantizerSpec, Scheme, quantize, quantize_many

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
    """How a link capacity k becomes a step bound.

    ``STEP_FROM_CAPACITY`` is the closed-form rule (width/k for the uniform
    scheme, width * 2^-floor(log2 k) for the dyadic one) and exists only for
    those two.  ``LEVEL_COUNT_SEARCH`` finds the smallest step whose level
    count over the domain fits in k by bisection and works for every scheme.
    """

    STEP_FROM_CAPACITY = "StepFromCapacity"
    LEVEL_COUNT_SEARCH = "LevelCountSearch"


def _default_policy(scheme: Scheme) -> CapacityPolicy:
    if scheme in (Scheme.SIMPLE_UNIFORM, Scheme.BMRQ):
        return CapacityPolicy.STEP_FROM_CAPACITY
    return CapacityPolicy.LEVEL_COUNT_SEARCH


@dataclass(frozen=True)
class RelayChainConfig:
    """A relay chain: per-link capacities, the value domain, the scheme."""

    capacities: Tuple[int, ...]
    spec: QuantizerSpec
    domain: Tuple[float, float] = (0.0, 1.0)
    policy: Optional[CapacityPolicy] = None

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
        if self.policy is not None and not isinstance(self.policy, CapacityPolicy):
            raise DomainError(f"unknown policy {self.policy!r}")

    @property
    def resolved_policy(self) -> CapacityPolicy:
        if self.policy is not None:
            return self.policy
        return _default_policy(self.spec.scheme)


@dataclass(frozen=True)
class RelayTrace:
    """What one value experienced along the chain."""

    input: float
    outputs: Tuple[float, ...]
    final_abs_error: float
    steps_used: Tuple[float, ...]


def capacity_to_step(
    spec: QuantizerSpec,
    k: int,
    domain: Tuple[float, float] = (0.0, 1.0),
    policy: Optional[CapacityPolicy] = None,
) -> float:
    """Step bound for a link that can carry k distinct values.

    Under ``LEVEL_COUNT_SEARCH`` this is the smallest step whose cell count
    over the domain is at most k, located by 60 bisection steps on
    (lo, width] and verified before returning.  A full-width step needs the
    fewest cells the scheme can manage; ``lo`` starts at width/(k+1) and is
    halved until it needs more than k cells, since a cell may be longer than
    the step (merged DBMRQ cells reach twice it).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise DomainError(f"capacity must be an integer >= 2, got {k!r}")
    x0, x1 = float(domain[0]), float(domain[1])
    if not (math.isfinite(x0) and math.isfinite(x1) and x0 < x1):
        raise DomainError(f"domain must be a finite interval, got {domain!r}")
    width = x1 - x0
    if policy is None:
        policy = _default_policy(spec.scheme)
    if policy is CapacityPolicy.STEP_FROM_CAPACITY:
        if spec.scheme is Scheme.SIMPLE_UNIFORM:
            return width / k
        if spec.scheme is Scheme.BMRQ:
            return width * 2.0 ** -(k.bit_length() - 1)
        raise DomainError(
            f"no closed-form capacity rule for {spec.scheme.value}; "
            "use LEVEL_COUNT_SEARCH"
        )
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
    return [
        capacity_to_step(cfg.spec, k, cfg.domain, cfg.resolved_policy)
        for k in cfg.capacities
    ]


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
    cfg: RelayChainConfig,
    p: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    sample_seed: Optional[int] = None,
) -> float:
    """Mean of |final output - x|^p over the domain.

    Deterministic midpoint-offset grid by default (no point ever sits on a
    cell boundary of any reasonable step); pass ``sample_seed`` to use
    seeded uniform sampling instead.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 1:
        raise DomainError(f"grid_size must be a positive integer, got {grid_size!r}")
    x0, x1 = cfg.domain
    if sample_seed is None:
        xs = x0 + (np.arange(grid_size) + 0.5) * ((x1 - x0) / grid_size)
    else:
        rng = np.random.default_rng(sample_seed)
        xs = rng.uniform(x0, x1, grid_size)
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
    cfg: RelayChainConfig,
    budget: int,
    p: float = 1.0,
    grid_size: int = DEFAULT_GRID_SIZE,
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
    base = average_chain_error(cfg, p, grid_size)
    if base == 0.0:
        raise DomainError("baseline error is zero on the evaluation grid")
    worst_cfg = cfg
    worst_ratio = 1.0
    for dec in _decrement_vectors(cfg.capacities, budget):
        caps = tuple(k - d for k, d in zip(cfg.capacities, dec))
        cand = replace(cfg, capacities=caps)
        ratio = average_chain_error(cand, p, grid_size) / base
        if ratio > worst_ratio:
            worst_cfg = cand
            worst_ratio = ratio
    return worst_cfg, worst_ratio
