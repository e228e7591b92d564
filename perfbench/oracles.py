"""Reference computations the benchmark checks the program's outputs against.

Each one is computed apart from the code path it checks:

* :func:`walk_cells` counts levels by stepping :func:`mrquant.cell_of` from
  one cell to the next, instead of the enumerator behind ``count_levels``.
* :func:`first_crossing_law` is the exact law of the renewal walk's
  overshoot, by dynamic programming over the walk's states, with no
  sampling; the Monte Carlo oracle in ``tradeoff`` must land within its
  sampling error of it.
* :func:`collapsed_chain_error` is the grid error of a multi-resolution
  relay chain in closed form: the chain equals one quantization at its
  coarsest step, and the grid points inside one cell form an arithmetic
  progression, so their summed distance to the level is two arithmetic
  series.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from mrquant import Cell, QuantizerSpec, cell_of


def walk_cells(spec: QuantizerSpec, s: float, x0: float, x1: float) -> Iterator[Cell]:
    """Cells meeting ``[x0, x1)`` in ascending order, found one at a time.

    The next cell is the one holding the current cell's upper end.  Mirrored
    biased-tree cells own their upper end (they are ``(lo, hi]``), so there
    the walk steps one ulp further.
    """
    x = x0
    while True:
        cell = cell_of(spec, s, x)
        yield cell
        x = cell.hi
        if x < x1 and cell_of(spec, s, x).lo == cell.lo:
            x = math.nextafter(x, math.inf)
        if x >= x1:
            return


def walk_count(spec: QuantizerSpec, s: float, x0: float, x1: float) -> int:
    """Number of levels on ``[x0, x1)``, counted by :func:`walk_cells`."""
    return sum(1 for _ in walk_cells(spec, s, x0, x1))


def first_crossing_law(alpha: float, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact law of ``2**-(overshoot)`` when the split walk first crosses
    ``horizon``, as ascending (sizes, masses).

    The walk steps ``-log2(alpha)`` with probability alpha and
    ``-log2(1 - alpha)`` otherwise.  Steps are positive, so a walk that has
    taken i short and j long steps and still sits below the horizon never
    crossed it, and reached that state with probability
    ``C(i + j, i) alpha**i (1 - alpha)**j``.  Each such state sends its mass
    across the horizon through whichever of its two steps crosses.
    """
    la = -math.log2(alpha)
    lb = -math.log2(1.0 - alpha)
    atoms: dict = {}
    i = 0
    while i * la < horizon:
        j = 0
        while i * la + j * lb < horizon:
            here = i * la + j * lb
            prob = math.comb(i + j, i) * alpha**i * (1.0 - alpha) ** j
            for step, p_step in ((la, alpha), (lb, 1.0 - alpha)):
                if here + step >= horizon:
                    size = 2.0 ** -(here + step - horizon)
                    atoms[size] = atoms.get(size, 0.0) + prob * p_step
            j += 1
        i += 1
    sizes = np.array(sorted(atoms))
    return sizes, np.array([atoms[k] for k in sizes.tolist()])


def collapsed_chain_error(
    spec: QuantizerSpec, s: float, domain: Tuple[float, float], grid_size: int
) -> float:
    """Mean ``|Q_s(x) - x|`` over the midpoint grid on ``domain``.

    The grid is ``x0 + (i + 1/2) (x1 - x0) / n``, the one the relay
    simulator averages over.  Membership of grid points in a cell is exact
    (a search on the grid itself); only the sums are closed form.
    """
    x0, x1 = domain
    xs = x0 + (np.arange(grid_size) + 0.5) * ((x1 - x0) / grid_size)
    total = 0.0
    for cell in walk_cells(spec, s, x0, x1):
        a, q, b = np.searchsorted(xs, [cell.lo, cell.level, cell.hi]).tolist()
        c = cell.level
        if q > a:  # points a .. q-1 lie below the level
            total += (q - a) * (c - 0.5 * (xs[a] + xs[q - 1]))
        if b > q:  # points q .. b-1 lie at or above it
            total += (b - q) * (0.5 * (xs[q] + xs[b - 1]) - c)
    return total / grid_size


def decrement_vectors(caps: Tuple[int, ...], budget: int) -> List[Tuple[int, ...]]:
    """Every way to shave at most ``budget`` levels in total off the links,
    never below 2 per link: the capacity vectors an exhaustive adversary
    has to examine, counted from capacities and budget alone."""
    out: List[Tuple[int, ...]] = [()]
    for k in caps:
        out = [d + (e,) for d in out for e in range(min(budget, k - 2) + 1)]
    return [d for d in out if 0 < sum(d) <= budget]


def applied_steps(steps) -> Tuple:
    """Per hop, the step a node applies, or None when its link is no coarser
    than a step already applied upstream."""
    out = []
    coarsest = 0.0
    for s in steps:
        out.append(s if s > coarsest else None)
        coarsest = max(coarsest, s)
    return tuple(out)
