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
* :func:`TwoPowUnifCdf` -- the law of ``2**U`` with ``U`` uniform on
  ``[-1, 0]``; the size law shared by BMRQ under log-uniform step placement
  and DBMRQ averaged over its octave.  It is ``BiasAlphaCdf(0.5)``.
* :func:`DbmrqAtomsCdf` -- the exact two-atom law of DBMRQ at a fixed step,
  as a :class:`StepCdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from .quantizers import (
    _BLOCK,
    _MAX_CELLS,
    DomainError,
    QuantizerSpec,
    Scheme,
    _AlphaPowers,
    _cells_many,
    _dyadic_level,
    _lattice_index,
    _listing_bounds,
    _midpoint,
    _real,
    _split,
    _window_args,
    _window_cells,
    enumerate_cells,  # noqa: F401 - not called here; perfbench's traced run wraps it
)

__all__ = [
    "LOG2E",
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

    def kinks(self) -> np.ndarray:
        return self.breakpoints

    def scaled(self, factor: float) -> "StepCdf":
        """The cdf of the sizes multiplied by ``factor > 0``.

        Distinct sizes may round to the same float after scaling; such
        atoms are merged.
        """
        factor = _real(factor, "factor", "(0, inf)")
        bp, inverse = np.unique(self.breakpoints * factor, return_inverse=True)
        ms = np.zeros(bp.size)
        np.add.at(ms, inverse, self.masses)
        return StepCdf(bp, ms)


@dataclass(frozen=True)
class BiasAlphaCdf:
    """Stationary relative-size law of the biased tree with ratio ``alpha``."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", "(0, 1)"))

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

    def kinks(self) -> np.ndarray:
        return np.unique(self._logs()[0])

    def _logs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The kinks, the cdf at each, and between each two the cdf's piece
        ``p + q log2 x``: ``(k, v, p, q)``."""
        lo, hi = sorted((self.alpha, 1.0 - self.alpha))
        h = self.split_entropy
        v, p = np.array([0.0, lo * math.log2(hi / lo) / h, 1.0]), np.array([-lo * math.log2(lo) / h, 1.0])
        return np.array([lo, hi, 1.0]), v, p, np.array([lo, 1.0]) / h


def TwoPowUnifCdf() -> BiasAlphaCdf:  # noqa: N802 - the law's long-standing name
    """Law of ``2**U`` for ``U`` uniform on ``[-1, 0]``, F(x) = log2(x) + 1:
    the biased tree's law at ``alpha = 1/2``."""
    return BiasAlphaCdf(0.5)


def DbmrqAtomsCdf(s: float) -> StepCdf:  # noqa: N802 - the law's long-standing name
    """Exact two-atom size law of DBMRQ at step bound ``s``: atoms
    ``2**m <= s < 2**(m+1)`` with masses ``u - 1`` and ``2 - u`` for
    ``u = 2**(m+1)/s``, one atom at ``s`` when ``s`` is a power of two."""
    s = _real(s, "step bound s", "(0, inf)")
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


CdfLike = Union[StepCdf, BiasAlphaCdf]


# ---------------------------------------------------------------------------
# The window kernel: cells by size class


class _Window(NamedTuple):
    """A window's cells as the functionals read them.

    ``counts[i]`` cells of length ``sizes[i]`` lie wholly inside the window;
    each is listed and holds a piece of its full length.  The cells in
    ``lo``, ``hi`` and ``level`` are given one by one, as arrays,
    unclipped, with ``listed`` telling whether the walk of
    :func:`~mrquant.quantizers.enumerate_cells` lists each: the cells that
    the window's ends cut, and the leaves of the nodes no class table
    settled.
    """

    sizes: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    listed: np.ndarray


@lru_cache(maxsize=1)
def _window_kernel(spec: QuantizerSpec, s: float, x0: float, x1: float) -> _Window:
    """The cells of the window ``[x0, x1)`` at step ``s``, checked by
    :func:`~mrquant.quantizers._window_args` with room for ``2**62``
    shortest cells: whole cells by size class, end cells one by one.

    The kernel keeps the last window it built, so the functionals asked in
    turn about one window share one walk; an error is raised again on every
    call.  Its arrays are read-only, so the kept window is safe to share
    between callers and threads.  They stay in memory until the next
    window, at most the :data:`~mrquant.quantizers._MAX_CELLS` cells of a
    listed lattice window.  A window from ``-0.0`` shares the entry of the
    one from ``0.0``, so both are built from ``0.0``.

    * SIMPLE_UNIFORM, BMRQ, DBMRQ: the cells of ``x0`` and of the last float
      below ``x1`` come from the vector rule; the whole cells between them
      are counted by :func:`_lattice_count`, all of length ``w``, or ``w``
      and ``2 w`` for DBMRQ, whose merged pairs it counts.  The dyadic ``w``
      is exact; uniform cells ``[j s, (j + 1) s)`` enter at their mean float
      length, within ``2 ulp(max(|x0|, |x1|))`` of each.  Where
      :func:`_lattice_count` cannot count them, the window is listed by
      :func:`~mrquant.quantizers._window_cells`.
    * BBMRQ: see :func:`_biased_side`, one call per side of zero: a scalar
      walk of the boundary paths, and class tables and array walks
      (:func:`_inside_leaves`) for the nodes inside the window.

    A class size is the real length of its cells, computed from the length
    of a node; it is within :func:`_class_table`'s margin of each cell's
    float length.
    """
    x0 += 0.0  # -0.0 + 0.0 is 0.0
    win = (_biased_window if spec.scheme is Scheme.BBMRQ else _lattice_window)(spec, s, x0, x1)
    if win is None:
        lo, hi, level = _window_cells(spec, s, x0, x1)
        win = _Window(np.empty(0), np.empty(0, np.int64), lo, hi, level, np.ones(lo.size, bool))
    for array in win:
        array.flags.writeable = False
    return win


def _lattice_window(
    spec: QuantizerSpec, s: float, x0: float, x1: float
) -> Optional[_Window]:
    """The lattice schemes' kernel, or None where the listing must count."""
    ends = _cells_many(spec, np.full(2, s), np.array([x0, math.nextafter(x1, -math.inf)]))
    lo, hi, _ = ends
    sizes, counts = np.empty(0), np.empty(0, np.int64)
    if lo[0] == lo[1]:
        keep = np.array([True, False])
    else:
        keep = np.array([lo[0] < x0, hi[1] > x1])
        a = hi[0] if keep[0] else x0
        b = lo[1] if keep[1] else x1
        if a < b:
            whole = _lattice_count(spec, s, float(a), float(b))
            if whole is None:
                return None
            n, merged = whole
            w = (b - a) / (n + merged)  # exact for the dyadic spacing
            sizes, counts = np.array([w, 2.0 * w]), np.array([n - merged, merged])
            sizes, counts = sizes[counts > 0], counts[counts > 0]
    lo, hi, level = (e[keep] for e in ends)
    return _Window(sizes, counts, lo, hi, level, np.ones(lo.size, bool))


def _biased_window(spec: QuantizerSpec, s: float, x0: float, x1: float) -> _Window:
    """The BBMRQ kernel per side of zero, in positive coordinates: the cells
    :func:`~mrquant.quantizers._listing_bounds` lists, and unlisted pieces of positive length."""
    sizes, counts, parts, visits = [], [], [], 0
    pos, neg = _listing_bounds(x0, x1)
    if x1 > 0.0:
        visits, lo, hi, listed = _biased_side(spec, s, (max(x0, 0.0), x1, *pos), sizes, counts, visits)
        parts.append((lo, hi, _midpoint(lo, hi), listed))
    if x0 < 0.0:
        visits, lo, hi, listed = _biased_side(spec, s, (max(-x1, 0.0), -x0, *neg), sizes, counts, visits)
        parts.append((-hi, -lo, -_midpoint(lo, hi), listed))
    return _Window(np.array(sizes), np.array(counts, dtype=np.int64), *map(np.concatenate, zip(*parts)))


def _biased_side(
    spec: QuantizerSpec, s: float, bounds: Tuple[float, float, float, float],
    sizes: List[float], counts: List[int], visits: int,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """One side of zero in positive coordinates, ``bounds = (z0, z1, bottom,
    top)``: ``(visits, lo, hi, listed)``, the nodes visited so far and the
    cells of ``[z0, z1]`` one by one, listed iff ``lo <= top`` and ``hi >
    bottom``.  A scalar walk from the base cell over ``[0, top]`` splits all
    but the leaves (float length at most ``s``) and the nodes in ``[z0,
    z1]``, off zero, worth a table, which go to :func:`_inside_leaves`."""
    z0, z1, bottom, top = bounds
    pows, alpha = spec._powers, spec.alpha
    per_log = -1.0 / math.log(alpha) - 1.0 / math.log1p(-alpha)
    n = pows.largest_exponent_above(max(top, s))
    stack, cells, inside = [(0.0, pows.pow(n), n)], [], []
    while stack:
        visits += 1
        if visits > _MAX_CELLS:
            _budget(s, visits)  # raises
        lo, hi, n = stack.pop()
        if hi - lo <= s:
            cells.append((lo, hi, lo <= top and hi > bottom))
        elif 0.0 < lo and z0 <= lo and hi <= z1 and _worth_a_table((hi - lo) / s, per_log):
            inside.append((lo, hi))
        else:
            split = _split(pows, alpha, lo, hi, n)
            if split > z0:
                stack.append((lo, split, n + 1))
            if split <= top:
                stack.append((split, hi, n))
    lo, hi, listed = np.array(cells, dtype=np.float64).reshape(-1, 3).T
    visits, leaves = _inside_leaves(pows, alpha, s, per_log, inside, sizes, counts, visits)
    if leaves:  # all listed
        lo, hi = (np.concatenate((ends, *more)) for ends, more in zip((lo, hi), zip(*leaves)))
        listed = np.append(listed, np.ones(lo.size - listed.size))
    return visits, lo, hi, listed > 0.0


def _worth_a_table(ratio, per_log: float):
    """Whether a node ``ratio`` steps long has more leaves than its class table
    has classes, about ``2 + per_log log(ratio)``; a float, or elementwise."""
    return ratio > per_log * (np.log if isinstance(ratio, np.ndarray) else math.log)(ratio) + 2.0


def _budget(s: float, nodes: float) -> float:
    """``nodes``, or DomainError where they pass the cell budget."""
    if nodes > _MAX_CELLS:
        raise DomainError(f"counting the cells at step {s} would walk more than {_MAX_CELLS} tree nodes")
    return nodes


def _inside_leaves(
    pows: _AlphaPowers, alpha: float, s: float, per_log: float, nodes: List[Tuple[float, float]],
    sizes: List[float], counts: List[int], visits: int,
) -> Tuple[int, List[Tuple[np.ndarray, np.ndarray]]]:
    """``(visits, leaves)``: the leaves no :func:`_class_table` counts below
    the visited ``nodes``, all inside a side, off zero, worth a table, as
    ``(lo, hi)`` arrays.
    Refused tables' nodes are split as arrays, a level at a time, their
    children tried for tables in turn, then walks go down to undecided
    classes' nodes, split alike; a walk that may pass the budget raises
    first.  Past ``far`` every table is refused, as the ``2**-52 hi / min(a,
    b)`` in its margin alone passes the bound: a refused node holds a leaf
    per ``s (1 + 2**-52)`` past ``far``, and ``N`` leaves ``2 N - 1`` nodes.
    """
    short = min(alpha, 1.0 - alpha)
    far = 2.0 ** 52 * short * (s * short / (2.0 - short) + 2.0 ** -1074) * (1.0 + 2.0 ** -40)
    lo = hi = np.empty(0)  # visited nodes to split
    leaves, walks, ahead = [], [], 0  # ahead: the nodes the walks to undecided classes may visit
    while True:
        refused = []
        for node in nodes:
            table = _class_table(pows, alpha, s, *node)
            if table is None:
                refused.append(node)
                continue
            sizes.extend(table[0])
            counts.extend(table[1])
            if table[2]:  # the classes (i', j') <= (i, j) hold the nodes on the way
                walks.append((*node, table[2]))
                ahead += sum(math.comb(i + j + 2, i + 1) - 1 for i, j in table[2])
        if refused:
            past = math.fsum(max(0.0, b - max(a, far)) for a, b in refused) * (1.0 - 2.0 ** -50)
            _budget(s, visits + ahead + 2.0 * past / (s * (1.0 + 2.0 ** -52) + 2.0 ** -1074) - 2 * len(refused))
            lo, hi = np.append(lo, [a for a, _ in refused]), np.append(hi, [b for _, b in refused])
        if lo.size:
            split = _split(pows, alpha, lo, hi, None)
            lo, hi = np.concatenate((lo, split)), np.concatenate((split, hi))
        elif walks:
            # nodes on the way are internal; `below`: a class of the walk lies at or below (w, i, j)
            _budget(s, visits + ahead)
            w, i, j = np.array([(w, i, j) for w, (*_, classes) in enumerate(walks) for i, j in classes]).T
            rows, cols = i.max() + 2, j.max() + 2  # so that no child's (i, j) wraps
            undecided = np.zeros((len(walks), rows, cols), bool)
            undecided[w, i, j] = True
            below = np.logical_or.accumulate(np.logical_or.accumulate(undecided[:, ::-1, ::-1], 1), 2)
            undecided, below = undecided.ravel(), below[:, ::-1, ::-1].ravel()
            lo, hi = np.array([node[:2] for node in walks]).T
            at, found, walks, ahead = np.arange(len(walks)) * (rows * cols), [], [], 0  # (w rows + i) cols + j
            while lo.size:
                stop = undecided[at]
                found.append((lo[stop], hi[stop]))
                lo, hi, at = lo[~stop], hi[~stop], at[~stop]
                visits += lo.size
                split = _split(pows, alpha, lo, hi, None)
                left, right = below[at + cols], below[at + 1]
                lo, hi = np.concatenate((lo[left], split[right])), np.concatenate((split[left], hi[right]))
                at = np.concatenate((at[left] + cols, at[right] + 1))
            lo, hi = map(np.concatenate, zip(*found))
        else:
            return visits, [(a, b) for a, b in leaves if a.size]
        visits = _budget(s, visits + lo.size)
        leaf = hi - lo <= s
        worth = ~leaf & (hi <= far) & _worth_a_table((hi - lo) / s, per_log)
        leaves.append((lo[leaf], hi[leaf]))
        nodes = list(zip(lo[worth].tolist(), hi[worth].tolist()))
        lo, hi = lo[~(leaf | worth)], hi[~(leaf | worth)]


def _class_table(
    pows: _AlphaPowers, alpha: float, s: float, lo: float, hi: float
) -> Optional[Tuple[List[float], List[int], Set[Tuple[int, int]]]]:
    """Leaves of the node ``[lo, hi)`` (``0 < lo``, ``hi - lo > s``) by size
    class: ``(sizes, counts, undecided)``, or None where its classes lie too
    close together around ``s`` to be told apart.

    A descendant reached by ``i`` left and ``j`` right splits has real
    length ``(hi - lo) * a**i * b**j`` (``a = alpha``, ``b = 1 - a``); it
    is a leaf iff that is at most ``s`` while its parent's is not.  Row
    ``j`` has ``I_j`` internal classes ``i < I_j``, each reached by
    ``C(i + j, j)`` paths, so its leaves are ``(I_j, j)``, by a left split
    from ``(I_j - 1, j)``, and ``(i, j)`` for ``I_j <= i < I_(j-1)``, by a
    right split from ``(i, j - 1)``.

    The descent decides on float lengths, so the classes whose real length
    lies within ``M`` of ``s`` are undecided: at most ``(I_j - 1, j)`` and
    ``(I_j, j)`` per row, while ``M <= s * min(a, b) / (1 + max(a, b))``
    keeps their neighbours out of reach.  Their nodes are left out of the
    counts, with the leaves below them, and returned as ``undecided``.  The
    margin follows from the split arithmetic: a split ``lo + a * (hi -
    lo)`` rounds three times, by at most ``u * hi + 2 u a l`` (``u =
    2**-53``, ``l`` the split node's length), and a child's length error is
    its parent's times ``a`` or ``b`` plus that, so over ``d`` levels it
    stays below ``(u * hi + 2 d a u l) / min(a, b)``.  The class size
    itself, ``l * b**j * a**i`` from float tables, is off by ``(2 d + 2) u``
    relative, and the float length test rounds once more.  With ``d`` the
    deepest leaf class and subnormal steps rounding by up to ``2**-1075``
    absolute, ::

        M = (2**-52 * (hi + 2 (d + 4) s) + (d + 4) * 2**-1074) / min(a, b)

    covers all of it.  The decided classes are decided alike in real and
    in float arithmetic, and their sizes are within ``M`` of each member's
    float length.
    """
    beta = 1.0 - alpha
    rows = []  # (length of class (0, j), I_j)
    r = hi - lo
    while r > s:
        inner = pows.largest_exponent_above(s / r) + 1
        while r * pows.pow(inner) > s:
            inner += 1
        while r * pows.pow(inner - 1) <= s:
            inner -= 1
        rows.append((r, inner))
        r *= beta
    rows.append((r, 0))
    d = rows[0][1] + len(rows) - 1
    margin = (2.0 ** -52 * (hi + 2 * (d + 4) * s) + (d + 4) * 2.0 ** -1074) / min(alpha, beta)
    if margin > s * min(alpha, beta) / (1.0 + max(alpha, beta)):
        return None
    undecided = set()
    for j, (r, inner) in enumerate(rows):
        if inner and r * pows.pow(inner - 1) <= s + margin:
            undecided.add((inner - 1, j))
        if r * pows.pow(inner) > s - margin:
            undecided.add((inner, j))
    sizes, counts = [], []
    above = 0  # I_(j-1)
    for j, (r, inner) in enumerate(rows):
        for i in range(inner, max(above, inner + 1) if inner else above):
            n = 0
            if i < above and (i, j - 1) not in undecided:
                n += math.comb(i + j - 1, j - 1)
            if i == inner and inner and (inner - 1, j) not in undecided:
                n += math.comb(inner - 1 + j, j)
            if n and (i, j) not in undecided:
                sizes.append(r * pows.pow(i))
                counts.append(n)
        above = inner
    return sizes, counts, undecided


def _pieces(
    spec: QuantizerSpec, s: float, x0: float, x1: float
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(width, sizes, counts, clipped, a, b)``: the checked window's
    width, the kernel's size classes, and its one-by-one cells that meet
    the window in positive length, as their clipped lengths and the clipped
    range's ends relative to the level."""
    s, x0, x1, _ = _window_args(spec, s, x0, x1, 2.0 ** 62)
    win = _window_kernel(spec, s, x0, x1)
    top, bottom = np.minimum(win.hi, x1), np.maximum(win.lo, x0)
    clipped = top - bottom
    keep = clipped > 0.0
    return (
        x1 - x0, win.sizes, win.counts, clipped[keep],
        bottom[keep] - win.level[keep], top[keep] - win.level[keep],
    )


# ---------------------------------------------------------------------------
# Empirical cdf


def empirical_cell_cdf(spec: QuantizerSpec, s: float, x0: float, x1: float) -> StepCdf:
    """Length-weighted cdf of clipped cell sizes over the window ``[x0, x1]``.

    Atoms are size classes: the cells wholly inside the window, counted by
    class (see :func:`_window_kernel`, whose last window the other window
    functionals reuse), enter at their class's real length,
    within the margin ``M`` of :func:`_class_table` of each cell's float
    length (``M`` is about ``2**-52 * max(|x0|, |x1|) / min(alpha, 1 -
    alpha)``); lattice cells enter at ``2**m`` or at their mean length,
    within ``2 ulp(max(|x0|, |x1|))`` of each.  Cells cut by the
    window's ends enter with their clipped length, both as the size and as
    the weight, so the masses are ``length / total``, where the total, the
    window's length ``x1 - x0`` up to the margin, is the sum of the pieces.
    Equal sizes are aggregated as ``size * count``, which keeps the mass
    total within a few ulps of one no matter how many cells the window
    holds.
    """
    _, sizes, counts, clipped, _, _ = _pieces(spec, s, x0, x1)
    sizes, inverse = np.unique(np.concatenate((sizes, clipped)), return_inverse=True)
    weights = sizes * np.bincount(inverse, np.concatenate((counts, np.ones(clipped.size))), sizes.size)
    return StepCdf(sizes, weights / weights.sum())


# ---------------------------------------------------------------------------
# Levy metric


def _corners(F) -> Tuple[np.ndarray, np.ndarray]:
    """The points ``(x, y)`` where the completed graph of F turns: both ends
    of each atom's jump, or each kink of a closed form."""
    if isinstance(F, StepCdf):
        return np.repeat(F.breakpoints, 2), np.repeat(F._cum, 2)[1:-1]
    if not isinstance(F, BiasAlphaCdf):
        raise DomainError(f"not a StepCdf or BiasAlphaCdf: {F!r}")
    return F._logs()[:2]


def _height(F: CdfLike, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The height at which the completed graph of F meets the line ``x + y
    = c`` through each point ``(x, y)``."""
    if isinstance(F, StepCdf):  # on jump j, or the flat after it, (x - b_j) + y clipped
        b, cum = F.breakpoints, F._cum
        j = np.maximum(np.searchsorted(b + cum[:-1], x + y, side="right") - 1, 0)
        return np.clip((x - b[j]) + y, cum[j], cum[j + 1])
    k, v, p, q = F._logs()  # c - x for the root x on c's piece
    c = x + y
    j = np.clip(np.searchsorted(k + v, c, side="right") - 1, 0, 1)
    return np.clip(c - _climb(k[j], p[j], q[j], c), 0.0, 1.0)


def _climb(x: np.ndarray, p, q, c) -> np.ndarray:
    """The root of ``x + p + q log2 x = c``, ``q > 0``, by Newton's method
    from ``x``.  The left side is concave and increasing, so from at or
    below the root each tangent lands at or below it too, and the iterates
    climb to it.  A start above the root stays put."""
    while True:
        step = x + (c - x - p - q * np.log2(x)) / (1.0 + q * LOG2E / x)
        if not (step > x).any():
            return x
        x = np.maximum(step, x)


def _balance(f: BiasAlphaCdf, g: BiasAlphaCdf) -> Tuple[np.ndarray, np.ndarray]:
    """Points ``(x, f(x))`` where the slopes ``q log2(e) / x`` of two closed
    forms balance along a line, one for each pair of pieces with unequal q:
    there ``x_g = r x_f``, ``r = q_g / q_f``, so ``x_f + q_f log2 x_f = q_f
    (p_g - p_f + q_g log2 r) / (q_f - q_g)``.  A root off the pieces only
    adds a line where the gap is smaller."""
    k, _, pf, qf = f._logs()
    _, _, pg, qg = g._logs()
    i, j = np.nonzero(qf[:, None] != qg[None, :])
    pf, qf, pg, qg = pf[i], qf[i], pg[j], qg[j]
    x = _climb(k[i], 0.0, qf, qf * (pg - pf + qg * np.log2(qg / qf)) / (qf - qg))
    return x, pf + qf * np.log2(x)


def levy_distance(F, G) -> float:
    """Levy metric between two size cdfs, exact: no bisection, no grid.

    With each atom's jump filled in by a vertical segment, the graph of a
    cdf meets each line ``x + y = c`` once, at ``(x_F(c), y_F(c))``, and
    shifting it by ``(eps, -eps)`` moves that point by eps along the line.
    So the distance is the supremum over c of ``|x_F(c) - x_G(c)| = |y_F(c)
    - y_G(c)|``.  Each operand is a :class:`StepCdf` or a
    :class:`BiasAlphaCdf`.  As c grows, a step cdf's y rises with slope 1 on
    a jump and 0 on a flat, and a closed form's with slope ``G' / (1 +
    G')``, in ``[0, 1)``; so on each piece of a step cdf the gap is
    monotone, and it peaks on a line through a corner of either graph.
    Between two closed forms it can also peak where the slopes balance
    (:func:`_balance`).  Each line is kept as a point on it, not as the
    rounded c, so a step cdf's height is not rounded to an ulp of c.
    """
    lines = [_corners(F), _corners(G)]
    if isinstance(F, BiasAlphaCdf) and isinstance(G, BiasAlphaCdf):
        lines += [_balance(F, G), _balance(G, F)]
    x, y = map(np.concatenate, zip(*lines))
    return float(np.abs(_height(F, x, y) - _height(G, x, y)).max())


# ---------------------------------------------------------------------------
# Renyi rates


def _expm1_excess(x: float) -> float:
    """``(expm1(x) - x) / x``, from its series ``sum x^k / (k+1)!`` if ``|x| < 1/2``."""
    if abs(x) < 0.5:
        return sum(x**k / math.factorial(k + 1) for k in range(17, 0, -1))
    return (math.expm1(x) - x) / x


def renyi_rate(F: CdfLike, eta: float) -> float:
    """Order-``eta`` Renyi entropy rate of the size distribution ``F``.

    This is the rate of the quantizer output when the sizes are measured at
    step 1; see :func:`scale_shift_rate` for other steps.  ``eta = 0`` gives
    the log level count rate, ``eta = 1`` the Shannon rate (handled as the
    analytic limit), general ``eta`` interpolates.  A divergent integral is
    reported as ``math.inf``.

    The rate is ``-log2(I) / (eta - 1)`` for the integral ``I`` of
    ``gamma^(eta-1) dF``.  Near ``eta = 1`` both vanish, so ``I - 1`` is
    computed without taking the difference.
    """
    d = _real(eta, "eta", "[0, inf)") - 1.0
    if isinstance(F, StepCdf):
        if d == 0.0:
            return float(-(F.masses @ np.log2(F.breakpoints)))
        with np.errstate(over="ignore"):  # I - 1 = sum m expm1(d ln gamma)
            im1 = float(F.masses @ np.expm1(d * np.log(F.breakpoints)))
        if math.isinf(im1):
            return math.inf
        if im1 <= -1.0:
            raise DomainError("degenerate size distribution")
    elif isinstance(F, BiasAlphaCdf):
        a, h = F.alpha, F.split_entropy
        if d == 0.0:
            return (a * math.log2(a) ** 2 + (1.0 - a) * math.log2(1.0 - a) ** 2) / (2.0 * h)
        # I = (log2 e / H) sum p (1 - p^d) / d over p in {a, 1 - a}; as H is
        # -log2(e) sum p ln p, I - 1 = -(log2 e / H) sum p ln p g(d ln p)
        logs = ((a, math.log(a)), (1.0 - a, math.log1p(-a)))
        im1 = -LOG2E / h * sum(p * ln * _expm1_excess(d * ln) for p, ln in logs)
    else:
        raise DomainError(f"unsupported cdf object: {F!r}")
    return -math.log1p(im1) * LOG2E / d


def scale_shift_rate(rate_at_unit_step: float, s: float) -> float:
    """Renyi rate at step ``s`` from the rate at step 1: subtract log2(s)."""
    rate = _real(rate_at_unit_step, "rate_at_unit_step")
    return rate - math.log2(_real(s, "step bound s", "(0, inf)"))


# ---------------------------------------------------------------------------
# Level counts, entropy, L^p error


def count_levels(spec: QuantizerSpec, s: float, x0: float, x1: float) -> int:
    """Number of distinct output levels on the window ``[x0, x1)``.

    These are the cells :func:`~mrquant.quantizers.enumerate_cells` lists,
    counted exactly.  The lattice schemes count them by index arithmetic
    (see :func:`_lattice_count`); BBMRQ counts them by size class with
    :func:`_window_kernel`, which walks node by node only the window's
    boundary paths, and as arrays, a tree level at a time, the nodes whose
    leaf status its classes cannot decide, and keeps the window for the
    other functionals asked about it next.  The test suite
    checks the count against the listing and against the level-count
    integral ``(x1 - x0) * integral of 1/size dF`` evaluated in exact
    rational arithmetic.
    """
    s, x0, x1, _ = _window_args(spec, s, x0, x1, 2.0 ** 62)
    if spec.scheme is not Scheme.BBMRQ:
        counted = _lattice_count(spec, s, x0, x1)
        if counted is not None:
            return counted[0]
    win = _window_kernel(spec, s, x0, x1)
    return int(win.counts.sum()) + int(np.count_nonzero(win.listed))


def _lattice_count(
    spec: QuantizerSpec, s: float, x0: float, x1: float
) -> Optional[Tuple[int, int]]:
    """Cells of a SIMPLE_UNIFORM, BMRQ or DBMRQ window, and how many of them
    are merged DBMRQ pairs wholly inside it, from the lattice indices of its
    first float and its last; or None where the listing must count them:
    where the spacing (``s``, or ``2**m`` for the dyadic schemes) is within
    2 ulps of the window's largest magnitude, so that cells can hold no float and
    the walk of :func:`~mrquant.quantizers.enumerate_cells` skips them, or
    where a cell within four spacings of the window may leave float64.

    Elsewhere the computed cell ends rise strictly with the index, so the
    walk meets every index from the first to the last.  A DBMRQ pair of
    level-m cells that :func:`~mrquant.quantizers._dyadic_level` merges is
    one cell, so each merged pair wholly inside that range counts once.  The
    rule sees the pairs' exact starts, so no pair index underflows to -0.0.
    It sees them :data:`~mrquant.quantizers._BLOCK` pairs at a time, and
    more than :data:`~mrquant.quantizers._MAX_CELLS` pairs raise DomainError.
    """
    m = math.frexp(s)[1] - 1
    w = s if spec.scheme is Scheme.SIMPLE_UNIFORM else math.ldexp(1.0, m)
    top = max(abs(x0), abs(x1))
    if w <= 2.0 * math.ulp(top) or top + 4.0 * w >= 2.0 ** 1023:
        return None
    j0 = _lattice_index(w, x0)[0]
    j1 = _lattice_index(w, math.nextafter(x1, -math.inf))[0]
    if spec.scheme is not Scheme.DBMRQ:
        return j1 - j0 + 1, 0
    first, stop = (j0 + 1) // 2, (j1 + 1) // 2
    if stop - first > _MAX_CELLS:
        raise DomainError(f"counting [{x0}, {x1}) at step {s} would test over {_MAX_CELLS} pairs")
    merged = 0
    for start in range(first, stop, _BLOCK):
        pairs = np.arange(start, min(start + _BLOCK, stop), dtype=np.float64)
        levels = _dyadic_level(spec, np.full(pairs.size, s), np.ldexp(pairs, m + 1))
        merged += int(np.count_nonzero(levels > m))
    return j1 - j0 + 1 - merged, merged


def output_entropy(spec: QuantizerSpec, s: float, x0: float, x1: float) -> float:
    """Shannon entropy (bits) of the quantizer output for uniform input.

    Read from the size classes of :func:`empirical_cell_cdf`: each whole
    cell's probability is its class size over the window, off by ``M / s``
    relative at most, so the entropy ``H`` is within about ``(H + 2) M / s``
    bits of the cell-by-cell sum.  The terms are added by ``math.fsum``, so
    the order of the pieces cannot move the value.
    """
    width, sizes, counts, clipped, _, _ = _pieces(spec, s, x0, x1)
    w, c = sizes / width, clipped / width
    c = c[c > 0.0]  # a cut piece whose share underflows adds 0 log 0 = 0
    return -math.fsum(np.concatenate((counts * w * np.log2(w), c * np.log2(c))).tolist())


def lp_error_exact(spec: QuantizerSpec, s: float, x0: float, x1: float, p: float) -> float:
    """Exact E|X - Q(X)|^p for X uniform on [x0, x1], by per-class integrals.

    A whole cell of size g contributes its share of the window times
    ``(g/2)^p / (p+1)``, summed over its size class (see
    :func:`empirical_cell_cdf`), so the relative error is within about
    ``(p + 1) M / s`` of the cell-by-cell sum.  A cell cut by the window's
    ends contributes its share times the mean of ``|x - level|^p`` over its
    clipped range: ``m^p``, ``m`` its largest offset from the level, times
    ``(1 - (1 - r)^(p+1)) / (r (p + 1))`` on one side of the level, ``r m``
    the clipped length, which rounded offsets may lose (a unit window 1e276
    from its level).  The terms are added by ``math.fsum``, so the order of
    the pieces cannot move the value.  A value beyond float64 raises
    DomainError.
    """
    p = _real(p, "p", "(0, inf)")
    width, sizes, counts, clipped, a, b = _pieces(spec, s, x0, x1)
    m = np.maximum(np.abs(a), np.abs(b))
    r = np.clip(clipped / m, 1e-300, 1.0)  # below 1e-300 the ratio below is p + 1 in float64
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        one_side = -np.expm1((p + 1.0) * np.log1p(-r)) / r
        both_sides = ((np.abs(a) / m) ** (p + 1.0) + (np.abs(b) / m) ** (p + 1.0)) * (m / clipped)
        cut = m ** p * np.where((a < 0.0) & (b > 0.0), both_sides, one_side)
        whole = (counts * sizes / width) * (sizes ** p * 0.5 ** p)  # 0.5 * 5e-324 is 0
        terms = np.concatenate((whole, (clipped / width) * cut)).tolist()
    try:
        value = math.fsum(terms) / (p + 1.0)
    except OverflowError:  # the exact sum is past float64
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"E|X - Q(X)|^{p} on [{x0}, {x1}) at step {s} overflows float64")
    return value


def lp_error_asymptotic(F: CdfLike, p: float) -> float:
    """Asymptotic E|X - Q(X)|^p per unit step from the size cdf at step 1:
    2**(-p * (R_{p+1} + 1)) / (p + 1)."""
    p = _real(p, "p", "(0, inf)")
    rate = renyi_rate(F, p + 1.0)
    if math.isinf(rate):
        raise DomainError("divergent Renyi rate; no asymptotic error")
    return 2.0 ** (-p * (rate + 1.0)) / (p + 1.0)
