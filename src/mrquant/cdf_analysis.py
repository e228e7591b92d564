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
from typing import List, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from .quantizers import (
    _MAX_CELLS,
    DomainError,
    QuantizerSpec,
    Scheme,
    _AlphaPowers,
    _cells_many,
    _dyadic_level,
    _lattice_index,
    _midpoint,
    _split,
    _window_args,
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
# The window kernel: cells by size class


class _Window(NamedTuple):
    """A window's cells as the functionals read them.

    ``counts[i]`` cells of length ``sizes[i]`` lie wholly inside the window;
    each is listed and holds a piece of its full length.  The cells in
    ``lo``, ``hi`` and ``level`` were handled one by one, unclipped, with
    ``listed`` telling whether the walk of
    :func:`~mrquant.quantizers.enumerate_cells` lists each: the cells that
    the window's ends cut, and any cell a class table could not settle.
    """

    sizes: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    listed: np.ndarray


def _window_kernel(
    spec: QuantizerSpec, s: float, x0: float, x1: float, points: float
) -> _Window:
    """The cells of the window ``[x0, x1)`` at step ``s``, checked by
    :func:`~mrquant.quantizers._window_args` (``points`` shortest cells
    long): whole cells by size class, end cells one by one.

    * SIMPLE_UNIFORM, BMRQ, DBMRQ: the cells of ``x0`` and of the last float
      below ``x1`` come from the vector rule; the whole cells between them
      are counted by :func:`_lattice_count`, all of length ``w``, or ``w``
      and ``2 w`` for DBMRQ, whose merged pairs it counts.  The dyadic ``w``
      is exact; uniform cells ``[j s, (j + 1) s)`` enter at their mean float
      length, within ``2 ulp(max(|x0|, |x1|))`` of each.  Where
      :func:`_lattice_count` cannot count them, the window is listed by
      :func:`~mrquant.quantizers._window_cells`.
    * BBMRQ: see :func:`_biased_side`, one call per side of zero.

    A class size is the real length of its cells, computed from the length
    of a node; it is within :func:`_class_table`'s margin of each cell's
    float length.  At most ``2**62`` shortest cells may fit in the window.
    """
    if not points <= 2.0 ** 62:
        raise DomainError(f"[{x0}, {x1}) at step {s} holds too many cells to count")
    if spec.scheme is Scheme.BBMRQ:
        return _biased_window(spec, s, x0, x1)
    counted = _lattice_window(spec, s, x0, x1)
    if counted is not None:
        return counted
    lo, hi, level = _window_cells(spec, s, x0, x1)
    return _Window(np.empty(0), np.empty(0, np.int64), lo, hi, level, np.ones(lo.size, bool))


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
    """The BBMRQ kernel: each side of zero in positive coordinates.

    A cell ``[lo, hi)`` of ``|x|`` on the positive side is listed iff
    ``lo < x1`` and ``hi > x0``.  Its mirror ``(-hi, -lo]`` is listed iff
    ``-hi < x1`` and ``-lo >= x0``, as the walk lists it (it may hold only
    ``x1``), unless it is ``(-5e-324, 0)``, which holds no float.  Pieces
    of positive length are kept for the functionals whether listed or not.
    """
    sizes: List[float] = []
    counts: List[int] = []
    sides = []
    visits = 0
    if x1 > 0.0:
        bounds = (max(x0, 0.0), x1, x0, math.nextafter(x1, -math.inf))
        visits, cells = _biased_side(spec, s, bounds, sizes, counts, visits)
        sides.append((1.0, cells))
    if x0 < 0.0:
        bounds = (max(-x1, 0.0), -x0, max(-x1, 5e-324), -x0)
        visits, cells = _biased_side(spec, s, bounds, sizes, counts, visits)
        sides.append((-1.0, cells))
    parts = []
    for sign, cells in sides:
        lo, hi, listed = np.array(cells, dtype=np.float64).reshape(-1, 3).T
        mid = sign * _midpoint(lo, hi)
        parts.append((lo, hi, mid, listed > 0.0) if sign > 0.0 else (-hi, -lo, mid, listed > 0.0))
    return _Window(
        np.array(sizes), np.array(counts, dtype=np.int64),
        *(np.concatenate(column) for column in zip(*parts)),
    )


def _biased_side(
    spec: QuantizerSpec,
    s: float,
    bounds: Tuple[float, float, float, float],
    sizes: List[float],
    counts: List[int],
    visits: int,
) -> Tuple[int, List[Tuple[float, float, bool]]]:
    """One side of zero, in positive coordinates; returns the nodes visited
    so far and the side's cells handled one by one, as ``(lo, hi, listed)``.

    ``bounds`` is ``(z0, z1, bottom, top)``: the side covers ``[z0, z1]``,
    and a cell ``[lo, hi)`` is listed iff ``lo <= top`` and ``hi > bottom``.
    The walk starts at the base cell that holds ``[0, top]`` and splits a
    node with :func:`~mrquant.quantizers._split` unless it is a leaf (float
    length at most ``s``) or lies wholly in ``[z0, z1]``, off zero, with
    more leaves than its class table has classes, about ``2 + log(l / s) *
    (1 / log(1 / a) + 1 / log(1 / b))`` for a node of length ``l``.  Then
    :func:`_class_table` counts its leaves, except the nodes of classes too
    near ``s`` for their real length to decide them: the walk goes down to
    those alone and handles them as it handles any node.  So only the
    boundary paths at ``z0`` and ``z1``, the base chain, nodes of few leaves
    and the undecided classes are walked, those last after the rest, so
    that more than :data:`~mrquant.quantizers._MAX_CELLS` nodes to walk
    raise DomainError before the walk.
    """
    z0, z1, bottom, top = bounds
    pows, alpha = spec._powers, spec.alpha
    classes_per_log = -1.0 / math.log(alpha) - 1.0 / math.log1p(-alpha)
    n = pows.largest_exponent_above(max(top, s))
    stack = [(0.0, pows.pow(n), n)]
    cells = []
    walks, ahead = [], 0  # nodes with undecided classes, and the nodes their walks may visit
    while stack or walks:
        if not stack:
            if visits + ahead > _MAX_CELLS:
                raise _walk_exceeded(s)
            for node, undecided in walks:
                visits = _walk_to_classes(pows, alpha, node, undecided, stack, visits)
            walks, ahead = [], 0
            continue
        visits += 1
        if visits > _MAX_CELLS:
            raise _walk_exceeded(s)
        lo, hi, n = stack.pop()
        if hi - lo <= s:
            cells.append((lo, hi, lo <= top and hi > bottom))
            continue
        ratio = (hi - lo) / s
        if 0.0 < lo and z0 <= lo and hi <= z1 and ratio > classes_per_log * math.log(ratio) + 2.0:
            table = _class_table(pows, alpha, s, lo, hi)
            if table is not None:
                leaf_sizes, leaf_counts, undecided = table
                sizes.extend(leaf_sizes)
                counts.extend(leaf_counts)
                if undecided:
                    walks.append(((lo, hi, n), undecided))
                    # the classes (i', j') <= (i, j) hold the nodes on the way
                    ahead += sum(math.comb(i + j + 2, i + 1) - 1 for i, j in undecided)
                continue
        split = _split(pows, alpha, lo, hi, n)
        if split > z0:
            stack.append((lo, split, n + 1))
        if split <= top:
            stack.append((split, hi, n))
    return visits, cells


def _walk_exceeded(s: float) -> DomainError:
    return DomainError(
        f"counting the cells at step {s} would walk more than {_MAX_CELLS} tree nodes one by one"
    )


def _walk_to_classes(
    pows: _AlphaPowers,
    alpha: float,
    node: Tuple[float, float, int],
    undecided: Set[Tuple[int, int]],
    stack: List[Tuple[float, float, int]],
    visits: int,
) -> int:
    """Walk from ``node`` down to the nodes of the ``undecided`` classes
    ``(i, j)`` and push those on ``stack``; returns the nodes visited.  The
    nodes on the way are internal, as their classes are decided."""
    reach = [-1] * (max(i for i, _ in undecided) + 2)  # reach[i]: largest j of a class (i' >= i, j)
    for i, j in undecided:
        reach[i] = max(reach[i], j)
    for i in range(len(reach) - 2, -1, -1):
        reach[i] = max(reach[i], reach[i + 1])
    lo, hi, n = node
    path = [(lo, hi, n, 0, 0)]
    while path:
        lo, hi, n, i, j = path.pop()
        if (i, j) in undecided:
            stack.append((lo, hi, n))
            continue
        visits += 1
        split = _split(pows, alpha, lo, hi, n)
        if reach[i + 1] >= j:
            path.append((lo, split, n + 1, i + 1, j))
        if reach[i] > j:
            path.append((split, hi, n, i, j + 1))
    return visits


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
    s, x0, x1, points = _window_args(spec, s, x0, x1)
    win = _window_kernel(spec, s, x0, x1, points)
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
    class (see :func:`_window_kernel`), enter at their class's real length,
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


def _operand(F) -> CdfLike:
    if not (hasattr(F, "cdf") and hasattr(F, "cdf_left") and hasattr(F, "kinks")):
        raise DomainError(f"not a cdf object: {F!r}")
    return F


def levy_distance(F, G, tol: float = 1e-4) -> float:
    """Levy metric between two size cdfs, bisected to absolute accuracy tol.

    Feasibility of an offset eps is checked on a candidate grid: every kink
    of either cdf, each kink shifted by +-eps, one-ulp left neighbours of all
    of those (to capture one-sided limits at jumps), and, unless both are
    :class:`StepCdf`, a uniform grid of 20 001 points over the joint support
    for the continuous parts.  For step cdfs the kinks alone are exhaustive
    and the check exact, however many atoms they have.
    """
    f = _operand(F)
    g = _operand(G)
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    kf = np.asarray(f.kinks(), dtype=np.float64)
    kg = np.asarray(g.kinks(), dtype=np.float64)
    if isinstance(f, StepCdf) and isinstance(g, StepCdf):
        grid = np.empty(0)
    else:
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

    These are the cells :func:`~mrquant.quantizers.enumerate_cells` lists,
    counted exactly.  The lattice schemes count them by index arithmetic
    (see :func:`_lattice_count`); BBMRQ counts them by size class with
    :func:`_window_kernel`, which walks one by one only the cells and tree
    nodes whose leaf status its classes cannot decide.  The test suite
    checks the count against the listing and against the level-count
    integral ``(x1 - x0) * integral of 1/size dF`` evaluated in exact
    rational arithmetic.
    """
    s, x0, x1, points = _window_args(spec, s, x0, x1)
    if spec.scheme is not Scheme.BBMRQ:
        counted = _lattice_count(spec, s, x0, x1)
        if counted is not None:
            return counted[0]
    win = _window_kernel(spec, s, x0, x1, points)
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
    It sees them a block at a time, and more than
    :data:`~mrquant.quantizers._MAX_CELLS` pairs raise DomainError.
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
    for start in range(first, stop, 1 << 16):
        pairs = np.arange(start, min(start + (1 << 16), stop), dtype=np.float64)
        levels = _dyadic_level(spec, np.full(pairs.size, s), np.ldexp(pairs, m + 1))
        merged += int(np.count_nonzero(levels > m))
    return j1 - j0 + 1 - merged, merged


def output_entropy(spec: QuantizerSpec, s: float, x0: float, x1: float) -> float:
    """Shannon entropy (bits) of the quantizer output for uniform input.

    Read from the size classes of :func:`empirical_cell_cdf`: each whole
    cell's probability is its class size over the window, off by ``M / s``
    relative at most, so the entropy ``H`` is within about ``(H + 2) M / s``
    bits of the cell-by-cell sum.
    """
    width, sizes, counts, clipped, _, _ = _pieces(spec, s, x0, x1)
    w, c = sizes / width, clipped / width
    c = c[c > 0.0]  # a cut piece whose share underflows adds 0 log 0 = 0
    return float(-((counts * w) @ np.log2(w)) - c @ np.log2(c))


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
    from its level).  A value beyond float64 raises DomainError.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    p = float(p)
    width, sizes, counts, clipped, a, b = _pieces(spec, s, x0, x1)
    m = np.maximum(np.abs(a), np.abs(b))
    r = np.clip(clipped / m, 1e-300, 1.0)  # below 1e-300 the ratio below is p + 1 in float64
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        one_side = -np.expm1((p + 1.0) * np.log1p(-r)) / r
        both_sides = ((np.abs(a) / m) ** (p + 1.0) + (np.abs(b) / m) ** (p + 1.0)) * (m / clipped)
        cut = m ** p * np.where((a < 0.0) & (b > 0.0), both_sides, one_side)
        whole = (counts * sizes / width) @ (sizes ** p * 0.5 ** p)  # 0.5 * 5e-324 is 0
        value = float((whole + (clipped / width) @ cut) / (p + 1.0))
    if not math.isfinite(value):
        raise DomainError(f"E|X - Q(X)|^{p} on [{x0}, {x1}) at step {s} overflows float64")
    return value


def lp_error_asymptotic(F: CdfLike, p: float) -> float:
    """Asymptotic E|X - Q(X)|^p per unit step from the size cdf at step 1:
    2**(-p * (R_{p+1} + 1)) / (p + 1)."""
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0.0:
        raise DomainError(f"p must be a positive finite real, got {p!r}")
    rate = renyi_rate(F, p + 1.0)
    if math.isinf(rate):
        raise DomainError("divergent Renyi rate; no asymptotic error")
    return 2.0 ** (-p * (rate + 1.0)) / (p + 1.0)
