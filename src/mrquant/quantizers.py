"""Multi-resolution scalar quantizers.

Four families of centered scalar quantizers on the real line, each indexed by
a step bound ``s > 0``:

* ``SIMPLE_UNIFORM`` -- plain uniform cells ``[j*s, (j+1)*s)``.  Included as a
  negative control: its lattices at different steps are not nested, so
  requantizing a reconstruction level at a coarser step can move it across a
  cell boundary.
* ``BMRQ`` -- binary multi-resolution quantizer.  Uses the dyadic cells at
  level ``m = floor(log2 s)``; coarser steps always merge whole cells, so
  requantization is stable.
* ``DBMRQ`` -- dithered binary multi-resolution quantizer.  Refines BMRQ's
  rate resolution by merging a ``frac(dither * j)``-selected subset of dyadic
  cell pairs one level up.
* ``BBMRQ`` -- biased binary multi-resolution quantizer.  Cells are the leaves
  of a fixed infinite binary tree on ``[0, inf)`` whose nodes split at the
  fraction ``alpha`` of their length; a point's cell is the first node on its
  root path whose length is at most ``s``.  Negative inputs are handled by odd
  symmetry.

The multi-resolution property the last three share: quantizing a
reconstruction level again with any coarser (or equal) step bound lands on the
same output that quantizing the original input would have produced.  This
holds bit for bit in float64, which requires some care: every cell endpoint is
derived through one canonical computation path, so the same cell is never
recomputed two different ways.  Biased-tree splits come from :func:`_split`
(over a memoized table of ``alpha**n``), dyadic levels only from
:func:`_dyadic_level`, midpoints only from :func:`_midpoint`, each on floats
or arrays alike.  Which mirrored BBMRQ cells a window lists is settled in one
place too: :func:`_listing_bounds` and :func:`_first_float`.

The scalar rule :func:`cell_of` and the vector rule :func:`_cells_many` give the
same cells bit for bit.  The vector rule serves :func:`quantize_many` and
:func:`_window_cells`, the window listing the analysis layer reads without a
:class:`Cell` per cell; :func:`enumerate_cells` is its scalar oracle.  It runs
in cache-sized blocks, which keeps every bit: each output element depends
only on its own input and step.

Every scalar argument of the package is checked once, by :func:`_real` or
:func:`_integer`, and used as the Python float or int it equals: a numpy
scalar is converted, and a bool, a string or a non-finite value raises
DomainError.
"""

from __future__ import annotations

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "GOLDEN_RATIO",
    "Scheme",
    "DomainError",
    "PathCodeError",
    "QuantizerSpec",
    "PathCode",
    "Cell",
    "quantize",
    "quantize_many",
    "cell_of",
    "tree_interval",
    "enumerate_cells",
    "encode_path",
    "decode_path",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Hard cap on the alpha power table, per side.  The table normally stops where
# float64 under/overflows, which needs about 745/|log alpha| entries; the cap
# only binds for alpha outside roughly (0.0025, 0.9975).
_POW_TABLE_CAP = 300_000

# Refuse listings that would materialize an absurd number of cells: the
# scalar walk of enumerate_cells, the vector listing of _window_cells, and
# the cells and nodes the window kernel of cdf_analysis must handle one by
# one.  The kernel counts whole subtrees by size class, so this does not
# bound the windows it can count.
_MAX_CELLS = 20_000_000

_BLOCK = 1 << 14  # elements per block of the vector cell rule; its temporaries stay in L2


class DomainError(ValueError):
    """An argument lies outside the domain a quantizer operation supports."""


class PathCodeError(ValueError):
    """A path code is malformed or cannot be decoded for the given scheme."""


class Scheme(Enum):
    SIMPLE_UNIFORM = "uniform"
    BMRQ = "bmrq"
    DBMRQ = "dbmrq"
    BBMRQ = "bbmrq"


# ---------------------------------------------------------------------------
# The argument rule: every public scalar goes through one of these two checks


@lru_cache(maxsize=None)  # the few bounds written in the code
def _interval(bounds: str) -> Tuple[float, float, bool, bool]:
    """``(lo, hi, lo_closed, hi_closed)`` of bounds such as ``"[0, inf)"``."""
    lo, hi = bounds[1:-1].split(",")
    return float(lo), float(hi), bounds[0] == "[", bounds[-1] == "]"


def _real(v, name: str, bounds: str = "(-inf, inf)") -> float:
    """``v`` as a Python float, or DomainError unless it is a ``numbers.Real``
    other than a bool whose value lies in ``bounds``, written as ``"(0, 1)"``
    or ``"[0, inf)"`` with infinite ends open, so the float is finite.  A
    numpy scalar becomes the float64 number it equals."""
    # float and int skip the slow abstract-class test; bool is neither type
    if type(v) is float or type(v) is int or isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an int past float64
            f = math.nan
        lo, hi, lo_closed, hi_closed = _interval(bounds)
        if (lo <= f if lo_closed else lo < f) and (f <= hi if hi_closed else f < hi):
            return f
    raise DomainError(f"{name} must be a finite real in {bounds}, got {v!r}")


def _integer(v, name: str, least: float = -math.inf) -> int:
    """``v`` as a Python int, or DomainError unless it is a
    ``numbers.Integral`` other than a bool, at least ``least``."""
    if (type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)) and v >= least:
        return int(v)
    low = "(-inf" if least == -math.inf else f"[{least}"
    raise DomainError(f"{name} must be an integer in {low}, inf), got {v!r}")


class _AlphaPowers:
    """Memoized table of ``alpha**n`` over integer ``n``.

    Nonnegative exponents are built by repeated multiplication from 1.0 and
    negative ones by repeated division, so each entry has exactly one
    rounding history and lookups are reproducible bit for bit.  The table is
    one read-only array; scalar lookups go through a memoryview of it, which
    hands out Python floats several times faster than indexing the array.

    ``max_descent`` bounds the splits of any tree descent: node lengths lie
    between 2^-1074 and 2^1024, 2 098 octaves apart, and a split shortens a
    node by the factor max(alpha, 1 - alpha) or more, save for rounding.
    """

    __slots__ = ("alpha", "_asc", "_view", "n_min", "n_max", "max_descent")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.max_descent = math.ceil(2100 / -math.log2(max(alpha, 1.0 - alpha))) + 64
        # Either way the powers leave float64 within about 1075/-log2(alpha)
        # steps, so this many always reach the end of the range or the cap.
        size = min(_POW_TABLE_CAP, math.ceil(1100 / -math.log2(alpha)) + 1)
        ramp = np.full(size + 1, alpha)
        ramp[0] = 1.0
        pos = np.multiply.accumulate(ramp[:size])  # pos[k] == alpha**k
        with np.errstate(over="ignore"):
            neg = np.divide.accumulate(ramp)[1:]  # neg[k] == alpha**(-(k+1))
        # The products decrease until they underflow to zero or, for alpha >
        # 1/2, stick at a subnormal, and stay there; the quotients stay inf
        # once they overflow.  So both sides end at their first bad entry.
        pos = pos[: 1 + np.count_nonzero((0.0 < pos[1:]) & (pos[1:] < pos[:-1]))]
        neg = neg[np.isfinite(neg)]
        self.n_min = -neg.size
        self.n_max = pos.size - 1
        self._asc = np.concatenate([pos[::-1], neg])  # _asc[k] == alpha**(n_max - k)
        self._asc.flags.writeable = False
        self._view = memoryview(self._asc)

    def pow(self, n):
        """``alpha**n`` for an int (a Python float), or elementwise for an
        integer array."""
        if isinstance(n, np.ndarray):
            if not n.size or self.n_min <= n.min() and n.max() <= self.n_max:
                return self._asc[self.n_max - n]
        elif self.n_min <= n <= self.n_max:
            return self._view[self.n_max - n]
        raise DomainError(
            f"powers of alpha={self.alpha} are tabulated for {self.n_min} <= n <= {self.n_max} only"
        )

    def largest_exponent_above(self, target):
        """Largest integer n with ``alpha**n > target`` (table semantics), for
        a float (an int) or elementwise for an array."""
        if isinstance(target, np.ndarray):
            k = self._asc.searchsorted(target, side="right")
            if not k.size or k.max() < self._asc.size:
                return self.n_max - k
        else:
            k = bisect.bisect_right(self._view, target)
            if k < self._asc.size:
                return self.n_max - k
        raise DomainError(f"no tabulated power of alpha={self.alpha} exceeds {np.max(target)!r}")


@lru_cache(maxsize=32)
def _powers_for(alpha: float) -> _AlphaPowers:
    return _AlphaPowers(alpha)


@dataclass(frozen=True)
class QuantizerSpec:
    """Scheme selector plus family parameters.

    ``alpha`` is required for BBMRQ and must stay in (1/2, 3/4) unless
    ``nonstandard_alpha`` explicitly opts out; values outside that range keep
    the algorithms well defined but void the distributional guarantees, so
    they trigger a warning.  ``dither_irrational`` only matters for DBMRQ.
    Both are stored as the Python floats they equal, so a float32 alpha
    splits in float64 on every path.  Instances are immutable and safe to
    share between threads.
    """

    scheme: Scheme
    alpha: Optional[float] = None
    dither_irrational: float = GOLDEN_RATIO
    nonstandard_alpha: bool = False
    _powers: Optional[_AlphaPowers] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, Scheme):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        d = _real(self.dither_irrational, "dither_irrational", "(0, inf)")
        object.__setattr__(self, "dither_irrational", d)
        if self.scheme is Scheme.BBMRQ:
            a = _real(self.alpha, "alpha", "(0, 1)")
            object.__setattr__(self, "alpha", a)
            if not (0.5 < a < 0.75):
                if not self.nonstandard_alpha:
                    raise DomainError(
                        "BBMRQ alpha outside (1/2, 3/4); pass "
                        "nonstandard_alpha=True to override"
                    )
                warnings.warn(
                    f"BBMRQ alpha={a} is outside (1/2, 3/4); cell-size "
                    "distribution guarantees do not apply",
                    stacklevel=2,
                )
            object.__setattr__(self, "_powers", _powers_for(a))
        else:
            if self.alpha is not None:
                raise DomainError(f"alpha only applies to BBMRQ, not {self.scheme}")

    @classmethod
    def uniform(cls) -> "QuantizerSpec":
        return cls(Scheme.SIMPLE_UNIFORM)

    @classmethod
    def bmrq(cls) -> "QuantizerSpec":
        return cls(Scheme.BMRQ)

    @classmethod
    def dbmrq(cls, dither_irrational: float = GOLDEN_RATIO) -> "QuantizerSpec":
        return cls(Scheme.DBMRQ, dither_irrational=dither_irrational)

    @classmethod
    def bbmrq(cls, alpha: float, nonstandard_alpha: bool = False) -> "QuantizerSpec":
        return cls(Scheme.BBMRQ, alpha=alpha, nonstandard_alpha=nonstandard_alpha)


@dataclass(frozen=True)
class PathCode:
    """Tree address of a cell: sign, base level, then left/right bits.

    ``base_level`` is the exponent n of the deepest all-zero base cell
    ``[0, a**n)`` on the path, where ``a`` is alpha for BBMRQ and 1/2 for the
    dyadic schemes (so dyadic base cells are ``[0, 2**-n)``).  ``bits`` are
    the split choices below that cell (0 = left child, 1 = right child); by
    canonicality the first bit, when present, is 1.  Truncating bits yields
    ancestors.  ``sign`` is -1 for cells mirrored onto the negative axis.
    """

    sign: int
    base_level: int
    bits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        if {type(self.sign), type(self.base_level), *map(type, bits)} != {int}:
            try:  # the integer rule, raising PathCodeError
                object.__setattr__(self, "sign", _integer(self.sign, "sign"))
                object.__setattr__(self, "base_level", _integer(self.base_level, "base_level"))
                bits = tuple(_integer(b, "bits entry", 0) for b in bits)
            except DomainError as exc:
                raise PathCodeError(str(exc)) from None
        object.__setattr__(self, "bits", bits)
        if self.sign not in (1, -1):
            raise PathCodeError(f"sign must be +1 or -1, got {self.sign!r}")
        if not set(bits) <= {0, 1}:
            raise PathCodeError(f"bits must be 0/1, got {bits!r}")
        if bits and bits[0] != 1:
            raise PathCodeError("a nonempty bit string must start with 1")


@dataclass(frozen=True)
class Cell:
    """One quantizer cell ``[lo, hi)`` with its reconstruction level.

    The level is the midpoint ``0.5 * (lo + hi)``, nudged one ulp below
    ``hi`` in the rare case rounding or overflow lands it outside the
    half-open interval, so it always lies inside.  ``path`` is None for
    SIMPLE_UNIFORM, which has no refinement tree.  For negative-axis BBMRQ
    cells the interval is the mirror image of a positive cell; the shared
    endpoint convention stays half-open on the left.
    """

    lo: float
    hi: float
    level: float
    path: Optional[PathCode] = None

    @property
    def size(self) -> float:
        return self.hi - self.lo


def _midpoint(lo, hi):
    """``0.5 * (lo + hi)``, or the float below ``hi`` where that rounds onto
    ``hi`` or ``lo + hi`` overflows.  Takes floats, or arrays elementwise."""
    if isinstance(lo, np.ndarray):
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        out = ~((lo <= mid) & (mid < hi))
        if out.any():
            mid[out] = np.nextafter(hi[out], -np.inf)
        return mid
    mid = 0.5 * (lo + hi)
    return mid if lo <= mid < hi else math.nextafter(hi, -math.inf)


# ---------------------------------------------------------------------------
# Lattice cells (SIMPLE_UNIFORM, BMRQ and DBMRQ)


def _dyadic_level(spec: QuantizerSpec, s, x):
    """Level ``m`` of the dyadic cell that holds ``x`` at step ``s``.

    ``m`` is ``floor(log2 s)``, plus one where DBMRQ merges the pair of
    level-m cells around ``x`` into their parent: where the dithered
    fractional part of the pair's index falls below the fill fraction
    ``2 - 2**(m+1)/s`` that ``s`` demands.  Takes floats, or arrays
    elementwise.  A negative ``x`` so small that its pair index underflows
    to -0.0 gets the pair of 0; the callers keep such inputs away from it.
    """
    xp = np if isinstance(s, np.ndarray) else math
    m = xp.frexp(s)[1] - 1  # exact, unlike log2 followed by floor
    if spec.scheme is Scheme.DBMRQ:
        t = _dither_fraction(spec, xp.floor(xp.ldexp(x, -(m + 1))), xp)
        m = m + (t < 2.0 - 2.0 * (xp.ldexp(1.0, m) / s))
    return m


def _dither_fraction(spec: QuantizerSpec, j, xp=np):
    """The dithered fraction of the DBMRQ pair of index ``j``, which merges below the fill."""
    t = spec.dither_irrational * j
    return t - xp.floor(t)


def _dyadic_path(j: int, m: int) -> PathCode:
    """Path of the dyadic cell [j*2^m, (j+1)*2^m), j of either sign."""
    if j < 0:
        mirrored = _dyadic_path(-j - 1, m)
        return PathCode(-1, mirrored.base_level, mirrored.bits)
    if j == 0:
        return PathCode(1, -m)
    width = j.bit_length()
    bits = tuple((j >> (width - 1 - i)) & 1 for i in range(width))
    return PathCode(1, -(m + width), bits)


def _lattice_index(w: float, x: float) -> Tuple[int, float, float]:
    """Index ``j`` and ends of the cell ``[j*w, (j+1)*w)`` that holds ``x``.

    ``floor(x / w)`` is one cell off where the quotient rounds across an
    integer or underflows to -0.0, so the computed ends decide.  Raises
    DomainError where ``j`` is too large to be exact or an end overflows.
    """
    u = x / w
    if abs(u) < 2.0 ** 53:
        j = math.floor(u)
        lo, hi = j * w, (j + 1) * w
        if x < lo:
            j, lo, hi = j - 1, (j - 1) * w, lo
        elif x >= hi:
            j, lo, hi = j + 1, hi, (j + 2) * w
        if -math.inf < lo <= x < hi < math.inf:
            return j, lo, hi
    raise DomainError(
        f"the cell of {x!r} at spacing {w!r} is not representable in float64"
    )


def _lattice_cell(spec: QuantizerSpec, s: float, x: float) -> Cell:
    """The SIMPLE_UNIFORM, BMRQ or DBMRQ cell of ``x`` at step ``s``."""
    if spec.scheme is Scheme.SIMPLE_UNIFORM:
        _, lo, hi = _lattice_index(s, x)
        return Cell(lo, hi, _midpoint(lo, hi))
    unit = math.ldexp(1.0, math.frexp(s)[1] - 1)
    try:
        # Every x in [-unit, 0) has the cell of -unit, whose pair index,
        # unlike that of a tiny negative x, cannot underflow to -0.0.
        m = _dyadic_level(spec, s, -unit if -unit < x < 0.0 else x)
        j, lo, hi = _lattice_index(math.ldexp(1.0, m), x)
    except OverflowError:  # the pair index or the cell length exceeds float64
        raise DomainError(
            f"the dyadic cell of {x!r} at step {s!r} is not representable in float64"
        ) from None
    return Cell(lo, hi, _midpoint(lo, hi), _dyadic_path(j, m))


# ---------------------------------------------------------------------------
# Biased tree (BBMRQ)


def _split(pows: _AlphaPowers, alpha: float, lo, hi, base_level):
    """Split point of the biased-tree node ``[lo, hi)``.

    A base cell ``[0, alpha**n)`` (``n = base_level``) splits at the
    tabulated ``alpha**(n+1)``, so the all-zero chain is self-consistent
    wherever a descent starts; any other node splits at ``lo + alpha*(hi -
    lo)``.  A split not strictly inside the node means float64 cannot
    resolve it.  Takes floats, or arrays elementwise: arrays of base cells
    with an integer array ``base_level``, or of nodes off zero with None.
    """
    if isinstance(lo, np.ndarray):
        split = lo + alpha * (hi - lo) if base_level is None else pows.pow(base_level + 1)
        inside = (lo < split) & (split < hi)
        if inside.all():
            return split
        i = np.argmin(inside)
        lo, hi = float(lo[i]), float(hi[i])
    else:
        split = pows.pow(base_level + 1) if lo == 0.0 else lo + alpha * (hi - lo)
        if lo < split < hi:
            return split
    raise DomainError(
        f"split of [{lo!r}, {hi!r}) is not strictly inside it; the step is "
        "below the resolvable range"
    )


def _biased_descent(
    spec: QuantizerSpec, s: float, x: float
) -> Tuple[float, float, int, List[int]]:
    """Walk the biased tree to the cell of x >= 0; returns (lo, hi, n, bits).

    The walk starts at the base cell ``[0, alpha**n)`` with ``alpha**n >
    max(x, s) >= alpha**(n+1)``.  Its split ``alpha**(n+1)`` is the only base
    cell split the walk meets: x either leaves the base chain there or lands
    in the leaf ``[0, alpha**(n+1))``, which is no longer than s.
    """
    pows = spec._powers
    assert pows is not None
    n = pows.largest_exponent_above(x if x > s else s)
    hi = pows.pow(n)
    lo = _split(pows, spec.alpha, 0.0, hi, n)
    if x < lo:
        return 0.0, lo, n + 1, []
    bits = [1]
    for _ in range(pows.max_descent):
        if hi - lo <= s:
            return lo, hi, n, bits
        split = _split(pows, spec.alpha, lo, hi, n)
        if x >= split:
            bits.append(1)
            lo = split
        else:
            bits.append(0)
            hi = split
    raise DomainError("descent exceeded the iteration safety bound")


def _biased_cell(spec: QuantizerSpec, s: float, x: float) -> Cell:
    if x < 0.0:
        lo, hi, n, bits = _biased_descent(spec, s, -x)
        mid = _midpoint(lo, hi)
        return Cell(-hi, -lo, -mid, PathCode(-1, n, tuple(bits)))
    lo, hi, n, bits = _biased_descent(spec, s, x)
    return Cell(lo, hi, _midpoint(lo, hi), PathCode(1, n, tuple(bits)))


# ---------------------------------------------------------------------------
# Public scalar operations


def cell_of(spec: QuantizerSpec, s: float, x: float) -> Cell:
    """The cell of ``x`` under scheme ``spec`` at step bound ``s``."""
    s, x = _real(s, "step bound s", "(0, inf)"), _real(x, "x")
    if spec.scheme is Scheme.BBMRQ:
        return _biased_cell(spec, s, x)
    return _lattice_cell(spec, s, x)


def quantize(spec: QuantizerSpec, s: float, x: float) -> float:
    """Reconstruction level for ``x``: the midpoint of its cell."""
    return cell_of(spec, s, x).level


def tree_interval(alpha: float, path: PathCode) -> Tuple[float, float]:
    """Interval of the biased-tree node addressed by ``path``.

    Starts from the base cell ``[0, alpha**n)`` and walks the bits: a 0 bit
    keeps the left part of the node's split and a 1 bit the right part.
    Splits come from the same :func:`_split` as the descent in
    :func:`cell_of`, so the two agree bit for bit.
    """
    alpha = _real(alpha, "alpha", "(0, 1)")
    if not isinstance(path, PathCode):
        raise PathCodeError(f"expected a PathCode, got {path!r}")
    pows = _powers_for(alpha)
    lo, hi = 0.0, pows.pow(path.base_level)
    # A nonempty bit string starts with 1, so only the first split is a base
    # cell's, and it is the split of alpha**base_level.
    for bit in path.bits:
        split = _split(pows, alpha, lo, hi, path.base_level)
        lo, hi = (split, hi) if bit else (lo, split)
    if path.sign < 0:
        return -hi, -lo
    return lo, hi


def decode_path(spec: QuantizerSpec, path: PathCode) -> Cell:
    """Reconstruct the cell a path code addresses."""
    if not isinstance(path, PathCode):
        raise PathCodeError(f"expected a PathCode, got {path!r}")
    if spec.scheme is Scheme.SIMPLE_UNIFORM:
        raise PathCodeError("SIMPLE_UNIFORM has no refinement tree to decode")
    if spec.scheme is Scheme.BBMRQ:
        lo, hi = tree_interval(spec.alpha, PathCode(1, path.base_level, path.bits))
        mid = _midpoint(lo, hi)
        if path.sign < 0:
            return Cell(-hi, -lo, -mid, path)
        return Cell(lo, hi, mid, path)
    # Dyadic: the cell [j*2**m, (j+1)*2**m) of the path's index j.  Both ends
    # are exact floats only while j has at most 53 bits (the first is 1), the
    # cell is no shorter than the smallest subnormal and neither end overflows.
    m = -path.base_level - len(path.bits)
    j = int("".join(map(str, path.bits)) or "0", 2)
    j = -j - 1 if path.sign < 0 else j
    if len(path.bits) <= 53 and m >= -1074:
        try:
            lo, hi = math.ldexp(j, m), math.ldexp(j + 1, m)
        except OverflowError:
            pass
        else:
            return Cell(lo, hi, _midpoint(lo, hi), path)
    raise PathCodeError(
        f"the dyadic cell at level {m} of a {len(path.bits)}-bit path is not "
        "representable in float64"
    )


def encode_path(spec: QuantizerSpec, s: float, x: float) -> PathCode:
    """Path code of the cell of ``x`` at step bound ``s``."""
    cell = cell_of(spec, s, x)
    if cell.path is None:
        raise PathCodeError("SIMPLE_UNIFORM cells have no path codes")
    return cell.path


# ---------------------------------------------------------------------------
# Vector cell rule


def _cells_many(
    spec: QuantizerSpec, s: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cell_of` elementwise, bit for bit: the ``(lo, hi, level)``
    arrays of the cells of the flat array ``x`` at the steps ``s``.

    Lattice cells come from the index expressions of :func:`_lattice_cell`;
    ldexp by ``-m`` rounds exactly as the scalar division by ``2**m`` does.
    The rare element they get wrong -- an index too large to be exact or one
    cell off, an end out of range -- fails one check and goes through the
    scalar path, which repairs it or raises DomainError.

    BBMRQ cells come from :func:`_biased_descent` on ``|x|``, every split
    from :func:`_split` on arrays: the base cells' splits first, then those
    of the nodes, all off zero, still descending.  A negative ``x`` gets the
    mirror image of its positive cell, whose level is the negated midpoint
    of that cell.

    Longer inputs run a block of :data:`_BLOCK` elements at a time, which
    keeps every bit, as each element depends only on its own input and step.
    Of several failing elements, one in the first block holding any raises.
    """
    if x.size > _BLOCK:
        cells = np.empty((3, x.size))
        for i in range(0, x.size, _BLOCK):
            cells[:, i : i + _BLOCK] = _cells_many(spec, s[i : i + _BLOCK], x[i : i + _BLOCK])
        return cells[0], cells[1], cells[2]
    if spec.scheme is not Scheme.BBMRQ:
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.scheme is Scheme.SIMPLE_UNIFORM:
                j = x / s
                np.floor(j, out=j)
                lo, hi = j * s, j + 1.0
                hi *= s
            else:
                m = _dyadic_level(spec, s, x)
                j = np.ldexp(x, -m)
                np.floor(j, out=j)
                lo, hi = np.ldexp(j, m), j + 1.0
                np.ldexp(hi, m, out=hi)
            mid = _midpoint(lo, hi)
        ok = (np.abs(j) < 2.0 ** 53) & (-np.inf < lo) & (lo <= x) & (x < hi) & (hi < np.inf)
        for i in np.flatnonzero(~ok):
            c = cell_of(spec, s[i], x[i])
            lo[i], hi[i], mid[i] = c.lo, c.hi, c.level
        return lo, hi, mid
    pows = spec._powers
    assert pows is not None
    alpha = spec.alpha
    ax = np.abs(x)
    n = pows.largest_exponent_above(np.maximum(ax, s))
    hi = pows.pow(n)
    split = _split(pows, alpha, np.zeros(hi.size), hi, n)
    right = ax >= split
    lo = np.where(right, split, 0.0)
    hi = np.where(right, hi, split)
    todo = np.flatnonzero(hi - lo > s)
    t_lo, t_hi, t_s, t_x = lo[todo], hi[todo], s[todo], ax[todo]
    for _ in range(pows.max_descent):
        if not todo.size:
            break
        split = _split(pows, alpha, t_lo, t_hi, None)
        right = t_x >= split
        t_lo = np.where(right, split, t_lo)
        t_hi = np.where(right, t_hi, split)
        leaf = t_hi - t_lo <= t_s
        if leaf.any():  # integer takes beat five boolean masks
            done = np.flatnonzero(leaf)
            lo[todo[done]], hi[todo[done]] = t_lo[done], t_hi[done]
            more = np.flatnonzero(~leaf)
            todo, t_lo, t_hi, t_s, t_x = todo[more], t_lo[more], t_hi[more], t_s[more], t_x[more]
    else:
        raise DomainError("descent exceeded the iteration safety bound")
    mid = _midpoint(lo, hi)
    neg = x < 0.0
    return np.where(neg, -hi, lo), np.where(neg, -lo, hi), np.where(neg, -mid, mid)


def quantize_many(spec: QuantizerSpec, s, x) -> np.ndarray:
    """Vectorized :func:`quantize`; ``s`` may be a scalar or match ``x``.

    Matches the scalar implementation bit for bit (both run the same float64
    expressions, element by element).  Non-numeric, bool or complex
    arguments, then bad inputs, steps and shapes, raise DomainError in that
    order.
    """
    try:
        for v in (x, s):  # numpy would promote a bool inside a list or object array to 1.0
            if not isinstance(v, np.ndarray) or v.dtype == object:
                if any(isinstance(e, (bool, np.bool_)) for e in np.asarray(v, dtype=object).flat):
                    raise TypeError("bool values")
        x, s = np.asarray(x), np.asarray(s)
        if x.dtype.kind in "bc" or s.dtype.kind in "bc":  # a cast reads True as 1.0, drops imaginary parts
            raise TypeError(f"{x.dtype} and {s.dtype} values")
        x, s = x.astype(np.float64, copy=False), s.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"inputs and step bounds must be finite reals ({e})") from None
    if not np.isfinite(x).all():
        raise DomainError("inputs must be finite reals")
    if not np.isfinite(s).all() or (s <= 0.0).any():
        raise DomainError("step bounds must be positive finite reals")
    try:
        steps = np.broadcast_to(s, x.shape).reshape(-1)  # a view where s is a scalar
    except ValueError:
        raise DomainError(f"steps of shape {s.shape} do not broadcast to inputs of shape {x.shape}") from None
    # only the levels are kept, so no lo and hi arrays as long as x are made
    flat, level = x.ravel(), np.empty(x.size)
    for i in range(0, x.size, _BLOCK):
        level[i : i + _BLOCK] = _cells_many(spec, steps[i : i + _BLOCK], flat[i : i + _BLOCK])[2]
    return level.reshape(x.shape)


# ---------------------------------------------------------------------------
# Windows


def _window_args(
    spec: QuantizerSpec, s: float, x0: float, x1: float, most: float = _MAX_CELLS
) -> Tuple[float, float, float, int]:
    """The checked floats ``(s, x0, x1)`` and the window's grid size, one
    point per shortest cell plus one.  The shortest cell the scheme can have
    is ``min(alpha, 1 - alpha) * s`` for BBMRQ and ``s / 2`` otherwise; the
    window's length in such cells comes from ``(x1 - x0) / s``, so no
    underflowed cell length divides it.  As it bounds the window's cells, it
    may not exceed ``most``: :data:`_MAX_CELLS` for a listing, ``2**62`` for
    a count by size class.
    """
    s, x0, x1 = _real(s, "step bound s", "(0, inf)"), _real(x0, "x0"), _real(x1, "x1")
    if not x0 < x1:
        raise DomainError(f"need x0 < x1, got [{x0!r}, {x1!r})")
    shortest = min(spec.alpha, 1.0 - spec.alpha) if spec.scheme is Scheme.BBMRQ else 0.5
    points = (x1 - x0) / s / shortest
    if not points <= most:
        raise DomainError(f"[{x0}, {x1}) at step {s} would exceed {most:.0f} cells")
    return s, x0, x1, math.floor(points) + 1


def _listing_bounds(x0: float, x1: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Per side of zero, the ``(bottom, top)`` such that the walk of
    :func:`enumerate_cells` over ``[x0, x1)`` lists the BBMRQ cell ``[a, b)``
    iff ``a <= top`` and ``b > bottom``: iff ``a < x1`` and ``b > x0``, and
    its mirror ``(-b, -a]`` iff ``-b < x1`` and ``-a >= x0`` (it may hold
    only ``x1``) and ``b > 5e-324`` (``(-5e-324, 0]`` holds no negative float).
    """
    return (x0, math.nextafter(x1, -math.inf)), (max(-x1, 5e-324), -x0)


def _first_float(spec: QuantizerSpec, ends: np.ndarray) -> np.ndarray:
    """The first float of the cells that start at ``ends``: the end itself,
    or the float above it for a mirrored BBMRQ cell ``(lo, hi]``."""
    if spec.scheme is not Scheme.BBMRQ:
        return ends
    return np.where(ends < 0.0, np.nextafter(ends, np.inf), ends)


def enumerate_cells(spec: QuantizerSpec, s: float, x0: float, x1: float) -> List[Cell]:
    """All cells meeting ``[x0, x1)``, ascending, sharing endpoints bitwise.

    The first cell contains ``x0`` and the last reaches ``x1``; end cells are
    returned whole, not clipped.  This is the scalar oracle of the window: a
    walk over :func:`cell_of` from ``x0``, each cell starting where the last
    one ends -- one ulp further past the upper end of a mirrored BBMRQ cell,
    which that cell contains -- until a cell reaches ``x1``.
    """
    s, x0, x1, _ = _window_args(spec, s, x0, x1)
    mirrors = spec.scheme is Scheme.BBMRQ
    cells = [cell_of(spec, s, x0)]
    while cells[-1].hi < x1:
        x = cells[-1].hi
        cells.append(cell_of(spec, s, math.nextafter(x, math.inf) if mirrors and x < 0.0 else x))
    return cells


def _window_cells(
    spec: QuantizerSpec, s: float, x0: float, x1: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(lo, hi, level)`` arrays of the cells :func:`enumerate_cells`
    lists, from the vector rule on a grid from ``x0``, spaced just under the
    shortest cell, to the last float below ``x1``: the first grid point of
    each cell is kept.  Rounding can step over a cell, so the rule runs again
    on the float after each cell that the next cell does not start at, or
    that falls short of ``x1``, until no gap is left; a cell's first float
    comes from :func:`_first_float`.
    """
    s, x0, x1, n = _window_args(spec, s, x0, x1)
    grid = x0 + (x1 - x0) / n * np.arange(n)
    grid = np.append(grid[grid < x1], math.nextafter(x1, -math.inf))
    lo, hi, level = _cells_many(spec, np.broadcast_to(s, grid.shape), grid)
    first = np.append(True, lo[1:] != lo[:-1])
    lo, hi, level = lo[first], hi[first], level[first]
    while True:
        after = _first_float(spec, hi)
        gap = np.flatnonzero(np.append(after[:-1] < _first_float(spec, lo[1:]), hi[-1] < x1))
        if not gap.size:
            return lo, hi, level
        new = _cells_many(spec, np.full(gap.size, s), after[gap])
        lo, hi, level = (np.insert(old, gap + 1, add) for old, add in zip((lo, hi, level), new))
