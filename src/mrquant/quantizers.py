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
:func:`_dyadic_level`, midpoints only from :func:`_midpoint`.  A descent meets
one base cell, whose split is its first step (see :func:`_biased_descent`), so
the vector descent needs only the interior rule of :func:`_split`, applied
elementwise.
"""

from __future__ import annotations

import bisect
import math
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

# Refuse enumerations that would materialize an absurd number of cells.
_MAX_CELLS = 20_000_000


class DomainError(ValueError):
    """An argument lies outside the domain a quantizer operation supports."""


class PathCodeError(ValueError):
    """A path code is malformed or cannot be decoded for the given scheme."""


class Scheme(Enum):
    SIMPLE_UNIFORM = "uniform"
    BMRQ = "bmrq"
    DBMRQ = "dbmrq"
    BBMRQ = "bbmrq"


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
        if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
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
    Instances are immutable and safe to share between threads.
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
        if self.scheme is Scheme.BBMRQ:
            a = self.alpha
            if a is None or not math.isfinite(a) or not (0.0 < a < 1.0):
                raise DomainError("BBMRQ requires alpha in (0, 1)")
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
        if self.scheme is Scheme.DBMRQ:
            d = self.dither_irrational
            if not math.isfinite(d) or d <= 0.0:
                raise DomainError("DBMRQ dither constant must be positive and finite")

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
        if self.sign not in (1, -1):
            raise PathCodeError(f"sign must be +1 or -1, got {self.sign!r}")
        if not isinstance(self.base_level, int):
            raise PathCodeError("base_level must be an integer")
        bits = tuple(self.bits)
        object.__setattr__(self, "bits", bits)
        if any(b not in (0, 1) for b in bits):
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


def _require_step(s: float) -> None:
    if not isinstance(s, (int, float)) or not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"step bound must be a positive finite real, got {s!r}")


def _require_input(x: float) -> None:
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        raise DomainError(f"input must be a finite real, got {x!r}")


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
        t = spec.dither_irrational * xp.floor(xp.ldexp(x, -(m + 1)))
        m = m + (t - xp.floor(t) < 2.0 - 2.0 * (xp.ldexp(1.0, m) / s))
    return m


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


def _split(
    pows: _AlphaPowers, alpha: float, lo: float, hi: float, base_level: int
) -> float:
    """Split point of the biased-tree node ``[lo, hi)``.

    A base cell ``[0, alpha**n)`` splits at the tabulated ``alpha**(n+1)``,
    so the all-zero chain is self-consistent wherever a descent starts; any
    other node splits at ``lo + alpha*(hi - lo)``.  A split not strictly
    inside the node means float64 cannot resolve it.
    """
    split = pows.pow(base_level + 1) if lo == 0.0 else lo + alpha * (hi - lo)
    if not lo < split < hi:
        raise DomainError(
            f"split of [{lo!r}, {hi!r}) is not strictly inside it; the step is "
            "below the resolvable range"
        )
    return split


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
    _require_step(s)
    _require_input(x)
    x = float(x)
    s = float(s)
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
    if not (isinstance(alpha, float) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be a float in (0, 1), got {alpha!r}")
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
# Enumeration


def _cell_budget(spec: QuantizerSpec, s: float, x0: float, x1: float) -> None:
    if spec.scheme is Scheme.BBMRQ:
        finest = (1.0 - spec.alpha) * s
    else:
        finest = 0.5 * s
    if (x1 - x0) / finest > _MAX_CELLS:
        raise DomainError(
            f"enumerating [{x0}, {x1}) at step {s} would exceed "
            f"{_MAX_CELLS} cells"
        )


def _enumerate_lattice(spec: QuantizerSpec, s: float, x0: float, x1: float) -> List[Cell]:
    # Walking x <- cell.hi is exact: a cell's upper end is the next one's lower.
    out = []
    x = x0
    while x < x1:
        cell = _lattice_cell(spec, s, x)
        out.append(cell)
        x = cell.hi
    return out


def _enumerate_biased_nonneg(
    spec: QuantizerSpec, s: float, a: float, b: float
) -> List[Cell]:
    """BBMRQ cells meeting [a, b) for 0 <= a < b, in ascending order."""
    pows = spec._powers
    assert pows is not None
    alpha = spec.alpha
    # The smallest base cell that covers [0, b) and is longer than s.
    n_start = pows.largest_exponent_above(max(math.nextafter(b, -math.inf), s))
    out: List[Cell] = []
    # Stack entries: (lo, hi, base_level, bits packed into an int, bit count).
    stack = [(0.0, pows.pow(n_start), n_start, 0, 0)]
    while stack:
        lo, hi, base_level, packed, nbits = stack.pop()
        if hi <= a or lo >= b:
            continue
        if hi - lo <= s:
            bits = tuple((packed >> (nbits - 1 - i)) & 1 for i in range(nbits))
            out.append(Cell(lo, hi, _midpoint(lo, hi), PathCode(1, base_level, bits)))
            continue
        split = _split(pows, alpha, lo, hi, base_level)
        if lo == 0.0:
            right = (split, hi, base_level, 1, 1)
            left = (0.0, split, base_level + 1, 0, 0)
        else:
            right = (split, hi, base_level, (packed << 1) | 1, nbits + 1)
            left = (lo, split, base_level, packed << 1, nbits + 1)
        stack.append(right)
        stack.append(left)
    return out


def _mirror_cell(c: Cell) -> Cell:
    assert c.path is not None
    return Cell(-c.hi, -c.lo, -c.level, PathCode(-c.path.sign, c.path.base_level, c.path.bits))


def _enumerate_biased(spec: QuantizerSpec, s: float, x0: float, x1: float) -> List[Cell]:
    if x0 >= 0.0:
        return _enumerate_biased_nonneg(spec, s, x0, x1)
    # A mirrored cell [-hi, -lo) meets [x0, x1) iff its positive original has
    # hi > -x1 and lo <= -x0 (the boundary case lo == -x0 is the cell that
    # odd symmetry assigns to x0 itself).  Pushing the upper bound one ulp
    # past -x0 turns lo <= -x0 into the enumerator's strict lo < bound.
    upper = math.nextafter(-x0, math.inf)
    if x1 <= 0.0:
        pos = _enumerate_biased_nonneg(spec, s, -x1, upper)
        return [_mirror_cell(c) for c in reversed(pos)]
    pos = _enumerate_biased_nonneg(spec, s, 0.0, upper)
    neg = [_mirror_cell(c) for c in reversed(pos)]
    return neg + _enumerate_biased_nonneg(spec, s, 0.0, x1)


def enumerate_cells(spec: QuantizerSpec, s: float, x0: float, x1: float) -> List[Cell]:
    """All cells meeting ``[x0, x1)``, ascending, sharing endpoints bitwise.

    The first cell contains ``x0`` and the last contains the supremum of the
    window; end cells are returned whole, not clipped.
    """
    _require_step(s)
    _require_input(x0)
    _require_input(x1)
    if not x0 < x1:
        raise DomainError(f"need x0 < x1, got [{x0!r}, {x1!r})")
    s = float(s)
    x0 = float(x0)
    x1 = float(x1)
    _cell_budget(spec, s, x0, x1)
    if spec.scheme is Scheme.BBMRQ:
        return _enumerate_biased(spec, s, x0, x1)
    return _enumerate_lattice(spec, s, x0, x1)


# ---------------------------------------------------------------------------
# Vectorized quantization


def _quantize_many_lattice(spec: QuantizerSpec, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Levels of :func:`_lattice_cell` elementwise, bit for bit: ldexp by
    ``-m`` rounds exactly as the scalar division by ``2**m`` does.

    The rare element the fast expressions get wrong -- an index too large to be exact or
    one cell off, an end out of range -- fails one check and goes through the
    scalar path, which repairs it or raises DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.scheme is Scheme.SIMPLE_UNIFORM:
            j = np.floor(x / s)
            lo, hi = j * s, (j + 1.0) * s
        else:
            m = _dyadic_level(spec, s, x)
            j = np.floor(np.ldexp(x, -m))
            lo, hi = np.ldexp(j, m), np.ldexp(j + 1.0, m)
        mid = _midpoint(lo, hi)
    ok = (np.abs(j) < 2.0 ** 53) & (-np.inf < lo) & (lo <= x) & (x < hi) & (hi < np.inf)
    for i in np.flatnonzero(~ok):
        mid[i] = quantize(spec, s[i], x[i])
    return mid


def _quantize_many_bbmrq(spec: QuantizerSpec, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_biased_descent` elementwise: the base cell's split first, then
    the splits of the elements still descending, with the same checks."""
    pows = spec._powers
    assert pows is not None
    alpha = spec.alpha
    ax = np.abs(x)
    n = pows.largest_exponent_above(np.maximum(ax, s))
    split = pows.pow(n + 1)
    right = ax >= split
    lo = np.where(right, split, 0.0)
    hi = np.where(right, pows.pow(n), split)
    todo = np.flatnonzero(hi - lo > s)
    t_lo, t_hi, t_s, t_x = lo[todo], hi[todo], s[todo], ax[todo]
    for _ in range(pows.max_descent):
        if not todo.size:
            break
        split = t_lo + alpha * (t_hi - t_lo)
        if ((split <= t_lo) | (split >= t_hi)).any():
            raise DomainError("descent stalled; step bound below resolvable range")
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
    return np.where(x < 0.0, -mid, mid)


def quantize_many(spec: QuantizerSpec, s, x) -> np.ndarray:
    """Vectorized :func:`quantize`; ``s`` may be a scalar or match ``x``.

    Matches the scalar implementation bit for bit (both run the same float64
    expressions, element by element).
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), x.shape)
    if not np.isfinite(x).all():
        raise DomainError("inputs must be finite")
    if not np.isfinite(s).all() or (s <= 0.0).any():
        raise DomainError("step bounds must be positive finite reals")
    kernel = _quantize_many_bbmrq if spec.scheme is Scheme.BBMRQ else _quantize_many_lattice
    return kernel(spec, s.ravel(), x.ravel()).reshape(x.shape)
