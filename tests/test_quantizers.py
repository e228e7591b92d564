"""Quantizer-layer tests.

The reference oracles here are deliberately independent of the library code:
exact rational arithmetic (``fractions.Fraction``) re-derives cells from the
definitions, using the float parameters' exact binary values so the only
discrepancy left is float rounding inside the library.
"""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrquant import (
    GOLDEN_RATIO,
    DomainError,
    PathCode,
    PathCodeError,
    QuantizerSpec,
    Scheme,
    cell_of,
    decode_path,
    encode_path,
    enumerate_cells,
    quantize,
    quantize_many,
    tree_interval,
)
from mrquant import quantizers
from mrquant.quantizers import (
    _BLOCK,
    _POW_TABLE_CAP,
    _AlphaPowers,
    _cells_many,
    _midpoint,
    _window_cells,
)

UNIFORM = QuantizerSpec.uniform()
BMRQ = QuantizerSpec.bmrq()
DBMRQ = QuantizerSpec.dbmrq()
BB6 = QuantizerSpec.bbmrq(0.6)
BB74 = QuantizerSpec.bbmrq(0.74)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)
    BB3 = QuantizerSpec.bbmrq(0.3, nonstandard_alpha=True)
    BB999 = QuantizerSpec.bbmrq(0.999, nonstandard_alpha=True)
WINDOW_SPECS = {
    "uniform": UNIFORM,
    "bmrq": BMRQ,
    "dbmrq": DBMRQ,
    "bbmrq0.6": BB6,
    "bbmrq0.74": BB74,
    "bbmrq0.3": BB3,
}


# ---------------------------------------------------------------------------
# Rational oracles


def rational_uniform_level(s: Fraction, x: Fraction) -> Fraction:
    return s * (math.floor(x / s) + Fraction(1, 2))


def rational_biased_interval(alpha: Fraction, s: Fraction, x: Fraction):
    """Exact biased-tree cell of x >= 0: descend from the covering base cell."""
    assert 0 < alpha < 1 and s > 0 and x >= 0
    target = max(x, s)
    p = Fraction(1)
    if p > target:
        while p * alpha > target:
            p *= alpha
    else:
        while p <= target:
            p /= alpha
    lo, hi = Fraction(0), p
    while hi - lo > s:
        split = lo + alpha * (hi - lo)
        if x < split:
            hi = split
        else:
            lo = split
    return lo, hi


def loop_powers(alpha: float):
    """``alpha**n`` built by one multiplication or division per entry, as
    plain Python loops: ``(pos, neg)`` with ``pos[k] == alpha**k`` and
    ``neg[k] == alpha**-(k+1)``, each ending where float64 does or at the cap."""
    pos = [1.0]
    while len(pos) < _POW_TABLE_CAP:
        v = pos[-1] * alpha
        if v <= 0.0 or v >= pos[-1]:  # underflowed, or stuck at a subnormal
            break
        pos.append(v)
    neg = []
    prev = 1.0
    while len(neg) < _POW_TABLE_CAP:
        prev = prev / alpha
        if math.isinf(prev):
            break
        neg.append(prev)
    return pos, neg


def nonstandard(alpha: float) -> QuantizerSpec:
    with pytest.warns(UserWarning):
        return QuantizerSpec.bbmrq(alpha, nonstandard_alpha=True)


def assert_close_to_fraction(value: float, exact: Fraction, rel=1e-13):
    scale = max(abs(float(exact)), 1e-300)
    assert abs(value - float(exact)) <= rel * scale


# ---------------------------------------------------------------------------


class TestSimpleUniform:
    def test_basic_levels(self):
        assert quantize(UNIFORM, 0.25, 2 / 7) == 0.375
        assert quantize(UNIFORM, 1.0, 3.7) == 3.5
        assert quantize(UNIFORM, 1.0, -0.2) == -0.5

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = float(np.exp(rng.uniform(np.log(1e-3), np.log(50))))
            x = float(rng.uniform(-100, 100))
            got = quantize(UNIFORM, s, x)
            want = rational_uniform_level(Fraction(s), Fraction(x))
            assert_close_to_fraction(got, want)

    def test_is_not_multi_resolution(self):
        # The documented witness: requantizing 0.375 at step 1/3 lands in a
        # different cell than 2/7 itself does.
        x = 2 / 7
        y = quantize(UNIFORM, 1 / 4, x)
        assert quantize(UNIFORM, 1 / 3, y) != quantize(UNIFORM, 1 / 3, x)

    def test_cell_contains_input_and_is_centered(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = float(np.exp(rng.uniform(np.log(1e-3), np.log(50))))
            x = float(rng.uniform(-100, 100))
            c = cell_of(UNIFORM, s, x)
            assert c.lo <= x < c.hi
            assert c.lo < c.level < c.hi
            assert c.level == 0.5 * (c.lo + c.hi) or c.level == math.nextafter(c.hi, -math.inf)
            assert c.path is None


class TestBmrq:
    def test_dyadic_levels_exact(self):
        assert quantize(BMRQ, 0.25, 2 / 7) == 0.375
        assert quantize(BMRQ, 0.5, 0.375) == 0.25
        assert quantize(BMRQ, 1.0, 0.0) == 0.5
        assert quantize(BMRQ, 1.0, -0.25) == -0.5

    def test_step_uses_floor_power_of_two(self):
        # Any s in [2^m, 2^{m+1}) quantizes on the level-m lattice.
        for s, width in [(1.0, 1.0), (1.5, 1.0), (1.9999, 1.0), (2.0, 2.0), (0.7, 0.5)]:
            c = cell_of(BMRQ, s, 0.1)
            assert c.hi - c.lo == math.ldexp(1.0, math.frexp(s)[1] - 1)
            del c
            c = cell_of(BMRQ, s, 5.3)
            assert c.size == math.ldexp(1.0, math.frexp(s)[1] - 1)
            assert c.size == width

    @given(
        x=st.floats(-1e6, 1e6),
        e1=st.floats(-30, 15),
        r=st.floats(0, 40),
    )
    @settings(max_examples=300)
    @example(x=-5e-324, e1=0.0, r=1.0)
    def test_requantization_identity(self, x, e1, r):
        s1 = 2.0 ** e1
        s2 = s1 * 2.0 ** r
        y = quantize(BMRQ, s1, x)
        assert quantize(BMRQ, s2, y) == quantize(BMRQ, s2, x)

    def test_path_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            s = float(2.0 ** rng.uniform(-20, 6))
            x = float(rng.uniform(-200, 200))
            c = cell_of(BMRQ, s, x)
            back = decode_path(BMRQ, c.path)
            assert (back.lo, back.hi, back.level) == (c.lo, c.hi, c.level)


class TestDbmrq:
    def test_merged_and_unmerged_examples(self):
        # At s = 1.5 the merge threshold is 2 - 2/1.5 = 2/3.
        # Pair 3 has frac(3*phi) ~= 0.854 >= 2/3: kept at unit cells.
        assert quantize(DBMRQ, 1.5, 6.3) == 6.5
        # Pair 0 has frac(0) = 0 < 2/3: merged into [0, 2).
        assert quantize(DBMRQ, 1.5, 0.3) == 1.0
        cells = [(c.lo, c.hi) for c in enumerate_cells(DBMRQ, 1.5, 0.0, 4.0)]
        assert cells == [(0.0, 2.0), (2.0, 4.0)]
        cells = [(c.lo, c.hi) for c in enumerate_cells(DBMRQ, 1.5, 6.0, 8.0)]
        assert cells == [(6.0, 7.0), (7.0, 8.0)]

    def test_degenerates_to_bmrq_at_exact_powers(self):
        rng = np.random.default_rng(10)
        for k in (-3, 0, 2):
            s = math.ldexp(1.0, k)
            xs = rng.uniform(-100, 100, 200)
            assert np.array_equal(
                quantize_many(DBMRQ, s, xs), quantize_many(BMRQ, s, xs)
            )

    def test_merge_fraction_tracks_threshold(self):
        # Over many consecutive pairs the merged fraction approaches the
        # fill fraction demanded by s (equidistribution of frac(j*phi)).
        s = 1.5
        cells = enumerate_cells(DBMRQ, s, 0.0, 4000.0)
        merged = sum(1 for c in cells if c.size == 2.0)
        total_pairs = 2000
        assert abs(merged / total_pairs - (2 - 2 / s)) < 0.02

    @given(
        x=st.floats(-1e6, 1e6),
        e1=st.floats(-30, 15),
        r=st.floats(0, 40),
    )
    @settings(max_examples=300)
    @example(x=-5e-324, e1=0.0, r=1.0)
    def test_requantization_identity(self, x, e1, r):
        s1 = 1.3 * 2.0 ** e1
        s2 = s1 * 2.0 ** r
        y = quantize(DBMRQ, s1, x)
        assert quantize(DBMRQ, s2, y) == quantize(DBMRQ, s2, x)

    def test_scalar_matches_vector_inside_the_octave(self):
        rng = np.random.default_rng(20)
        xs = rng.uniform(-500, 500, 4000)
        ss = np.ldexp(rng.uniform(1.0, 2.0, 4000), rng.integers(-12, 6, 4000))
        vec = quantize_many(DBMRQ, ss, xs)
        cells = [cell_of(DBMRQ, float(s), float(x)) for s, x in zip(ss, xs)]
        assert np.array_equal(vec, [c.level for c in cells])
        unit = np.ldexp(1.0, np.frexp(ss)[1] - 1)
        merged = np.array([c.size for c in cells]) == 2.0 * unit
        assert merged.any() and not merged.all()

    def test_path_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = float(np.exp(rng.uniform(np.log(1e-4), np.log(60))))
            x = float(rng.uniform(-200, 200))
            c = cell_of(DBMRQ, s, x)
            back = decode_path(DBMRQ, c.path)
            assert (back.lo, back.hi, back.level) == (c.lo, c.hi, c.level)


class TestBbmrqCells:
    def test_documented_cells_alpha_06(self):
        c = cell_of(BB6, 0.5, 0.3)
        assert (c.lo, c.hi) == (0.0, 0.6 * 0.6)
        assert c.level == pytest.approx(0.18, abs=1e-15)
        c = cell_of(BB6, 0.5, 0.7)
        assert (c.lo, c.hi) == (0.6, 1.0)
        assert c.level == pytest.approx(0.8, abs=1e-15)
        cells = enumerate_cells(BB6, 0.5, 0.0, 1.0)
        assert [(c.lo, c.hi) for c in cells] == [
            (0.0, 0.6 * 0.6),
            (0.6 * 0.6, 0.6),
            (0.6, 1.0),
        ]

    def test_against_rational_oracle(self):
        alpha = Fraction(0.6)  # exact binary value of the float parameter
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = float(np.exp(rng.uniform(np.log(1e-4), np.log(30))))
            x = float(rng.uniform(0, 500))
            lo, hi = rational_biased_interval(alpha, Fraction(s), Fraction(x))
            c = cell_of(BB6, s, x)
            assert_close_to_fraction(c.lo, lo)
            assert_close_to_fraction(c.hi, hi)

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(0, 300, 500)
        ss = np.exp(rng.uniform(np.log(1e-3), np.log(30), 500))
        pos = quantize_many(BB6, ss, xs)
        neg = quantize_many(BB6, ss, -xs)
        assert np.array_equal(neg, -pos)

    def test_at_zero(self):
        c = cell_of(BB6, 0.5, 0.0)
        assert c.lo == 0.0 and c.hi == 0.6 * 0.6
        assert c.path == PathCode(1, 2)

    @given(
        alpha=st.floats(0.51, 0.74),
        x=st.floats(-1e4, 1e4),
        e=st.floats(-12, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_cell_length_bounds(self, alpha, x, e):
        s = 2.0 ** e
        c = cell_of(QuantizerSpec.bbmrq(alpha), s, x)
        assert (1 - alpha) * s < c.size <= s

    @given(
        x=st.floats(-1e5, 1e5),
        e1=st.floats(-20, 10),
        r=st.floats(0, 25),
    )
    @settings(max_examples=300, deadline=None)
    def test_requantization_identity(self, x, e1, r):
        s1 = 2.0 ** e1
        s2 = s1 * 2.0 ** r
        y = quantize(BB6, s1, x)
        assert quantize(BB6, s2, y) == quantize(BB6, s2, x)

    def test_requantization_identity_other_alphas(self):
        rng = np.random.default_rng(14)
        for alpha in (0.51, 0.618, 0.74):
            spec = QuantizerSpec.bbmrq(alpha)
            xs = rng.uniform(-1e4, 1e4, 2000)
            s1 = np.exp(rng.uniform(np.log(1e-3), np.log(10), 2000))
            s2 = s1 * np.exp(rng.uniform(0, 4, 2000))
            y = quantize_many(spec, s1, xs)
            assert np.array_equal(
                quantize_many(spec, s2, y), quantize_many(spec, s2, xs)
            )


class TestAlphaPowers:
    # 0.51-0.74 stick at 5e-324, 0.9 at a larger subnormal, 0.3 and 0.5
    # underflow to zero, and 0.999 and 0.99999 stop at the cap on both sides.
    @pytest.mark.parametrize("alpha", [0.51, 0.6, 0.74, 0.9, 0.3, 0.5, 0.999, 0.99999])
    def test_table_matches_sequential_loops(self, alpha):
        pows = _AlphaPowers(alpha)
        pos, neg = loop_powers(alpha)
        assert (pows.n_min, pows.n_max) == (-len(neg), len(pos) - 1)
        assert pows._asc.tobytes() == np.array(pos[::-1] + neg).tobytes()

    def test_lookups_take_floats_and_arrays(self):
        pows = _AlphaPowers(0.6)
        ns = np.arange(pows.n_min, pows.n_max + 1)
        table = pows.pow(ns)
        assert type(pows.pow(3)) is float
        assert [pows.pow(int(n)) for n in ns] == table.tolist()
        # alpha**k itself has exponent k - 1, the float just below it k
        targets = np.concatenate([table[1:], np.nextafter(table, 0.0), [0.0, 0.37, 5.3]])
        found = pows.largest_exponent_above(targets)
        assert type(pows.largest_exponent_above(0.37)) is int
        assert [pows.largest_exponent_above(t) for t in targets.tolist()] == found.tolist()
        assert (pows.pow(found) > targets).all()
        below = found < pows.n_max
        assert (pows.pow(found[below] + 1) <= targets[below]).all()
        assert pows.largest_exponent_above(np.empty(0)).size == 0

    def test_lookups_outside_the_table_raise(self):
        pows = _AlphaPowers(0.6)
        top = pows.pow(pows.n_min)
        for bad in (pows.n_min - 1, pows.n_max + 1):
            with pytest.raises(DomainError):
                pows.pow(bad)
            with pytest.raises(DomainError):
                pows.pow(np.array([0, bad]))
        with pytest.raises(DomainError):
            pows.largest_exponent_above(top)
        with pytest.raises(DomainError):
            pows.largest_exponent_above(np.array([1.0, top]))


class TestTreeInterval:
    def test_documented_intervals(self):
        assert tree_interval(0.6, PathCode(1, 0, (1, 0))) == (0.6, 0.6 + 0.6 * 0.4)
        assert tree_interval(0.6, PathCode(1, 2)) == (0.0, 0.6 * 0.6)

    def test_matches_rational_recursion(self):
        alpha_f = 0.6
        alpha = Fraction(alpha_f)
        rng = np.random.default_rng(15)
        for _ in range(200):
            base = int(rng.integers(-10, 15))
            depth = int(rng.integers(0, 12))
            bits = (1,) + tuple(int(b) for b in rng.integers(0, 2, max(depth - 1, 0)))
            bits = bits if depth else ()
            lo_f, hi_f = tree_interval(alpha_f, PathCode(1, base, bits))
            lo, hi = Fraction(0), alpha ** base
            for b in bits:
                split = lo + alpha * (hi - lo) if lo else (alpha ** (base + 1))
                lo, hi = (split, hi) if b else (lo, split)
                base += 0  # bits below the base cell only
            assert_close_to_fraction(lo_f, lo, rel=1e-12)
            assert_close_to_fraction(hi_f, hi, rel=1e-12)

    def test_oracle_equivalence_with_descent(self):
        # Every tree node is the cell of (s = its own length, x = midpoint);
        # walking the path and descending to x must agree bit for bit.
        rng = np.random.default_rng(16)
        for alpha in (0.51, 0.6, 0.74):
            spec = QuantizerSpec.bbmrq(alpha)
            for _ in range(2000):
                base = int(rng.integers(-12, 20))
                depth = int(rng.integers(0, 31))
                bits = ((1,) + tuple(int(b) for b in rng.integers(0, 2, depth - 1))) if depth else ()
                path = PathCode(1, base, bits)
                lo, hi = tree_interval(alpha, path)
                c = cell_of(spec, hi - lo, 0.5 * (lo + hi))
                assert (c.lo, c.hi) == (lo, hi)
                assert c.path == path

    def test_sign_mirrors(self):
        lo, hi = tree_interval(0.6, PathCode(-1, 0, (1,)))
        assert (lo, hi) == (-1.0, -0.6)

    def test_rejects_bad_paths(self):
        with pytest.raises(PathCodeError):
            PathCode(1, 0, (0, 1))
        with pytest.raises(PathCodeError):
            PathCode(2, 0, (1,))
        with pytest.raises(PathCodeError):
            PathCode(1, 0, (1, 2))


class TestPaths:
    def test_prefix_gives_ancestors(self):
        path = encode_path(BB6, 0.01, 0.7321)
        cell = decode_path(BB6, path)
        for k in range(len(path.bits)):
            parent = decode_path(BB6, PathCode(path.sign, path.base_level, path.bits[:k]))
            assert parent.lo <= cell.lo and cell.hi <= parent.hi

    def test_round_trip_all_tree_schemes(self):
        rng = np.random.default_rng(17)
        for spec in (BMRQ, DBMRQ, BB6):
            for _ in range(200):
                s = float(np.exp(rng.uniform(np.log(1e-4), np.log(30))))
                x = float(rng.uniform(-300, 300))
                c = cell_of(spec, s, x)
                back = decode_path(spec, c.path)
                assert (back.lo, back.hi, back.level) == (c.lo, c.hi, c.level)

    def test_deep_biased_path_round_trip(self):
        # About 1200 bits, more than the interpreter's recursion limit.
        with pytest.warns(UserWarning):
            spec = QuantizerSpec.bbmrq(0.999, nonstandard_alpha=True)
        c = cell_of(spec, 1e-3, 1e3)
        assert len(c.path.bits) > 1000
        back = decode_path(spec, encode_path(spec, 1e-3, 1e3))
        assert (back.lo, back.hi, back.level) == (c.lo, c.hi, c.level)

    def test_descent_deeper_than_ten_thousand_splits(self):
        spec = nonstandard(0.999)
        c = cell_of(spec, 1e-8, 1.0)
        assert len(c.path.bits) > 10_000
        assert c == enumerate_cells(spec, 1e-8, 1.0, 1.0 + 1e-8)[0]
        assert quantize_many(spec, 1e-8, np.array([1.0]))[0] == c.level
        assert decode_path(spec, c.path) == c

    @pytest.mark.parametrize(
        "spec, path",
        [
            (BMRQ, PathCode(1, 0, (1,) * 60)),  # the index rounds: [1.0, 1.0)
            (BMRQ, PathCode(1, -2000, (1,))),  # the cell ends past the largest float
            (DBMRQ, PathCode(-1, -1100, ())),
            (BMRQ, PathCode(1, 1074, (1,))),  # shorter than the smallest subnormal
        ],
    )
    def test_unrepresentable_dyadic_paths_raise(self, spec, path):
        with pytest.raises(PathCodeError):
            decode_path(spec, path)

    def test_widest_exact_dyadic_index(self):
        # 53 bits still decode exactly, mirrored to the index -2**53
        c = decode_path(BMRQ, PathCode(-1, 0, (1,) * 53))
        assert (c.lo, c.hi) == (-1.0, math.nextafter(-1.0, 0.0))
        assert c.lo <= c.level < c.hi

    def test_uniform_has_no_paths(self):
        with pytest.raises(PathCodeError):
            encode_path(UNIFORM, 0.5, 0.3)
        with pytest.raises(PathCodeError):
            decode_path(UNIFORM, PathCode(1, 0))


class TestEnumerate:
    def windows(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            s = float(np.exp(rng.uniform(np.log(0.01), np.log(5))))
            x0 = float(rng.uniform(-40, 40))
            x1 = x0 + float(rng.uniform(0.5, 40))
            yield s, x0, x1, rng

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6], ids=lambda s: s.scheme.value)
    def test_partition_properties(self, spec):
        for s, x0, x1, rng in self.windows():
            cells = enumerate_cells(spec, s, x0, x1)
            assert cells[0].lo <= x0 < cells[0].hi
            assert cells[-1].lo < x1 <= cells[-1].hi
            for a, b in zip(cells, cells[1:]):
                assert a.hi == b.lo  # bitwise shared endpoints
            # cell_of agrees with the enumerated cell containing a point
            for u in rng.uniform(x0, x1, 12):
                c = cell_of(spec, s, float(u))
                host = next(k for k in cells if k.lo <= u < k.hi)
                assert (c.lo, c.hi) == (host.lo, host.hi)

    def test_first_cell_contains_left_edge_bbmrq_negative(self):
        cells = enumerate_cells(BB6, 0.3, -2.7, -0.4)
        assert cells[0].lo <= -2.7 < cells[0].hi
        assert cells[-1].lo < -0.4 <= cells[-1].hi
        cells = enumerate_cells(BB6, 0.3, -1.2, 2.3)
        joined = [c for c in cells if c.lo <= 0.0 <= c.hi]
        assert len(joined) == 2  # one cell ends at 0, the next starts there


def assert_window_matches_the_walk(spec, s, x0, x1) -> int:
    """``_window_cells`` gives the ends and levels of ``enumerate_cells`` bit
    for bit, or both raise DomainError; returns the number of cells."""
    try:
        cells = enumerate_cells(spec, s, x0, x1)
    except DomainError:
        with pytest.raises(DomainError):
            _window_cells(spec, s, x0, x1)
        return 0
    for name, got in zip(("lo", "hi", "level"), _window_cells(spec, s, x0, x1)):
        want = np.array([getattr(c, name) for c in cells])
        assert got.tobytes() == want.tobytes(), name
    return len(cells)


class TestWindowCells:
    """The vector window against the scalar walk over ``cell_of``."""

    @pytest.mark.parametrize("spec", WINDOW_SPECS.values(), ids=WINDOW_SPECS.keys())
    @pytest.mark.parametrize(
        "s, x0, x1",
        [
            (0.37, 0.0, 40.0),
            (0.37, -13.3, 21.1),  # straddles 0
            (0.21, -40.2, -3.3),  # all negative
            (0.05, -1.0, 0.0),
            (2.5e-3, 1e4, 1e4 + 3.0),
            (3.0, -1e3, 1e3),
            (5e-324, 0.0, 1.5e-323),  # a few subnormals wide
            (1e-323, -2.5e-323, 2.5e-323),
            (1.0, -5e-324, 1e-323),
            (1e-300, -1e-322, -5e-324),
        ],
    )
    def test_matches_the_walk(self, spec, s, x0, x1):
        assert_window_matches_the_walk(spec, s, x0, x1)

    @pytest.mark.parametrize("spec", WINDOW_SPECS.values(), ids=WINDOW_SPECS.keys())
    def test_windows_on_cell_ends(self, spec):
        # Ends of a positive cell and of a mirrored one (for BBMRQ), and the
        # floats beside them, as either end of the window.
        for x in (1.7, -1.7):
            c = cell_of(spec, 0.3, x)
            for e in (c.lo, c.hi):
                for u in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)):
                    assert_window_matches_the_walk(spec, 0.3, u, u + 2.0)
                    assert_window_matches_the_walk(spec, 0.3, u - 2.0, u)

    @pytest.mark.parametrize(
        "spec, s, x0, x1, count",
        [
            (BB74, 4.4974499451464134e-08, 19775989.31097388, 19775989.31098045, 244),
            (BB6, 5.47346795240761e-06, 15293029780.661003, 15293029780.662764, 535),
        ],
    )
    def test_cells_the_grid_steps_over(self, spec, s, x0, x1, count):
        # Cells a few ulps long, where the rounded grid skips some cells.
        assert assert_window_matches_the_walk(spec, s, x0, x1) == count

    @given(
        name=st.sampled_from(sorted(WINDOW_SPECS)),
        s=st.floats(min_value=1e-6, max_value=1e3),
        x0=st.floats(min_value=-1e6, max_value=1e6),
        steps=st.floats(min_value=1e-3, max_value=300.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_walk_everywhere(self, name, s, x0, steps):
        x1 = x0 + steps * s
        if x0 < x1:
            assert_window_matches_the_walk(WINDOW_SPECS[name], s, x0, x1)

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6], ids=lambda s: s.scheme.value)
    def test_smallest_step(self, spec):
        # The cell budget once divided by the shortest cell, which underflows here.
        cells = enumerate_cells(spec, 5e-324, 0.0, 5e-324)
        assert [(c.lo, c.hi) for c in cells] == [(0.0, 5e-324)]
        assert assert_window_matches_the_walk(spec, 5e-324, 0.0, 5e-324) == 1

    def test_budget_counts_the_shortest_cell(self):
        # Below alpha = 1/2 the shortest cell is alpha * s, not (1 - alpha) * s:
        # this window has 1e7 / 0.3 > 2e7 of them.
        for window in (enumerate_cells, _window_cells):
            with pytest.raises(DomainError):
                window(BB3, 1.0, 0.0, 1e7)


class TestValidation:
    def test_bad_steps_and_inputs(self):
        for bad_s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                quantize(BMRQ, bad_s, 0.3)
        for bad_x in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                quantize(BB6, 1.0, bad_x)
        with pytest.raises(DomainError):
            enumerate_cells(BMRQ, 1.0, 3.0, 2.0)

    def test_alpha_guard(self):
        with pytest.raises(DomainError):
            QuantizerSpec.bbmrq(0.8)
        with pytest.raises(DomainError):
            QuantizerSpec.bbmrq(0.5)
        with pytest.warns(UserWarning):
            spec = QuantizerSpec.bbmrq(0.8, nonstandard_alpha=True)
        assert quantize(spec, 0.9, 0.5) == pytest.approx(0.4, abs=1e-12)
        with pytest.raises(DomainError):
            QuantizerSpec.bbmrq(1.2, nonstandard_alpha=True)
        with pytest.raises(DomainError):
            QuantizerSpec(Scheme.BMRQ, alpha=0.6)

    def test_dither_guard(self):
        with pytest.raises(DomainError):
            QuantizerSpec.dbmrq(dither_irrational=0.0)
        assert QuantizerSpec.dbmrq(dither_irrational=math.sqrt(2)).dither_irrational != GOLDEN_RATIO


class TestQuantizeMany:
    def test_bitwise_parity_with_scalar(self):
        rng = np.random.default_rng(19)
        xs = rng.uniform(-300, 300, 1500)
        ss = np.exp(rng.uniform(np.log(1e-3), np.log(30), 1500))
        for spec in (UNIFORM, BMRQ, DBMRQ, BB6):
            vec = quantize_many(spec, ss, xs)
            ref = np.array([quantize(spec, float(a), float(b)) for a, b in zip(ss, xs)])
            assert np.array_equal(vec, ref)

    def test_scalar_step_broadcast(self):
        xs = np.linspace(-3, 3, 101)
        vec = quantize_many(BB6, 0.25, xs)
        ref = np.array([quantize(BB6, 0.25, float(x)) for x in xs])
        assert np.array_equal(vec, ref)

    def test_bbmrq_parity_across_depths_and_shapes(self):
        rng = np.random.default_rng(20)
        xs = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3, 3, 4000)
        ss = 10.0 ** rng.uniform(-6, 1, 4000)
        ref = np.array([quantize(BB6, float(a), float(b)) for a, b in zip(ss, xs)])
        assert quantize_many(BB6, ss, xs).tobytes() == ref.tobytes()
        grid = quantize_many(BB6, ss.reshape(40, 100), xs.reshape(40, 100))
        assert grid.shape == (40, 100) and grid.tobytes() == ref.tobytes()
        zero_d = quantize_many(BB6, ss[7], xs[7])
        assert zero_d.shape == () and zero_d.tobytes() == ref[7].tobytes()
        assert quantize_many(BB6, 0.5, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("alpha", [0.6, 0.3, 0.999])
    def test_bbmrq_table_ends_raise_where_the_scalar_path_does(self, alpha):
        spec = QuantizerSpec.bbmrq(alpha) if 0.5 < alpha < 0.75 else nonstandard(alpha)
        pows = spec._powers
        top, bottom = pows.pow(pows.n_min), pows.pow(pows.n_max)
        below_top = math.nextafter(top, 0.0)
        pairs = [
            (top, 1.0), (-top, 1.0), (0.0, top), (below_top, below_top), (-below_top, below_top),
            (0.0, bottom), (bottom, bottom), (0.0, math.nextafter(bottom, 0.0)),
            (-0.5 * bottom, 0.5 * bottom), (0.0, 5e-324), (1.0, 5e-324 if alpha < 0.9 else 1e-3),
            # at 1e15 a float is 0.125 from the next: the descent stalls
            (1e15, 0.1), (-1e15, 0.05),
        ]
        pairs = [(x, s) for x, s in pairs if s > 0.0]
        levels = []
        for x, s in pairs:
            try:
                level = quantize(spec, s, x)
            except DomainError as scalar:
                with pytest.raises(DomainError) as vector:
                    quantize_many(spec, s, np.array([x]))
                assert str(vector.value) == str(scalar)
                continue
            assert quantize_many(spec, s, np.array([x]))[0] == level
            levels.append((x, s, level))
        assert 0 < len(levels) < len(pairs)
        xs, ss = np.array(pairs).T
        with pytest.raises(DomainError):
            quantize_many(spec, ss, xs)
        xs, ss, ref = np.array(levels).T
        assert quantize_many(spec, ss, xs).tobytes() == ref.tobytes()

    def test_bbmrq_splits_come_from_the_one_split_rule(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return split(*args)

        split = quantizers._split
        monkeypatch.setattr(quantizers, "_split", counting)
        xs = np.array([-3.7, 0.01, 0.2, 2.5])
        ref = np.array([cell_of(BB6, 0.1, float(x)).level for x in xs])
        calls.clear()
        assert quantize_many(BB6, 0.1, xs).tobytes() == ref.tobytes()
        # the base cells' splits, then one array split per level below them
        assert len(calls) > 1 and all(isinstance(lo, np.ndarray) for lo in calls)
        assert (calls[0] == 0.0).all() and all((lo > 0.0).all() for lo in calls[1:])

    def test_midpoint_of_arrays_matches_floats(self):
        one_ulp = math.nextafter(1.0, 2.0)
        big = 1.7976931348623157e308
        # a plain cell, midpoints rounding onto lo and onto hi, lo + hi
        # overflowing, and a two-subnormal cell
        lo = [0.0, 1.0, one_ulp, 0.5 * big, -big, 5e-324]
        hi = [3.0, one_ulp, math.nextafter(one_ulp, 2.0), big, big, 1e-323]
        ref = np.array([_midpoint(a, b) for a, b in zip(lo, hi)])
        assert _midpoint(np.array(lo), np.array(hi)).tobytes() == ref.tobytes()
        assert (np.array(lo) <= ref).all() and (ref < np.array(hi)).all()

    def test_rejects_bad_arrays(self):
        with pytest.raises(DomainError):
            quantize_many(BMRQ, -1.0, np.array([0.5]))
        with pytest.raises(DomainError):
            quantize_many(BMRQ, 1.0, np.array([np.nan]))

    def test_argument_errors_are_domain_errors(self):
        numbers = "^inputs and step bounds must be finite reals "
        inputs, steps = "^inputs must be finite reals$", "^step bounds must be positive finite reals$"
        cases = [
            (1.0, "a", numbers),
            (1.0, [1.0, "a"], numbers),
            (1.0, {}, numbers),
            (1.0, [[1.0], [1.0, 2.0]], numbers),
            ("a", 1.0, numbers),
            (1.0, [1, 10**400], numbers),  # an int past float64
            (10**400, 1.0, numbers),
            (1.0, np.array([1 + 1j]), numbers),  # a cast would drop the imaginary part
            (np.complex128(1.0), 1.0, numbers),
            (True, 0.3, numbers),  # a cast would read a bool as 1.0 or 0.0
            (np.bool_(True), 0.3, numbers),
            (1.0, np.array([True, False]), numbers),
            (np.ones(2, dtype=bool), [0.3, 0.4], numbers),
            ([0.5, None], [1.0, 2.0], steps),  # None converts to nan
            (np.ones(3), np.ones(4), "do not broadcast"),
            (np.ones((2, 1)), np.ones(3), "do not broadcast"),
            # inputs are checked first, then steps, then shapes
            (0.0, [np.nan], inputs),
            (np.zeros(3), np.ones(4), steps),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning is no DomainError
            for s, x, message in cases:
                with pytest.raises(DomainError, match=message):
                    quantize_many(BMRQ, s, x)
        with pytest.raises(ValueError):  # what callers catching numpy's error still see
            quantize_many(BMRQ, np.ones(3), np.ones(4))


BLOCK_SPECS = {"uniform": UNIFORM, "bmrq": BMRQ, "dbmrq": DBMRQ, "bbmrq0.6": BB6, "bbmrq0.999": BB999}
# Inputs the scalar path repairs in the lattice schemes, as (x, s): an index
# underflowing to -0.0, zeros of both signs, a subnormal, and a quotient
# x / s that rounds to just below the index of the cell holding x.
REPAIRED = [
    (-5e-324, 2.0),
    (0.0, 0.5),
    (-0.0, 0.5),
    (-3e-310, 1e-3),
    (646452.5929989826, 1.2667220414021823),
]


class TestBlocks:
    """The vector rule runs in blocks of ``_BLOCK`` elements; every element
    comes out as the scalar path gives it, on either side of a block edge."""

    N = 3 * _BLOCK + 7
    EDGES = [0, _BLOCK - 1, _BLOCK, N - 1]

    @pytest.mark.parametrize("name", BLOCK_SPECS)
    def test_parity_with_scalar_across_blocks(self, name):
        spec = BLOCK_SPECS[name]
        rng = np.random.default_rng(21)
        xs = rng.uniform(-300.0, 300.0, self.N)
        ss = 10.0 ** rng.uniform(-1.0, 1.0, self.N)
        cells = np.array([(c.lo, c.hi, c.level) for c in map(cell_of, [spec] * self.N, ss, xs)]).T
        assert all(a.tobytes() == b.tobytes() for a, b in zip(_cells_many(spec, ss, xs), cells))
        assert quantize_many(spec, ss, xs).tobytes() == cells[2].tobytes()
        grid = quantize_many(spec, ss.reshape(11, -1), xs.reshape(11, -1))
        assert grid.shape == (11, self.N // 11) and grid.tobytes() == cells[2].tobytes()
        for x, s in REPAIRED:
            xs[self.EDGES], ss[self.EDGES] = x, s
            cells[2][self.EDGES] = quantize(spec, s, x)
            assert quantize_many(spec, ss, xs).tobytes() == cells[2].tobytes()
        # one step over several blocks, checked on every 37th value and the edges
        some = np.r_[0 : self.N : 37, self.EDGES]
        broadcast = quantize_many(spec, 0.7, xs.reshape(11, -1)).ravel()[some]
        assert broadcast.tobytes() == np.array([quantize(spec, 0.7, x) for x in xs[some]]).tobytes()

    @pytest.mark.parametrize(
        "spec, x, s",
        [(UNIFORM, 1e308, 1e-10), (BMRQ, 1.0, 5e-324), (DBMRQ, 1e17, 1.0), (BB6, 1e15, 0.1)],
        ids=["uniform", "bmrq", "dbmrq", "bbmrq"],
    )
    def test_a_failing_element_in_the_last_block(self, spec, x, s):
        xs, ss = np.linspace(-50.0, 50.0, self.N), np.full(self.N, 0.3)
        xs[-3], ss[-3] = x, s
        with pytest.raises(DomainError) as scalar:
            cell_of(spec, s, x)
        with pytest.raises(DomainError) as vector:
            quantize_many(spec, ss, xs)
        assert str(vector.value) == str(scalar.value)

    @pytest.mark.parametrize(
        "spec, first, later",
        [
            (UNIFORM, (1e17, 1.0), (1e308, 1e-10)),
            (DBMRQ, (1.0, 5e-324), (1e17, 1.0)),
            # a stalled split, then a step past the power table
            (BB6, (1e15, 0.1), (0.5, BB6._powers.pow(BB6._powers.n_min))),
        ],
        ids=["uniform", "dbmrq", "bbmrq"],
    )
    def test_the_first_block_with_a_failing_element_names_it(self, spec, first, later):
        xs, ss = np.linspace(-50.0, 50.0, self.N), np.full(self.N, 0.3)
        (xs[_BLOCK + 5], ss[_BLOCK + 5]), (xs[2 * _BLOCK + 1], ss[2 * _BLOCK + 1]) = first, later
        messages = []
        for x, s in (first, later):
            with pytest.raises(DomainError) as scalar:
                cell_of(spec, s, x)
            messages.append(str(scalar.value))
        assert messages[0] != messages[1]
        with pytest.raises(DomainError, match=f"^{re.escape(messages[0])}$"):
            quantize_many(spec, ss, xs)

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ, BB6], ids=lambda s: s.scheme.value)
    def test_no_temporaries_as_long_as_the_input(self, spec):
        rng = np.random.default_rng(22)
        xs = rng.uniform(-20.0, 120.0, 1 << 20)
        ss = 10.0 ** rng.uniform(-1.0, 1.0, xs.size)
        tracemalloc.start()
        try:
            out = quantize_many(spec, ss, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus temporaries a few dozen blocks long at most
        assert peak <= out.nbytes + 32 * _BLOCK * 8


class TestFloat64Edges:
    """Every finite input and step gives the cell that holds the input, or a
    DomainError where float64 cannot represent it; scalar and vector agree."""

    @pytest.mark.parametrize("spec", [UNIFORM, BMRQ, DBMRQ], ids=lambda s: s.scheme.value)
    def test_negative_subnormal_lands_below_zero(self, spec):
        c = cell_of(spec, 2.0, -5e-324)
        assert (c.lo, c.hi, c.level) == (-2.0, 0.0, -1.0)
        vec = quantize_many(spec, 2.0, np.array([[0.5, -5e-324], [-5e-324, 3.0]]))
        assert np.array_equal(vec, [[1.0, -1.0], [-1.0, 3.0]])
        assert quantize_many(spec, 2.0, -5e-324) == -1.0

    def test_uniform_cell_holds_an_input_on_its_boundary(self):
        # x is the rounded product 510335 * s, and x / s rounds to just below 510335.
        s, x = 1.2667220414021823, 646452.5929989826
        c = cell_of(UNIFORM, s, x)
        assert c.lo <= x < c.hi
        assert quantize_many(UNIFORM, s, np.array([x]))[0] == c.level

    @pytest.mark.parametrize(
        "spec, s, x",
        [
            (BMRQ, 5e-324, 1.0),  # the index overflows
            (DBMRQ, 5e-324, 1.0),
            (UNIFORM, 1e-10, 1e308),
            (BMRQ, 1.0, 1e17),  # the index is too large to be exact
            (DBMRQ, 1.0, 1e17),
            (UNIFORM, 1.0, 1e17),
            (BMRQ, 1e308, 1.7e308),  # the cell ends past the largest float
            (DBMRQ, 1.7e308, 1.0),
            (UNIFORM, 1e308, -1.7e308),
            (DBMRQ, 1.1110354586872598e308, -1.0),
        ],
    )
    def test_unrepresentable_cells_raise(self, spec, s, x):
        with pytest.raises(DomainError):
            cell_of(spec, s, x)
        with pytest.raises(DomainError):
            quantize_many(spec, s, np.array([0.5, x]))

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        s=st.floats(min_value=5e-324, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_whole_range(self, x, s):
        for spec in (UNIFORM, BMRQ, DBMRQ, BB6):
            try:
                c = cell_of(spec, s, x)
            except DomainError:
                with pytest.raises(DomainError):
                    quantize_many(spec, s, np.array([x]))
                continue
            if spec is BB6 and x < 0.0:
                assert c.lo < x <= c.hi and c.lo < c.level <= c.hi
            else:
                assert c.lo <= x < c.hi and c.lo <= c.level < c.hi
            assert quantize_many(spec, s, np.array([x]))[0] == c.level
