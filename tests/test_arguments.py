"""The one argument rule: every scalar argument of the public API is a real
(or an integer) other than a bool, stored and used as the Python float (or
int) it equals; anything else raises DomainError, or PathCodeError for a
field of a PathCode.

``CONTRACT`` lists each public function and constructor with each of its
scalar parameters; ``tests/test_package.py`` checks that every callable the
package exports is listed here or in ``EXEMPT``.
"""

import math
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from mrquant import (
    GOLDEN_RATIO,
    BiasAlphaCdf,
    DbmrqAtomsCdf,
    DomainError,
    PathCode,
    PathCodeError,
    QuantizerSpec,
    RelayChainConfig,
    RenewalConfig,
    Scheme,
    SizeDensity,
    StepCdf,
    adversarial_ratio,
    average_chain_error,
    capacity_to_step,
    cell_of,
    converse_bound,
    count_levels,
    density_bound_slack,
    empirical_cell_cdf,
    encode_path,
    enumerate_cells,
    lp_error_asymptotic,
    lp_error_exact,
    output_entropy,
    quantize,
    quantize_many,
    refinement_inequality_value,
    renyi_rate,
    run_chain,
    run_suite,
    scale_shift_rate,
    tradeoff_curve,
    tree_interval,
)
from mrquant.quantizers import _window_cells

BMRQ = QuantizerSpec.bmrq()
DBMRQ = QuantizerSpec.dbmrq()
BB6 = QuantizerSpec.bbmrq(0.6)
LAW = BiasAlphaCdf(0.6)
STEP = StepCdf(np.array([0.5, 1.0]), np.array([0.25, 0.75]))
CHAIN = RelayChainConfig((6, 4), BMRQ)


class Arg(NamedTuple):
    """One scalar parameter of a public callable: ``call(v)`` passes ``v``
    for it, and ``good`` is an in-range value that float32 holds exactly."""

    name: str  # the name in mrquant.__all__
    param: str  # the parameter of that callable
    call: Callable[[Any], Any]
    good: Any
    where: str = ""  # tells apart rows of one parameter
    error: type = DomainError  # what a value the rule refuses raises


CONTRACT = [
    # quantizers
    Arg("QuantizerSpec", "alpha", lambda v: QuantizerSpec(Scheme.BBMRQ, alpha=v), 0.625),
    Arg("QuantizerSpec", "alpha", lambda v: QuantizerSpec.bbmrq(v), 0.625, ".bbmrq"),
    Arg("QuantizerSpec", "dither_irrational", lambda v: QuantizerSpec(Scheme.DBMRQ, dither_irrational=v), 1.5),
    Arg("QuantizerSpec", "dither_irrational", lambda v: QuantizerSpec.dbmrq(v), 1.5, ".dbmrq"),
    Arg("cell_of", "s", lambda v: cell_of(BB6, v, 0.7), 0.25),
    Arg("cell_of", "x", lambda v: cell_of(BB6, 0.25, v), -0.75),
    Arg("quantize", "s", lambda v: quantize(DBMRQ, v, 0.7), 0.375),
    Arg("quantize", "x", lambda v: quantize(DBMRQ, 0.375, v), 5.5),
    Arg("encode_path", "s", lambda v: encode_path(BMRQ, v, 0.7), 0.375),
    Arg("encode_path", "x", lambda v: encode_path(BMRQ, 0.375, v), -2.5),
    Arg("tree_interval", "alpha", lambda v: tree_interval(v, PathCode(1, 2, (1, 0))), 0.625),
    Arg("PathCode", "sign", lambda v: PathCode(v, 2, (1, 0)), -1, error=PathCodeError),
    Arg("PathCode", "base_level", lambda v: PathCode(1, v, (1, 0)), 3, error=PathCodeError),
    Arg("PathCode", "bits", lambda v: PathCode(1, 2, (1, v)), 0, error=PathCodeError),
    Arg("enumerate_cells", "s", lambda v: enumerate_cells(BB6, v, -1.0, 3.0), 0.25),
    Arg("enumerate_cells", "x0", lambda v: enumerate_cells(BB6, 0.25, v, 3.0), -1.5),
    Arg("enumerate_cells", "x1", lambda v: enumerate_cells(BB6, 0.25, -1.0, v), 2.5),
    # cdf_analysis
    Arg("StepCdf", "factor", lambda v: STEP.scaled(v), 2.5, ".scaled"),
    Arg("BiasAlphaCdf", "alpha", BiasAlphaCdf, 0.625),
    Arg("DbmrqAtomsCdf", "s", DbmrqAtomsCdf, 1.5),
    Arg("empirical_cell_cdf", "s", lambda v: empirical_cell_cdf(BB6, v, -1.0, 30.0), 0.25),
    Arg("empirical_cell_cdf", "x0", lambda v: empirical_cell_cdf(BB6, 0.25, v, 30.0), -1.5),
    Arg("empirical_cell_cdf", "x1", lambda v: empirical_cell_cdf(BB6, 0.25, -1.0, v), 20.5),
    Arg("count_levels", "s", lambda v: count_levels(DBMRQ, v, -1.0, 30.0), 0.375),
    Arg("count_levels", "x0", lambda v: count_levels(BB6, 0.25, v, 30.0), -1.5),
    Arg("count_levels", "x1", lambda v: count_levels(DBMRQ, 0.375, -1.0, v), 20.5),
    Arg("output_entropy", "s", lambda v: output_entropy(BB6, v, -1.0, 30.0), 0.25),
    Arg("output_entropy", "x0", lambda v: output_entropy(BB6, 0.25, v, 30.0), -1.5),
    Arg("output_entropy", "x1", lambda v: output_entropy(BB6, 0.25, -1.0, v), 20.5),
    Arg("lp_error_exact", "s", lambda v: lp_error_exact(BB6, v, -1.0, 30.0, 1.5), 0.25),
    Arg("lp_error_exact", "x0", lambda v: lp_error_exact(BB6, 0.25, v, 30.0, 1.5), -1.5),
    Arg("lp_error_exact", "x1", lambda v: lp_error_exact(BB6, 0.25, -1.0, v, 1.5), 20.5),
    Arg("lp_error_exact", "p", lambda v: lp_error_exact(BB6, 0.25, -1.0, 30.0, v), 1.5),
    Arg("renyi_rate", "eta", lambda v: renyi_rate(LAW, v), 2.5),
    Arg("scale_shift_rate", "rate_at_unit_step", lambda v: scale_shift_rate(v, 3.0), 0.5),
    Arg("scale_shift_rate", "s", lambda v: scale_shift_rate(0.5, v), 3.0),
    Arg("lp_error_asymptotic", "p", lambda v: lp_error_asymptotic(LAW, v), 1.5),
    # tradeoff
    Arg("RenewalConfig", "alpha", lambda v: RenewalConfig(v, 30.0, 100, 1), 0.625),
    Arg("RenewalConfig", "horizon_t", lambda v: RenewalConfig(0.6, v, 100, 1), 30.5),
    Arg("RenewalConfig", "samples", lambda v: RenewalConfig(0.6, 30.0, v, 1), 100),
    Arg("RenewalConfig", "seed", lambda v: RenewalConfig(0.6, 30.0, 100, v), 1),
    Arg("tradeoff_curve", "p", lambda v: tradeoff_curve(BB6, v, [2.0]), 1.5),
    Arg("tradeoff_curve", "x_grid", lambda v: tradeoff_curve(DBMRQ, 1.0, [1.0, v]), 2.5),
    Arg("converse_bound", "p", converse_bound, 0.5),
    Arg("density_bound_slack", "y_grid", lambda v: density_bound_slack(LAW, [0.5, v]), 0.75),
    Arg("refinement_inequality_value", "zeta", lambda v: refinement_inequality_value(LAW, v), 1.5),
    Arg("SizeDensity", "pieces", lambda v: SizeDensity(((v, 1.0, 1.5, -1.0),)), 0.5, "[l]"),
    Arg("SizeDensity", "pieces", lambda v: SizeDensity(((0.5, v, 1.5, -1.0),)), 1.5, "[r]"),
    Arg("SizeDensity", "pieces", lambda v: SizeDensity(((0.5, 1.0, v, -1.0),)), 1.5, "[c]"),
    Arg("SizeDensity", "pieces", lambda v: SizeDensity(((0.5, 1.0, 1.5, v),)), -1.0, "[k]"),
    # relay_sim
    Arg("RelayChainConfig", "capacities", lambda v: RelayChainConfig((v, 3), BMRQ), 4),
    Arg("RelayChainConfig", "domain", lambda v: RelayChainConfig((4,), BMRQ, (v, 1.0)), 0.25, "[0]"),
    Arg("RelayChainConfig", "domain", lambda v: RelayChainConfig((4,), BMRQ, (0.0, v)), 1.5, "[1]"),
    Arg("capacity_to_step", "k", lambda v: capacity_to_step(DBMRQ, v, (0.25, 1.5)), 5),
    Arg("capacity_to_step", "domain", lambda v: capacity_to_step(BB6, 5, (v, 1.5)), 0.25, "[0]"),
    Arg("capacity_to_step", "domain", lambda v: capacity_to_step(BMRQ, 5, (0.25, v)), 1.5, "[1]"),
    Arg("run_chain", "x", lambda v: run_chain(CHAIN, v), 0.375),
    Arg("average_chain_error", "p", lambda v: average_chain_error(CHAIN, v, 1024), 1.5),
    Arg("average_chain_error", "grid_size", lambda v: average_chain_error(CHAIN, 1.0, v), 1000),
    Arg("adversarial_ratio", "budget", lambda v: adversarial_ratio(CHAIN, v), 1),
    Arg("adversarial_ratio", "p", lambda v: adversarial_ratio(CHAIN, 1, v), 1.5),
    Arg("adversarial_ratio", "p", lambda v: adversarial_ratio(CHAIN, 0, v), 1.5, ", budget 0"),
    # verify
    Arg("run_suite", "seed", lambda v: run_suite("renewal", v), 7),
]

# Public callables that take no scalar argument the rule governs, and why.
EXEMPT = {
    "Scheme": "an enum of scheme names",
    "CapacityPolicy": "an enum with one member",
    "DomainError": "an exception",
    "PathCodeError": "an exception",
    "Cell": "a result record",
    "CheckResult": "a result record",
    "RateErrorPoint": "a result record",
    "RelayTrace": "a result record",
    "TwoPowUnifCdf": "takes no argument",
    "decode_path": "takes a PathCode only",
    "levy_distance": "takes two cdfs only",
    "renewal_oracle_cdf": "takes a RenewalConfig only",
    "quantize_many": "takes arrays, checked by its own array rule",
}

BAD = ["x", True, False, None, math.nan, math.inf, -math.inf, 1 + 1j, np.complex128(1.0), np.bool_(True)]
BAD_REALS = BAD + [10**400]  # an int past float64
BAD_INTEGERS = BAD + [4.0, np.float64(4.0)]


def row_id(row: Arg) -> str:
    return f"{row.name}.{row.param}{row.where}"


def canon(result):
    """A value that compares bit for bit: arrays by their bytes, every other
    result by its repr, which shows a float exactly and a numpy scalar by its
    type."""
    if isinstance(result, StepCdf):
        return result.breakpoints.tobytes(), result.masses.tobytes()
    if isinstance(result, (list, tuple)):
        return [canon(r) for r in result]
    return repr(result)


@pytest.mark.parametrize("row", CONTRACT, ids=row_id)
def test_what_is_no_real_is_a_domain_error(row):
    # one message format, naming the argument and its range
    message = rf"\b{row.param}\b[^,]* must be (a finite real|an integer) in [\[(][^,]+, [^,]+[)\]], got "
    for bad in BAD_INTEGERS if type(row.good) is int else BAD_REALS:
        with pytest.raises(row.error, match=message):
            row.call(bad)


@pytest.mark.parametrize("row", CONTRACT, ids=row_id)
def test_numpy_scalars_act_as_the_numbers_they_equal(row):
    if type(row.good) is int:
        cast, plain = np.int64(row.good), row.good
    else:
        cast, plain = np.float32(row.good), float(np.float32(row.good))
        assert plain == row.good  # so the float32 row checks the conversion, not rounding
    assert canon(row.call(cast)) == canon(row.call(plain))


def sweep(spec):
    """Scalar and vector levels of a 4 000-point sweep as in the mrq suite."""
    rng = np.random.default_rng(4000)
    xs = rng.uniform(-20.0, 120.0, 4000)
    ss = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 4000))
    scalar = np.array([quantize(spec, s, x) for s, x in zip(ss.tolist(), xs.tolist())])
    return scalar, quantize_many(spec, ss, xs)


def test_a_float32_alpha_is_the_float64_it_equals():
    # kept as float32, alpha would split in float32 on the scalar path and in
    # float64 on the vector path, and the scalar walk would lose its way
    spec = QuantizerSpec.bbmrq(np.float32(0.6))
    assert type(spec.alpha) is float and spec.alpha == 0.6000000238418579
    assert spec != BB6 and spec == QuantizerSpec.bbmrq(0.6000000238418579)
    scalar, vector = sweep(spec)
    assert scalar.tobytes() == vector.tobytes()
    cells = enumerate_cells(spec, 0.1, -3.0, 50.0)
    listed = np.array([(c.lo, c.hi, c.level) for c in cells]).T
    assert all(a.tobytes() == b.tobytes() for a, b in zip(listed, _window_cells(spec, 0.1, -3.0, 50.0)))


def test_a_float32_dither_quantizes_on_both_paths():
    spec = QuantizerSpec.dbmrq(np.float32(GOLDEN_RATIO))
    assert type(spec.dither_irrational) is float
    scalar, vector = sweep(spec)
    assert scalar.tobytes() == vector.tobytes()
