"""The four workloads: seeded inputs, one closed-loop round each, and the
checks on every round's outputs.

A round is a fixed list of operations; the loop in ``worker.py`` starts the
next round only when the previous one has returned, and the next call inside
a round only when the previous call has returned.  Round ``r`` of a run with
seed ``seed`` draws its inputs from ``numpy.random.default_rng((seed, id,
r))``, so the same seed gives the same inputs, and the program sees only the
generated numbers.

Only the calls into ``mrquant`` are timed.  Input generation and the checks
run outside the timed region and, in the traced run, outside the spans.
"""

from __future__ import annotations

import hashlib
import math
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from mrquant import (
    DEFAULT_GRID_SIZE,
    BiasAlphaCdf,
    CapacityPolicy,
    DbmrqAtomsCdf,
    DomainError,
    QuantizerSpec,
    RelayChainConfig,
    StepCdf,
    adversarial_ratio,
    capacity_to_step,
    cell_of,
    count_levels,
    decode_path,
    empirical_cell_cdf,
    encode_path,
    levy_distance,
    lp_error_exact,
    output_entropy,
    quantize,
    quantize_many,
    run_chain,
    run_suite,
)

from layers import DESCRIBE
from oracles import (
    applied_steps,
    collapsed_chain_error,
    decrement_vectors,
    first_crossing_law,
    walk_count,
)

SCHEMES = ("uniform", "bmrq", "dbmrq", "bbmrq")
MRQ_SCHEMES = ("bmrq", "dbmrq", "bbmrq")
ALPHA = 0.6

# quantize_bulk: values per quantize_many call.  bbmrq's descent costs about
# ten times as much per value as the dyadic kernels, so it gets a tenth of
# the batch and every scheme takes a comparable share of a round.
BULK_VALUES = {"uniform": 1_000_000, "bmrq": 1_000_000, "dbmrq": 1_000_000, "bbmrq": 100_000}
SCALAR_CALLS = 200  # scalar subsample per tree scheme

# cell_law: steps (window length / step) per window.
WINDOW_STEPS = 50_000

# relay_adversary: budget, inputs traced per chain.
ADVERSARY_BUDGET = 2
CHAIN_INPUTS = 6

# verify_cli: the two checks that fail by design (criteria 4 and 5 of the
# acceptance checklist: slow near-lattice convergence at desk-scale horizons).
EXPECTED_VERIFY_FAILURES = {"scale.rescaled_cdfs_pairwise", "renewal.matches_closed_form"}
VERIFY_SUITES = ("mrq", "scale", "converse", "renewal")
RENEWAL_SAMPLES = 100_000  # what the renewal suite samples at horizon 30


def build_specs(workload: str) -> Dict[str, object]:
    """The objects a workload builds before its first call: the quantizer
    specs, whose construction fills the alpha power tables."""
    if workload == "verify_cli":
        return {}
    specs: Dict[str, object] = {
        "uniform": QuantizerSpec.uniform(),
        "bmrq": QuantizerSpec.bmrq(),
        "dbmrq": QuantizerSpec.dbmrq(),
        "bbmrq": QuantizerSpec.bbmrq(ALPHA),
    }
    if workload == "quantize_bulk":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside (1/2, 3/4), on purpose
            specs["bbmrq_0.999"] = QuantizerSpec.bbmrq(0.999, nonstandard_alpha=True)
    return specs


@dataclass
class Context:
    workload: str
    seed: int
    specs: Dict[str, object]
    root: str
    in_process_suites: bool = False  # verify_cli: also run the suites in-process
    extra: dict = field(default_factory=dict)  # per-workload precomputed oracles
    repeats: Dict[str, List[int]] = field(default_factory=dict)  # scheme -> [repeats, candidates]


class Round:
    """Operations attempted and failed in one round, their time, a digest of
    their outputs, and whatever the checks found wrong."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.edge_failures: List[str] = []
        self.problems: List[str] = []
        self.times: Dict[str, float] = {}
        self.work: Dict[str, float] = {}
        self._digest = hashlib.sha256()

    def call(self, part: str, name: str, fn: Callable, *args):
        """One operation: ``fn(*args)`` timed under ``part`` and spanned as
        ``name``.  An exception propagates and ends the run as a failure."""
        self.attempted += 1
        t = perf_counter()
        with self.tracer.span(name) as record:
            out = fn(*args)
        self.times[part] = self.times.get(part, 0.0) + (perf_counter() - t)
        if record is not None and name in DESCRIBE:
            record[5] = DESCRIBE[name](args, out)
        return out

    def edge(self, name: str, fn: Callable, judge: Callable[[object], bool]) -> None:
        """An operation at the edge of float64 that a known fault makes fail.
        It is correct when it returns what ``judge`` accepts or raises
        ``DomainError``; anything else counts as failed, not as wrong."""
        self.attempted += 1
        t = perf_counter()
        try:
            with self.tracer.span("quantizers.edge", {"op": name}):
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    out = fn()
            ok = None
        except DomainError:
            ok = True
        except Exception:  # the faults under test: OverflowError, RecursionError
            ok = False
        self.times["edge"] = self.times.get("edge", 0.0) + (perf_counter() - t)
        if ok is None:
            ok = judge(out)
        if not ok:
            self.failed += 1
            self.edge_failures.append(name)

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def count(self, unit: str, amount: float) -> None:
        self.work[unit] = self.work.get(unit, 0.0) + amount

    def digest(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._digest.update(np.ascontiguousarray(v).tobytes())
            else:
                self._digest.update(repr(v).encode())

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    def summary(self) -> dict:
        return {
            "seconds": self.seconds,
            "attempted": self.attempted,
            "failed": self.failed,
            "parts": self.times,
            "work": self.work,
            "digest": self._digest.hexdigest(),
        }


def _rng(ctx: Context, r: int) -> np.random.Generator:
    return np.random.default_rng((ctx.seed, list(ROUNDS).index(ctx.workload), r))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _contains(cell, x: float, scheme: str) -> bool:
    # Mirrored biased-tree cells own their upper end instead of their lower.
    if scheme == "bbmrq" and x < 0.0:
        return cell.lo < x <= cell.hi
    return cell.lo <= x < cell.hi


def _level_cell_contains(scheme: str, s: float, y: float, x: float) -> bool:
    """Whether ``x`` lies in a cell of the scheme's lattice at step ``s``
    whose level is ``y``.  Uniform cells have length s; dyadic cells have
    length ``L = 2**floor(log2 s)``, merged dbmrq ones 2L, and start at a
    multiple of their length."""
    if not math.isfinite(y):
        return False
    if scheme == "uniform":
        return y - 0.5 * s <= x < y + 0.5 * s
    unit = math.ldexp(1.0, math.frexp(s)[1] - 1)
    for length in ([unit] if scheme == "bmrq" else [unit, 2.0 * unit]):
        lo = y - 0.5 * length
        if length > 0.0 and (lo / length).is_integer() and lo <= x < lo + length:
            return True
    return False


# ---------------------------------------------------------------------------
# quantize_bulk


def _mrq_draw(rng: np.random.Generator, n: int):
    """Inputs as in the ``mrq`` verify suite: x uniform on [-20, 120], s1
    log-uniform on [1e-3, 10], s2 = s1 times a log-uniform factor in [1, 100]."""
    x = rng.uniform(-20.0, 120.0, n)
    s1 = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n))
    s2 = s1 * np.exp(rng.uniform(0.0, math.log(100.0), n))
    return x, s1, s2


def _half_length_ok(scheme: str, y: np.ndarray, s: np.ndarray, x: np.ndarray) -> bool:
    # A merged dbmrq cell is at most 2s long, every other cell at most s;
    # the level is its midpoint, so it sits within half that of the input.
    half = s if scheme == "dbmrq" else 0.5 * s
    slack = 4.0 * np.spacing(np.maximum(np.abs(x), np.abs(y)))
    return bool(np.all(np.abs(y - x) <= half + slack))


def _length_ok(scheme: str, length: float, s: float) -> bool:
    if scheme == "bbmrq":
        return (1.0 - ALPHA) * s < length <= s
    if scheme == "dbmrq":
        return 0.5 * s < length <= 2.0 * s
    return 0.5 * s < length <= s


# The edge operations: each fails today because of a fault in quantizers.py.
# (scheme, step, input): a negative subnormal whose index underflows to -0.0,
# and step/input ratios whose index overflows.
EDGE_CELLS = (
    ("uniform", 2.0, -5e-324),
    ("bmrq", 2.0, -5e-324),
    ("dbmrq", 2.0, -5e-324),
    ("bmrq", 5e-324, 1.0),
    ("dbmrq", 5e-324, 1.0),
    ("uniform", 1e-10, 1e308),
)


def quantize_bulk(ctx: Context, rd: Round, r: int) -> None:
    rng = _rng(ctx, r)
    uniform_mismatches = 0
    for name in SCHEMES:
        spec = ctx.specs[name]
        n = BULK_VALUES[name]
        x, s1, s2 = _mrq_draw(rng, n)

        def many(s, v):
            return rd.call(name, "quantizers.quantize_many", quantize_many, spec, s, v)

        fine = many(s1, x)
        coarse_of_fine = many(s2, fine)
        coarse = many(s2, x)
        doubled = many(2.0 * s1, 2.0 * x) if name in ("bmrq", "dbmrq") else None
        rd.count(f"{name}_values", n * (3 if doubled is None else 4))
        rd.digest(fine, coarse_of_fine, coarse)

        rd.check(_half_length_ok(name, fine, s1, x) and _half_length_ok(name, coarse, s2, x),
                 f"{name}: an output lies farther from its input than half a cell")
        same = _bits(coarse_of_fine) == _bits(coarse)
        if name == "uniform":
            uniform_mismatches += int(n - np.count_nonzero(same))
            continue
        rd.check(same.all(), f"{name}: coarse-of-fine differs from coarse")
        if doubled is not None:
            rd.check(np.array_equal(_bits(doubled), _bits(2.0 * fine)),
                     f"{name}: Q(2s, 2x) != 2 Q(s, x)")

        idx = rng.integers(0, n, SCALAR_CALLS)
        xs, ss = x[idx].tolist(), s1[idx].tolist()
        levels = [rd.call("scalar", "quantizers.quantize", quantize, spec, s, v)
                  for s, v in zip(ss, xs)]
        decoded = []
        for s, v in zip(ss, xs):
            path = rd.call("scalar", "quantizers.encode_path", encode_path, spec, s, v)
            decoded.append(rd.call("scalar", "quantizers.decode_path", decode_path, spec, path))
        rd.count("scalar_calls", 3 * SCALAR_CALLS)
        rd.digest(levels, [(c.lo, c.hi) for c in decoded])
        with rd.tracer.paused():
            cells = [cell_of(spec, s, v) for s, v in zip(ss, xs)]
        rd.check(np.array_equal(_bits(np.array(levels)), _bits(fine[idx])),
                 f"{name}: scalar quantize differs from quantize_many")
        rd.check(all(_contains(c, v, name) for c, v in zip(cells, xs)),
                 f"{name}: a cell does not contain its input")
        rd.check(all(_length_ok(name, c.size, s) for c, s in zip(cells, ss)),
                 f"{name}: a cell length lies outside the scheme's bounds")
        rd.check(all((d.lo, d.hi, d.level) == (c.lo, c.hi, c.level) for d, c in zip(decoded, cells)),
                 f"{name}: decode_path(encode_path(x)) is not the cell of x")
    rd.check(uniform_mismatches > 0, "uniform never broke the refinement identity")

    for name, s, v in EDGE_CELLS:
        spec = ctx.specs[name]
        rd.edge(f"cell_of({name}, s={s!r}, x={v!r})",
                lambda: cell_of(spec, s, v), lambda c: _contains(c, v, name))
        rd.edge(f"quantize_many({name}, s={s!r}, x={v!r})",
                lambda: float(quantize_many(spec, s, np.array([v]))[0]),
                lambda y: _level_cell_contains(name, s, y, v))
    wide = ctx.specs["bbmrq_0.999"]
    rd.edge("decode_path(encode_path(bbmrq(0.999), s=1e-3, x=1e3))",
            lambda: decode_path(wide, encode_path(wide, 1e-3, 1e3)),
            lambda c: (c.lo, c.hi) == (cell_of(wide, 1e-3, 1e3).lo, cell_of(wide, 1e-3, 1e3).hi)
            and _contains(c, 1e3, "bbmrq"))


# ---------------------------------------------------------------------------
# cell_law


def _windows(rng: np.random.Generator):
    """(scheme, step, x0, x1): two biased-tree windows, one straddling 0 so
    the mirrored path runs; one dbmrq window at a non-dyadic step (at a power
    of two no pair merges); one bmrq window.  The dyadic steps keep their
    mantissa in a narrow band so every seed enumerates about as many cells."""
    out = []
    for straddle in (True, False):
        s = 10.0 ** rng.uniform(-1.0, 2.0)
        w = WINDOW_STEPS * s
        x0 = -rng.uniform(0.2, 0.8) * w if straddle else rng.uniform(0.0, 10.0) * w
        out.append(("bbmrq", s, x0, x0 + w))
    s = 1.5 * 2.0 ** int(rng.integers(-3, 7)) * rng.uniform(0.98, 1.02)
    x0 = -rng.uniform(0.2, 0.8) * WINDOW_STEPS * s
    out.append(("dbmrq", s, x0, x0 + WINDOW_STEPS * s))
    s = 2.0 ** int(rng.integers(-3, 7)) * rng.uniform(1.0, 1.04)
    x0 = rng.uniform(0.0, 10.0) * WINDOW_STEPS * s
    out.append(("bmrq", s, x0, x0 + WINDOW_STEPS * s))
    return out


def _stationary(name: str, s: float, cdf: StepCdf):
    """The window cdf as compared, and the law it should approach."""
    if name == "bbmrq":
        return cdf.scaled(1.0 / s), BiasAlphaCdf(ALPHA)
    if name == "dbmrq":
        return cdf, DbmrqAtomsCdf(s)
    return cdf, StepCdf(np.array([math.ldexp(1.0, math.frexp(s)[1] - 1)]), np.array([1.0]))


def cell_law(ctx: Context, rd: Round, r: int) -> None:
    for name, s, x0, x1 in _windows(_rng(ctx, r)):
        spec = ctx.specs[name]
        args = (spec, s, x0, x1)
        cdf = rd.call("cdf", "cdf_analysis.empirical_cell_cdf", empirical_cell_cdf, *args)
        ours, law = _stationary(name, s, cdf)
        dist = rd.call("levy", "cdf_analysis.levy_distance", levy_distance, ours, law)
        levels = rd.call("count", "cdf_analysis.count_levels", count_levels, *args)
        entropy = rd.call("entropy", "cdf_analysis.output_entropy", output_entropy, *args)
        errors = {p: rd.call("lp", "cdf_analysis.lp_error_exact", lp_error_exact, *args, p)
                  for p in (1.0, 2.0)}
        rd.count("window_steps", (x1 - x0) / s)
        rd.digest(cdf.breakpoints, cdf.masses, dist, levels, entropy, errors)

        g, m = cdf.breakpoints, cdf.masses
        width = x1 - x0
        longest = 2.0 * s if name == "dbmrq" else s
        rd.check(abs(width * np.sum(m / g) - levels) <= 2.0,
                 f"{name} window: width * sum(mass/size) != count_levels")
        if name == "bbmrq":
            outside = ~(((1.0 - ALPHA) * s < g) & (g <= s))
        else:
            outside = np.frexp(g)[0] != 0.5
        rd.check(np.count_nonzero(outside) <= 2,
                 f"{name} window: interior cell sizes outside the scheme's set")
        expect_h = float(-np.sum(m * np.log2(g / width)))
        rd.check(abs(entropy - expect_h) <= 1e-9 * abs(expect_h),
                 f"{name} window: output_entropy disagrees with the cdf atoms")
        for p, err in errors.items():
            interior = float(np.sum(m * (0.5 * g) ** p) / (p + 1.0))
            # Only the two clipped boundary cells deviate from the interior
            # formula, each by at most its mass times longest**p.
            bound = 2.0 * (longest / width) * longest**p + 1e-9 * interior
            rd.check(abs(err - interior) <= bound,
                     f"{name} window: lp_error_exact(p={p}) off the atom formula")
        rd.check(0.0 <= dist <= 1.0, f"{name} window: Levy distance outside [0, 1]")
        if name != "bbmrq":
            rd.check(dist <= 1e-3, f"{name} window: {dist} from its stationary law")


# ---------------------------------------------------------------------------
# relay_adversary


def _chains(ctx: Context, rng: np.random.Generator):
    """One three-hop chain per scheme, capacities near (32, 16, 8), each on
    its own domain so that capacity search starts cold."""
    for name in SCHEMES:
        caps = (int(rng.integers(28, 37)), int(rng.integers(13, 20)), int(rng.integers(6, 11)))
        x0 = float(rng.uniform(0.0, 1.0))
        domain = (x0, x0 + float(rng.uniform(0.8, 1.25)))
        yield name, RelayChainConfig(caps, ctx.specs[name], domain=domain)


def relay_adversary(ctx: Context, rd: Round, r: int) -> None:
    rng = _rng(ctx, r)
    for name, cfg in _chains(ctx, rng):
        spec = cfg.spec
        steps = [rd.call("steps", "relay_sim.capacity_to_step", capacity_to_step, spec, k, cfg.domain)
                 for k in cfg.capacities]
        worst, ratio = rd.call("adversary", "relay_sim.adversarial_ratio", adversarial_ratio, cfg,
                               ADVERSARY_BUDGET)
        xs = rng.uniform(cfg.domain[0], cfg.domain[1], CHAIN_INPUTS).tolist()
        traces = [rd.call("chain", "relay_sim.run_chain", run_chain, cfg, x) for x in xs]
        candidates = [tuple(k - d for k, d in zip(cfg.capacities, dec))
                      for dec in decrement_vectors(cfg.capacities, ADVERSARY_BUDGET)]
        rd.count("candidate_chains", len(candidates))
        rd.digest(steps, ratio, worst.capacities, [t.outputs for t in traces])
        with rd.tracer.paused():
            _check_chain(ctx, rd, name, cfg, steps, worst, ratio, candidates, traces)

    bmrq_one = RelayChainConfig((32,), ctx.specs["bmrq"])
    bbmrq_one = RelayChainConfig((32,), ctx.specs["bbmrq"])
    _, golden_bmrq = rd.call("adversary", "relay_sim.adversarial_ratio", adversarial_ratio, bmrq_one, 1)
    _, golden_bbmrq = rd.call("adversary", "relay_sim.adversarial_ratio", adversarial_ratio, bbmrq_one,
                              1)
    rd.count("candidate_chains", 2)
    rd.check(golden_bmrq == 2.0, f"bmrq ratio at k=32, budget 1 is {golden_bmrq!r}, not 2.0")
    rd.check(golden_bbmrq <= 1.1, f"bbmrq ratio at k=32, budget 1 is {golden_bbmrq!r} > 1.1")


def _check_chain(ctx, rd, name, cfg, steps, worst, ratio, candidates, traces) -> None:
    spec = cfg.spec
    x0, x1 = cfg.domain
    step_of = {k: capacity_to_step(spec, k, cfg.domain)
               for caps in [cfg.capacities] + candidates for k in caps}
    if cfg.resolved_policy is CapacityPolicy.LEVEL_COUNT_SEARCH:
        for k, s in step_of.items():
            rd.check(walk_count(spec, s, x0, x1) <= k,
                     f"{name}: searched step {s!r} gives more than {k} levels")
            # Minimality is checked for bbmrq only.  The search brackets the
            # step from below by width/(k+1), which needs more than k cells
            # only when no cell is longer than the step; merged dbmrq cells
            # are up to 2s long, so on some domains the dbmrq search stops
            # at that bracket, above the smallest step.
            if name == "bbmrq":
                rd.check(walk_count(spec, s * (1.0 - 1e-12), x0, x1) > k,
                         f"{name}: searched step {s!r} is not the smallest with at most {k} levels")
    seen = {applied_steps([step_of[k] for k in cfg.capacities])}
    repeats = 0
    for caps in candidates:
        key = applied_steps([step_of[k] for k in caps])
        repeats += key in seen
        seen.add(key)
    tally = ctx.repeats.setdefault(name, [0, 0])
    tally[0] += repeats
    tally[1] += len(candidates)

    if name in MRQ_SCHEMES:
        def error(caps):
            return collapsed_chain_error(spec, max(step_of[k] for k in caps), cfg.domain,
                                         DEFAULT_GRID_SIZE)

        base = error(cfg.capacities)
        best = max([1.0] + [error(caps) / base for caps in candidates])
        rd.check(math.isclose(ratio, best, rel_tol=1e-9),
                 f"{name}: adversarial ratio {ratio!r}, closed form gives {best!r}")
        rd.check(math.isclose(ratio, 1.0 if worst == cfg else error(worst.capacities) / base,
                              rel_tol=1e-9),
                 f"{name}: the reported worst chain does not give the reported ratio")
    for t in traces:
        rd.check(list(t.steps_used) == steps, f"{name}: run_chain used other steps")
        if name in MRQ_SCHEMES:
            direct = cell_of(spec, max(t.steps_used), t.input)
            rd.check(t.outputs[-1] == direct.level,
                     f"{name}: chain output is not one quantization at the coarsest step")
        else:
            budget = sum(0.5 * s for s in applied_steps(t.steps_used) if s is not None)
            rd.check(t.final_abs_error <= budget * (1.0 + 1e-12),
                     f"uniform: chain error {t.final_abs_error!r} exceeds its steps' half-sum")


# ---------------------------------------------------------------------------
# verify_cli

_LINE = re.compile(r"^(PASS|FAIL) (\S+)(?: value=(\S+))? :: ")
_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed \(seed (-?\d+)\)$")


def prepare_verify(ctx: Context) -> None:
    """Distance of the exact horizon-30 first-crossing law from the
    stationary law, and the Monte Carlo tolerance around it: by the DKW
    inequality an empirical cdf of n samples stays within
    sqrt(ln(2/delta) / 2n) of its law, here with delta = 1e-6, plus the two
    Levy bisection tolerances."""
    sizes, masses = first_crossing_law(ALPHA, 30.0)
    exact = levy_distance(StepCdf(sizes, masses / math.fsum(masses.tolist())), BiasAlphaCdf(ALPHA))
    tol = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * RENEWAL_SAMPLES)) + 2e-4
    ctx.extra.update(renewal_exact=exact, renewal_tol=tol)


def _verify_process(ctx: Context) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "mrquant.cli", "verify", "--suite", "all", "--seed", str(ctx.seed)]
    return subprocess.run(cmd, cwd=ctx.root, capture_output=True, text=True, timeout=150)


def verify_cli(ctx: Context, rd: Round, r: int) -> None:
    proc = rd.call("cli", "cli.verify", _verify_process, ctx)
    rd.digest(proc.returncode, proc.stdout)
    rd.check(proc.returncode == 3, f"verify exited {proc.returncode}, not 3: {proc.stderr[-400:]}")
    lines = proc.stdout.splitlines()
    checks = [m.groups() for m in map(_LINE.match, lines) if m]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    failed = {name for status, name, _ in checks if status == "FAIL"}
    rd.check(summary is not None and summary.groups() == (
        str(len(checks) - len(failed)), str(len(failed)), str(ctx.seed)),
        "verify summary line does not match its PASS/FAIL lines")
    rd.check(failed == EXPECTED_VERIFY_FAILURES, f"verify failed {sorted(failed)}")
    renewal = [v for _, name, v in checks if name == "renewal.matches_closed_form"]
    exact, tol = ctx.extra["renewal_exact"], ctx.extra["renewal_tol"]
    rd.check(len(renewal) == 1 and abs(float(renewal[0]) - exact) <= tol,
             f"renewal distance {renewal} is not within {tol:.4f} of the exact law's {exact:.4f}")
    if ctx.in_process_suites:
        results = []
        for suite in VERIFY_SUITES:
            results += rd.call("suites", "verify.run_suite", run_suite, suite, ctx.seed)
        rd.check([(c.name, c.passed) for c in results] == [(n, s == "PASS") for s, n, _ in checks],
                 "in-process run_suite disagrees with the verify process")


ROUNDS = {
    "quantize_bulk": quantize_bulk,
    "cell_law": cell_law,
    "relay_adversary": relay_adversary,
    "verify_cli": verify_cli,
}
