"""Per-layer metrics of the traced run, computed from its spans.

Layers are the modules of ``mrquant``.  Every traced run reports every
metric below; a layer a workload never calls reads 0 there.  Counts
(``.calls``, ``.cells``) and ``tradeoff.converse_checks.ms`` are per round;
the other figures are per call or per unit of work.  Which end-to-end metric
each one should move, on which workload, is in README.md.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import Tracer, self_times

SCHEMES = ("uniform", "bmrq", "dbmrq", "bbmrq")
SUITES = ("mrq", "scale", "converse", "renewal")

# (name, unit, better)
PER_LAYER = (
    [(f"quantizers.quantize_many.{s}.ns_per_value", "ns", "lower") for s in SCHEMES]
    + [
        ("quantizers.quantize.us_per_call", "us", "lower"),
        ("quantizers.path_roundtrip.us_per_call", "us", "lower"),
    ]
    + [(f"quantizers.enumerate_cells.{s}.ns_per_cell", "ns", "lower") for s in SCHEMES[1:]]
    + [
        ("quantizers.enumerate_cells.cells", "count", "lower"),
        ("quantizers.enumerate_cells.calls", "count", "lower"),
        ("cdf_analysis.empirical_cell_cdf.self_ms", "ms", "lower"),
        ("cdf_analysis.empirical_cell_cdf.atoms", "count", "lower"),
        ("cdf_analysis.count_levels.ms_per_call", "ms", "lower"),
        ("cdf_analysis.count_levels.calls", "count", "lower"),
        ("cdf_analysis.output_entropy.self_ms", "ms", "lower"),
        ("cdf_analysis.lp_error_exact.self_ms", "ms", "lower"),
        ("cdf_analysis.levy_distance.ms_per_call", "ms", "lower"),
        ("cdf_analysis.levy_distance.kinks", "count", "lower"),
        ("tradeoff.renewal_oracle_cdf.ms_per_call", "ms", "lower"),
        ("tradeoff.converse_checks.ms", "ms", "lower"),
        ("relay_sim.capacity_to_step.cold_ms", "ms", "lower"),
        ("relay_sim.capacity_to_step.count_levels_per_call", "count", "lower"),
        ("relay_sim.average_chain_error.ms_per_call", "ms", "lower"),
        ("relay_sim.average_chain_error.calls", "count", "lower"),
        ("relay_sim.adversarial_ratio.ms_per_call", "ms", "lower"),
    ]
    + [(f"relay_sim.adversarial_ratio.{s}.repeat_share", "share", "lower") for s in SCHEMES]
    + [(f"verify.run_suite.{s}.s", "s", "lower") for s in SUITES]
    + [
        ("cli.import_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


def _scheme(args) -> dict:
    return {"scheme": args[0].scheme.value}


# Span name -> the attributes the metrics below read, taken from a call's
# arguments and result after its span has closed.
DESCRIBE = {
    "quantizers.quantize_many": lambda a, out: {**_scheme(a), "values": int(getattr(a[2], "size", 1))},
    "quantizers.enumerate_cells": lambda a, out: {**_scheme(a), "cells": len(out)},
    "cdf_analysis.empirical_cell_cdf": lambda a, out: {"atoms": int(out.breakpoints.size)},
    "cdf_analysis.levy_distance": lambda a, out: {"kinks": len(a[0].kinks()) + len(a[1].kinks())},
    "relay_sim.capacity_to_step": lambda a, out: _scheme(a),
    "relay_sim.adversarial_ratio": lambda a, out: {"scheme": a[0].spec.scheme.value, "budget": a[1]},
    "verify.run_suite": lambda a, out: {"suite": a[0]},
}

# The public names one module of the package calls in another (plus the
# adversary's own calls to average_chain_error), wrapped in the traced run.
WRAPS = (
    ("relay_sim", "count_levels", "cdf_analysis.count_levels"),
    ("relay_sim", "quantize_many", "quantizers.quantize_many"),
    ("relay_sim", "quantize", "quantizers.quantize"),
    ("relay_sim", "average_chain_error", "relay_sim.average_chain_error"),
    ("cdf_analysis", "enumerate_cells", "quantizers.enumerate_cells"),
    ("verify", "empirical_cell_cdf", "cdf_analysis.empirical_cell_cdf"),
    ("verify", "levy_distance", "cdf_analysis.levy_distance"),
    ("verify", "quantize_many", "quantizers.quantize_many"),
    ("verify", "renewal_oracle_cdf", "tradeoff.renewal_oracle_cdf"),
    ("verify", "density_bound_slack", "tradeoff.density_bound_slack"),
    ("verify", "refinement_inequality_value", "tradeoff.refinement_inequality_value"),
)


def install(tracer: Tracer) -> None:
    import importlib

    for module, attr, name in WRAPS:
        mod = importlib.import_module(f"mrquant.{module}")
        tracer.wrap(mod, attr, name, DESCRIBE.get(name, lambda a, out: {}))


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(spans: List[list], rounds: int, repeats: Dict[str, List[int]],
            budget: int) -> Dict[str, float]:
    """Every span-derived metric of :data:`PER_LAYER` for one traced run.
    ``budget`` picks the adversary calls on the seeded chains."""
    own = self_times(spans)
    by_name: Dict[str, List[list]] = {}
    for sp in spans:
        by_name.setdefault(sp[2], []).append(sp)

    def dur(sp) -> float:
        return sp[4] - sp[3]

    def named(name, **match) -> List[list]:
        return [sp for sp in by_name.get(name, []) if all(sp[5].get(k) == v for k, v in match.items())]

    out: Dict[str, float] = {}
    for s in SCHEMES:
        qm = named("quantizers.quantize_many", scheme=s)
        out[f"quantizers.quantize_many.{s}.ns_per_value"] = 1e9 * _ratio(
            sum(map(dur, qm)), sum(sp[5].get("values", 0) for sp in qm))
    out["quantizers.quantize.us_per_call"] = 1e6 * _mean([dur(sp) for sp in named("quantizers.quantize")])
    paths = named("quantizers.encode_path") + named("quantizers.decode_path")
    out["quantizers.path_roundtrip.us_per_call"] = 1e6 * _ratio(
        sum(map(dur, paths)), len(named("quantizers.decode_path")))
    enum = named("quantizers.enumerate_cells")
    for s in SCHEMES[1:]:
        es = [sp for sp in enum if sp[5].get("scheme") == s]
        out[f"quantizers.enumerate_cells.{s}.ns_per_cell"] = 1e9 * _ratio(
            sum(map(dur, es)), sum(sp[5].get("cells", 0) for sp in es))
    out["quantizers.enumerate_cells.cells"] = _ratio(sum(sp[5].get("cells", 0) for sp in enum), rounds)
    out["quantizers.enumerate_cells.calls"] = _ratio(len(enum), rounds)

    cdf = named("cdf_analysis.empirical_cell_cdf")
    out["cdf_analysis.empirical_cell_cdf.self_ms"] = 1e3 * _mean([own[sp[0]] for sp in cdf])
    out["cdf_analysis.empirical_cell_cdf.atoms"] = _mean([sp[5].get("atoms", 0) for sp in cdf])
    counts = named("cdf_analysis.count_levels")
    out["cdf_analysis.count_levels.ms_per_call"] = 1e3 * _mean([dur(sp) for sp in counts])
    out["cdf_analysis.count_levels.calls"] = _ratio(len(counts), rounds)
    for fn in ("output_entropy", "lp_error_exact"):
        out[f"cdf_analysis.{fn}.self_ms"] = 1e3 * _mean([own[sp[0]] for sp in named(f"cdf_analysis.{fn}")])
    levy = named("cdf_analysis.levy_distance")
    out["cdf_analysis.levy_distance.ms_per_call"] = 1e3 * _mean([dur(sp) for sp in levy])
    out["cdf_analysis.levy_distance.kinks"] = _mean([sp[5].get("kinks", 0) for sp in levy])

    out["tradeoff.renewal_oracle_cdf.ms_per_call"] = 1e3 * _mean(
        [dur(sp) for sp in named("tradeoff.renewal_oracle_cdf")])
    converse = named("tradeoff.density_bound_slack") + named("tradeoff.refinement_inequality_value")
    out["tradeoff.converse_checks.ms"] = 1e3 * _ratio(sum(map(dur, converse)), rounds)

    cold = [sp for sp in named("relay_sim.capacity_to_step") if sp[5].get("scheme") in ("dbmrq", "bbmrq")]
    cold_ids = {sp[0] for sp in cold}
    out["relay_sim.capacity_to_step.cold_ms"] = 1e3 * _mean([dur(sp) for sp in cold])
    out["relay_sim.capacity_to_step.count_levels_per_call"] = _ratio(
        sum(1 for sp in counts if sp[1] in cold_ids), len(cold))
    chains = named("relay_sim.average_chain_error")
    out["relay_sim.average_chain_error.ms_per_call"] = 1e3 * _mean([dur(sp) for sp in chains])
    out["relay_sim.average_chain_error.calls"] = _ratio(len(chains), rounds)
    adversary = [sp for sp in named("relay_sim.adversarial_ratio") if sp[5].get("budget") == budget]
    out["relay_sim.adversarial_ratio.ms_per_call"] = 1e3 * _mean([dur(sp) for sp in adversary])
    for s in SCHEMES:
        rep, total = repeats.get(s, (0, 0))
        out[f"relay_sim.adversarial_ratio.{s}.repeat_share"] = _ratio(rep, total)

    for suite in SUITES:
        out[f"verify.run_suite.{suite}.s"] = _mean([dur(sp) for sp in named("verify.run_suite", suite=suite)])
    return out
