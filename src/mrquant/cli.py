"""Command-line interface.

Subcommands map one-to-one onto the library layers: ``quantize`` for point
evaluation, ``cdf`` for cell-size distributions, ``tradeoff`` for rate-error
curves as CSV, ``relay`` for chain simulation driven by a JSON config, and
``verify`` for the self-check suites.

Exit codes: 0 success, 2 domain error (bad values), 3 verification failure,
4 config parse error.  All numeric CSV fields carry 17 significant digits so
output is reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .cdf_analysis import (
    BiasAlphaCdf,
    DbmrqAtomsCdf,
    TwoPowUnifCdf,
    _lattice_law,
    empirical_cell_cdf,
    levy_distance,
)
from .quantizers import (
    DomainError,
    PathCodeError,
    QuantizerSpec,
    Scheme,
    _integer,
    _real,
    encode_path,
    quantize,
)
from .relay_sim import RelayChainConfig, adversarial_ratio, run_chain
from .tradeoff import tradeoff_curve
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A config document failed to parse or matched no known shape."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _build_spec(scheme: str, alpha: Optional[float]) -> QuantizerSpec:
    try:
        sch = Scheme(scheme)
    except ValueError:
        valid = ", ".join(s.value for s in Scheme)
        raise DomainError(f"unknown scheme {scheme!r}; choose from {valid}")
    if sch is Scheme.BBMRQ:
        return QuantizerSpec(sch, alpha=alpha)
    return QuantizerSpec(sch)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_quantize(args: argparse.Namespace) -> int:
    spec = _build_spec(args.scheme, args.alpha)
    value = quantize(spec, args.s, args.x)
    path_line = None
    if args.trace_path:
        pc = encode_path(spec, args.s, args.x)
        bits = "".join(str(b) for b in pc.bits)
        path_line = (
            f"path sign={pc.sign:+d} base_level={pc.base_level} bits={bits or '-'}"
        )
    print(_fmt(value))
    if path_line is not None:
        print(path_line)
    return 0


def _closed_form_rows(spec: QuantizerSpec, s: float) -> List[tuple]:
    s = _real(s, "step bound s", "(0, inf)")
    if spec.scheme is not Scheme.BBMRQ:
        law = _lattice_law(spec, s)
        return list(zip(law.breakpoints, np.cumsum(law.masses)))
    law = BiasAlphaCdf(spec.alpha)
    lo, hi = law.support
    grid = np.union1d(
        np.linspace(0.98 * lo, hi, 129), np.asarray(law.kinks(), dtype=float)
    )
    return [(g * s, float(law.cdf(g))) for g in grid]


def _cmd_cdf(args: argparse.Namespace) -> int:
    spec = _build_spec(args.scheme, args.alpha)
    if args.closed_form:
        rows = _closed_form_rows(spec, args.s)
        empirical = None
    else:
        empirical = empirical_cell_cdf(spec, args.s, args.x0, args.x1)
        rows = list(zip(empirical.breakpoints, np.cumsum(empirical.masses)))
    print("gamma,F")
    for gamma, f in rows:
        print(f"{_fmt(gamma)},{_fmt(f)}")
    if args.levy_against is not None:
        if empirical is None:
            raise DomainError("--levy-against needs the empirical cdf; "
                              "drop --closed-form")
        if args.levy_against == "bias":
            alpha = args.alpha if args.alpha is not None else spec.alpha
            if alpha is None:
                raise DomainError("--levy-against bias needs --alpha")
            d = levy_distance(empirical.scaled(1.0 / args.s), BiasAlphaCdf(alpha))
        elif args.levy_against == "twopow":
            d = levy_distance(empirical.scaled(1.0 / args.s), TwoPowUnifCdf())
        else:  # dbmrq
            d = levy_distance(empirical, DbmrqAtomsCdf(args.s))
        print(f"levy_distance,{_fmt(d)}")
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not names:
        raise DomainError("--schemes must name at least one scheme")
    points = _integer(args.points, "--points", 1)
    xmin, xmax = _real(args.xmin, "--xmin"), _real(args.xmax, "--xmax")
    if xmax < xmin:
        raise DomainError("--xmax must not be below --xmin")
    grid = np.linspace(xmin, xmax, points).tolist()
    print("scheme,log_rate,error,s")
    for name in names:
        spec = _build_spec(name, args.alpha)
        for pt in tradeoff_curve(spec, args.p, grid):
            print(f"{name},{_fmt(pt.log_rate)},{_fmt(pt.error)},{_fmt(pt.s)}")
    return 0


def _load_relay_config(path: str) -> RelayChainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("relay config must be a JSON object")
    unknown = set(doc) - {"capacities", "domain", "scheme", "alpha"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        caps = doc["capacities"]
        scheme = doc["scheme"]
    except KeyError as exc:
        raise ConfigError(f"relay config is missing key {exc}")
    # JSON numbers load as int or float; true and false load as bool, which type() tells apart
    if not isinstance(caps, list) or not all(type(k) is int for k in caps):
        raise ConfigError("capacities must be a list of integers")
    if not isinstance(scheme, str):
        raise ConfigError("scheme must be a string")
    domain = doc.get("domain", [0.0, 1.0])
    if (
        not isinstance(domain, list)
        or len(domain) != 2
        or not all(type(v) in (int, float) for v in domain)
    ):
        raise ConfigError("domain must be [lo, hi]")
    alpha = doc.get("alpha")
    if alpha is not None and type(alpha) not in (int, float):
        raise ConfigError("alpha must be a number")
    return RelayChainConfig(capacities=tuple(caps), spec=_build_spec(scheme, alpha), domain=tuple(domain))


def _cmd_relay(args: argparse.Namespace) -> int:
    cfg = _load_relay_config(args.config)
    if args.adversary_budget is not None:
        worst, ratio = adversarial_ratio(cfg, args.adversary_budget, p=args.p)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "relay.adversary",
            "capacities": list(cfg.capacities),
            "worst_capacities": list(worst.capacities),
            "ratio": ratio,
            "budget": args.adversary_budget,
            "p": args.p,
        }
    elif args.x is not None:
        trace = run_chain(cfg, args.x)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "relay.trace",
            "input": trace.input,
            "outputs": list(trace.outputs),
            "steps_used": list(trace.steps_used),
            "final_abs_error": trace.final_abs_error,
        }
    else:
        raise DomainError("provide --x for a trace or --adversary-budget")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("MRQ_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"MRQ_SEED must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED
    results = run_suite(args.suite, seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        lo, hi = r.bound
        print(f"{status} {r.name} value={_fmt(r.value)} :: in [{lo!r}, {hi!r}]; {r.detail}")
    print(f"{len(results) - failed} passed, {failed} failed (seed {seed})")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrquant",
        description="Multi-resolution quantizers: evaluation, cell-size "
        "analysis, tradeoff curves, relay simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize one value")
    q.add_argument("--scheme", required=True)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--s", type=float, required=True, help="step bound")
    q.add_argument("--x", type=float, required=True, help="input value")
    q.add_argument(
        "--trace-path",
        action="store_true",
        help="also print the tree path of the cell",
    )
    q.set_defaults(func=_cmd_quantize)

    c = sub.add_parser("cdf", help="cell-size cdf over a window as CSV")
    c.add_argument("--scheme", required=True)
    c.add_argument("--alpha", type=float, default=None)
    c.add_argument("--s", type=float, required=True)
    c.add_argument("--x0", type=float, default=0.0)
    c.add_argument("--x1", type=float, default=1e5)
    c.add_argument(
        "--closed-form",
        action="store_true",
        help="emit the limiting law instead of the empirical cdf",
    )
    c.add_argument(
        "--levy-against",
        choices=("bias", "twopow", "dbmrq"),
        default=None,
        help="append the Levy distance to the named reference law",
    )
    c.set_defaults(func=_cmd_cdf)

    t = sub.add_parser("tradeoff", help="rate-error tradeoff curves as CSV")
    t.add_argument("--schemes", required=True, help="comma-separated scheme names")
    t.add_argument("--p", type=float, default=1.0)
    t.add_argument("--xmin", type=float, default=0.0)
    t.add_argument("--xmax", type=float, default=4.0)
    t.add_argument("--points", type=int, default=81)
    t.add_argument("--alpha", type=float, default=0.501)
    t.set_defaults(func=_cmd_tradeoff)

    r = sub.add_parser("relay", help="relay-chain simulation from a JSON config")
    r.add_argument("--config", required=True, help="path to the JSON config")
    r.add_argument("--x", type=float, default=None, help="value to trace")
    r.add_argument(
        "--adversary-budget",
        type=int,
        default=None,
        help="search worst capacity decrements within this total budget",
    )
    r.add_argument("--p", type=float, default=1.0)
    r.set_defaults(func=_cmd_relay)

    v = sub.add_parser("verify", help="run self-check suites")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument(
        "--seed",
        type=int,
        default=None,
        help="suite seed; defaults to MRQ_SEED from the environment, then "
        f"{DEFAULT_SEED}",
    )
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PathCodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
