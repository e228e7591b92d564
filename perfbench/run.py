"""Benchmark for mrquant: run one workload, or all four, and print its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it benchmarks the sources in ``src/`` next to this
directory.  Each workload runs in its own fresh interpreter (``worker.py``),
one call at a time, with BLAS/OpenMP pools limited to one thread.  Set-up is
timed in five more fresh interpreters and reported as their median.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
traced run, which is compared against an untraced run of the same rounds
(their outputs must match; the time difference is the tracing overhead).
Earlier lines name every metric with its unit, including the workload's own
throughput.  The result and the trace's spans are also written under
``perfbench/results/``.  Exit status: 0 with a result, 1 if a worker failed,
2 if there are no sources to benchmark.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from layers import PER_LAYER

WORKLOADS = ("quantize_bulk", "cell_law", "relay_adversary", "verify_cli")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # one workload, set-up probes included

# (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_ms", "ms"))

# The workload's own throughput, printed but not part of the JSON result:
# name, unit, work counter, timed part (None: whole rounds).
THROUGHPUT = {
    "quantize_bulk": [(f"{s}_values_per_s", "values/s", f"{s}_values", s)
                      for s in ("uniform", "bmrq", "dbmrq", "bbmrq")]
    + [("scalar_calls_per_s", "calls/s", "scalar_calls", "scalar")],
    "cell_law": [("window_steps_per_s", "steps/s", "window_steps", None)],
    "relay_adversary": [("candidate_chains_per_s", "chains/s", "candidate_chains", None)],
    "verify_cli": [],
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class WorkerError(RuntimeError):
    pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("MRQ_SEED", None)
    return env


def _worker(args: List[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerError(f"worker {' '.join(args)} ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _median_round_ms(run: dict) -> float:
    return 1e3 * statistics.median(r["seconds"] for r in run["rounds"])


def _throughput(workload: str, run: dict) -> List[tuple]:
    rounds = run["rounds"]
    out = []
    for name, unit, work, part in THROUGHPUT[workload]:
        done = sum(r["work"].get(work, 0.0) for r in rounds)
        spent = sum(r["parts"].get(part, 0.0) if part else r["seconds"] for r in rounds)
        out.append((name, done / spent, unit))
    if workload == "verify_cli":
        out.append(("verify_s", statistics.median(r["parts"]["cli"] for r in rounds), "s"))
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    probes = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p["setup_s"] for p in probes)
    import_s = statistics.median(p["import_s"] for p in probes)

    suites = ["--in-process-suites"] if trace and workload == "verify_cli" else []
    span = seconds / 2.0 if trace else float(seconds)
    plain = _worker(base + ["--seconds", str(span)] + suites, deadline)
    runs = [plain]
    problems = list(plain["problems"])
    if trace:
        traced = _worker(base + ["--seconds", str(span), "--trace"] + suites, deadline)
        runs.append(traced)
        problems += traced["problems"]
        for r, (a, b) in enumerate(zip(plain["rounds"], traced["rounds"])):
            if a["digest"] != b["digest"]:
                problems.append(f"round {r}: traced outputs differ from untraced ones")
        metrics = dict(traced["layers"])
        metrics["cli.import_s"] = import_s
        metrics["cli.overhead_s"] = (
            statistics.median(r["parts"]["cli"] - r["parts"]["suites"] for r in plain["rounds"])
            if suites else 0.0)
        metrics["trace.overhead_pct"] = 100.0 * (_median_round_ms(traced) / _median_round_ms(plain) - 1.0)
        shown = [(name, metrics[name], unit) for name, unit, _ in PER_LAYER]
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": plain["peak_rss_mb"],
                   "round_ms": _median_round_ms(plain)}
        shown = [(name, metrics[name], unit) for name, unit in END_TO_END]
    edge: Dict[str, int] = {}
    for run in runs:
        for name, n in run["edge_failures"].items():
            edge[name] = edge.get(name, 0) + n
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": sum(len(run["rounds"]) for run in runs),
        "correct": not problems,
        "attempted": sum(r["attempted"] for run in runs for r in run["rounds"]),
        "failed": sum(r["failed"] for run in runs for r in run["rounds"]),
        "problems": problems,
        "edge_failures": edge,
        "shown": shown + ([] if trace else _throughput(workload, plain)),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in shown},
        "trace_file": runs[-1].get("trace_file"),
    }


def _report(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['rounds']} rounds, {res['attempted']} operations attempted, {res['failed']} failed, "
          f"outputs {'correct' if res['correct'] else 'WRONG'}")
    for name, n in sorted(res["edge_failures"].items()):
        print(f"  failed x{n}: {name}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    for name, value, unit in res["shown"]:
        print(f"  {name} {value:.6g} {unit}")
    if res["trace_file"]:
        print(f"  spans: {res['trace_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mrquant" / "__init__.py").is_file():
        print(f"error: no mrquant sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _report(res)
        results.append(res)
        out = HERE / "results"
        out.mkdir(exist_ok=True)
        (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
