"""One workload in one fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--in-process-suites] [--setup-only]

With ``--setup-only`` it times set-up (importing ``mrquant`` and building the
workload's specs) and exits.  Otherwise it runs whole rounds of the workload
until ``--seconds`` have passed, one call at a time, and prints one JSON
object: per-round times, operation counts and output digests, what the
checks found, peak resident memory and, with ``--trace``, the per-layer
metrics.  ``mrquant`` must be importable from the checkout's ``src``.
"""

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

_T0 = perf_counter()
import mrquant  # noqa: E402  (timed: this import is most of set-up)

IMPORT_S = perf_counter() - _T0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_rounds(ctx, tracer, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; at least one."""
    from workloads import ROUNDS, Round

    rounds, problems, edge = [], [], {}
    start = perf_counter()
    r = 0
    while True:
        rd = Round(tracer)
        try:
            ROUNDS[ctx.workload](ctx, rd, r)
        except Exception:  # an operation raised: count it, report it, end the run
            rd.failed += 1
            rd.problems.append(f"round {r}: " + traceback.format_exc(limit=4))
        rounds.append(rd.summary())
        problems += rd.problems
        for name in rd.edge_failures:
            edge[name] = edge.get(name, 0) + 1
        r += 1
        if rd.problems and rd.failed > len(rd.edge_failures):
            break
        if perf_counter() - start >= seconds:
            break
    return {"rounds": rounds, "problems": problems, "edge_failures": edge}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--in-process-suites", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(mrquant.__file__), src]) != src:
        print(f"error: mrquant imported from {mrquant.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    t = perf_counter()
    specs = workloads.build_specs(args.workload)
    setup_s = IMPORT_S + (perf_counter() - t)
    if args.setup_only:
        print(json.dumps({"import_s": IMPORT_S, "setup_s": setup_s}))
        return 0

    ctx = workloads.Context(args.workload, args.seed, specs, ROOT,
                            in_process_suites=args.in_process_suites)
    if args.workload == "verify_cli":
        workloads.prepare_verify(ctx)

    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    else:
        from tracing import NO_TRACE as tracer

    result = run_rounds(ctx, tracer, args.seconds)

    if args.trace:
        tracer.unwrap_all()
        result["layers"] = layers.metrics(tracer.spans, len(result["rounds"]), ctx.repeats,
                                          workloads.ADVERSARY_BUDGET)
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
