"""One fresh interpreter of the benchmark: a workload round or a cold probe.

    worker.py round --workload NAME --seed N --trace 0|1 --spawned T [--first-only [--first-input JSON]]
    worker.py ladder --k K --l L --seed N
    worker.py enumerate

Each mode prints one JSON object on stdout.  A round times set-up from the
first line of this file, so the import of the package is part of it, and
reports the time from ``--spawned`` (the parent's ``time.monotonic()``
just before it started this process) to the end of set-up and to the
verdict.  Between operations, and before the first and after the last,
it times the host-speed reference (hostspeed.py).  With ``--first-input``
(the ``first_input`` of an earlier round) a first-only round sets up only
what its one operation needs.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_round(args) -> dict:
    import workloads
    from hostspeed import Gauge
    from stats import OpLog
    from tracing import NullTracer, Tracer, summarize

    tracer = Tracer() if args.trace else NullTracer()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, tracer)
    first_input = json.loads(args.first_input) if args.first_input else None
    token = tracer.begin("bench.setup")
    wl.setup(first_input)
    tracer.end(token)
    setup_s = time.perf_counter() - T0
    ready_s = time.monotonic() - args.spawned
    log = OpLog()
    gauge = Gauge()
    gauge.burst()
    n = 1 if args.first_only else wl.n_ops()
    for i in range(n):
        gauge.tick()
        tracer.op = i
        start = time.perf_counter()
        token = tracer.begin("bench.op")
        try:
            errors = wl.run_op(i)
        except Exception as exc:  # an operation that raises is a failed operation
            errors = [f"operation {i} raised {exc!r}"]
        if i == 0:
            errors = wl.setup_errors + errors
        if i == n - 1 and not args.first_only:
            errors = errors + wl.finish()
        tracer.end(token)
        log.record(start, time.perf_counter(), errors)
    verdict = time.monotonic()
    gauge.burst()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "wall_s": verdict - args.spawned,
        "ready_s": ready_s,
        "setup_s": setup_s,
        "first_s": log.latencies[0],
        "latencies": log.latencies,
        "attempted": log.attempted,
        "failed": log.failed,
        "messages": log.messages,
        "peak_rss_mb": peak_kb / 1024.0,
        "counts": wl.counts,
        "partial_setup": first_input is not None,
        "first_input": None if args.first_only else wl.first_input(),
        "reference_s": gauge.samples,
    }
    if args.trace:
        result["trace"] = summarize(tracer.spans)
        tracer.spans.clear()
        import layers

        result["layers"] = layers.layer_pass(wl)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("round")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--spawned", type=float, required=True)
    r.add_argument("--first-only", action="store_true", help="set up and run the first operation only")
    r.add_argument("--first-input", help="JSON input of the first operation, for --first-only")
    lad = sub.add_parser("ladder")
    lad.add_argument("--k", type=int, required=True)
    lad.add_argument("--l", type=int, required=True)
    lad.add_argument("--seed", type=int, required=True)
    sub.add_parser("enumerate")
    args = parser.parse_args()

    if args.mode == "round":
        out = run_round(args)
    elif args.mode == "ladder":
        import layers

        tmp = ROOT / ".perfbench_tmp"
        tmp.mkdir(exist_ok=True)
        out = layers.ladder_case(args.k, args.l, args.seed, tmp)
    else:
        import layers

        out = layers.enumeration(ROOT)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
