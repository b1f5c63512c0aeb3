#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH.json \\
        [--workload NAME ...] [--first-seed 1]

Each of the ten pairs per workload runs ``perfbench/run.py --trace 0`` once
in each checkout, as a subprocess, with one seed and the ``run_seconds`` of
``BENCHMARK.json``; the parent goes first in even pairs and the change in odd
ones, so a slow spell of the host hits both sides alike.  Pair i of
every workload uses seed ``first-seed + i``.  Both sides run without a
bytecode cache: each ``__pycache__`` under a checkout's ``src/`` and
``perfbench/`` is removed before every run, and run.py starts with
``PYTHONDONTWRITEBYTECODE=1``, so neither side loads ``.pyc`` files that
the other compiles.  The output file holds, per
run, the workload, seed, side, its place in the pair, the exit code and the
final JSON line that run.py prints.  A summary of each end-to-end metric
that ``BENCHMARK.json`` lists (each side's median and quartiles, pairs the
change wins, the relative change of the medians), after a count of each
side's runs that failed a check, goes to stdout.

A parent checkout can be made with ``git archive``:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """Exit code and final JSON line of one perfbench run in a checkout,
    started with no bytecode cache in its ``src/`` or ``perfbench/``."""
    for top in ("src", "perfbench"):
        for cache in list((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, {"error": proc.stderr.strip()[-2000:]}


def _median_quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def summary(runs: list, metrics: list) -> list:
    """Per workload, one line counting the runs of each side that failed a
    check (``correct`` false or ``failed`` above 0), then one line per
    metric: each side's median [quartiles], the pairs in which the change
    is better and the change's median over the parent's, less 1, in %
    ("n/a" when the parent's median is 0)."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = {
            side: sum(
                not r["result"].get("correct") or r["result"].get("failed", 0) > 0
                for r in mine if r["side"] == side
            )
            for side in ("parent", "change")
        }
        total = {side: sum(r["side"] == side for r in mine) for side in bad}
        out.append(
            f"{workload}: runs with correct false or failed > 0: parent "
            f"{bad['parent']}/{total['parent']}, change {bad['change']}/{total['change']}"
        )
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"].get("metrics", {})
        for m in metrics:
            name = m["name"]
            both = [(p["parent"][name]["value"], p["change"][name]["value"])
                    for p in pairs.values()
                    if name in p.get("parent", {}) and name in p.get("change", {})]
            if len(both) < 2:
                continue
            parent, change = zip(*both)
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in both)
            base = statistics.median(parent)
            relative = (
                f"{statistics.median(change) / base - 1:+.2%}" if base else "n/a"
            )
            out.append(
                f"{workload} {name}: parent {_median_quartiles(parent)}, "
                f"change {_median_quartiles(change)}, change better in "
                f"{wins}/{len(both)}, median change {relative}"
            )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", default=ROOT, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = []
    for workload in workloads:
        for i in range(PAIRS):
            seed = args.first_seed + i
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for place, side in enumerate(sides):
                code, result = run_once(getattr(args, side), workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "place": place, "exit": code, "result": result})
                print(f"{workload} seed {seed} {side}: exit {code}", flush=True)
                args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    for line in summary(runs, bench["end_to_end"]):
        print(line)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
