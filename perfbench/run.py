"""mcgseq benchmark: one workload, measured for a given time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-sequence and normalize-census (see workloads.py for what
each runs and why).  A run is a sequence of rounds; each round is a fresh
interpreter (worker.py) that imports the package, builds the seeded inputs
and runs every operation of the workload once, so caches are cold in every
round, as they are for a user.  Between the rounds, extra interpreters
that only set up and run the first operation (cold starts) take a third
of the run.  Nothing new starts once it would end after ``--seconds``,
but there are at least MIN_ROUNDS rounds.

With ``--trace 0`` the end-to-end metrics are built from the median of
each operation's times over the run's rounds and the median of the cold
starts (see ``end_to_end``), and every timing is scaled to a nominal host
speed by the reference samples the workers took (hostspeed.py); the
report prints the figures as measured too.  With ``--trace 1`` untraced
and traced rounds alternate; the traced ones record spans and time the hot
primitives, and cold probes follow: the CLI subcommands, the
symmetric-family enumeration and the (k,l) BFS ladder.  Per-layer figures
are as measured.

Every line but the last is for people: each metric with its unit, the
environment, failed checks.  The last line is one JSON object with the
keys correct, attempted, failed and metrics (the end-to-end metrics, or
every per-layer metric with ``--trace 1``).  The exit code is 0 only if
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import refs
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-sequence", "normalize-census")
MIN_ROUNDS = 3
# Extra cold starts take this share of a run.
COLD_SHARE = 1 / 3
DEADLINE_S = 165  # a run must end within 180 s
LADDER = ((0, 2), (1, 2), (2, 2), (3, 2), (0, 3), (1, 3))
# Per-case timeout by l: (3,2) takes about 14-18 s on a 2-vCPU Xeon VM; no l=3 case
# finishes at this commit, so they get just enough time to show progress.
LADDER_TIMEOUT_S = {2: 30, 3: 10}
REFERENCE_CASE = (2, 2)  # the shape of fixtures/mstar.txt
PROBE_REPEATS = 5


class Run:
    """Child processes of one run, all inside the checkout and all waited for."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: list[float] = []  # host-speed samples of untraced workers

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, argv, timeout):
        """Run a child to completion; returns (exit code or None on timeout, stdout, stderr)."""
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            return None, out, err
        return proc.returncode, out, err

    def worker(self, *argv, timeout):
        code, out, err = self.spawn([sys.executable, str(HERE / "worker.py"), *argv], timeout)
        if code is None:
            return None, "timed out"
        if code != 0:
            return None, f"exit code {code}: {err.strip()[-400:]}"
        return json.loads(out.strip().splitlines()[-1]), None

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def round(self, traced: bool, first_only=False, first_input=None):
        a = self.args
        argv = ["round", "--workload", a.workload, "--seed", str(a.seed),
                "--trace", str(int(traced)), "--spawned", repr(time.monotonic())]
        if first_only:
            argv.append("--first-only")
            if first_input is not None:
                argv += ["--first-input", json.dumps(first_input)]
        res, err = self.worker(*argv, timeout=self.remaining())
        if res is None:
            self.fail(f"round failed: {err}")
            return None
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.failures += res["messages"]
        res["traced"] = traced
        return res

    def untraced(self) -> tuple[list, list]:
        """Untraced rounds and the cold samples of rounds and extra cold starts.

        A cold sample is the ready_s, setup_s and first_s of one fresh
        interpreter.  Cold starts are spread between the rounds, so that
        they do not all fall in one phase of the host; once no round fits
        in the time left, cold starts fill it.
        """
        rounds, cold = [], []
        took = {"round": [], "cold": []}
        while True:
            elapsed = time.monotonic() - self.start
            left = self.args.seconds - elapsed
            if rounds and self.remaining() < 60:
                return rounds, cold
            kind = "round"
            if rounds and sum(took["cold"]) < COLD_SHARE * elapsed:
                kind = "cold"
            if len(rounds) >= MIN_ROUNDS:
                if kind == "round" and stats.median(took["round"]) > left:
                    kind = "cold"  # fill the rest of the run with cold starts
                cold_cost = (stats.median(took["cold"]) if took["cold"]
                             else rounds[0]["ready_s"] + rounds[0]["first_s"])
                if kind == "cold" and cold_cost > left:
                    return rounds, cold
            t0 = time.monotonic()
            if kind == "round":
                res = self.round(False)
            else:
                res = self.round(False, first_only=True, first_input=rounds[0]["first_input"])
            if res is None:
                return rounds, cold
            took[kind].append(time.monotonic() - t0)
            self.reference += res["reference_s"]
            cold.append({k: res[k] for k in ("ready_s", "setup_s", "first_s", "partial_setup")})
            if kind == "round":
                rounds.append(res)

    def traced(self) -> list:
        """Untraced and traced rounds, alternating, within ``--seconds``
        but at least one of each."""
        out = []
        while True:
            elapsed = time.monotonic() - self.start
            traced = len(out) % 2 == 1
            cost = stats.median([r["took"] for r in out if r["traced"] == traced] or [0.0])
            if len(out) >= 2 and elapsed + cost > self.args.seconds:
                return out
            if out and self.remaining() < 60:
                return out
            t0 = time.monotonic()
            res = self.round(traced)
            if res is None:
                return out
            res["took"] = time.monotonic() - t0
            out.append(res)


def wall(rounds, cold) -> float:
    """The median cold start plus the median time of every later operation.

    The cold start (interpreter start, set-up and first operation) comes
    from the cold samples that set up in full.
    """
    later = stats.per_op([r["latencies"] for r in rounds])[1:]
    full = [c for c in cold if not c["partial_setup"]]
    return stats.median([c["ready_s"] + c["first_s"] for c in full]) + sum(later)


def end_to_end(rounds, cold, reference) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced rounds and cold samples, and notes for the report.

    Each operation's time is its median over the rounds (``stats.per_op``).
    wall_s is the median cold start plus every later operation: the time
    to verdict of a round.  setup_s is the median over the cold samples
    that set up in full, first_result_s over all of them.  ops_per_s,
    op_p50_ms and op_tail_ms come from the operation times; op_tail_ms is
    their highest ladder percentile with at least 10 operations beyond it
    (``stats.tail``).  Timings are then scaled by hostspeed.NOMINAL_S over
    the median of ``reference``; peak_rss_mb, the median over rounds, is
    not.
    """
    ops = stats.per_op([r["latencies"] for r in rounds])
    later = ops[1:]
    p, tail_s, beyond = stats.tail(ops)
    measured = {
        "wall_s": (wall(rounds, cold), "s"),
        "setup_s": (stats.median([c["setup_s"] for c in cold if not c["partial_setup"]]), "s"),
        "first_result_s": (stats.median([c["first_s"] for c in cold]), "s"),
        "ops_per_s": (len(later) / sum(later), "1/s"),
        "op_p50_ms": (stats.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (stats.median([r["peak_rss_mb"] for r in rounds]), "MB"),
    }
    ref = stats.median(reference)
    scale = {"s": hostspeed.NOMINAL_S / ref, "ms": hostspeed.NOMINAL_S / ref,
             "1/s": ref / hostspeed.NOMINAL_S, "MB": 1.0}
    m = {k: (v * scale[u], u) for k, (v, u) in measured.items()}
    notes = {"as measured": ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in measured.items()),
             "host-speed reference": f"median {ref * 1e3:.4f} ms over {len(reference)} samples, "
                                     f"nominal {hostspeed.NOMINAL_S * 1e3:g} ms",
             "op_tail_ms": f"p{p:g} of {len(ops)} operations, {beyond} beyond it",
             "rounds": f"{len(rounds)} rounds, {len(cold)} cold samples",
             "wall_s by round": " ".join(f"{r['wall_s']:.3f}" for r in rounds),
             "op_p50_ms by round": " ".join(f"{stats.median(r['latencies']) * 1e3:.3f}" for r in rounds),
             "op_tail_ms by round": " ".join(f"{stats.tail(r['latencies'])[1] * 1e3:.3f}" for r in rounds),
             "setup_s, first_result_s by cold sample": " ".join(
                 f"{'-' if c['partial_setup'] else format(c['setup_s'], '.3f')},{c['first_s']:.4f}"
                 for c in cold)}
    return m, notes


def cli_probe(run: Run) -> dict:
    """Bare interpreter, package import, and each subcommand once on the fixtures.

    Every call must exit 0 and print JSON; normalize-system and the spotted
    suite must also report their known counts.
    """
    fx = ROOT / "fixtures"
    M = ["--manifold", str(fx / "mstar.txt")]

    def parses(out):
        return True

    calls = {
        "validate": (M + ["--family", str(fx / "family_slid.txt")], parses),
        "classify": (M + ["--family", str(fx / "family_slid.txt")], parses),
        "educe": (M + ["--word", str(fx / "word_aut.txt")], parses),
        "lift": (M + ["--word", str(fx / "word_aut.txt")], parses),
        "kernel-test": (M + ["--word", str(fx / "word_aut.txt")], parses),
        "factor": (M + ["--word", str(fx / "word_slide.txt")], parses),
        "act-pi1": (M + ["--word", str(fx / "word_slide.txt")], parses),
        "act-system": (M + ["--word", str(fx / "word_slide.txt"),
                            "--family", str(fx / "family_standard.txt")], parses),
        "normalize-system": (M + ["--family", str(fx / "family_slid.txt"),
                                  "--assignment", str(fx / "assignment_slid.txt")],
                             lambda out: out["statesVisited"] == refs.MSTAR_COUNTS["bfs_states"]),
        "spotted-educe": (["--manifold", str(fx / "spotted.txt"), "--word", str(fx / "word_spotted.txt")],
                          parses),
        "verify": (["--suite", "spotted", "--manifold", str(fx / "spotted.txt")],
                   lambda out: out["ok"] and all(out[k] == v for k, v in refs.SPOTTED_SUITE.items())),
        "render": (M + ["--family", str(fx / "family_slid.txt")], parses),
    }

    def timed(argv, check=None):
        run.attempted += 1
        t0 = time.perf_counter()
        code, out, err = run.spawn([sys.executable, *argv], timeout=min(60, run.remaining()))
        seconds = time.perf_counter() - t0
        problem = None
        if code != 0:
            problem = f"exit {code} {err.strip()[-200:]}"
        elif check:
            try:
                if not check(json.loads(out)):
                    problem = f"output differs from the known counts: {out.strip()[:200]}"
            except (ValueError, KeyError, TypeError):
                problem = "output is not the expected JSON"
        if problem:
            run.failed += 1
            run.failures.append(f"cli probe {argv[:4]}: {problem}")
        return seconds

    bare = stats.median([timed(["-c", "pass"]) for _ in range(PROBE_REPEATS)])
    imp = stats.median([timed(["-c", "import mcgseq.cli"]) for _ in range(PROBE_REPEATS)])
    out = {"cli.interpreter_ms": bare * 1e3, "cli.import_ms": (imp - bare) * 1e3}
    for sub, (args, check) in calls.items():
        out[f"cli.{sub}.ms"] = timed(["-m", "mcgseq", sub, *args], check) * 1e3
    return out


def cold_probes(run: Run) -> tuple[dict, list]:
    """Enumeration and the (k,l) ladder, each in a fresh interpreter."""
    out, notes = {}, []
    res, err = run.worker("enumerate", timeout=min(60, run.remaining()))
    if res is None:
        run.fail(f"enumeration probe: {err}")
    else:
        run.attempted += 1
        out["verify.enumerate_symmetric.s"] = res["seconds"]
        known = {"laminar_candidates": "verify.laminar_candidates",
                 "symmetric_families": "verify.symmetric_families",
                 "assignments": "systems.assignments"}
        for key, name in known.items():
            out[name] = res[key]
            if res[key] != refs.MSTAR_COUNTS[key]:
                run.fail(f"enumeration probe: {key} {res[key]} != known {refs.MSTAR_COUNTS[key]}")
    timeouts = 0
    timed_out_at = {}  # l -> smallest k that timed out
    for k, ell in LADDER:
        limit = min(LADDER_TIMEOUT_S[ell], run.remaining() - 5)
        t0 = time.monotonic()
        if limit <= 1 or k > timed_out_at.get(ell, k):
            # the state space grows with k, so a larger case cannot finish either
            res, err, limit = None, "timed out", 0
        else:
            res, err = run.worker("ladder", "--k", str(k), "--l", str(ell),
                                  "--seed", str(run.args.seed), timeout=limit)
        if res is None:
            if err == "timed out":
                timeouts += 1
                timed_out_at.setdefault(ell, k)
                notes.append(f"ladder ({k},{ell}): timed out after {limit:.0f} s" if limit
                             else f"ladder ({k},{ell}): not run, a smaller case timed out")
            else:
                run.fail(f"ladder ({k},{ell}): {err}")
            res = {"cold_s": time.monotonic() - t0, "bfs_states": 0, "warm_us": 0.0}
        else:
            notes.append(f"ladder ({k},{ell}): {res['bfs_states']} states, cold {res['cold_s']:.3f} s, "
                         f"warm {res['warm_us']:.0f} us")
        if (k, ell) == REFERENCE_CASE:
            out["systems.normalize_system.cold_s"] = res["cold_s"]
            out["systems.normalize_system.warm_us"] = res["warm_us"]
            out["systems.bfs_states"] = res["bfs_states"]
            if res["bfs_states"] != refs.MSTAR_COUNTS["bfs_states"]:
                run.fail(f"ladder (2,2): {res['bfs_states']} states != known {refs.MSTAR_COUNTS['bfs_states']}")
        elif ell == 2:
            out[f"systems.ladder.k{k}l{ell}.cold_s"] = res["cold_s"]
            out[f"systems.ladder.k{k}l{ell}.bfs_states"] = res["bfs_states"]
    out["systems.ladder.timeouts"] = timeouts
    return out, notes


def per_layer(run: Run, rounds) -> tuple[dict, list]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out, notes = {}, []
    if not traced or not plain:
        return out, notes
    for name in traced[0]["layers"]:
        out[name] = stats.median([r["layers"][name] for r in traced])
    out["sequence.kernel_words"] = traced[0]["counts"]["kernel_words"]
    out["words.rewritten_words"] = traced[0]["counts"]["rewritten_words"]
    out["trace.overhead_s"] = wall(traced, traced) - wall(plain, plain)
    summary = traced[0]["trace"]
    out["trace.spans"] = summary["spans"]
    self_total = sum(summary["self_s"].values()) or 1.0
    for module, s in sorted(summary["self_s"].items(), key=lambda kv: -kv[1]):
        notes.append(f"self time {module}: {s:.3f} s ({100 * s / self_total:.1f}%)")
    for name, s in sorted(summary["busy_s"].items(), key=lambda kv: -kv[1]):
        notes.append(f"busy {name}: {s:.3f} s over {summary['calls'][name]} calls")
    return out, notes


def calibration_ms() -> float:
    """A fixed stdlib loop; its time tracks how fast the host runs right now."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    return stats.median(samples)


def steal_ticks() -> int:
    """Cumulative steal time of all CPUs from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mcgseq" / "__init__.py").is_file() or not (
        ROOT / "fixtures" / "mstar.txt"
    ).is_file():
        print(f"perfbench: no mcgseq source tree and fixtures under {ROOT}", file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "cpu": cpu_model(), "loadavg_1m_start": os.getloadavg()[0],
           "calibration_ms_start": calibration_ms()}
    steal0 = steal_ticks()
    run = Run(args)
    try:
        notes: list[str] = []
        units = None
        if args.trace:
            metrics, notes = per_layer(run, run.traced())
            if metrics:
                metrics.update(cli_probe(run))
                probes, ladder_notes = cold_probes(run)
                metrics.update(probes)
                notes += ladder_notes
        else:
            rounds, cold = run.untraced()
            metrics = {}
            if rounds:
                e2e, info = end_to_end(rounds, cold, run.reference)
                metrics = {k: v for k, (v, _) in e2e.items()}
                units = {k: u for k, (_, u) in e2e.items()}
                notes = [f"{k}: {v}" for k, v in info.items()]
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    env.update({"loadavg_1m_end": os.getloadavg()[0], "steal_ticks": steal_ticks() - steal0,
                "calibration_ms_end": calibration_ms()})
    if units is None:
        units = {name: layer_unit(name) for name in metrics}

    attempted = max(run.attempted, 1)
    correct = run.failed == 0 and bool(metrics)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {run.failed / attempted:.6g} ({run.failed} of {attempted} operations failed)")
    for note in notes:
        print(f"  {note}")
    for message in run.failures[:20]:
        print(f"  FAILED: {message}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "ns": "ns", "us": "us", "ms": "ms", "s": "s", "cold_s": "s", "warm_us": "us",
        "overhead_s": "s", "import_ms": "ms", "interpreter_ms": "ms",
        "slide_reject_ratio": "ratio",
    }.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
