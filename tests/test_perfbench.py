"""The benchmark harness uses package names that no other test reaches
(``Forest``, ``act_letter_blocks``, ``identity_assignment``, ...): import
every ``perfbench`` module, check every ``<module>.<name>`` it reads off a
package module, run the harness's own unit tests and one full round of
the exact-sequence workload.  The summary of ``scripts/bench_pairs.py`` is
checked on a synthetic run list."""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _run(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(PERFBENCH), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_modules_import_and_unit_tests_pass():
    modules = sorted(p.stem for p in PERFBENCH.glob("*.py"))
    assert {"layers", "workloads", "run"} <= set(modules)
    proc = _run("-c", "import " + ", ".join(modules))
    assert proc.returncode == 0, proc.stderr
    proc = _run("-m", "unittest", "discover", "-s", str(PERFBENCH / "tests"))
    assert proc.returncode == 0, proc.stderr
    assert "Ran 0 tests" not in proc.stderr


def _attributes_read():
    """(module, name) for each ``<alias>.<name>`` in perfbench where the alias
    comes from ``from mcgseq import <module> [as <alias>]``."""
    read = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name: f"mcgseq.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "mcgseq"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                read.add((modules[node.value.id], node.attr))
    return read


def test_package_names_read_by_perfbench_exist():
    read = _attributes_read()
    assert ("mcgseq.systems", "act_letter_blocks") in read
    missing = [
        f"{module}.{name}"
        for module, name in sorted(read)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_census_setup_counts():
    """perfbench's census set-up path reads ``enumerate_symmetric``'s pairs
    and feeds them to ``allowable_assignments``: a change in that return
    shape breaks the benchmark, which the name check above cannot see."""
    code = (
        "import json, layers, refs; from pathlib import Path; "
        f"res = layers.enumeration(Path({str(ROOT)!r})); "
        "print(json.dumps([res, refs.MSTAR_COUNTS]))"
    )
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    res, known = json.loads(proc.stdout)
    for key in ("laminar_candidates", "symmetric_families", "assignments"):
        assert res[key] == known[key], key


def test_exact_sequence_round_passes():
    """One full round of the exact-sequence workload: every operation builds
    words and runs the kernel test and the factorization, so a change to the
    ``Word`` API that the harness relies on fails here, not in the benchmark."""
    proc = _run(
        str(PERFBENCH / "worker.py"), "round", "--workload", "exact-sequence",
        "--seed", "1", "--trace", "0", "--spawned", repr(time.monotonic()),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["messages"][:3]
    assert result["attempted"] == 100


def test_bench_pairs_summary():
    # the relative change of the medians reads the same way for a metric
    # that is better higher, and is "n/a" when the parent's median is 0
    def run(seed, side, value, correct=True, failed=0):
        metrics = {
            "op_p50_ms": {"value": value, "unit": "ms"},
            "ops_per_s": {"value": 1000 / value, "unit": "1/s"},
            "zero": {"value": float(side == "change"), "unit": "count"},
        }
        return {"workload": "census", "seed": seed, "side": side,
                "result": {"correct": correct, "failed": failed, "metrics": metrics}}

    runs = [
        run(1, "parent", 2.0), run(1, "change", 1.0),
        run(2, "change", 1.5, failed=3), run(2, "parent", 3.0),
        run(3, "parent", 4.0, correct=False), run(3, "change", 5.0),
        run(4, "change", 2.0), run(4, "parent", 5.0),
    ]
    lines = load_script("bench_pairs").summary(
        runs,
        [
            {"name": "op_p50_ms", "better": "lower"},
            {"name": "ops_per_s", "better": "higher"},
            {"name": "zero", "better": "lower"},
            {"name": "absent"},
        ],
    )
    assert lines == [
        "census: runs with correct false or failed > 0: parent 1/4, change 1/4",
        "census op_p50_ms: parent 3.5 [2.25, 4.75], change 1.75 [1.125, 4.25], "
        "change better in 3/4, median change -50.00%",
        # medians (250 + 333.3) / 2 and (500 + 666.7) / 2: +100%
        "census ops_per_s: parent 291.667 [212.5, 458.333], "
        "change 583.333 [275, 916.667], change better in 3/4, median change +100.00%",
        "census zero: parent 0 [0, 0], change 1 [1, 1], change better in 0/4, "
        "median change n/a",
    ]
