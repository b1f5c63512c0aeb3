"""The helper scripts in ``scripts/`` import private package names
(``systems._reachability``): run each one on the mstar fixture (and
``run_suites.py`` also on a single-handle manifold) in a subprocess and
check its exit code and key lines.  ``bench_pairs.py`` and
``fixture_grid.py`` are loaded as modules, with their subprocess calls
replaced."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import K2L1_TEXT, load_script
from mcgseq import cli, verify

ROOT = Path(__file__).resolve().parent.parent
MSTAR = str(ROOT / "fixtures" / "mstar.txt")


def _run(script, *args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, lines",
    [
        (
            "demo_normalize.py",
            ("--manifold", MSTAR),
            ["replay lands on the target family with the requested assignment"],
        ),
        (
            "enumerate_symmetric.py",
            ("--manifold", MSTAR, "--lengths"),
            ["symmetric systems: 324", "unreachable: 0"],
        ),
    ],
    ids=["demo_normalize", "enumerate_symmetric"],
)
def test_script_runs(script, args, lines):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    for line in lines:
        assert any(row.startswith(line) for row in out), line


SUITES = ("exactness", "normalization", "pi1", "relations", "spotted", "roundtrip")


def test_run_suites_passes_every_suite():
    proc = _run("run_suites.py", "--manifold", MSTAR, "--quick")
    assert proc.returncode == 0, proc.stderr
    verdicts = [row.split()[:2] for row in proc.stdout.splitlines()]
    assert verdicts == [["PASS", suite] for suite in SUITES]


def test_run_suites_passes_on_a_single_handle(tmp_path):
    # the mirror half of the assignments is expected to be unreachable
    manifold = tmp_path / "k2l1.txt"
    manifold.write_text(K2L1_TEXT)
    proc = _run("run_suites.py", "--manifold", str(manifold), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split()[:2] for row in rows] == [["PASS", suite] for suite in SUITES]
    assert "'assignments': 32, 'unreachable': 16" in rows[1]


def test_bench_pairs_runs_without_bytecode_cache(tmp_path, monkeypatch):
    # a checkout that holds a __pycache__ loads .pyc files that a fresh one
    # compiles, so every run starts with none and writes none
    bench_pairs = load_script("bench_pairs")
    caches = [tmp_path / "src" / "mcgseq" / "__pycache__", tmp_path / "perfbench" / "__pycache__"]
    for cache in caches:
        cache.mkdir(parents=True)
        (cache / "module.cpython-311.pyc").write_bytes(b"")
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        calls.append((cwd, env.get("PYTHONDONTWRITEBYTECODE"), [c.exists() for c in caches]))
        return subprocess.CompletedProcess(argv, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, "normalize-census", 1, 1.0) == (0, {"correct": True})
    assert calls == [(tmp_path, "1", [False, False])]
    assert (tmp_path / "src" / "mcgseq").is_dir()


def test_fixture_grid_covers_every_command_and_format():
    grid = load_script("fixture_grid")
    runs = grid.commands()
    cli_runs = [argv[2:] for argv in runs if argv[:2] == ["-m", "mcgseq"]]
    covered = {
        (argv[0], argv[argv.index("--format") + 1] if "--format" in argv else None)
        for argv in cli_runs
    }
    expected = {
        (name, fmt)
        for name, (_, _, formats) in cli.COMMANDS.items()
        for fmt in formats.split() or [None]
    }
    assert covered == expected
    suites = [argv[argv.index("--suite") + 1] for argv in cli_runs if argv[0] == "verify"]
    assert suites == list(verify.SUITES)
    assert all(argv[-2:] == ["--max-len", "2"] for argv in cli_runs if argv[0] == "verify")
    assert runs[len(cli_runs):] == [["scripts/enumerate_symmetric.py", "--lengths"]]


def test_fixture_grid_prints_one_digest_line_per_command(monkeypatch, capsys):
    # timings in a script's output are masked, so reruns print the same line
    grid = load_script("fixture_grid")

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout=b"took (1.25s)\n", stderr=b"")

    monkeypatch.setattr(grid.subprocess, "run", fake_run)
    assert grid.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(grid.commands())
    masked = hashlib.sha256(b"took (s)\n").hexdigest()
    raw = hashlib.sha256(b"took (1.25s)\n").hexdigest()
    empty = hashlib.sha256(b"").hexdigest()
    assert lines[-1] == (
        f"python scripts/enumerate_symmetric.py --lengths exit=1 "
        f"stdout={masked} stderr={empty}"
    )
    assert all(line.endswith(f"exit=1 stdout={raw} stderr={empty}") for line in lines[:-1])
