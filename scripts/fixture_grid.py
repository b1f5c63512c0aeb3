#!/usr/bin/env python3
"""Run the CLI over the fixtures and print a digest line per command.

    python3 scripts/fixture_grid.py > grid.txt

The grid is every subcommand of ``cli.COMMANDS`` with every ``--format``
it takes, over every combination of the fixtures for its inputs (two
families, two words, two assignments, ``--word`` for ``image|word``, and
``act-pi1`` with and without ``--element``), on ``fixtures/mstar.txt``
or, for ``spotted-educe``, the spotted fixtures; then the six ``verify``
suites at ``--max-len 2``, and ``scripts/enumerate_symmetric.py
--lengths``, whose ``(1.2s)`` timings are masked before hashing.  Each
command runs in a subprocess from the repository root, with this
checkout's ``src`` on ``PYTHONPATH`` and ``MCGSEQ_LOG`` unset.  One line
per command gives the command, its exit code and the sha256 of its
stdout and of its stderr, so two checkouts print the same lines exactly
when every command behaves the same:

    diff <(python3 scripts/fixture_grid.py) \\
         <(python3 ../parent/scripts/fixture_grid.py)
"""

import hashlib
import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mcgseq import cli, verify  # noqa: E402

INPUTS = {
    "manifold": ["fixtures/mstar.txt"],
    "family": ["fixtures/family_standard.txt", "fixtures/family_slid.txt"],
    "word": ["fixtures/word_aut.txt", "fixtures/word_slide.txt"],
    "assignment": [
        "fixtures/assignment_identity.txt",
        "fixtures/assignment_slid.txt",
    ],
    "element": [None, "x1 g1@2"],
}
SPOTTED_INPUTS = {
    "manifold": ["fixtures/spotted.txt"],
    "word": ["fixtures/word_spotted.txt"],
}
SCRIPTS = [["scripts/enumerate_symmetric.py", "--lengths"]]
TIMING = re.compile(rb"\(\d+\.\d+s\)")


def commands() -> list:
    """The argv of each run after the interpreter, in grid order."""
    runs = []
    for name, (_, options, formats) in cli.COMMANDS.items():
        if name == "verify":
            for suite in verify.SUITES:
                fixture = "spotted" if suite == "spotted" else "mstar"
                runs.append(["-m", "mcgseq", name, "--suite", suite,
                             "--manifold", f"fixtures/{fixture}.txt",
                             "--max-len", "2"])
            continue
        inputs = SPOTTED_INPUTS if name == "spotted-educe" else INPUTS
        # "image|word": the word fixtures
        choices = [
            [(option, value) for value in inputs[option.split("|")[-1]]]
            for option in options.split()
        ]
        for fmt in formats.split() or [None]:
            for picked in itertools.product(*choices):
                argv = ["-m", "mcgseq", name]
                for option, value in picked:
                    if value is not None:
                        argv += [f"--{option.split('|')[-1]}", value]
                if fmt is not None:
                    argv += ["--format", fmt]
                runs.append(argv)
    return runs + SCRIPTS


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("MCGSEQ_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for argv in commands():
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, env=env, cwd=ROOT
        )
        stdout = proc.stdout
        if argv in SCRIPTS:
            stdout = TIMING.sub(b"(s)", stdout)
        print(
            "python", shlex.join(argv),
            f"exit={proc.returncode}",
            f"stdout={hashlib.sha256(stdout).hexdigest()}",
            f"stderr={hashlib.sha256(proc.stderr).hexdigest()}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
