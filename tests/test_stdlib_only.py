"""The package imports only the standard library and itself.

No linter is installed, so this test stands in for an import rule: every
``import`` and ``from ... import`` in ``src/mcgseq`` names a module in
``sys.stdlib_module_names``, or ``mcgseq`` itself (a relative import).
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcgseq"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """The top-level name of each module the tree imports; "mcgseq" for a
    relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "mcgseq" if node.level else node.module.split(".")[0]


def test_every_module_is_checked():
    assert {"cli", "model", "systems", "values"} <= {m.stem for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = {
        name for name in _imported(tree)
        if name != "mcgseq" and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
