"""What the package imports: every imported name is used, and a cold start stays small.

``__init__.py`` is left out of the unused-name check, since it imports
names only to re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "mdsrepair").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_a_leftover_import():
    source = "from fractions import Fraction\nimport os.path\nimport json as j\nos.sep\n"
    assert unused_imports(source) == ["Fraction", "j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


COLD_CHECK = """\
import sys
import mdsrepair
after_package = sorted(m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules)
import mdsrepair.cli
after_cli = sorted(m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules)
print(after_package, after_cli, "mdsrepair.sim" in sys.modules)
"""


def test_cold_import_loads_neither_dataclasses_nor_fractions():
    """A fresh ``import mdsrepair`` or ``import mdsrepair.cli`` stays off both.

    Each CLI command is a fresh interpreter, and ``dataclasses`` (with the
    ``inspect`` it imports) and ``fractions`` were most of its own import
    time.  ``mdsrepair.sim`` must still load with the CLI: the benchmark's
    traced children wrap its functions right after importing the CLI.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", COLD_CHECK], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n")[0] == "[] [] True"
