"""Every exception the package raises is one of its own typed errors.

A ``raise`` in ``src/mdsrepair`` must construct a class defined in
``errors.py``; a bare ``raise``, which re-raises, is allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdsrepair"
ERRORS = {
    node.name
    for node in ast.parse((SRC / "errors.py").read_text()).body
    if isinstance(node, ast.ClassDef)
}


def untyped_raises(source: str) -> list[int]:
    """Lines of raise statements that neither re-raise nor call an errors.py class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            typed = isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            if not (typed and exc.func.id in ERRORS):
                lines.append(node.lineno)
    return lines


def test_checker_finds_an_untyped_raise():
    source = (
        "try:\n"
        "    raise BadShape('x') from None\n"
        "except BadShape as e:\n"
        "    raise ValueError('y')\n"
        "    raise e\n"
        "    raise\n"
    )
    assert untyped_raises(source) == [4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_is_typed(path):
    assert untyped_raises(path.read_text()) == []
