"""Source-level guards over the library modules."""

from __future__ import annotations

import ast
from pathlib import Path

import smovelab

SRC = Path(smovelab.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """Invariants must raise explicitly: ``python -O`` strips ``assert``."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
