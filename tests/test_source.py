"""Source-level guards over the library modules."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_importing_the_cli_builds_no_parser():
    """A module-level parser would be a cache that outlives one
    ``cli.main`` call; a shell user pays for the parser on every run."""
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import smovelab.cli\n"
        "print(smovelab.cli.__file__)\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    path, count = res.stdout.splitlines()
    assert Path(path).resolve().parent == SRC
    assert count == "0"
