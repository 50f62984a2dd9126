"""Source-level guards over the library modules."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import smovelab

from helpers import mutate_conjugator

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


# Public names kept with no caller in the library: API the README or the
# ROADMAP documents, the builder that joins pieces, and the writer of the
# decomposition format that ``parse_decomposition`` reads.
_KEPT_WITHOUT_CALLER = {
    ("words", "conjugate"),
    ("presentations", "inverse_qmoves"),
    ("criterion", "nielsen_transport"),
    ("criterion", "format_decomposition"),
    ("slicing", "connect"),
    ("statesum", "poly_local_invariant"),
}


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and not n.id.startswith("_"):
                    yield n.id, node


def _references(node: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute or imported
    under ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def test_library_code_has_a_library_caller():
    """Code that only the tests run belongs in the tests: every public
    top-level name is referred to somewhere in the library outside its own
    definition, or is on the short list of documented API."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SRC.glob("*.py")}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = {
        (module, name)
        for module, tree in trees.items()
        for name, node in _public_definitions(tree)
        if everywhere[name] == _references(node)[name]
    }
    assert uncalled == _KEPT_WITHOUT_CALLER


def test_every_imported_name_is_used():
    """A module loads each name it imports; a re-export says so with
    ``# noqa: F401`` on its import line."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append("%s:%d %s" % (path.name, alias.lineno, name))
    assert unused == []


def _calls_of(name: str, node: ast.AST, where=None):
    """The enclosing function (None at module level) of every call of
    ``name`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _calls_of(name, child, where)


def test_backends_enter_only_where_they_are_drawn_or_loaded():
    """``Backend`` itself checks nothing: a drawn backend is valid by
    construction and a loaded one is proved by ``checked_inverses``, so
    no third place may build one."""
    found = sorted(
        (path.name, where)
        for path in SRC.glob("*.py")
        for where in _calls_of("Backend", ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == [("playground.py", "load_backend"), ("playground.py", "make_backend")]


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code *args`` in a fresh interpreter that imports this
    checkout's smovelab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True)


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
    path, count = _fresh(code).stdout.splitlines()
    assert Path(path).resolve().parent == SRC
    assert count == "0"


# Runs one command through ``cli.main`` in a fresh interpreter, then prints
# its exit code and the loaded numpy and smovelab modules as the last line.
_LOADED_AFTER = (
    "import io, json, sys, contextlib\n"
    "import smovelab.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = smovelab.cli.main(sys.argv[1:])\n"
    "mods = sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'smovelab')\n"
    "print(json.dumps([code, mods]))\n"
)


def _loaded_after(*argv: str):
    code, mods = json.loads(_fresh(_LOADED_AFTER, *argv).stdout.splitlines()[-1])
    return code, set(mods)


def test_word_commands_load_no_other_layer_and_no_numpy():
    assert _loaded_after("word", "reduce", "ab") == (0, {"smovelab", "smovelab.words", "smovelab.cli"})


def test_only_the_playground_commands_load_numpy():
    code, mods = _loaded_after("demo", "nonmult")
    assert code == 0 and "numpy" not in mods
    assert {"smovelab.statesum", "smovelab.ring"} <= mods
    code, mods = _loaded_after("inv", "playground", "--seed", "1")
    assert code == 0 and {"numpy", "smovelab.modmat", "smovelab.playground"} <= mods


def _option(path, dest):
    """The argparse action behind ``dest`` on the leaf parser at ``path``."""
    import argparse

    from smovelab import cli

    parser = cli.build_parser()
    for name in path:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return next(a for a in parser._actions if a.dest == dest)


def test_cli_spells_the_library_constants():
    """The parser's values, spelled in cli so that it imports no layer,
    are the library's own."""
    from smovelab import cli, playground, slicing

    for path in (("inv", "playground"), ("demo", "stabilization"), ("test", "three-tests")):
        family = _option(path, "family")
        assert tuple(family.choices) == (playground.DIAGONAL, playground.POLY_IN_M)
        assert family.default == playground.DIAGONAL
    assert cli._TYPES == {"long": slicing.LONGITUDINAL, "mer": slicing.MERIDIAN}
    for path in (("inv", "playground"), ("smove", "build")):
        assert tuple(_option(path, "type").choices) == tuple(cli._TYPES)


def test_instance_and_slice_errors_exit_2_through_main(tmp_path):
    """``cli.main`` catches both without importing criterion or slicing."""
    from smovelab import criterion, slicing, words
    from smovelab.presentations import format_presentation

    assert criterion.InvalidInstance is words.InvalidInstance
    assert slicing.SliceError is words.SliceError
    inst = criterion.build_instance(0)
    (tmp_path / "K.txt").write_text(format_presentation(inst.k), encoding="utf-8")
    (tmp_path / "L.txt").write_text(format_presentation(inst.l), encoding="utf-8")
    decomp = criterion.format_decomposition(mutate_conjugator(inst, 7).factors)
    (tmp_path / "d.txt").write_text(decomp, encoding="utf-8")
    path = tmp_path / "inst.txt"
    path.write_text("K K.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8")
    res = _fresh(
        "import sys, smovelab.cli\n"
        "code = smovelab.cli.main(sys.argv[1:])\n"
        "print(code)\n",
        "smove", "build", "--type", "long", "--instance", str(path),
    )
    assert res.stdout == "error: instance fails the commutator criterion\n2\n"
    # a slice sequence missing its last move fails validation
    res = _fresh(
        "import smovelab.cli, smovelab.slicing as s\n"
        "bag = s.slice_bag\n"
        "s.slice_bag = lambda w, identify=False: s.SliceSequence(bag(w).slices, bag(w).moves[:-1], bag(w).readout)\n"
        "print(smovelab.cli.main(['slice', 'piece', '--type', 'bag', '--R', 'ab']))\n"
    )
    first, code = res.stdout.splitlines()
    assert first.startswith("error: sequence invalid at slice ") and code == "2"
