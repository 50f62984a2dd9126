"""Source-level guards over the library modules."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import smovelab

from helpers import format_decomposition, mutate_conjugator

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


def _library_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SRC.glob("*.py")}


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


def _library_references(trees) -> Counter:
    """How often each (module, name) of the library is referred to: a
    name loaded in its own module, a ``from .module import name``, or an
    attribute read off a name that a ``from . import module [as alias]``
    binds to the module, in any module."""
    found = Counter()
    for module, tree in trees.items():
        aliases = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for alias in n.names:
                    if n.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        found[n.module, alias.name] += 1
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found[module, n.id] += 1
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
                found[aliases[n.value.id], n.attr] += 1
    return found


def test_library_code_has_a_library_caller():
    """Code that only the tests run belongs in the tests: every public
    top-level name is referred to in the library outside its own
    definition, through its own module."""
    trees = _library_trees()
    references = _library_references(trees)
    uncalled = {
        (module, name)
        for module, tree in trees.items()
        for name, node in _public_definitions(tree)
        if references[module, name]
        == sum(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name for n in ast.walk(node))
    }
    assert uncalled == set()


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


def _defaulted_parameters(fn: ast.FunctionDef, bound: int):
    """(name, position) for each parameter of ``fn`` with a default.  The
    position counts a call's positional arguments, so a bound ``self`` or
    ``cls`` (``bound`` = 1) is left out; it is None for a keyword-only
    parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None)) for d in cls.decorator_list
    )


def _defaulted_fields(cls: ast.ClassDef):
    """(name, position) for each ``__init__`` field of a dataclass with a
    default, as ``_defaulted_parameters`` gives them; a ``ClassVar`` and a
    ``field(init=False)`` are not fields of ``__init__``.  A base class's
    fields would shift the positions, but no library dataclass has a base
    with fields."""
    fields = [
        node
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and "ClassVar" not in ast.unparse(node.annotation)
        and not (isinstance(node.value, ast.Call) and "init=False" in ast.unparse(node.value))
    ]
    return [(node.target.id, position) for position, node in enumerate(fields) if node.value is not None]


def _signatures(trees):
    """(module.name, called name, defaulted parameters) for each public
    top-level function, each public method or ``__init__`` of a public
    class and each field of a public dataclass; a class is called by its
    own name."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield "%s.%s" % (module, node.name), node.name, _defaulted_parameters(node, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    yield "%s.%s" % (module, node.name), node.name, _defaulted_fields(node)
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                        called = node.name if fn.name == "__init__" else fn.name
                        qual = "%s.%s.%s" % (module, node.name, fn.name)
                        yield qual, called, _defaulted_parameters(fn, 0 if static else 1)


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` may set the parameter: by keyword or ``**kw``,
    or, for a positional parameter, by position or through ``*args``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


# The console script calls ``main()`` with no ``argv``; only the tests pass one.
_SET_FROM_OUTSIDE = {"cli.main(argv)"}


def test_every_defaulted_parameter_is_set_by_a_library_call():
    """An option only the tests set is a second configuration the library
    must support for no caller: every defaulted parameter of a public
    function, method or constructor is passed by some library call of
    that name, and so is every defaulted field of a public dataclass,
    whose ``__init__`` is generated.  Names are matched, not resolved, so
    a call of any ``value`` counts for every ``value``."""
    trees = _library_trees()
    by_name = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                by_name.setdefault(getattr(n.func, "id", None) or getattr(n.func, "attr", None), []).append(n)
    unset = {
        "%s(%s)" % (qual, name)
        for qual, called, params in _signatures(trees)
        for name, position in params
        if not any(_passes(call, name, position) for call in by_name.get(called, ()))
    }
    assert unset == _SET_FROM_OUTSIDE


def test_every_method_is_read_in_the_library():
    """Every public method or property of a library class is read as an
    attribute somewhere in the library outside its own body.  Names are
    not resolved per class: a read of ``x.slices`` counts for every class
    with a ``slices`` member, so ``SliceSequence.slices`` passes because
    ``AbstractSequence.slices`` is read."""
    trees = _library_trees()
    reads = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                reads.setdefault(n.attr, []).append(n)
    unread = set()
    for module, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    own = set(map(id, ast.walk(fn)))
                    if all(id(r) in own for r in reads.get(fn.name, ())):
                        unread.add("%s.%s.%s" % (module, cls.name, fn.name))
    assert unread == set()


def _calls_of(name: str, node: ast.AST, where=None):
    """The enclosing function (None at module level) of every call of
    ``name`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _calls_of(name, child, where)


def test_only_the_reading_expands_relators_and_forms_commutators():
    """An instance's reading is computed once and kept on it, so no other
    library code expands a conjugated relator or forms a commutator,
    under any name it imports ``commutator`` as.  The ``word comm``
    command forms the commutator of two words it is given."""
    found = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {"expand", "commutator"} | {
            alias.asname
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name == "commutator" and alias.asname
        }
        found |= {(path.name, name, where) for name in names for where in _calls_of(name, tree)}
    assert found == {
        ("criterion.py", "expand", "_read_factors"),
        ("criterion.py", "commutator", "_read_factors"),
        ("cli.py", "commutator", "cmd_word"),
    }


def _exact_word_type_tests(tree: ast.AST):
    """The line of every comparison that tests an object against ``Word``
    itself (``is``, ``is not``, ``==``, ``!=``, ``in``, ``not in``), as
    ``type(w) is Word`` does."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                (getattr(n, "id", None) or getattr(n, "attr", None)) == "Word"
                for operand in operands
                for n in ([*operand.elts] if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand])
            ):
                yield node.lineno


def test_no_exact_type_test_sends_a_reduced_word_back_to_the_pushdown():
    """A ``Reduced`` is a ``Word``, so a test of ``type(w) is Word`` would
    take it for some other iterable and convert, check or reduce it
    again.  The library asks ``isinstance(w, Word)``, or whether
    ``type(w) is Reduced``."""
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _exact_word_type_tests(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    assert list(_exact_word_type_tests(ast.parse("type(w) is not Word or type(v) in (Word, list)"))) == [1, 1]
    assert list(_exact_word_type_tests(ast.parse("isinstance(w, Word) and type(w) is Reduced"))) == []


def test_backends_enter_only_where_they_are_drawn_or_loaded():
    """``Backend`` itself checks nothing: a drawn backend is valid by
    construction and a loaded one is proved by ``check_assignment``, so
    no third place may build one."""
    found = sorted(
        (path.name, where)
        for path in SRC.glob("*.py")
        for where in _calls_of("Backend", ast.parse(path.read_text(encoding="utf-8"), str(path)))
    )
    assert found == [("playground.py", "load_backend"), ("playground.py", "make_backend")]


def test_presentations_and_instances_enter_only_where_they_are_checked_or_built_valid():
    """Neither ``Presentation`` nor ``CriterionInstance`` checks itself.
    A parsed presentation and a loaded instance's names are checked where
    they are read; the relator and generator moves, prolongation and the
    instance drawer build theirs valid, and a transported instance is a
    ``replace`` of a valid one.  A new construction site must show that
    it builds its object valid, too."""
    found = {
        name: sorted(
            (path.name, where)
            for path in SRC.glob("*.py")
            for where in _calls_of(name, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        )
        for name in ("Presentation", "CriterionInstance")
    }
    assert found == {
        "Presentation": [
            ("criterion.py", "build_instance"),
            ("criterion.py", "build_instance"),
            ("presentations.py", "apply_nielsen"),
            ("presentations.py", "parse_presentation"),
            ("presentations.py", "prolong"),
            ("presentations.py", "with_relator"),
        ],
        "CriterionInstance": [("criterion.py", "build_instance"), ("criterion.py", "load_instance")],
    }


def test_piece_builders_make_steps_only_through_the_step_helper():
    """A builder's steps come from ``_circulate``, which makes one record
    per distinct (index, letter, strand), so no builder can go back to a
    record per letter."""
    path = SRC / "slicing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(_calls_of("CirculateStep", tree)) == ["_circulate"]


def test_drawn_entries_come_from_one_draw_path():
    """Every entry a backend draws and every value of a drawn instance goes
    through ``words.draw``, which matches ``randrange``, ``randint`` and
    ``choice`` value for value (a test in test_playground checks that); a
    second path could drift from it."""
    for name in ("modmat.py", "playground.py", "criterion.py"):
        path = SRC / name
        found = _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        assert [found[m] for m in ("randrange", "randint", "choice", "getrandbits")] == [0] * 4, name


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


def test_the_cli_criterion_and_slicing_import_no_numpy():
    """``smove build``, ``crit`` and the word commands run on these
    modules, so numpy's import would add to every one of them; the
    drawer they share with the playground lives in ``words``."""
    code = "import sys, smovelab.cli, smovelab.criterion, smovelab.slicing\nprint('numpy' in sys.modules)\n"
    assert _fresh(code).stdout == "False\n"


def test_only_the_playground_commands_load_numpy():
    code, mods = _loaded_after("demo", "nonmult")
    assert code == 0 and "numpy" not in mods
    assert {"smovelab.statesum", "smovelab.ring"} <= mods
    code, mods = _loaded_after("inv", "playground", "--seed", "1")
    assert code == 0 and {"numpy", "smovelab.modmat", "smovelab.playground"} <= mods


def test_a_symbolic_state_sum_loads_no_numpy(tmp_path):
    """``inv statesum`` sums with no array library, whether it packs the
    values of a table in one indeterminate into ints or keeps those of a
    table in two as polynomials: it loads ``statesum`` and ``ring`` and
    no numpy."""
    (tmp_path / "prism.g").write_text(
        "".join("v %d\n" % v for v in range(6))
        + "e 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 5 3\ne 0 3\ne 1 4\ne 2 5\ncircle\n",
        encoding="utf-8",
    )
    for last in ("q", "r"):
        (tmp_path / "t.csv").write_text("0,0,0,q\n0,1,1,1/2\n1,1,1,%s\n" % last, encoding="utf-8")
        argv = ("inv", "statesum", "--graphs", str(tmp_path / "prism.g"), "--table", str(tmp_path / "t.csv"))
        code, mods = _loaded_after(*argv)
        assert code == 0 and "numpy" not in mods
        assert {"smovelab.statesum", "smovelab.ring"} <= mods


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
    decomp = format_decomposition(mutate_conjugator(inst, 7).factors)
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
    # a bag without its first move: the second split finds one component
    res = _fresh(
        "import smovelab.cli, smovelab.slicing as s\n"
        "bag = s.slice_bag\n"
        "s.slice_bag = lambda w, identify=False: s.SliceSequence(bag(w).moves[1:], bag(w).readout)\n"
        "print(smovelab.cli.main(['slice', 'piece', '--type', 'bag', '--R', 'ab']))\n"
    )
    first, code = res.stdout.splitlines()
    assert first.startswith("error: sequence invalid at slice 2: ") and code == "2"


BENCH = SRC.parents[1] / "bench"

# Hooks in bench/tracer.py that match nothing in the library (ROADMAP item
# 4b): ``Backend.check`` and ``connect`` left the library, and no layer has
# a ``validate`` scope.  (None, name) stands for a name hooked in any layer.
_STALE_HOOKS = {("playground", "Backend.check"), ("slicing", "connect"), (None, "validate")}


def _bench_tree(name: str) -> ast.Module:
    path = BENCH / name
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _selftest_reads():
    """(module, attribute) for every attribute bench/selftest.py reads off
    a library module it imports as ``import smovelab.<module> as <alias>``."""
    tree = _bench_tree("selftest.py")
    aliases = {
        alias.asname: alias.name.split(".")[1]
        for n in ast.walk(tree)
        if isinstance(n, ast.Import)
        for alias in n.names
        if alias.name.startswith("smovelab.") and alias.asname
    }
    return {
        (aliases[n.value.id], n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
    }


def _tracer_hooks():
    """(layer, name) for every call bench/tracer.py hooks: the keys of its
    ``post`` table, spelled out or looped over a tuple of names, and the
    names its ``scope`` argument marks in any layer (``validate``)."""
    tree = _bench_tree("tracer.py")
    tuples = {
        n.targets[0].id: ast.literal_eval(n.value)
        for n in tree.body
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Tuple)
    }
    layers = set(tuples["LAYERS"])
    bound = {}  # a loop variable -> the names it runs over
    for n in ast.walk(tree):
        if isinstance(n, ast.For) and isinstance(n.target, ast.Name):
            if isinstance(n.iter, ast.Name) and n.iter.id in tuples:
                bound[n.target.id] = tuples[n.iter.id]
            elif isinstance(n.iter, ast.Tuple):
                bound[n.target.id] = ast.literal_eval(n.iter)
    hooks = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Tuple) and len(n.elts) == 2 and isinstance(n.elts[0], ast.Constant):
            layer, name = n.elts
            if layer.value not in layers:
                continue
            if isinstance(name, ast.Constant):
                hooks.add((layer.value, name.value))
            elif isinstance(name, ast.Name) and name.id in bound:
                hooks.update((layer.value, x) for x in bound[name.id])
        elif isinstance(n, ast.keyword) and n.arg == "scope":
            hooks.update((None, c.value) for c in ast.walk(n.value) if isinstance(c, ast.Constant))
    return layers, hooks


def _traced(layer: str, name: str) -> bool:
    """Whether the tracer finds ``name`` to wrap in the layer's module: a
    function the module defines, or a method of a class it defines."""
    mod = importlib.import_module("smovelab." + layer)
    owner, _, attr = name.rpartition(".")
    if owner:
        cls = vars(mod).get(owner)
        return inspect.isclass(cls) and cls.__module__ == mod.__name__ and inspect.isfunction(vars(cls).get(attr))
    fn = vars(mod).get(name)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_the_names_the_benchmark_uses_exist():
    """``bench/`` changes only together with the benchmark, so a library
    name that bench/selftest.py reads or bench/tracer.py hooks must not
    disappear in any other change: a missing read breaks the selftest,
    and a missing hook silently counts nothing.  The hooks already stale
    are pinned."""
    reads = _selftest_reads()
    assert {("words", "reduce"), ("slicing", "reduce"), ("slicing", "apply_move")} <= reads
    missing = {(m, a) for m, a in reads if not hasattr(importlib.import_module("smovelab." + m), a)}
    assert missing == set()
    layers, hooks = _tracer_hooks()
    assert {("modmat", "mul"), ("ring", "Polynomial.__rmul__"), ("slicing", "slice_bag")} <= hooks
    stale = {
        (layer, name)
        for layer, name in hooks
        if not any(_traced(l, name) for l in ([layer] if layer else layers))
    }
    assert stale == _STALE_HOOKS
