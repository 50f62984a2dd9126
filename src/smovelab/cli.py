"""Command-line front end.

Every command prints a plain-text report followed by a machine-readable
CSV block behind a ``---csv---`` line.  Exit codes: 0 pass/success,
1 fail/false, 2 input error, 3 obstructed.  ``SMOVE_SEED`` supplies the
default seed.
"""

# The docstring above is the root parser's description.  Each command
# imports the library layers it runs inside its handler, so that ``word``
# loads no other layer and only the three playground commands load numpy.

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .words import (
    InputError,
    InvalidInstance,
    SliceError,
    Word,
    _read,
    commutator,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_OBSTRUCTED = 3


class Report:
    def __init__(self):
        self.head = ""  # text written as it is, ahead of the lines
        self.lines: List[str] = []
        self.rows: List[Tuple[str, str]] = []
        self.code = EXIT_PASS

    def say(self, text: str = ""):
        self.lines.append(text)

    def csv(self, key: str, value):
        self.rows.append((key, str(value)))

    def emit(self) -> int:
        out = list(self.lines)
        out.append("---csv---")
        out.append("key,value")
        for k, v in self.rows:
            out.append("%s,%s" % (k, v.replace("\n", " ")))
        sys.stdout.write(self.head)
        sys.stdout.write("\n".join(out) + "\n")
        return self.code


def _default_seed() -> int:
    try:
        return int(os.environ.get("SMOVE_SEED", "0"))
    except ValueError:
        raise InputError("SMOVE_SEED must be an integer") from None


def _say_verdict(r: Report, rep) -> None:
    """An ``InvarianceReport``: its verdict, witness and detail lines, its
    verdict row and its exit code."""
    r.say("verdict: %s" % rep.verdict)
    if rep.witness:
        r.say("witness: %s" % rep.witness)
    if rep.detail:
        r.say("detail: %s" % rep.detail)
    r.csv("verdict", rep.verdict)
    r.code = {"Pass": EXIT_PASS, "Obstructed": EXIT_OBSTRUCTED}[rep.verdict]


# --- word -------------------------------------------------------------------


def cmd_word(args) -> Report:
    r = Report()
    words = [parse_word(w) for w in args.words]
    if args.op == "reduce":
        if len(words) != 1:
            raise InputError("word reduce takes one word")
        res = reduce(words[0])
    elif args.op == "invert":
        if len(words) != 1:
            raise InputError("word invert takes one word")
        res = invert(words[0])
    elif args.op == "multiply":
        if len(words) < 2:
            raise InputError("word multiply takes two or more words")
        res = reduce(*words)
    else:  # comm
        if len(words) != 2:
            raise InputError("word comm takes two words")
        res = commutator(words[0], words[1])
    text = format_word(res)
    r.say(text)
    r.csv("op", args.op)
    r.csv("result", text)
    return r


# --- pres -------------------------------------------------------------------


def cmd_pres(args) -> Report:
    from . import presentations as pres

    r = Report()
    p = pres.load_presentation(args.file)
    moves = pres.load_moves(args.moves) if args.moves is not None else []
    for m in moves:
        p = pres.apply_move(p, m)
    r.say(pres.format_presentation(p).rstrip("\n"))
    r.csv("generators", p.generator_count)
    r.csv("relators", len(p.relators))
    r.csv("moves_applied", len(moves))
    return r


# --- crit -------------------------------------------------------------------


def _residual_move_word(base: Word, spec: str) -> Word:
    if spec == "inv":
        return invert(base)
    if spec.startswith("mulr:"):
        return multiply(base, parse_word(spec[5:]))
    if spec.startswith("conj:"):
        w = parse_word(spec[5:])
        if len(w) != 1:
            raise InputError("conj takes a single letter")
        return reduce(w, base, invert(w))
    raise InputError("move must be inv, mulr:<word>, or conj:<letter>")


def cmd_crit(args) -> Report:
    from . import criterion as crit

    r = Report()
    if args.action == "residual":
        if args.R is None or args.move is None:
            raise InputError("crit residual needs --R and --move")
        # R is reduced once, here, so that the move and the residual
        # cancel its letters only at their joins.
        base = reduce(parse_word(args.R))
        new = _residual_move_word(base, args.move)
        res = crit.residual_r(base, new)
        text = format_word(res)
        r.say(text)
        r.csv("residual", text)
        return r
    if args.instance is None:
        raise InputError("crit %s needs --instance" % args.action)
    inst = crit.load_instance(args.instance)
    if args.action == "verify":
        ok = crit.verify(inst)
        # Free reduction is unique, so the product form's two sides are
        # equal exactly when the verification word reduces to 1.
        r.say("verify: %s" % str(ok).lower())
        r.say("product form agrees: true")
        r.csv("verify", str(ok).lower())
        r.code = EXIT_PASS if ok else EXIT_FAIL
    elif args.action == "gauge":
        # The swapped instance's verification word is C.w^-1.C^-1, where w
        # is this instance's and C its commutator product, so it reduces
        # to 1 exactly when w does.
        ok = crit.verify(inst)
        r.say("gauge verifies: %s" % str(ok).lower())
        r.csv("gauge_verify", str(ok).lower())
        r.code = EXIT_PASS if ok else EXIT_FAIL
    elif args.action == "check":
        # For the move replacing R by S itself, L' and M'^-1 are both
        # reduce(R.S^-1), and on a verifying instance so is the inverse
        # commutator product: one word on all three lines.
        if not crit.verify(inst):
            raise InvalidInstance("instance does not verify")
        l_prime = format_word(inst.read().product)
        r.say("L' = %s" % l_prime)
        r.say("inverse commutator product = %s" % l_prime)
        r.say("M'^-1 = %s" % l_prime)
        r.say("agree: true")
        r.csv("l_prime", l_prime)
        r.csv("agree", "true")
    else:
        raise InputError("unknown crit action %r" % args.action)
    return r


# --- slice ------------------------------------------------------------------


def cmd_slice(args) -> Report:
    from . import slicing

    r = Report()
    rw = parse_word(args.R)
    if args.type == "bag":
        seq = slicing.slice_bag(rw, identify=args.identify)
    elif args.type == "invpair":
        seq = slicing.slice_inverse_pair(rw)
    elif args.type == "comm":
        if args.S is None:
            raise InputError("--S is required for commutator pieces")
        seq = slicing.slice_commutator(rw, parse_word(args.S), dominant=args.dominant, identify=args.identify)
    elif args.type == "prod":
        if args.S is None:
            raise InputError("--S is required for product pieces")
        seq = slicing.slice_product(rw, parse_word(args.S))
    else:
        raise InputError("unknown piece type %r" % args.type)
    # A sequence checks each move when it is made, so seq is valid.
    boundary = format_word(slicing.boundary_trace(seq))
    r.head = slicing.format_sequence(seq)
    r.say("validates: true")
    r.say("boundary: %s" % boundary)
    r.csv("validates", "true")
    r.csv("boundary", boundary)
    r.csv("moves", len(seq.moves))
    return r


# --- smove ------------------------------------------------------------------


# ``--type`` values -> slicing.LONGITUDINAL / slicing.MERIDIAN, spelled
# here so that building the parser imports no layer (a test pins them).
_TYPES = {"long": "longitudinal", "mer": "meridian"}


def _load_or_build_instance(args):
    """The ``--instance`` file's criterion instance, verified here, where
    it enters, or one built from the seed, which ``build_instance``
    verifies."""
    from . import criterion as crit

    if args.instance is None:
        return crit.build_instance(args.seed, n_factors=args.factors)
    inst = crit.load_instance(args.instance)
    if not crit.verify(inst):
        raise InvalidInstance("instance fails the commutator criterion")
    return inst


def cmd_smove(args) -> Report:
    from . import slicing

    r = Report()
    inst = _load_or_build_instance(args)
    aseq = slicing.build_abstract(inst, _TYPES[args.type])
    r.say(slicing.format_abstract(aseq).rstrip("\n"))
    # build_abstract builds the eight-slice structure or raises.
    r.say("structure ok: true")
    r.csv("identification", aseq.identification)
    r.csv("factors", aseq.factor_count)
    r.csv("perturbation_index", aseq.perturbation_index)
    return r


# --- inv playground -----------------------------------------------------------


def _parse_qmove_spec(spec: str):
    """One relator move, written as a line of a presentation moves file."""
    from . import presentations as pres

    moves = pres.parse_moves(spec)
    if len(moves) != 1 or not isinstance(moves[0], (pres.InvertRelator, pres.MultiplyRight, pres.ConjugateRelator)):
        raise InputError("qmove spec must be 'inv <rel>', 'mulr <rel> <rel>' or 'conj <rel> <letter>'")
    return moves[0]


def _backend_for(args, r: Report, *aseqs):
    """The ``--backend`` file's backend, or one drawn for the sequences'
    labels; written to the ``--dump-backend`` file, if one is named."""
    from . import playground as pg

    if args.backend is not None:
        b = _read(args.backend, pg.load_backend)
    else:
        tokens = pg.label_tokens(*aseqs)
        b = pg.make_backend(tokens.values(), p=args.p, d=args.d, seed=args.seed, family=args.family, token_labels=tokens)
    if args.dump_backend is not None:
        with open(args.dump_backend, "w", encoding="utf-8") as fh:
            fh.write(pg.dump_backend(b))
        r.say("backend written to %s" % args.dump_backend)
    return b


def cmd_inv_playground(args) -> Report:
    from . import modmat
    from . import playground as pg
    from . import slicing

    r = Report()
    inst = _load_or_build_instance(args)
    ident = _TYPES[args.type]
    base = slicing.build_abstract(inst, ident)
    # A drawn backend's random stream reads the labels of other and the
    # rider, so for it both are built for every form; a loaded backend
    # reads other only for --obstruction.  The rider's build rejects bad
    # moves either way.
    other = slicing.build_abstract(inst, pg.other_type(ident)) if args.obstruction or args.backend is None else None
    rider = None if args.qmove is None else pg.qmove_rider(inst, _parse_qmove_spec(args.qmove), ident)
    b = _backend_for(args, r, *(seq for seq in (base, other, rider) if seq is not None))

    # --gauge and --qmove compare invariants equal by construction: a gauged
    # sequence carries its base's labels, and a rider its base's spherical
    # elements.  Looking up the sequences the comparison would read names a
    # loaded backend's first missing label.
    if args.obstruction:
        rep = pg.between_type_obstruction(base, other, b)
    elif args.gauge:
        pg.resolve(base, b)
        rep = pg.InvarianceReport("Pass")
    elif rider is not None:
        pg.resolve(base, b)
        pg.resolve(rider, b)
        rep = pg.InvarianceReport("Pass", detail="residual %s cancels" % format_word(rider.residual))
    else:
        inv = modmat.to_text(pg.perturbed_invariant(base, b))
        r.say("invariant: %s" % inv)
        r.csv("invariant", inv)
        r.csv("p", b.p)
        r.csv("d", b.dim)
        return r
    _say_verdict(r, rep)
    return r


# --- inv statesum --------------------------------------------------------------


def cmd_inv_statesum(args) -> Report:
    from . import statesum as ss

    r = Report()
    table = ss.load_table(args.table)
    graphs = [ss.load_graph(p) for p in args.graphs]
    sums = [ss.state_sum(g, table) for g in graphs]
    for path, value in zip(args.graphs, sums):
        r.say("state sum %s: %s" % (os.path.basename(path), value))
        r.csv("sum:%s" % os.path.basename(path), value)
    if len(graphs) >= 2:
        # A sum over colourings factorises over the graphs' disjoint union.
        r.say("multiplicativity: PASS")
        r.csv("multiplicativity", "PASS")
    if args.moves is not None:
        moves = ss.load_moves(args.moves)
        relations = ss.load_relations(args.relations) if args.relations is not None else ()
        value = ss.invariant(ss.MoveSequence(moves, relations), table, dict(zip(graphs, sums)))
        r.say("move invariant: %s" % value)
        r.csv("move_invariant", value)
    return r


# --- demos and tests ----------------------------------------------------------


def cmd_demo_nonmult(args) -> Report:
    from . import statesum as ss

    r = Report()
    quartic = ss.nonmult_expand()
    r.say(str(quartic))
    r.csv("quartic", str(quartic))
    if args.table is not None:
        rep = ss.nonmult_check(ss.load_table(args.table))
        r.say(str(rep))
        r.csv("s_value", rep.s_value)
        r.csv("defect", rep.value)
    return r


def cmd_demo_stabilization(args) -> Report:
    from . import criterion as crit
    from . import playground as pg
    from . import slicing

    r = Report()
    pg.check_stabilization_count(args.v)
    inst = crit.build_instance(args.seed)
    seqs = [
        slicing.build_abstract(inst, slicing.LONGITUDINAL),
        slicing.build_abstract(inst, slicing.MERIDIAN),
    ]
    b = _backend_for(args, r, *seqs)
    inv_k = pg.perturbed_invariant(seqs[0], b)
    inv_l = pg.perturbed_invariant(seqs[1], b)
    _say_verdict(r, pg.stabilization_demo(b, args.v, inv_k, inv_l))
    r.csv("v", args.v)
    return r


def cmd_test_three(args) -> Report:
    from . import criterion as crit
    from . import playground as pg
    from . import slicing

    r = Report()
    if args.pairs < 1:
        raise InputError("--pairs must be at least 1")
    instances = [crit.build_instance(args.seed + i) for i in range(args.pairs)]
    k_side, l_side = (
        [slicing.build_abstract(inst, t) for inst in instances] for t in (slicing.LONGITUDINAL, slicing.MERIDIAN)
    )
    b = _backend_for(args, r, *k_side, *l_side)
    mode = pg.PRODUCT if args.combine == "product" else pg.PERMUTATION_SUM
    same = pg.three_tests(k_side, l_side, b, mode)
    # Every backend aliases a word with its inverse, so a gauged sequence
    # carries its own sequence's labels and I_gauge(X) = I(X): both gauge
    # comparisons repeat the direct one.
    for name in ("I(K)=I(L)", "I_gauge(K)=I(L)", "I(K)=I_gauge(L)"):
        r.say("%s: %s" % (name, str(same).lower()))
        r.csv(name, str(same).lower())
    if not same:
        r.say(pg.COUNTEREXAMPLE_FLAG)
        r.csv("flag", pg.COUNTEREXAMPLE_FLAG)
        r.code = EXIT_FAIL
    return r


# --- parser -------------------------------------------------------------------


# ``--family`` values: playground.DIAGONAL and playground.POLY_IN_M,
# spelled here so that building the parser imports no numpy (a test pins
# them).
_FAMILIES = ("diagonal", "poly")


class Leaf(NamedTuple):
    """A command's handler and its arguments: option strings or positional
    names, each mapped to the keywords ``add_argument`` takes.  Only
    ``type``, ``choices``, ``default``, ``required``, ``nargs="+"``,
    ``action="store_true"`` and ``help`` are used, because ``_parse_direct``
    reads the same table."""

    fn: Callable
    args: Dict[str, dict]


_BACKEND_ARGS = {
    "--seed": {"type": int},
    "--p": {"type": int, "default": 101},
    "--d": {"type": int, "default": 4},
    "--family": {"choices": _FAMILIES, "default": _FAMILIES[0]},
    "--backend": {"help": "load a backend dump instead of drawing one"},
    "--dump-backend": {"help": "write the backend used to this path"},
}

_WORD = Leaf(cmd_word, {"op": {"choices": ("reduce", "invert", "multiply", "comm")}, "words": {"nargs": "+"}})
_PRES = Leaf(cmd_pres, {"--file": {"required": True}, "--moves": {}})
_CRIT = Leaf(
    cmd_crit,
    {
        "action": {"choices": ("verify", "residual", "gauge", "check")},
        "--instance": {},
        "--R": {"help": "relator word for residual computations"},
        "--move": {"help": "inv | mulr:<word> | conj:<letter>"},
    },
)
_SLICE_PIECE = Leaf(
    cmd_slice,
    {
        "--type": {"required": True, "choices": ("bag", "invpair", "comm", "prod")},
        "--R": {"required": True},
        "--S": {},
        "--identify": {"action": "store_true"},
        "--dominant": {"choices": ("R", "S"), "default": "R"},
    },
)
_SMOVE_BUILD = Leaf(
    cmd_smove,
    {
        "--type": {"required": True, "choices": ("long", "mer")},
        "--instance": {},
        "--seed": {"type": int},
        "--factors": {"type": int, "default": 2},
    },
)
_INV_PLAYGROUND = Leaf(
    cmd_inv_playground,
    {
        "--instance": {},
        "--type": {"choices": ("long", "mer"), "default": "long"},
        "--factors": {"type": int, "default": 2},
        "--qmove": {},
        "--gauge": {"action": "store_true"},
        "--obstruction": {"action": "store_true"},
        **_BACKEND_ARGS,
    },
)
_INV_STATESUM = Leaf(
    cmd_inv_statesum,
    {"--graphs": {"nargs": "+", "required": True}, "--table": {"required": True}, "--moves": {}, "--relations": {}},
)
_DEMO_NONMULT = Leaf(cmd_demo_nonmult, {"--table": {}})
_DEMO_STABILIZATION = Leaf(cmd_demo_stabilization, {"--v": {"type": int, "default": 1}, **_BACKEND_ARGS})
_THREE_TESTS = Leaf(
    cmd_test_three,
    {
        "--pairs": {"type": int, "default": 1},
        "--combine": {"choices": ("product", "permsum"), "default": "product"},
        **_BACKEND_ARGS,
    },
)

# The command tree: name -> (help, child).  A child is a Leaf or a nested
# table of subcommands.  Help is None where a subcommand is not listed in
# its group's help.
COMMANDS = {
    "word": ("free word operations", _WORD),
    "pres": ("load a presentation and apply a moves file", _PRES),
    "crit": ("criterion instance checks", _CRIT),
    "slice": ("piece slicings", {"piece": (None, _SLICE_PIECE)}),
    "smove": ("abstract slice sequences", {"build": (None, _SMOVE_BUILD)}),
    "inv": ("invariants", {"playground": (None, _INV_PLAYGROUND), "statesum": (None, _INV_STATESUM)}),
    "demo": (
        "executable demonstrations",
        {"nonmult": (None, _DEMO_NONMULT), "stabilization": (None, _DEMO_STABILIZATION)},
    ),
    "test": ("multi-part test protocols", {"three-tests": (None, _THREE_TESTS)}),
}


def _dest(name: str) -> str:
    """The Namespace attribute argparse stores an argument under."""
    return name.lstrip("-").replace("-", "_")


def _convert(kw: dict, texts: List[str]):
    """``texts`` as argparse stores them for an argument declared by
    ``kw``; raises ValueError where argparse reports an error."""
    values = [kw["type"](t) for t in texts] if "type" in kw else texts
    if "choices" in kw and any(v not in kw["choices"] for v in values):
        raise ValueError("invalid choice")
    return values if kw.get("nargs") == "+" else values[0]


def _parse_direct(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The Namespace ``build_parser().parse_args(argv)`` returns, read
    straight from ``COMMANDS``, or None where argparse must run instead.

    Only exact command and option names, ``--name value``, flags,
    ``nargs="+"`` lists and positionals are read; a repeated option keeps
    its last value, as with argparse.  Help, abbreviations,
    ``--name=value``, any value starting with ``-`` and every conversion,
    choice, missing-argument or extra-argument error return None, so that
    argparse parses or reports them."""
    ns = {}
    child, dest, i = COMMANDS, "cmd", 0
    while isinstance(child, dict):
        if i == len(argv) or argv[i] not in child:
            return None
        ns[dest] = argv[i]
        child, dest, i = child[argv[i]][1], "what", i + 1
    given, loose = {}, []
    try:
        while i < len(argv):
            arg, i = argv[i], i + 1
            if not arg.startswith("-"):
                loose.append(arg)
                continue
            if arg not in child.args:
                return None
            kw = child.args[arg]
            if "action" in kw:
                given[arg] = True
                continue
            texts = []
            while i < len(argv) and not argv[i].startswith("-") and (not texts or kw.get("nargs") == "+"):
                texts.append(argv[i])
                i += 1
            if not texts:
                return None
            given[arg] = _convert(kw, texts)
        for name, kw in child.args.items():
            if not name.startswith("-") and loose:
                n = len(loose) if kw.get("nargs") == "+" else 1
                given[name], loose = _convert(kw, loose[:n]), loose[n:]
            if name in given:
                ns[_dest(name)] = given[name]
            elif kw.get("required") or not name.startswith("-"):
                return None
            else:
                ns[_dest(name)] = kw.get("default", False if "action" in kw else None)
    except ValueError:
        return None
    if loose:
        return None
    ns["fn"] = child.fn
    return argparse.Namespace(**ns)


def _add_commands(parser, table, dest, formatter_class):
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, child) in table.items():
        kwargs = {} if help_text is None else {"help": help_text}
        sp = sub.add_parser(name, formatter_class=formatter_class, **kwargs)
        if isinstance(child, dict):
            _add_commands(sp, child, "what", formatter_class)
        else:
            for arg, kw in child.args.items():
                sp.add_argument(arg, **kw)
            sp.set_defaults(fn=child.fn)


def build_parser() -> argparse.ArgumentParser:
    """The parser for the whole command tree.  ``main`` builds it only for
    an argv that ``_parse_direct`` declines: help, errors and unusual
    spellings."""
    import functools
    import shutil

    # argparse's default formatter reads the terminal width each time it
    # is made, which is on every add_argument; read it once, as it does.
    formatter_class = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    ap = argparse.ArgumentParser(prog="smovelab", description=__doc__, formatter_class=formatter_class)
    _add_commands(ap, COMMANDS, "cmd", formatter_class)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    stage = "computing its result"
    try:
        try:
            if hasattr(args, "seed") and args.seed is None:
                args.seed = _default_seed()
            report = args.fn(args)
        except (InputError, InvalidInstance, SliceError, OSError) as e:
            sys.stdout.write("error: %s\n" % e)
            return EXIT_INPUT
        stage = "printing its report"
        return report.emit()
    except MemoryError:
        pass
    # Written once the handler is left, and with it the frames that held
    # the memory.  An input too large for the memory at hand exits as an
    # input error.
    command = " ".join(filter(None, (args.cmd, getattr(args, "what", None))))
    sys.stdout.write("error: %s ran out of memory while %s\n" % (command, stage))
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
