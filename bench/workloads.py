"""The benchmark's workloads: fixed command lists drawn from a seed.

Each workload is a list of ``Command``s run through ``smovelab.cli.main``.
The counts and sizes of every kind of command are fixed, so timings from
different seeds are comparable; the seed only draws the words, instances,
graphs and tables.  Input files are written into a work directory during
set-up.  Every command carries the check that ``checks.py`` applies to its
output.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

import oracles as orc


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    sub: str  # subcommand key, as in the cmd.<sub>.p50_ms metric
    check: tuple  # (kind, data...) interpreted by checks.Checker


@dataclass
class Inputs:
    commands: List[Command]
    tables: dict = field(default_factory=dict)  # name -> oracles.Table
    graphs: dict = field(default_factory=dict)  # file stem -> oracles.Graph


SUBCOMMANDS = (
    "word",
    "crit",
    "slice_piece",
    "smove_build",
    "inv_playground",
    "inv_statesum",
    "demo_nonmult",
    "demo_stabilization",
    "test_three_tests",
)

WHY = {
    "crit_playground": "criterion, build_abstract, playground and modmat on short words; d=4 beside d=32 splits call overhead from matmul; stabilization shows the O(p) scan",
    "slice_readout": "local-move slicing and words at relator lengths 4-16 with a 256/512 tail, plus 10^3-10^4 letter word ops; modmat, ring and statesum idle",
    "statesum_graphs": "state-sum enumeration, polynomial ring arithmetic and n! certificates on small trivalent graphs; modmat, slicing and words idle",
}


# --- crit_playground ------------------------------------------------------------

# Playground commands are checked against digests, so their instance
# seeds come from fixed pools that record_digests.py enumerates.
POOLS = {"d4": 64, "d32": 16, "three": 32, "smove": 32, "stab": 16}
QMOVES = ("inv R", "inv S", "mulr R x1", "mulr S y1", "conj R a", "conj S B")
FORMS = ("plain", "qmove", "gauge", "obstruction")
TYPES = ("long", "mer")


def playground_argv(form: str, typ: str, iseed: int, big: bool) -> Tuple[str, ...]:
    argv = ["inv", "playground", "--seed", str(iseed), "--type", typ]
    if big:
        argv += ["--d", "32", "--family", "poly"]
    if form == "qmove":
        argv += ["--qmove", QMOVES[iseed % len(QMOVES)]]
    elif form != "plain":
        argv.append("--" + form)
    return tuple(argv)


def three_tests_argv(combine: str, iseed: int) -> Tuple[str, ...]:
    return ("test", "three-tests", "--pairs", "3", "--combine", combine, "--seed", str(iseed))


def smove_argv(factors: int, typ: str, iseed: int) -> Tuple[str, ...]:
    return ("smove", "build", "--type", typ, "--factors", str(factors), "--seed", str(iseed))


def stabilization_argv(iseed: int) -> Tuple[str, ...]:
    return ("demo", "stabilization", "--p", "100003", "--seed", str(iseed))


def digest_pool():
    """Every crit_playground command any seed can draw."""
    for form, typ in itertools.product(FORMS, TYPES):
        for s in range(POOLS["d4"]):
            yield "inv_playground", playground_argv(form, typ, s, False)
        for s in range(POOLS["d32"]):
            yield "inv_playground", playground_argv(form, typ, s, True)
    for combine in ("product", "permsum"):
        for s in range(POOLS["three"]):
            yield "test_three_tests", three_tests_argv(combine, s)
    for factors, typ in itertools.product(range(2, 7), TYPES):
        for s in range(POOLS["smove"]):
            yield "smove_build", smove_argv(factors, typ, s)
    for s in range(POOLS["stab"]):
        yield "demo_stabilization", stabilization_argv(s)


def crit_playground(rng: random.Random, workdir: str) -> Inputs:
    cmds = []

    def add(sub, argv):
        cmds.append(Command(argv, sub, ("digest", " ".join(argv))))

    for big, count in ((False, 16), (True, 3)):
        for iseed in rng.sample(range(POOLS["d32" if big else "d4"]), count):
            typ = rng.choice(TYPES)
            for form in FORMS:
                add("inv_playground", playground_argv(form, typ, iseed, big))
    for iseed in rng.sample(range(POOLS["three"]), 5):
        for combine in ("product", "permsum"):
            add("test_three_tests", three_tests_argv(combine, iseed))
    for factors in range(2, 7):
        for iseed in rng.sample(range(POOLS["smove"]), 3):
            add("smove_build", smove_argv(factors, rng.choice(TYPES), iseed))
    for iseed in rng.sample(range(POOLS["stab"]), 2):
        add("demo_stabilization", stabilization_argv(iseed))
    rng.shuffle(cmds)
    return Inputs(cmds)


# --- slice_readout ---------------------------------------------------------------

ALPHABET = (1, 2, 3, 4, 27)  # 27 prints as g27, so the escape syntax is read too

PIECES = (  # (type, identify, dominant)
    ("bag", False, None),
    ("bag", True, None),
    ("invpair", False, None),
    ("comm", False, "R"),
    ("comm", False, "S"),
    ("prod", False, None),
)


def random_word(rng: random.Random, n: int) -> Tuple[int, ...]:
    """Uniform letters, not reduced, so reduction has work to do."""
    return tuple(rng.choice(ALPHABET) * rng.choice((1, -1)) for _ in range(n))


def piece_command(rng: random.Random, piece, length: int) -> Command:
    typ, identify, dominant = piece
    r = random_word(rng, length)
    s = random_word(rng, length) if typ in ("comm", "prod") else None
    argv = ["slice", "piece", "--type", typ, "--R", orc.word_text(r)]
    if s is not None:
        argv += ["--S", orc.word_text(s)]
    if identify:
        argv.append("--identify")
    if dominant == "S":
        argv += ["--dominant", "S"]
    return Command(tuple(argv), "slice_piece", ("slice", typ, identify, r, s))


def slice_readout(rng: random.Random, workdir: str) -> Inputs:
    cmds = []
    for piece in PIECES:
        for _ in range(14):
            cmds.append(piece_command(rng, piece, rng.randint(4, 16)))
        for length in (256, 512):
            cmds.append(piece_command(rng, piece, length))
    for total in (1000, 3000, 10000):
        w = random_word(rng, total)
        cmds.append(Command(("word", "reduce", orc.word_text(w)), "word", ("word", "reduce", (w,))))
        u, v = random_word(rng, total // 2), random_word(rng, total // 2)
        cmds.append(
            Command(("word", "comm", orc.word_text(u), orc.word_text(v)), "word", ("word", "comm", (u, v)))
        )
        ws = tuple(random_word(rng, total // 3) for _ in range(3))
        cmds.append(
            Command(("word", "multiply") + tuple(orc.word_text(x) for x in ws), "word", ("word", "multiply", ws))
        )
    for total in (1000, 10000):
        for move in ("inv", "mulr", "conj"):
            r = random_word(rng, total)
            if move == "mulr":
                spec = "mulr:" + orc.word_text(random_word(rng, 50))
            elif move == "conj":
                spec = "conj:" + orc.word_text((rng.choice(ALPHABET) * rng.choice((1, -1)),))
            else:
                spec = "inv"
            argv = ("crit", "residual", "--R", orc.word_text(r), "--move", spec)
            cmds.append(Command(argv, "crit", ("residual", r, spec)))
    rng.shuffle(cmds)
    return Inputs(cmds)


# --- statesum_graphs -----------------------------------------------------------------


def prism(n: int) -> orc.Graph:
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (n + i, n + (i + 1) % n), (i, n + i)]
    return orc.Graph(range(2 * n), edges)


FIXED_GRAPHS = {
    "theta": orc.Graph((0, 1), [(0, 1)] * 3),
    "k4": orc.Graph(range(4), list(itertools.combinations(range(4), 2))),
    "prism3": prism(3),
    "prism4": prism(4),
    "circle1": orc.Graph((), (), 1),
    "circle2": orc.Graph((), (), 2),
    "thetac": orc.Graph((0, 1), [(0, 1)] * 3, 1),
}


def random_trivalent(rng: random.Random, n: int) -> orc.Graph:
    """Loop-free trivalent multigraph on n vertices (configuration model),
    with vertex ids drawn at random so parsing and relabelling are exercised."""
    ids = rng.sample(range(100), n)
    while True:
        stubs = [v for v in ids for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[0::2], stubs[1::2]))
        if all(a != b for a, b in edges):
            return orc.Graph(ids, edges)


def relabelled(rng: random.Random, g: orc.Graph) -> orc.Graph:
    new = dict(zip(g.vertices, rng.sample(range(100, 200), len(g.vertices))))
    edges = [(new[a], new[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return orc.Graph(sorted(new.values()), edges, g.circles)


MAX_DRAWS = 200
RATIONALS = tuple(Fraction(x) for x in ("1", "-1", "2", "1/2", "3/2", "-2/3", "1/3", "5/4"))


K33 = orc.Graph(range(6), [(i, 3 + j) for i in range(3) for j in range(3)])


def make_tables(rng: random.Random):
    """A 3-colour integer table and a 2-colour table with q at (0,0,0) and
    rationals elsewhere.  Entries are nonzero and the q position is fixed,
    so the cost of a state sum varies little with the seed.  A 2-colour
    table whose sums cannot tell the 3-prism from K3,3 up to a constant
    (a parity-like table) is drawn again: the move chains need sums that
    differ by a non-constant polynomial."""
    int3 = {t: [Fraction(rng.choice((1, 2, 3, -1, -2)))] for t in itertools.combinations_with_replacement(range(3), 3)}
    for _ in range(MAX_DRAWS):
        poly2 = orc.Table(2, {
            t: ([Fraction(0), Fraction(1)] if t == (0, 0, 0) else [rng.choice(RATIONALS)])
            for t in itertools.combinations_with_replacement(range(2), 3)
        })
        if len(orc.p_sub(orc.poly_state_sum(prism(3), poly2), orc.poly_state_sum(K33, poly2))) > 1:
            return {"int3": orc.Table(3, int3), "poly2": poly2}
    raise RuntimeError("no 2-colour table separating the 3-prism from K3,3 in %d draws" % MAX_DRAWS)


def table_csv(t: orc.Table) -> str:
    lines = []
    for (a, b, c), v in sorted(t.entries.items()):
        lines.append("%d,%d,%d,%s" % (a, b, c, "q" if len(v) == 2 else str(v[0] if v else 0)))
    return "\n".join(lines) + "\n"


def statesum_graphs(rng: random.Random, workdir: str) -> Inputs:
    tables = make_tables(rng)
    for name, t in tables.items():
        with open(os.path.join(workdir, name + ".csv"), "w", encoding="utf-8") as fh:
            fh.write(table_csv(t))
    graphs = dict(FIXED_GRAPHS)
    counter = itertools.count()

    def fresh(n):
        name = "r%d_%d" % (n, next(counter))
        graphs[name] = random_trivalent(rng, n)
        return name

    def statesum(table, names, moves=None):
        argv = ["inv", "statesum", "--graphs"] + [n + ".g" for n in names] + ["--table", table + ".csv"]
        if moves:
            argv += ["--moves", moves[0], "--relations", moves[1]]
        return Command(tuple(argv), "inv_statesum", ("statesum", table, tuple(names), moves))

    cmds = []
    # Counts are set by cost class so that the median and the 90th
    # percentile land inside a group of like commands, not on the edge
    # between two: ~38 under 8 ms, 36 three-colour 6-edge sums at ~13 ms
    # (the median), 20 at 15-60 ms (the 90th percentile) and 6 of 0.15 s
    # and more.
    singles = {
        "int3": (("theta", 6), ("circle1", 3), ("circle2", 3), ("thetac", 2), ("k4", 8), (4, 28), ("prism3", 1)),
        "poly2": (("theta", 6), ("circle1", 2), ("circle2", 2), ("thetac", 2), ("k4", 4), (4, 4), (6, 10),
                  ("prism3", 2), ("prism4", 1)),
    }
    for table, spec in singles.items():
        for what, count in spec:
            for _ in range(count):
                cmds.append(statesum(table, [fresh(what) if isinstance(what, int) else what]))
    # wedge multiplicativity: at most 10 slots in the union
    wedges = {
        "int3": ((("theta", "theta"), 2), (("k4", "circle1"), 2)),
        "poly2": ((("k4", "theta"), 2), ((4, "theta"), 2), (("prism3", "circle1"), 1)),
    }
    for table, spec in wedges.items():
        for pair, count in spec:
            for _ in range(count):
                cmds.append(statesum(table, [fresh(x) if isinstance(x, int) else x for x in pair]))
    # move chains A -> B, B' -> C (B' a relabelled copy of B), one relation
    # on the 6-vertex graphs, chosen so its generator is non-constant.  Every
    # move changes the state sum: a zero move value makes the invariant 0
    # whatever the relations say.
    poly2 = tables["poly2"]
    for k, mid in enumerate((6, 6, 8)):
        for _ in range(MAX_DRAWS):
            a, b, c = fresh(6), fresh(mid), fresh(6)
            sa, sb, sc = (orc.poly_state_sum(graphs[x], poly2) for x in (a, b, c))
            if orc.p_sub(sb, sa) and orc.p_sub(sc, sb) and len(orc.p_sub(sc, sa)) > 1:
                break
        else:
            raise RuntimeError("no move chain with non-constant relations in %d draws" % MAX_DRAWS)
        b2 = "%s_copy" % b
        graphs[b2] = relabelled(rng, graphs[b])
        moves, rels = "moves%d.txt" % k, "relations%d.txt" % k
        with open(os.path.join(workdir, moves), "w", encoding="utf-8") as fh:
            fh.write("%s.g %s.g\n%s.g %s.g\n" % (a, b, b2, c))
        with open(os.path.join(workdir, rels), "w", encoding="utf-8") as fh:
            fh.write("%s.g %s.g = %s.g %s.g\n" % (a, c, c, a))
        cmds.append(statesum("poly2", [a], (moves, rels, ((a, b), (b2, c)), (((a, c),), ((c, a),)))))
    for table in ("int3", "poly2"):
        for _ in range(2):
            cmds.append(Command(("demo", "nonmult", "--table", table + ".csv"), "demo_nonmult", ("nonmult", table)))
    for name, g in graphs.items():
        with open(os.path.join(workdir, name + ".g"), "w", encoding="utf-8") as fh:
            fh.write(g.text())
    rng.shuffle(cmds)
    return Inputs(cmds, tables, graphs)


WORKLOADS = {
    "crit_playground": crit_playground,
    "slice_readout": slice_readout,
    "statesum_graphs": statesum_graphs,
}


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files into ``workdir`` and return its
    command list; the same (workload, seed) always gives the same inputs."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), workdir)
