"""State sums of colored trivalent graphs and derived invariants.

Vertex weights come from a fully symmetric 3j table; a graph evaluates to
the sum over all edge/circle colorings of the product of its vertex
weights.  Slicings contribute through products of local-move differences,
reduced modulo the ideal generated by declared move relations; the
symbolic expansion shows where multiplicativity of that product breaks.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ring import Polynomial, parse_scalar, poly_gcd, poly_inverse_mod, poly_mod
from .words import InputError, _ContentLines, _line_ints, _read

Value = Union[Fraction, Polynomial]
Triple = Tuple[int, int, int]


def _value_eq(a: Value, b: Value) -> bool:
    if isinstance(a, Polynomial) or isinstance(b, Polynomial):
        return (a - b if isinstance(a, Polynomial) else b - a).is_zero()
    return a == b


@dataclass(frozen=True)
class ThreeJTable:
    color_count: int
    entries: Dict[Triple, Value]

    def lookup(self, a: int, b: int, c: int) -> Value:
        for x in (a, b, c):
            if not 0 <= x < self.color_count:
                raise InputError("color %d out of range" % x)
        return self.entries.get(tuple(sorted((a, b, c))), Fraction(0))


def complete_table(partial: Iterable[Tuple[Triple, Value]], color_count: int) -> ThreeJTable:
    """Close the given entries under full triple symmetry; conflicting
    assignments to one orbit are an input error."""
    if color_count < 1:
        raise InputError("need at least one color")
    entries: Dict[Triple, Value] = {}
    for triple, value in partial:
        key = tuple(sorted(triple))
        if key in entries and not _value_eq(entries[key], value):
            raise InputError(
                "3j symmetry conflict on %s: %s vs %s" % (key, entries[key], value)
            )
        entries[key] = value
    return ThreeJTable(color_count, entries)


@dataclass(frozen=True)
class TrivalentGraph:
    vertices: Tuple[int, ...] = ()
    edges: Tuple[Tuple[int, int], ...] = ()
    circles: int = 0
    points: int = 0

    def __post_init__(self):
        degree = {v: 0 for v in self.vertices}
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        for a, b in self.edges:
            for v in (a, b):
                if v not in degree:
                    raise InputError("edge endpoint %d is not a vertex" % v)
                degree[v] += 1
        bad = [v for v, d in degree.items() if d != 3]
        if bad:
            raise InputError("vertices %s do not have degree 3" % bad)
        if self.circles < 0 or self.points < 0:
            raise InputError("negative component count")

    def slots(self) -> int:
        return len(self.edges) + self.circles


def _refine(adj: Sequence[Sequence[int]], colour: Sequence[int]) -> List[int]:
    """Colour refinement to a stable partition.  A vertex's new colour is
    the rank of (old colour, sorted neighbour colours), with a neighbour
    listed once per edge end, so colours depend on structure alone and
    cells keep their order."""
    cells = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in nbrs))) for v, nbrs in enumerate(adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == cells:
            return colour
        cells = len(rank)


def certificate(g: TrivalentGraph):
    """Canonical form under vertex relabeling: refine colours, then branch
    on every vertex of the first non-singleton cell and refine again
    (individualisation-refinement, as in McKay & Piperno's nauty/Traces).
    Each discrete leaf orders the vertices; the least relabelled edge list
    over all leaves is the form."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(index)
    edges = [(index[a], index[b]) for a, b in g.edges]
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    best = None
    stack = [_refine(adj, [0] * n)]
    while stack:
        colour = stack.pop()
        sizes = Counter(colour)
        split = min((c for c, k in sizes.items() if k > 1), default=None)
        if split is None:
            form = tuple(sorted((min(colour[a], colour[b]), max(colour[a], colour[b])) for a, b in edges))
            if best is None or form < best:
                best = form
            continue
        for v in range(n):
            if colour[v] == split:
                stack.append(_refine(adj, [2 * c + (u != v) for u, c in enumerate(colour)]))
    return (n, best or (), g.circles, g.points)


def isomorphic(g1: TrivalentGraph, g2: TrivalentGraph) -> bool:
    return certificate(g1) == certificate(g2)


def _exact(v: Value) -> Value:
    """An integral Fraction as an int: sums over integer tables then run
    on ints, several times faster than Fraction arithmetic."""
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v


_Factor = Tuple[Tuple[int, ...], Dict[Tuple[int, ...], Value]]


def _multiply(f: _Factor, h: _Factor) -> _Factor:
    """Pointwise product over the union of the two scopes."""
    (fs, ft), (hs, ht) = f, h
    shared = [j for j, e in enumerate(hs) if e in fs]
    at = [fs.index(hs[j]) for j in shared]
    rest = [j for j, e in enumerate(hs) if e not in fs]
    by_shared: Dict[Tuple[int, ...], list] = {}
    for key, val in ht.items():
        by_shared.setdefault(tuple(key[j] for j in shared), []).append((tuple(key[j] for j in rest), val))
    out = {}
    for key, val in ft.items():
        for tail, other in by_shared.get(tuple(key[i] for i in at), ()):
            out[key + tail] = val * other
    return fs + tuple(hs[j] for j in rest), out


def _sum_out(f: _Factor, e: int) -> _Factor:
    scope, table = f
    i = scope.index(e)
    out: Dict[Tuple[int, ...], Value] = {}
    for key, val in table.items():
        k = key[:i] + key[i + 1 :]
        out[k] = out[k] + val if k in out else val
    return scope[:i] + scope[i + 1 :], {k: v for k, v in out.items() if v != 0}


def state_sum(g: TrivalentGraph, t: ThreeJTable) -> Value:
    """Sum over all edge/circle colorings of the vertex-weight product,
    by variable elimination: one sparse factor per vertex (a dict from
    the colours of its distinct edges to a nonzero weight), then edges
    summed out one at a time, cheapest merged scope first (Markov & Shi,
    arXiv:quant-ph/0511069).  The result is a Polynomial exactly when
    some coloring meets a polynomial table entry, as with enumeration."""
    colors = range(t.color_count)
    symbolic = False
    templates: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Value]] = {}
    factors: List[_Factor] = []
    ends: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for i, (a, b) in enumerate(g.edges):
        ends[a].append(i)
        ends[b].append(i)
    for v in g.vertices:
        scope = tuple(sorted(set(ends[v])))
        pattern = tuple(scope.index(e) for e in sorted(ends[v]))  # a loop repeats an index
        if pattern not in templates:
            weights = {}
            for key in product(colors, repeat=len(scope)):
                w = t.lookup(*(key[j] for j in pattern))
                symbolic = symbolic or isinstance(w, Polynomial)
                if w != 0:
                    weights[key] = _exact(w)
            templates[pattern] = weights
        factors.append((scope, templates[pattern]))
    remaining = set(range(len(g.edges)))
    while remaining:
        e = min(remaining, key=lambda e: (len({x for s, _ in factors if e in s for x in s}), e))
        remaining.discard(e)
        touching = [f for f in factors if e in f[0]]
        factors = [f for f in factors if e not in f[0]]
        joint = touching[0]
        for f in touching[1:]:
            joint = _multiply(joint, f)
        factors.append(_sum_out(joint, e))
    total: Value = 1
    for _, table in factors:
        total = total * table.get((), 0)
    if g.circles:
        loop_sum: Value = 0
        for c in colors:
            w = t.lookup(c, c, c)
            symbolic = symbolic or isinstance(w, Polynomial)
            loop_sum = loop_sum + _exact(w)
        total = total * loop_sum**g.circles
    if symbolic:
        return total if isinstance(total, Polynomial) else Polynomial.const(total)
    return Fraction(total)


def wedge(g1: TrivalentGraph, g2: TrivalentGraph) -> TrivalentGraph:
    """Disjoint union; the wedge point carries no weight."""
    offset = max(g1.vertices, default=-1) + 1
    return TrivalentGraph(
        g1.vertices + tuple(v + offset for v in g2.vertices),
        g1.edges + tuple((a + offset, b + offset) for a, b in g2.edges),
        g1.circles + g2.circles,
        g1.points + g2.points,
    )


MovePair = Tuple[TrivalentGraph, TrivalentGraph]


@dataclass(frozen=True)
class MoveSequence:
    moves: Tuple[MovePair, ...]
    relations: Tuple[Tuple[Tuple[MovePair, ...], Tuple[MovePair, ...]], ...] = ()


def ideal_reduce(value: Value, generators: Sequence[Value]) -> Value:
    """Reduce modulo the ideal the generators span: numeric generators
    collapse everything to 0 unless all vanish; univariate polynomial
    generators reduce by remainder mod their gcd."""
    gens = [g for g in generators if not _value_eq(g, Fraction(0))]
    if not gens:
        return value
    polys = [g for g in gens if isinstance(g, Polynomial)]
    names = {n for g in polys for n in g.variables()}
    if isinstance(value, Polynomial):
        names |= set(value.variables())
    if len(names) > 1:
        raise InputError("ideal reduction supports one indeterminate, got %s" % sorted(names))
    if not names:
        return Fraction(0)  # a nonzero constant generates the whole ring
    modulus = None
    for g in gens:
        g = g if isinstance(g, Polynomial) else Polynomial.const(g)
        modulus = g if modulus is None else poly_gcd(modulus, g)
    if modulus.is_constant():
        return Fraction(0)
    value = value if isinstance(value, Polynomial) else Polynomial.const(value)
    return poly_mod(value, modulus)


def invariant(ms: MoveSequence, t: ThreeJTable) -> Value:
    """Product of the move values, reduced modulo the relation ideal."""
    for k in range(len(ms.moves) - 1):
        if not isomorphic(ms.moves[k][1], ms.moves[k + 1][0]):
            raise InputError("move list breaks the chain at step %d" % k)
    sums: Dict[TrivalentGraph, Value] = {}  # a graph recurs across moves and relations

    def moves_product(moves: Sequence[MovePair]) -> Value:
        total: Value = Fraction(1)
        for before, after in moves:
            for g in (before, after):
                if g not in sums:
                    sums[g] = state_sum(g, t)
            total = total * (sums[after] - sums[before])
        return total

    generators = [moves_product(a) - moves_product(b) for a, b in ms.relations]
    return ideal_reduce(moves_product(ms.moves), generators)


# --- the non-multiplicativity computation ----------------------------------


def nonmult_expand() -> Polynomial:
    """Difference between the factored and the direct two-step products,
    pinned down to one variable.  The result is the exact quartic
    2S^4 - 4S^3 + 4S^2 - 4S + 2, which has no rational root besides the
    trivial locus S = 1."""
    ks, ks1, ks2 = (Polynomial.var(n) for n in ("Ks", "Ks1", "Ks2"))
    ls, ls1, ls2 = (Polynomial.var(n) for n in ("Ls", "Ls1", "Ls2"))
    expr1 = (ks1 * ls1 - ks * ls) * (ks2 * ls2 - ks1 * ls1)
    expr2 = (ks1 - ks) * (ks2 - ks1) * (ls1 - ls) * (ls2 - ls1)
    diff = expr2 - expr1
    s = Polynomial.var("S")
    one = Polynomial.const(1)
    return diff.subs({"Ls": one, "Ls2": one, "Ks": one, "Ks2": one, "Ks1": s, "Ls1": s})


@dataclass(frozen=True)
class NonMultReport:
    s_value: Value
    value: Value
    multiplicative: Optional[bool]  # None when symbolic

    def __str__(self):
        if self.multiplicative is None:
            return "symbolic: %s" % self.value
        if self.multiplicative:
            return "S = %s sits on the multiplicative locus" % self.s_value
        return "non-multiplicative at S = %s: defect %s" % (self.s_value, self.value)


def nonmult_check(t: ThreeJTable) -> NonMultReport:
    s_val: Value = Fraction(0)
    for a in range(t.color_count):
        s_val = s_val + t.lookup(a, a, a)
    quartic = nonmult_expand()
    if isinstance(s_val, Polynomial) and not s_val.is_constant():
        return NonMultReport(s_val, quartic, None)
    plain = s_val.constant_value() if isinstance(s_val, Polynomial) else s_val
    value = quartic(S=plain)
    return NonMultReport(plain, value, value == 0)


# --- polynomial local invariant ---------------------------------------------


def poly_local_invariant(ps: Sequence[Polynomial], g: Polynomial, x3: Fraction) -> Polynomial:
    """Product of the level-transition quotients Q_k = P_{k+1}/P_k mod g,
    with the fourth level replaced by its perturbed version P_4(c3·x)."""
    ps = list(ps)
    if len(ps) != 6:
        raise InputError("need exactly six level polynomials")
    names = set(g.variables())
    for p in ps:
        names |= set(p.variables())
    if len(names) > 1:
        raise InputError("level polynomials must share one variable")
    var = names.pop() if names else "x"
    for k, p in enumerate(ps, start=1):
        if poly_gcd(p, g, var) != Polynomial.const(1):
            raise InputError("P_%d is not invertible modulo the ideal" % k)
    c3 = ps[2].subs({var: Fraction(x3)}).constant_value()
    if c3 in (0, 1):
        raise InputError("evaluation point gives c3 = %s; need c3 outside {0, 1}" % c3)

    def quotient(num: Polynomial, den: Polynomial) -> Polynomial:
        return poly_mod(num * poly_inverse_mod(den, g, var), g, var)

    qs = {k: quotient(ps[k], ps[k - 1]) for k in (1, 2, 3, 5)}
    perturbed = ps[3].subs({var: Polynomial.var(var) * c3})
    q4 = quotient(perturbed, ps[3])
    out = Polynomial.const(1)
    for q in (qs[1], qs[2], qs[3], q4, qs[5]):
        out = out * q
    return poly_mod(out, g, var)


# --- file I/O ----------------------------------------------------------------


# A table's colours run from 0 to MAX_COLORS - 1.  ``state_sum`` looks up
# k³ weights per vertex template, so an unbounded colour could hang it.
MAX_COLORS = 32


def parse_table(text: str) -> ThreeJTable:
    """CSV lines ``a,b,c,value``; value is an integer, a rational p/q, or
    an indeterminate name."""
    rows: List[Tuple[Triple, Value]] = []
    top = -1
    with _ContentLines(text, ",") as lines:
        for parts in lines:
            if len(parts) != 4:
                raise InputError("3j line needs a,b,c,value")
            a, b, c = _line_ints(parts[:3])
            bad = [x for x in (a, b, c) if not 0 <= x < MAX_COLORS]
            if bad:
                raise InputError("color %d out of range" % min(bad))
            rows.append(((a, b, c), parse_scalar(parts[3])))
            top = max(top, a, b, c)
    return complete_table(rows, max(top + 1, 1))


def load_table(path: str) -> ThreeJTable:
    return _read(path, parse_table)


def parse_graph(text: str) -> TrivalentGraph:
    """Lines: ``v <id>``, ``e <v1> <v2> [ports...]``, ``circle``."""
    vertices: List[int] = []
    edges: List[Tuple[int, int]] = []
    circles = 0
    with _ContentLines(text) as lines:
        for parts in lines:
            if parts[0] == "v" and len(parts) == 2:
                vertices += _line_ints(parts[1:])
            elif parts[0] == "e" and len(parts) in (3, 5):
                edges.append(tuple(_line_ints(parts[1:3])))
            elif parts[0] == "circle" and len(parts) == 1:
                circles += 1
            else:
                raise InputError("bad graph line %r" % " ".join(parts))
    return TrivalentGraph(tuple(vertices), tuple(edges), circles)


def load_graph(path: str) -> TrivalentGraph:
    return _read(path, parse_graph)


def _load_pairs(path: str, names: Sequence[str]) -> Tuple[MovePair, ...]:
    base = os.path.dirname(os.path.abspath(path))
    graphs = [load_graph(os.path.join(base, n)) for n in names]
    return tuple(zip(graphs[0::2], graphs[1::2]))


def _parse_moves(text: str) -> List[str]:
    names: List[str] = []
    with _ContentLines(text) as lines:
        for fields in lines:
            if len(fields) != 2:
                raise InputError("move line needs two graph paths")
            names += fields
    return names


def load_moves(path: str) -> Tuple[MovePair, ...]:
    """One ``<before> <after>`` graph-path pair per line; paths resolve
    against the file's directory."""
    return _load_pairs(path, _read(path, _parse_moves))


def _parse_relations(text: str) -> List[Tuple[List[str], List[str]]]:
    relations = []
    with _ContentLines(text, "=") as lines:
        for sides in lines:
            if len(sides) != 2:
                raise InputError("relation line needs one '='")
            names = tuple(side.split() for side in sides)
            if any(len(side) % 2 for side in names):
                raise InputError("need before/after graph path pairs")
            relations.append(names)
    return relations


def load_relations(path: str):
    """``<pairs> = <pairs>`` per line, each side a run of before/after
    graph-path pairs."""
    return tuple(
        tuple(_load_pairs(path, side) for side in sides) for sides in _read(path, _parse_relations)
    )
