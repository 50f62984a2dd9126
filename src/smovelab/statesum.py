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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ring import Polynomial, parse_scalar, poly_gcd, poly_mod
from .words import InputError, _ContentLines, _line_ints, _read

Value = Union[Fraction, Polynomial]
Triple = Tuple[int, int, int]

# The weight of a triple a table does not list; Fractions are immutable, so
# every lookup can return this one.
_UNLISTED = Fraction(0)


@dataclass(frozen=True)
class ThreeJTable:
    color_count: int
    entries: Dict[Triple, Value]

    def lookup(self, a: int, b: int, c: int) -> Value:
        for x in (a, b, c):
            if not 0 <= x < self.color_count:
                raise InputError("color %d out of range" % x)
        return self.entries.get(tuple(sorted((a, b, c))), _UNLISTED)


def complete_table(partial: Iterable[Tuple[Triple, Value]], color_count: int) -> ThreeJTable:
    """Close the given entries under full triple symmetry; conflicting
    assignments to one orbit are an input error."""
    if color_count < 1:
        raise InputError("need at least one color")
    entries: Dict[Triple, Value] = {}
    for triple, value in partial:
        if not isinstance(value, (int, Fraction, Polynomial)):
            raise InputError("3j value %r is not exact" % (value,))
        key = tuple(sorted(triple))
        if key in entries and entries[key] != value:
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
    # The file the graph was read from, for errors; not part of its identity.
    source: str = field(default="", compare=False, repr=False)

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
        if self.circles < 0:
            raise InputError("negative component count")


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
    return (n, best or (), g.circles)


def isomorphic(g1: TrivalentGraph, g2: TrivalentGraph) -> bool:
    return certificate(g1) == certificate(g2)


def _denominator(v: Value) -> int:
    """The lcm of the denominators of ``v``'s coefficients."""
    return lcm(*(c.denominator for c in v.terms.values())) if isinstance(v, Polynomial) else v.denominator


# The largest plan ``state_sum`` runs (see ``plan``).  MAX_DENSE_ENTRIES
# bounds k**width, the entries a dense table on one step's merged scope
# would hold: the most that step can loop over, and k times the most the
# factor it leaves can hold.  On random cubic graphs, one CPU of a
# shared x86 machine and CPython 3.11, a sum just under it took 3 s and
# 200 MB (3 colours, width 13) or 10 s and 680 MB (2 colours, width 21);
# the next 3-colour width, 14, took 10-13 s and 600-780 MB.
# MAX_PACKED_BITS bounds one packed value (see ``Plan``): one product of
# two values of that size takes 1 s there.  A plan past it is run on
# polynomials instead.
MAX_DENSE_ENTRIES = 1 << 21
MAX_PACKED_BITS = 1 << 22


@dataclass(frozen=True)
class Plan:
    """How ``state_sum`` runs on one graph and table, worked out from
    scopes and the table before any factor is built.

    Elimination: factors are numbered, the graph's vertices first, in
    their order, then one per step.  Step s sums edge ``order[s]`` out of
    the product of the factors ``inputs[s]`` (one, or two), whose merged
    scope is ``scopes[s]``, and leaves factor ``len(vertices) + s``.

    Values: every weight is multiplied by ``scale``, the lcm of the
    table's denominators.  When ``packed``, each value is then one int
    (Kronecker substitution): the table's one indeterminate ``name``, if
    it has one, becomes X = 2**bits.  ``digits`` exceeds its degree in
    any product of one weight per vertex and circle, and X/2 exceeds the
    L1 norm of the scaled sum, so the scaled sum's coefficients are the
    balanced base-X digits of its int.  A table in two or more
    indeterminates is not packed, since each would need its own run of
    digits: (slots + 1)**m digits for m of them, however few terms the
    sum has.  Nor is one whose packed values would pass MAX_PACKED_BITS.
    Unpacked values stay polynomials."""

    order: Tuple[int, ...]
    inputs: Tuple[Tuple[int, ...], ...]
    scopes: Tuple[Tuple[int, ...], ...]
    scale: int
    packed: bool
    name: Optional[str]
    digits: int
    bits: int


def _scaled(c: Union[int, Fraction], scale: int) -> int:
    """``c * scale``, for a ``scale`` that ``c``'s denominator divides."""
    return c.numerator * (scale // c.denominator)


def plan(g: TrivalentGraph, t: ThreeJTable) -> Plan:
    """The plan ``state_sum`` runs on ``g`` and ``t``.  The order is the
    one state sums have always used: next, the edge whose merged scope is
    smallest, the lowest edge on a tie.  A plan past MAX_DENSE_ENTRIES is
    an input error, raised at the step that first passes it, naming
    ``g``'s file when it was read from one.

    k counts the colours some nonzero entry holds: a colouring that puts
    any other colour on an edge weighs 0, so no factor keys it and no
    colouring with it adds to the L1 bound."""
    k = len({c for triple, v in t.entries.items() if v != 0 for c in triple})
    scale = lcm(*map(_denominator, t.entries.values()))
    names = set()
    degree = norm = 0
    for v in t.entries.values():
        if isinstance(v, Polynomial):
            for mono in v.terms:
                for name, e in mono:
                    names.add(name)
                    degree = max(degree, e)
            norm = max(norm, sum(abs(_scaled(c, scale)) for c in v.terms.values()))
        else:
            norm = max(norm, abs(_scaled(v, scale)))
    slots = len(g.vertices) + g.circles
    digits = slots * degree + 1
    # Each colouring's product holds one weight per vertex and circle.
    bits = (k ** (len(g.edges) + g.circles) * norm**slots).bit_length() + 1
    packed = len(names) <= 1 and bits * digits <= MAX_PACKED_BITS

    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    live: Dict[int, set] = {i: set() for i in range(n)}  # factor number -> its edges left
    for e, (a, b) in enumerate(g.edges):
        live[index[a]].add(e)
        live[index[b]].add(e)

    def merged(e: int) -> set:
        return set().union(*(s for s in live.values() if e in s))

    order: List[int] = []
    inputs: List[Tuple[int, ...]] = []
    scopes: List[Tuple[int, ...]] = []
    remaining = set(range(len(g.edges)))
    while remaining:
        e = min(remaining, key=lambda e: (len(merged(e)), e))
        joint = merged(e)
        if k ** len(joint) > MAX_DENSE_ENTRIES:
            raise InputError(
                "%selimination width %d needs %d^%d dense entries, over the limit %d"
                % ("%s: " % g.source if g.source else "", len(joint), k, len(joint), MAX_DENSE_ENTRIES)
            )
        ins = tuple(f for f, s in live.items() if e in s)
        for f in ins:
            del live[f]
        order.append(e)
        inputs.append(ins)
        scopes.append(tuple(sorted(joint)))
        remaining.remove(e)
        joint.remove(e)
        live[n + len(order) - 1] = joint
    return Plan(tuple(order), tuple(inputs), tuple(scopes), scale, packed, min(names, default=None), digits, bits)


_Factor = Tuple[Tuple[int, ...], Dict[Tuple[int, ...], Value]]


def _project(at: Sequence[int]):
    """The function taking a key to the tuple of its entries at ``at``; a
    slice stands for one entry or none, so that it too returns a tuple."""
    if len(at) > 1:
        return itemgetter(*at)
    return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))


def _eliminate(e: int, factors: Sequence[_Factor]) -> _Factor:
    """Edge ``e`` summed out of the product of one or two factors, in one
    pass over their entries; the product itself is never stored.  The
    second factor's entries are grouped by the colours of the edges it
    shares with the first, and each entry of the first meets its group."""
    fs, ft = factors[0]
    keep = [i for i, x in enumerate(fs) if x != e]
    head = _project(keep)
    out: Dict[Tuple[int, ...], Value] = {}
    get = out.get
    if len(factors) == 1:
        for key, val in ft.items():
            k = head(key)
            out[k] = get(k, 0) + val
        scope = tuple(fs[i] for i in keep)
    else:
        hs, ht = factors[1]
        shared = [j for j, x in enumerate(hs) if x in fs]
        rest = [j for j, x in enumerate(hs) if x not in fs]
        match, tail = _project(shared), _project(rest)
        groups: Dict[Tuple[int, ...], list] = {}
        for key, val in ht.items():
            groups.setdefault(match(key), []).append((tail(key), val))
        match = _project([fs.index(hs[j]) for j in shared])
        for key, val in ft.items():
            group = groups.get(match(key))
            if group:
                base = head(key)
                for end, other in group:
                    k = base + end
                    out[k] = get(k, 0) + val * other
        scope = tuple(fs[i] for i in keep) + tuple(hs[j] for j in rest)
    return scope, {key: val for key, val in out.items() if val}


def _unpack(n: int, p: Plan, scale: int) -> Polynomial:
    """The polynomial packed as ``n`` under ``p``, divided by ``scale``.
    Adding X/2 at every digit makes each balanced digit nonnegative, so
    the digits are read off the binary form, ``p.bits`` at a time, the
    lowest power last."""
    half = "1" + "0" * (p.bits - 1)
    offset = 1 << (p.bits - 1)
    text = format(n + int(half * p.digits, 2), "b").zfill(p.digits * p.bits)
    terms: Dict[Tuple[Tuple[str, int], ...], Fraction] = {}
    for e in range(p.digits):
        chunk = text[len(text) - (e + 1) * p.bits : len(text) - e * p.bits]
        if chunk != half:
            terms[((p.name, e),) if e else ()] = Fraction(int(chunk, 2) - offset, scale)
    return Polynomial._of(terms)


def state_sum(g: TrivalentGraph, t: ThreeJTable) -> Value:
    """Sum over all edge/circle colorings of the vertex-weight product,
    by variable elimination: one sparse factor per vertex (a dict from
    the colours of its distinct edges to a nonzero weight), then edges
    summed out one at a time, in the order ``plan`` fixes from scopes
    alone (cheapest merged scope first; Markov & Shi,
    arXiv:quant-ph/0511069).  Each step multiplies the factors that hold
    its edge and sums the edge out in one pass.  The result is a
    Polynomial exactly when some coloring meets a polynomial table entry,
    as with enumeration.

    The table's denominators are cleared once by their lcm ``d`` (the
    integer-preserving idea of Bareiss, Math. Comp. 22, 1968), so
    elimination does no gcd.  A table in at most one indeterminate is
    packed (Kronecker substitution, see ``Plan``): every value is one
    int, elimination does no polynomial arithmetic, and a symbolic sum is
    unpacked once.  Other tables are eliminated on int-coefficient
    polynomials.  Each coloring's product holds one weight per vertex and
    one per circle, so the scaled sum is divided by
    d**(vertices + circles)."""
    p = plan(g, t)

    def weight(v: Value) -> Value:
        if not isinstance(v, Polynomial):
            return _scaled(v, p.scale)
        if not p.packed:
            return v * p.scale
        return sum(_scaled(c, p.scale) << p.bits * sum(e for _, e in mono) for mono, c in v.terms.items())

    weights = {key: weight(v) for key, v in t.entries.items()}
    polynomial = {key for key, v in t.entries.items() if isinstance(v, Polynomial)}
    colors = range(t.color_count)
    symbolic = False
    templates: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Value]] = {}
    factors: Dict[int, _Factor] = {}
    ends: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for i, (a, b) in enumerate(g.edges):
        ends[a].append(i)
        ends[b].append(i)
    for i, v in enumerate(g.vertices):
        scope = tuple(sorted(set(ends[v])))
        pattern = tuple(scope.index(e) for e in sorted(ends[v]))  # a loop repeats an index
        if pattern not in templates:
            table = {}
            for key in product(colors, repeat=len(scope)):
                triple = tuple(sorted(itemgetter(*pattern)(key)))
                symbolic = symbolic or triple in polynomial
                w = weights.get(triple, 0)
                if w:
                    table[key] = w
            templates[pattern] = table
        factors[i] = (scope, templates[pattern])
    for s, (e, ins) in enumerate(zip(p.order, p.inputs)):
        factors[len(g.vertices) + s] = _eliminate(e, [factors.pop(f) for f in ins])
    total: Value = 1
    for _, table in factors.values():
        total *= table.get((), 0)
    if g.circles:
        symbolic = symbolic or any((c, c, c) in polynomial for c in colors)
        total *= sum(weights.get((c, c, c), 0) for c in colors) ** g.circles
    scale = p.scale ** (len(g.vertices) + g.circles)
    if not symbolic:
        return Fraction(total, scale)
    if p.packed:
        return _unpack(total, p, scale)
    return total * Fraction(1, scale) if isinstance(total, Polynomial) else Polynomial.const(Fraction(total, scale))


MovePair = Tuple[TrivalentGraph, TrivalentGraph]


@dataclass(frozen=True)
class MoveSequence:
    moves: Tuple[MovePair, ...]
    relations: Tuple[Tuple[Tuple[MovePair, ...], Tuple[MovePair, ...]], ...] = ()


def ideal_reduce(value: Value, generators: Sequence[Value]) -> Value:
    """Reduce modulo the ideal the generators span: numeric generators
    collapse everything to 0 unless all vanish; univariate polynomial
    generators reduce by remainder mod their gcd."""
    gens = [g for g in generators if g != 0]
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


def invariant(ms: MoveSequence, t: ThreeJTable, sums: Optional[Dict[TrivalentGraph, Value]] = None) -> Value:
    """Product of the move values, reduced modulo the relation ideal.
    ``sums`` maps graphs to state sums over ``t`` the caller already
    has; the graphs summed here are added to it."""
    for k in range(len(ms.moves) - 1):
        if not isomorphic(ms.moves[k][1], ms.moves[k + 1][0]):
            raise InputError("move list breaks the chain at step %d" % k)
    sums = {} if sums is None else sums  # a graph recurs across moves and relations

    def summed(g: TrivalentGraph) -> Value:
        if g not in sums:
            sums[g] = state_sum(g, t)
        return sums[g]

    # A state sum is a relabelling invariant, so a move starts from the
    # sum its predecessor ended at, even when its graph is a relabelled copy.
    for (_, after), (before, _) in zip(ms.moves, ms.moves[1:]):
        if before not in sums:
            sums[before] = summed(after)

    def moves_product(moves: Sequence[MovePair]) -> Value:
        total: Value = Fraction(1)
        for before, after in moves:
            total = total * (summed(after) - summed(before))
        return total

    generators = [moves_product(a) - moves_product(b) for a, b in ms.relations]
    return ideal_reduce(moves_product(ms.moves), generators)


# --- the non-multiplicativity computation ----------------------------------


def nonmult_expand() -> Polynomial:
    """Difference between the factored and the direct two-step products
    (Ks1·Ls1 − Ks·Ls)(Ks2·Ls2 − Ks1·Ls1) and
    (Ks1 − Ks)(Ks2 − Ks1)(Ls1 − Ls)(Ls2 − Ls1), pinned down to one
    variable by Ks = Ls = Ks2 = Ls2 = 1 and Ks1 = Ls1 = S.  Substitution
    is a ring homomorphism, so the values are pinned first and the
    products expanded in S alone.  The result is the exact quartic
    2S^4 - 4S^3 + 4S^2 - 4S + 2, which has no rational root besides the
    trivial locus S = 1."""
    s = Polynomial.var("S")
    ks = ls = ks2 = ls2 = 1
    ks1 = ls1 = s
    expr1 = (ks1 * ls1 - ks * ls) * (ks2 * ls2 - ks1 * ls1)
    expr2 = (ks1 - ks) * (ks2 - ks1) * (ls1 - ls) * (ls2 - ls1)
    return expr2 - expr1


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


def parse_graph(text: str, source: str = "") -> TrivalentGraph:
    """Lines: ``v <id>``, ``e <v1> <v2> [ports...]``, ``circle``;
    ``source`` names the file the text was read from."""
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
    return TrivalentGraph(tuple(vertices), tuple(edges), circles, source)


def load_graph(path: str) -> TrivalentGraph:
    return _read(path, lambda text: parse_graph(text, path))


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
