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
from heapq import heapify, heappop, heappush
from itertools import chain, islice, product
from math import lcm
from operator import mul
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
# bounds k**width, the values on one step's merged scope: the most that
# step spreads and multiplies, and k times the most the factor it leaves
# holds.  On random cubic graphs with the dense table a,b,c -> 1+a+b+c,
# one CPU of a shared x86 machine and CPython 3.11, a sum just under it
# took 0.8 s and 80 MB peak RSS (3 colours, width 13, 36 vertices) or
# 0.8 s and 123 MB (2 colours, width 21, 64 vertices); the next 3-colour
# width, 14, took 1.5 s and 184 MB.  The limit is kept at 2**21 all the
# same, so that no graph changes its exit code.
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

    Colours: ``colours`` are the colours some nonzero entry holds, in
    order, and factors number them 0 to k - 1, k = len(colours).  A
    colouring that puts any other colour on an edge weighs 0.  An
    all-zero table keeps colour 0, so that every factor still holds its
    one value, 0, per colouring.

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
    colours: Tuple[int, ...]
    scale: int
    packed: bool
    name: Optional[str]
    digits: int
    bits: int


def _scaled(c: Union[int, Fraction], scale: int) -> int:
    """``c * scale``, for a ``scale`` that ``c``'s denominator divides."""
    return c.numerator * (scale // c.denominator)


def _bits(m: int) -> Tuple[int, ...]:
    """The positions of the bits set in ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def plan(g: TrivalentGraph, t: ThreeJTable) -> Plan:
    """The plan ``state_sum`` runs on ``g`` and ``t``.  The order is the
    one state sums have always used: next, the edge whose merged scope is
    smallest, the lowest edge on a tie.  A plan past MAX_DENSE_ENTRIES is
    an input error, raised at the step that first passes it, naming
    ``g``'s file when it was read from one.

    Each edge keeps the one or two live factors that hold it, and a heap
    keeps (merged scope size, edge) for every edge left.  A step changes
    the merged scopes of the edges its new factor holds, and only theirs,
    so only they are pushed again; an entry whose size is stale is
    dropped when it comes up.

    k counts the colours some nonzero entry holds: a colouring that puts
    any other colour on an edge weighs 0, so no factor holds it and no
    colouring with it adds to the L1 bound."""
    colours = tuple(sorted({c for triple, v in t.entries.items() if v != 0 for c in triple})) or (0,)
    k = len(colours)
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
    live = dict.fromkeys(range(n), 0)  # factor number -> its edges left, as a bit set
    holders: Dict[int, Tuple[int, ...]] = {}  # edge left -> the live factors holding it, in order
    for e, (a, b) in enumerate(g.edges):
        a, b = sorted((index[a], index[b]))
        live[a] |= 1 << e
        live[b] |= 1 << e
        holders[e] = (a, b) if a != b else (a,)

    def merged(e: int) -> int:
        h = holders[e]
        return live[h[0]] | live[h[-1]]

    size = {e: merged(e).bit_count() for e in holders}
    heap = [(s, e) for e, s in size.items()]
    heapify(heap)
    order: List[int] = []
    inputs: List[Tuple[int, ...]] = []
    scopes: List[Tuple[int, ...]] = []
    while heap:
        s, e = heappop(heap)
        if e not in holders or s != size[e]:
            continue
        if k**s > MAX_DENSE_ENTRIES:
            raise InputError(
                "%selimination width %d needs %d^%d dense entries, over the limit %d"
                % ("%s: " % g.source if g.source else "", s, k, s, MAX_DENSE_ENTRIES)
            )
        joint = merged(e)
        ins = holders.pop(e)
        for f in ins:
            del live[f]
        scope = _bits(joint)
        order.append(e)
        inputs.append(ins)
        scopes.append(scope)
        new = n + len(order) - 1  # the highest factor number, so each holders tuple stays in order
        live[new] = joint ^ 1 << e
        for x in scope:
            if x != e:
                h = holders[x]
                other = h[-1] if h[0] in ins else h[0]  # the holder the step leaves, if any
                holders[x] = (new,) if other in ins else (other, new)
                s = merged(x).bit_count()
                if s != size[x]:
                    size[x] = s
                    heappush(heap, (s, x))
    return Plan(
        tuple(order), tuple(inputs), tuple(scopes), colours, scale, packed, min(names, default=None), digits, bits
    )


# A factor: its scope, the sorted tuple of its edges, and its k**len(scope)
# values, the value of colours c_0 .. c_{m-1} on the scope's m edges at
# index sum(c_i * k**(m - 1 - i)) (the order of ``itertools.product``).
_Factor = Tuple[Tuple[int, ...], List[Value]]


def _runs(values: List[Value], size: int) -> List[List[Value]]:
    """``values`` cut into consecutive runs of ``size``."""
    ends = range(size, len(values) + size, size)
    return list(map(values.__getitem__, map(slice, range(0, len(values), size), ends)))


def _repeat(values: List[Value], run: int, reps: int) -> List[Value]:
    """Each run of ``run`` consecutive values repeated ``reps`` times."""
    if run == 1:
        return list(chain.from_iterable(zip(*[values] * reps)))
    return list(chain.from_iterable(chain.from_iterable(zip(*[_runs(values, run)] * reps))))


def _spread(f: _Factor, onto: Tuple[int, ...], k: int) -> List[Value]:
    """The values of ``f`` on ``onto``, a scope holding ``f``'s edges in
    the same order and starting with one of them: each value repeated
    over the colours of the edges ``f`` lacks.  From the last edge of
    ``onto`` to the first, each gap of m edges that ``f`` lacks repeats
    every run of the values spread so far k**m times."""
    scope, values = f
    run = reps = 1
    for x in reversed(onto):
        if x not in scope:
            reps *= k
        elif reps == 1:
            run *= k
        else:
            values = _repeat(values, run, reps)
            run *= reps * k
            reps = 1
    return values


def _first(f: _Factor, e: int, k: int) -> _Factor:
    """``f`` with edge ``e`` moved to the front of its scope: the k
    blocks of values that differ only in ``e``'s colour, one after
    another.  Block c is every k-th run of k**(edges after ``e``) values,
    from the c-th on."""
    scope, values = f
    i = scope.index(e)
    if i == 0:
        return f
    runs = _runs(values, k ** (len(scope) - 1 - i))
    blocks = (chain.from_iterable(runs[c::k]) for c in range(k))
    return (e,) + scope[:i] + scope[i + 1 :], list(chain.from_iterable(blocks))


def _eliminate(e: int, factors: Sequence[_Factor]) -> _Factor:
    """Edge ``e`` summed out of the product of one or two factors.  Each
    factor is reordered so that ``e`` comes first, which it already
    does in most steps, and two factors are spread onto their merged
    scope, ``e`` first.  The values then fall into k contiguous blocks,
    one per colour of ``e``, and the sum adds the blocks entry by entry,
    multiplying two factors' blocks as it goes, so the product itself is
    never stored.  All of it runs in C-level list and iterator
    operations, with no Python loop over entries."""
    scope, values = factors[0]
    k = round(len(values) ** (1 / len(scope)))  # a factor holds k**len(scope) values
    if len(factors) == 1:
        scope, values = _first(factors[0], e, k)
        n = len(values) // k
        blocks = [islice(values, c * n, (c + 1) * n) for c in range(k)]
    else:
        scope = (e,) + tuple(sorted(set(scope).union(factors[1][0]) - {e}))
        a, b = (_spread(_first(f, e, k), scope, k) for f in factors)
        n = len(a) // k
        blocks = [map(mul, islice(a, c * n, (c + 1) * n), islice(b, c * n, (c + 1) * n)) for c in range(k)]
    return scope[1:], list(map(sum, zip(*blocks)))


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
    by variable elimination: one flat factor per vertex (see ``_Factor``:
    a value for every colouring of its distinct edges with the k colours
    in use, zero weights kept as 0), then edges summed out one at a time,
    in the order ``plan`` fixes from scopes alone (cheapest merged scope
    first; Markov & Shi, arXiv:quant-ph/0511069).  Each step spreads the
    factors that hold its edge onto their merged scope and sums the edge
    out as it multiplies them (see ``_eliminate``).  The result is
    a Polynomial exactly when some coloring, with any of the table's
    colours, meets a polynomial table entry, as with enumeration.

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
    polynomial = [key for key, v in t.entries.items() if isinstance(v, Polynomial)]
    symbolic = False
    templates: Dict[Tuple[int, ...], List[Value]] = {}
    factors: Dict[int, _Factor] = {}
    ends: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for i, (a, b) in enumerate(g.edges):
        ends[a].append(i)
        ends[b].append(i)
    for i, v in enumerate(g.vertices):
        scope = tuple(sorted(set(ends[v])))
        pattern = tuple(scope.index(e) for e in sorted(ends[v]))  # a loop repeats an index
        if pattern not in templates:
            # A loop puts one colour on two ends, so it meets only the
            # triples that repeat a colour.
            symbolic = symbolic or any(len(scope) == 3 or len(set(tr)) < 3 for tr in polynomial)
            templates[pattern] = [
                weights.get(tuple(sorted(map(key.__getitem__, pattern))), 0)
                for key in product(p.colours, repeat=len(scope))
            ]
        factors[i] = (scope, templates[pattern])
    for s, (e, ins) in enumerate(zip(p.order, p.inputs)):
        factors[len(g.vertices) + s] = _eliminate(e, [factors.pop(f) for f in ins])
    total: Value = 1
    for _, (value,) in factors.values():
        total *= value
    if g.circles:
        symbolic = symbolic or any(len(set(tr)) == 1 for tr in polynomial)
        total *= sum(weights.get((c, c, c), 0) for c in range(t.color_count)) ** g.circles
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
