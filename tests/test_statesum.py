from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smovelab import statesum
from smovelab.ring import Polynomial
from smovelab.statesum import (
    MoveSequence,
    TrivalentGraph,
    certificate,
    complete_table,
    ideal_reduce,
    invariant,
    isomorphic,
    load_graph,
    load_moves,
    load_relations,
    load_table,
    nonmult_check,
    nonmult_expand,
    parse_graph,
    parse_table,
    state_sum,
)
from smovelab.words import InputError

from helpers import poly_local_invariant, slots, wedge

_EMPTY = TrivalentGraph()
_CIRCLE = TrivalentGraph(circles=1)
_THETA = TrivalentGraph((0, 1), ((0, 1), (0, 1), (0, 1)))
_DUMBBELL = TrivalentGraph((0, 1), ((0, 0), (0, 1), (1, 1)))


_PRISM3 = TrivalentGraph(tuple(range(6)), ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)))
_K33 = TrivalentGraph(tuple(range(6)), tuple((i, 3 + j) for i in range(3) for j in range(3)))


def eval_coloring(g, coloring, t):
    """Product of |abc| over vertices and |ccc| over circles."""
    if len(coloring) != slots(g):
        raise InputError("coloring must assign every edge and circle")
    total = Fraction(1)
    for v in g.vertices:
        incident = []
        for i, (a, b) in enumerate(g.edges):
            if a == v:
                incident.append(coloring[i])
            if b == v:
                incident.append(coloring[i])
        total = total * t.lookup(*incident)
    for j in range(g.circles):
        c = coloring[len(g.edges) + j]
        total = total * t.lookup(c, c, c)
    return total


def _brute_state_sum(g, t):
    """Oracle: every edge/circle coloring, one at a time."""
    total = Fraction(0)
    for coloring in product(range(t.color_count), repeat=slots(g)):
        total = total + eval_coloring(g, coloring, t)
    return total


def _brute_certificate(g):
    """Oracle: the least sorted edge list over all n! relabelings."""
    n = len(g.vertices)
    best = None
    for perm in permutations(range(n)):
        relabel = {v: perm[i] for i, v in enumerate(g.vertices)}
        edges = tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges))
        if best is None or edges < best:
            best = edges
    return (n, best or (), g.circles)


def _table01(v000=1, v111=1, **extra):
    rows = [((0, 0, 0), Fraction(v000)), ((1, 1, 1), Fraction(v111))]
    rows += [(k, Fraction(v)) for k, v in extra.items()]
    return complete_table(rows, 2)


def test_complete_table_symmetry():
    t = complete_table([((2, 0, 1), Fraction(5))], 3)
    for triple in ((0, 1, 2), (1, 2, 0), (2, 1, 0)):
        assert t.lookup(*triple) == 5
    assert t.lookup(0, 0, 0) == 0
    with pytest.raises(InputError):
        t.lookup(0, 0, 3)
    with pytest.raises(InputError):
        complete_table([], 0)


def test_complete_table_conflicts():
    with pytest.raises(InputError):
        complete_table([((0, 1, 2), Fraction(1)), ((2, 1, 0), Fraction(2))], 3)
    # agreeing duplicates are fine
    t = complete_table([((0, 1, 2), Fraction(1)), ((2, 1, 0), Fraction(1))], 3)
    assert t.lookup(1, 0, 2) == 1


def test_complete_table_rejects_inexact_values():
    # a float would reach the sum's coefficients; an int is exact
    for bad in (0.5, 1.0, "1/2", None):
        with pytest.raises(InputError, match="is not exact"):
            complete_table([((0, 0, 0), bad)], 1)
    assert state_sum(_THETA, complete_table([((0, 0, 0), 2)], 1)) == 4


def test_graph_validation():
    with pytest.raises(InputError):
        TrivalentGraph((0,), ((0, 0),))  # degree 2
    with pytest.raises(InputError):
        TrivalentGraph((0, 0), ())
    with pytest.raises(InputError):
        TrivalentGraph((0,), ((0, 1), (0, 0)))
    with pytest.raises(InputError):
        TrivalentGraph(circles=-1)


def test_certificate_and_isomorphism():
    relabeled = TrivalentGraph((7, 3), ((7, 3), (3, 7), (7, 3)))
    assert isomorphic(_THETA, relabeled)
    assert not isomorphic(_THETA, _DUMBBELL)
    assert certificate(_CIRCLE) != certificate(_EMPTY)
    assert isomorphic(_EMPTY, TrivalentGraph())


def test_eval_coloring_and_state_sum_worked_examples():
    t = _table01()
    assert state_sum(_CIRCLE, t) == 2
    assert state_sum(_EMPTY, t) == 1
    t3 = complete_table([((0, 1, 2), Fraction(5))], 3)
    assert eval_coloring(_THETA, (0, 1, 2), t3) == 25
    assert state_sum(_THETA, t3) == 150
    with pytest.raises(InputError):
        eval_coloring(_THETA, (0, 1), t3)


def test_state_sum_symbolic_circle():
    x, y = Polynomial.var("x"), Polynomial.var("y")
    t = complete_table([((0, 0, 0), x), ((1, 1, 1), y)], 2)
    assert state_sum(_CIRCLE, t) == x + y


def test_wedge_multiplicativity_spot_checks():
    t = _table01(v000=2, v111=3)
    for g1 in (_EMPTY, _CIRCLE, _THETA, _DUMBBELL):
        for g2 in (_EMPTY, _CIRCLE, _THETA, _DUMBBELL):
            g = wedge(g1, g2)
            assert state_sum(g, t) == state_sum(g1, t) * state_sum(g2, t)
    w = wedge(_THETA, _DUMBBELL)
    assert len(w.vertices) == 4 and len(w.edges) == 6


def test_wedge_randomized_tables():
    rng = random.Random(59)
    for _ in range(25):
        rows = []
        for a in range(2):
            for b in range(a, 2):
                for c in range(b, 2):
                    rows.append(((a, b, c), Fraction(rng.randint(-3, 3))))
        t = complete_table(rows, 2)
        g1 = rng.choice((_CIRCLE, _THETA, _DUMBBELL))
        g2 = rng.choice((_EMPTY, _CIRCLE, _THETA))
        assert state_sum(wedge(g1, g2), t) == state_sum(g1, t) * state_sum(g2, t)


def test_move_value_antisymmetry():
    def move_value(before, after, t):
        return invariant(MoveSequence(((before, after),)), t)

    t = _table01()
    assert move_value(_EMPTY, _CIRCLE, t) == 1
    assert move_value(_CIRCLE, _EMPTY, t) == -1
    assert move_value(_EMPTY, _CIRCLE, t) == -move_value(_CIRCLE, _EMPTY, t)


def test_invariant_empty_sequence_is_one():
    t = _table01()
    assert invariant(MoveSequence(()), t) == 1


def test_invariant_sphere_slicing_symbolic():
    s = Polynomial.var("S")
    t = complete_table([((0, 0, 0), s)], 1)
    ms = MoveSequence(((_EMPTY, _CIRCLE), (_CIRCLE, _EMPTY)))
    got = invariant(ms, t)
    assert str(got) == "-S^2 + 2S - 1"
    assert got == -(s**2) + 2 * s - 1


def test_invariant_relation_ideal_collapses():
    t = _table01()
    ms = MoveSequence(
        ((_EMPTY, _CIRCLE),),
        relations=((((_EMPTY, _CIRCLE),), ((_EMPTY, _CIRCLE), (_CIRCLE, _CIRCLE))),),
    )
    # relation generator is numeric nonzero -> everything reduces to 0
    assert invariant(ms, t) == 0


def test_invariant_rejects_broken_chain():
    t = _table01()
    ms = MoveSequence(((_EMPTY, _CIRCLE), (_THETA, _EMPTY)))
    with pytest.raises(InputError):
        invariant(ms, t)


def test_ideal_reduce_cases():
    x = Polynomial.var("x")
    assert ideal_reduce(Fraction(7), []) == 7
    assert ideal_reduce(Fraction(7), [Fraction(0)]) == 7
    assert ideal_reduce(Fraction(7), [Fraction(2)]) == 0
    assert ideal_reduce(x**2, [x**2 + 1]) == Polynomial.const(-1)
    assert ideal_reduce(x**4 + x**2, [x**2 + 1]) == Polynomial()
    y = Polynomial.var("y")
    with pytest.raises(InputError):
        ideal_reduce(x * y, [x + y])


def test_nonmult_expand_exact_quartic():
    q = nonmult_expand()
    assert str(q) == "2S^4 - 4S^3 + 4S^2 - 4S + 2"
    assert q(S=1) == 0
    assert q(S=2) == 10
    assert q.variables() == ("S",)


def test_nonmult_check_numeric_and_symbolic():
    on_locus = nonmult_check(_table01(v000=1, v111=0))
    assert on_locus.multiplicative is True
    assert on_locus.s_value == 1
    off = nonmult_check(_table01(v000=1, v111=1))
    assert off.multiplicative is False
    assert off.s_value == 2 and off.value == 10
    assert "non-multiplicative" in str(off)
    s = Polynomial.var("S")
    sym = nonmult_check(complete_table([((0, 0, 0), s)], 1))
    assert sym.multiplicative is None
    assert sym.value == nonmult_expand()
    assert str(sym).startswith("symbolic:")


def test_poly_local_invariant_fixture():
    x = Polynomial.var("x")
    g = x**2 + 1
    ps = [x + k for k in range(1, 7)]
    out = poly_local_invariant(ps, g, Fraction(2))
    # independently derived with a computer algebra system
    assert str(out) == "11/26*x + 70/13"
    assert out == poly_local_invariant(ps, g, Fraction(2))


def test_poly_local_invariant_validation():
    x = Polynomial.var("x")
    g = x**2 + 1
    ps = [x + k for k in range(1, 7)]
    with pytest.raises(InputError):
        poly_local_invariant(ps[:5], g, Fraction(2))
    # P_2 sharing a factor with g must be rejected, naming the level
    bad = list(ps)
    bad[1] = x**2 + 1
    with pytest.raises(InputError, match="P_2"):
        poly_local_invariant(bad, g, Fraction(2))
    # c3 in {0, 1} rejected: P_3 = x + 3 hits 0 at -3 and 1 at -2
    with pytest.raises(InputError):
        poly_local_invariant(ps, g, Fraction(-3))
    with pytest.raises(InputError):
        poly_local_invariant(ps, g, Fraction(-2))
    y = Polynomial.var("y")
    with pytest.raises(InputError):
        poly_local_invariant([y + 1] + ps[1:], g, Fraction(2))


def test_parse_table_and_graph(tmp_path):
    table_text = "# 3j entries\n0,0,0,1\n1,1,1,S\n0,1,2,5/2\n"
    t = parse_table(table_text)
    assert t.color_count == 3
    assert t.lookup(2, 0, 1) == Fraction(5, 2)
    assert t.lookup(1, 1, 1) == Polynomial.var("S")
    f = tmp_path / "t.csv"
    f.write_text(table_text, encoding="utf-8")
    assert load_table(str(f)).entries == t.entries

    graph_text = "v 0\nv 1\ne 0 1\ne 0 1 2 0\ne 0 1\ncircle\n"
    g = parse_graph(graph_text)
    assert g.vertices == (0, 1) and len(g.edges) == 3 and g.circles == 1
    gf = tmp_path / "g.txt"
    gf.write_text(graph_text, encoding="utf-8")
    assert load_graph(str(gf)) == g


def test_parse_errors():
    with pytest.raises(InputError):
        parse_table("0,0,0\n")
    with pytest.raises(InputError):
        parse_table("a,0,0,1\n")
    with pytest.raises(InputError):
        parse_graph("v 0\ne 0\n")
    with pytest.raises(InputError):
        parse_graph("w 1\n")


def test_ideal_reduce_zero_value_by_polynomial_generator():
    t = Polynomial.var("t")
    assert ideal_reduce(Fraction(0), [t - 1]) == Polynomial()
    assert ideal_reduce(Polynomial(), [2 * t - 2, t**2 - 1]) == Polynomial()


def test_parse_errors_name_the_line():
    for parse, text, lineno in (
        (parse_table, "# head\n0,0,0,1\n0,0\n", 3),
        (parse_table, "0,0,0,1\n\nx,0,0,1\n", 3),
        (parse_table, "0,0,0,1 2\n", 1),
        (parse_graph, "v 0\nv x\n", 2),
        (parse_graph, "v 0\n# c\ne 0 y\n", 3),
        (parse_graph, "circle\nw 1\n", 2),
    ):
        with pytest.raises(InputError, match="^line %d: " % lineno):
            parse(text)


def test_load_moves_and_relations(tmp_path):
    (tmp_path / "e.g").write_text("", encoding="utf-8")
    (tmp_path / "c.g").write_text("circle\n", encoding="utf-8")
    moves = tmp_path / "moves.txt"
    moves.write_text("# chain\ne.g c.g\nc.g e.g  # back\n", encoding="utf-8")
    assert load_moves(str(moves)) == ((_EMPTY, _CIRCLE), (_CIRCLE, _EMPTY))
    rels = tmp_path / "rels.txt"
    rels.write_text("e.g c.g c.g e.g = c.g e.g\n=\n", encoding="utf-8")
    assert load_relations(str(rels)) == (
        (((_EMPTY, _CIRCLE), (_CIRCLE, _EMPTY)), ((_CIRCLE, _EMPTY),)),
        ((), ()),
    )
    for loader, text, lineno in (
        (load_moves, "e.g c.g\ne.g\n", 2),
        (load_moves, "\ne.g c.g e.g\n", 2),
        (load_relations, "e.g c.g\n", 1),
        (load_relations, "e.g c.g = c.g\n", 1),
        (load_relations, "e.g c.g = c.g e.g = e.g c.g\n", 1),
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="^%s: line %d: " % (re.escape(str(bad)), lineno)):
            loader(str(bad))


# --- elimination and refinement against the brute-force oracles ----------------


@st.composite
def _graph_and_table(draw):
    """A trivalent multigraph (loops, multi-edges, circles, scattered
    vertex ids) from a random pairing of half-edges, with a table of
    1-3 colours holding rationals, zeros, or polynomials in none, one or
    two indeterminates, up to the square of each.  Half the polynomial
    tables hold one monomial in every entry: every colouring then adds
    the same term, so the sum's one coefficient is as large as the L1
    bound ``state_sum`` packs its values under.  The slot count is capped
    so the brute-force sum stays near 10^3 colorings."""
    k = draw(st.integers(1, 3))
    budget = {1: 11, 2: 10, 3: 6}[k]
    n = draw(st.sampled_from([n for n in (0, 2, 4, 6) if 3 * n // 2 <= budget]))
    circles = draw(st.integers(0, min(2, budget - 3 * n // 2)))
    ends = draw(st.permutations(range(3 * n)))
    ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    edges = tuple((ids[ends[i] // 3], ids[ends[i + 1] // 3]) for i in range(0, 3 * n, 2))
    triples = list(combinations_with_replacement(range(k), 3))
    scalar = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
    xs = [Polynomial.var(name) for name in draw(st.sampled_from(((), ("q",), ("q", "r"))))]
    if not xs:
        rows = [(tr, draw(scalar)) for tr in triples]
    else:
        monomial = st.builds(lambda i, j: xs[0] ** i * xs[-1] ** j, st.integers(0, 2), st.integers(0, 2))
        if draw(st.booleans()):
            one = draw(st.fractions(-3, 3, max_denominator=4).filter(bool)) * draw(monomial)
            rows = [(tr, one) for tr in triples]
        else:
            value = st.one_of(scalar, st.builds(lambda a, b, m: a + b * m, scalar, scalar, monomial))
            rows = [(tr, draw(value)) for tr in triples]
    return TrivalentGraph(tuple(ids), edges, circles), complete_table(rows, k)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(_graph_and_table())
def test_state_sum_matches_enumeration_in_value_and_type(case):
    g, t = case
    got, want = state_sum(g, t), _brute_state_sum(g, t)
    assert isinstance(got, Fraction) == isinstance(want, Fraction)
    assert got == want


def _greedy_order(g):
    """Oracle: the order edges are summed out in, by the rule state sums
    have always used, on scopes held as sets: each step takes the edge
    whose merged scope (the union of every scope holding it) is smallest,
    the lowest edge on a tie.  Returns the order and each merged scope."""
    ends = {v: set() for v in g.vertices}
    for i, (a, b) in enumerate(g.edges):
        ends[a].add(i)
        ends[b].add(i)
    scopes = [frozenset(s) for s in ends.values()]

    def merged(e):
        return frozenset().union(*(s for s in scopes if e in s))

    remaining = set(range(len(g.edges)))
    order, joints = [], []
    while remaining:
        e = min(remaining, key=lambda e: (len(merged(e)), e))
        joint = merged(e)
        scopes = [s for s in scopes if e not in s] + [joint - {e}]
        remaining.discard(e)
        order.append(e)
        joints.append(tuple(sorted(joint)))
    return tuple(order), tuple(joints)


def test_the_plan_keeps_the_smallest_merged_scope_order_and_the_execution_builds_its_scopes(monkeypatch):
    """``plan`` fixes the order from scopes alone; the execution then sums
    out exactly those edges, each over exactly the planned merged scope,
    so the plan's widest scope is the widest the execution builds."""
    built = []
    real = statesum._eliminate

    def eliminate(e, factors):
        built.append((e, tuple(sorted({x for scope, _ in factors for x in scope}))))
        return real(e, factors)

    monkeypatch.setattr(statesum, "_eliminate", eliminate)
    rng = random.Random(29)
    t = complete_table([(tr, Fraction(1)) for tr in combinations_with_replacement(range(2), 3)], 2)
    graphs = [_PRISM3, _K33, _DUMBBELL, wedge(_THETA, _DUMBBELL)]
    for n in (2, 4, 6, 8, 10, 12) * 4:  # random pairings: loops and multi-edges too
        ends = rng.sample(range(3 * n), 3 * n)
        edges = tuple((ends[i] // 3, ends[i + 1] // 3) for i in range(0, 3 * n, 2))
        graphs.append(TrivalentGraph(tuple(range(n)), edges))
    for g in graphs:
        p = statesum.plan(g, t)
        assert (p.order, p.scopes) == _greedy_order(g)
        built.clear()
        state_sum(g, t)
        assert built == list(zip(p.order, p.scopes))
        assert max(map(len, p.scopes), default=0) == max((len(s) for _, s in built), default=0)


def test_the_dense_limit_refuses_a_plan_and_the_packed_limit_unpacks_it(monkeypatch):
    """Both limits are inclusive: k**width and the packed bits may equal
    them.  A plan past the dense limit raises before any factor is built;
    one past the packed limit sums the same value on polynomials."""
    q = Polynomial.var("q")
    t = complete_table([((0, 0, 0), q), ((0, 1, 1), q**2 - Fraction(1, 2)), ((1, 1, 1), Fraction(3))], 2)
    p = statesum.plan(_K33, t)
    width, packed = max(map(len, p.scopes)), p.bits * p.digits
    assert p.packed and p.name == "q" and p.digits == 13 and p.scale == 2
    want = _brute_state_sum(_K33, t)
    eliminated = []
    real = statesum._eliminate
    monkeypatch.setattr(statesum, "_eliminate", lambda e, fs: eliminated.append(e) or real(e, fs))
    monkeypatch.setattr(statesum, "MAX_DENSE_ENTRIES", 2**width)
    for limit in (packed, packed - 1):
        monkeypatch.setattr(statesum, "MAX_PACKED_BITS", limit)
        assert statesum.plan(_K33, t).packed == (limit == packed)
        got = state_sum(_K33, t)
        assert isinstance(got, Polynomial) and got == want
    eliminated.clear()
    monkeypatch.setattr(statesum, "MAX_DENSE_ENTRIES", 2**width - 1)
    want = r"^elimination width %d needs 2\^%d dense entries, over the limit %d$"
    with pytest.raises(InputError, match=want % (width, width, 2**width - 1)):
        state_sum(_K33, t)
    assert eliminated == []


def test_only_colours_in_use_count_towards_the_limits():
    """A colour that no nonzero entry holds weighs every colouring that
    uses it 0, so it adds no dense entries: K4 on 32 colours with two in
    use runs, although 32**5 is past the limit, and sums as the same
    table on those two colours does."""
    q = Polynomial.var("q")
    k4 = TrivalentGraph(tuple(range(4)), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    wide = complete_table([((0, 0, 31), Fraction(2, 3)), ((31, 31, 31), q), ((0, 5, 9), Fraction(0))], 32)
    narrow = complete_table([((0, 0, 1), Fraction(2, 3)), ((1, 1, 1), q)], 2)
    assert 32**5 > statesum.MAX_DENSE_ENTRIES
    assert state_sum(k4, wide) == state_sum(k4, narrow) == _brute_state_sum(k4, narrow)


def test_a_table_in_several_indeterminates_is_summed_on_polynomials():
    """One indeterminate per entry of a 3-colour table, ten in all:
    packing them would take (slots + 1)**10 digits, so the plan leaves
    the values polynomials, and K4 sums as enumeration does."""
    rows = [(tr, Polynomial.var("x%d%d%d" % tr)) for tr in combinations_with_replacement(range(3), 3)]
    t = complete_table(rows, 3)
    k4 = TrivalentGraph(tuple(range(4)), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    for g in (_THETA, k4):
        assert not statesum.plan(g, t).packed
        got = state_sum(g, t)
        assert isinstance(got, Polynomial) and got == _brute_state_sum(g, t)


def test_state_sum_on_a_q_table_makes_no_polynomial_products(monkeypatch):
    """Values are packed into ints once and unpacked once: elimination
    multiplies no polynomials."""
    q = Polynomial.var("q")
    rows = [((0, 0, 0), q), ((0, 1, 1), Fraction(1, 2)), ((0, 0, 1), Fraction(-2, 3)), ((1, 1, 1), 2 * q - 1)]
    t = complete_table(rows, 2)
    g = wedge(wedge(_PRISM3, _DUMBBELL), _CIRCLE)
    calls = []
    real = Polynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    got = state_sum(g, t)
    assert calls == []
    assert isinstance(got, Polynomial) and got == _brute_state_sum(g, t)


def _random_part(rng, slots):
    """A trivalent multigraph from a random pairing of half-edges, on
    scattered nonnegative vertex ids, with at most ``slots`` edges and
    circles."""
    n = rng.choice([n for n in (0, 2, 4) if 3 * n // 2 <= slots])
    ends = list(range(3 * n))
    rng.shuffle(ends)
    ids = rng.sample(range(40), n)
    edges = tuple((ids[ends[i] // 3], ids[ends[i + 1] // 3]) for i in range(0, 3 * n, 2))
    return TrivalentGraph(tuple(ids), edges, rng.randint(0, min(1, slots - 3 * n // 2)))


def test_a_disjoint_union_sums_to_the_product_of_its_parts():
    """``inv statesum`` prints ``multiplicativity: PASS`` from this fact: a
    sum over colourings factorises over a disjoint union.  The union of
    two or three random parts is summed by enumeration."""
    rng = random.Random(23)
    q = Polynomial.var("q")
    for case in range(40):
        k = rng.randint(1, 3)
        rows = []
        for tr in combinations_with_replacement(range(k), 3):
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append((tr, v + rng.randint(-1, 1) * q if case % 3 == 0 else v))
        t = complete_table(rows, k)
        budget = {1: 11, 2: 10, 3: 6}[k]
        parts = []
        for _ in range(rng.randint(2, 3)):
            parts.append(_random_part(rng, budget - sum(map(slots, parts))))
        union = parts[0]
        for g in parts[1:]:
            union = wedge(union, g)
        assert slots(union) <= budget
        want = Fraction(1)
        for g in parts:
            want = want * state_sum(g, t)
        assert _brute_state_sum(union, t) == want, case


def test_state_sum_with_zero_entries_and_parity_table():
    # only even colour sums carry weight: zero entries prune whole branches
    t = complete_table(
        [((0, 0, 0), Fraction(1)), ((0, 1, 1), Fraction(2)), ((0, 0, 1), Fraction(0)), ((1, 1, 1), Fraction(0))], 2
    )
    for g in (_EMPTY, _CIRCLE, _THETA, _DUMBBELL, _PRISM3, _K33, wedge(_THETA, _DUMBBELL)):
        got = state_sum(g, t)
        assert isinstance(got, Fraction) and got == _brute_state_sum(g, t)
    # an all-zero table gives an exact zero of the right type
    zero = complete_table([], 2)
    assert state_sum(_THETA, zero) == 0 and isinstance(state_sum(_THETA, zero), Fraction)
    q = Polynomial.var("q")
    symbolic_zero = complete_table([((0, 0, 0), q - q), ((1, 1, 1), Fraction(0))], 2)
    got = state_sum(_THETA, symbolic_zero)
    assert isinstance(got, Polynomial) and got.is_zero()
    # so does a sum in two indeterminates whose every term cancels: the
    # dumbbell sums (w(0,0,b) + w(1,1,b))**2 over b
    r = Polynomial.var("r")
    cancelling = complete_table([((0, 0, 0), q), ((0, 1, 1), -q), ((0, 0, 1), -r), ((1, 1, 1), r)], 2)
    assert not statesum.plan(_DUMBBELL, cancelling).packed
    got = state_sum(_DUMBBELL, cancelling)
    assert isinstance(got, Polynomial) and got.is_zero()


def test_state_sum_of_a_large_prism_is_exact():
    # 16-prism: 48 edges, 3**48 colorings; each vertex weight is 1 on
    # colour triples of even sum, so the sum counts the cycle space mod 2
    n = 16
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (n + i, n + (i + 1) % n), (i, n + i)]
    g = TrivalentGraph(tuple(range(2 * n)), tuple(edges))
    t = complete_table([((0, 0, 0), Fraction(1)), ((0, 1, 1), Fraction(1))], 2)
    assert state_sum(g, t) == 2 ** (len(edges) - 2 * n + 1)


def test_state_sum_of_a_large_prism_with_fractional_weights_is_exact():
    # the same cycle space, each vertex weighted 1/3 and one circle added:
    # every nonzero colouring holds (1/3)^V from its vertices, and the
    # circle contributes its own sum, |000| + |111| = 1/3
    n = 16
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (n + i, n + (i + 1) % n), (i, n + i)]
    g = TrivalentGraph(tuple(range(2 * n)), tuple(edges), circles=1)
    third = Fraction(1, 3)
    t = complete_table([((0, 0, 0), third), ((0, 1, 1), third)], 2)
    got = state_sum(g, t)
    assert type(got) is Fraction
    assert got == 2 ** (len(edges) - 2 * n + 1) * third ** (2 * n) * third


def _labelled_trivalent(n):
    """Every degree-3 multigraph on vertices 0..n-1 (loops allowed), each
    once, as a sorted tuple of sorted edges."""
    out, deg, edges = [], [3] * n, []

    def grow():
        v = next((i for i in range(n) if deg[i]), None)
        if v is None:
            out.append(tuple(edges))
            return
        lo = edges[-1][1] if edges and edges[-1][0] == v else v
        for u in range(lo, n):
            if deg[u] >= (2 if u == v else 1):
                deg[v] -= 1
                deg[u] -= 1
                edges.append((v, u))
                grow()
                edges.pop()
                deg[v] += 1
                deg[u] += 1

    grow()
    return out


def test_isomorphic_agrees_with_brute_force_on_every_graph_up_to_six_vertices():
    rng = random.Random(6)
    for n, classes in ((0, 1), (2, 2), (4, 8), (6, 31)):
        remaining = set(_labelled_trivalent(n))
        forms = []
        while remaining:
            edges = min(remaining)
            g = TrivalentGraph(tuple(range(n)), edges)
            brute = _brute_certificate(g)
            # the n! relabelings of one graph: its whole isomorphism class
            orbit = {tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in permutations(range(n))}
            assert brute == (n, min(orbit), 0)
            assert orbit <= remaining
            remaining -= orbit
            form = certificate(g)
            members = sorted(orbit)
            if len(members) > 24:  # the 4720 labelled 6-vertex graphs: 24 of each class
                members = rng.sample(members, 24)
            assert all(certificate(TrivalentGraph(tuple(range(n)), e)) == form for e in members)
            forms.append(form)
        assert len(forms) == classes
        assert len(set(forms)) == len(forms)  # non-isomorphic graphs never share a form


def test_isomorphic_on_relabelled_copies_and_prism_versus_k33():
    rng = random.Random(5)
    graphs = [_PRISM3, _K33, _THETA, _DUMBBELL, wedge(_THETA, _THETA), wedge(_PRISM3, _DUMBBELL)]
    for g in graphs:
        for _ in range(5):
            ids = rng.sample(range(-100, 100), len(g.vertices))
            new = dict(zip(g.vertices, ids))
            edges = [(new[b], new[a]) if rng.random() < 0.5 else (new[a], new[b]) for a, b in g.edges]
            rng.shuffle(edges)
            copy = TrivalentGraph(tuple(sorted(ids)), tuple(edges), g.circles)
            assert isomorphic(g, copy) and certificate(copy) == certificate(g)
    # same degree sequence, both vertex-transitive, one has triangles
    assert not isomorphic(_PRISM3, _K33)
    brute = [_brute_certificate(g) for g in graphs]
    assert brute[0] != brute[1]
    for g1, b1 in zip(graphs, brute):
        for g2, b2 in zip(graphs, brute):
            assert isomorphic(g1, g2) == (b1 == b2)
