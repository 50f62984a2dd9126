from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from smovelab.ring import (
    Polynomial,
    parse_scalar,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_monic,
)
from smovelab.words import InputError

from helpers import poly_inverse_mod, poly_xgcd

_X = sympy.symbols("x")


def _random_poly(rng, max_deg=4):
    p = Polynomial()
    for e in range(rng.randint(0, max_deg) + 1):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = p + Polynomial.const(c) * Polynomial.var("x") ** e
    return p


def _to_sympy(p: Polynomial):
    expr = sympy.Integer(0)
    for e in range(p.degree("x") + 1):
        c = p.coeff("x", e)
        expr += sympy.Rational(c.constant_value()) * _X**e
    return sympy.expand(expr)


def test_constructors_and_equality():
    zero = Polynomial()
    assert zero.is_zero() and zero.is_constant()
    five = Polynomial.const(5)
    assert five.constant_value() == 5
    x = Polynomial.var("x")
    assert x != five
    assert x - x == zero
    assert (x + 1) * (x - 1) == x**2 - 1
    assert not zero and not x - x and x and five  # zero is false, as the scalars are


def test_arithmetic_matches_sympy():
    rng = random.Random(41)
    for _ in range(40):
        a, b = _random_poly(rng), _random_poly(rng)
        assert _to_sympy(a + b) == sympy.expand(_to_sympy(a) + _to_sympy(b))
        assert _to_sympy(a - b) == sympy.expand(_to_sympy(a) - _to_sympy(b))
        assert _to_sympy(a * b) == sympy.expand(_to_sympy(a) * _to_sympy(b))
    a = _random_poly(rng)
    assert _to_sympy(a**3) == sympy.expand(_to_sympy(a) ** 3)


def test_multivariate_basics():
    s, t = Polynomial.var("s"), Polynomial.var("t")
    p = (s + t) * (s - t)
    assert p == s**2 - t**2
    assert p.variables() == ("s", "t")
    assert p.degree("s") == 2 and p.degree() == 2
    assert p.coeff("s", 2) == Polynomial.const(1)
    assert p.coeff("s", 0) == -(t**2)
    assert p.subs({"t": 1}) == s**2 - 1
    assert p(s=3, t=2) == 5


def test_subs_with_polynomial_replacement():
    x = Polynomial.var("x")
    p = x**2 + x + 1
    q = p.subs({"x": x * 5})
    assert q == 25 * x**2 + 5 * x + 1


def test_str_formats():
    s = Polynomial.var("S")
    quartic = 2 * s**4 - 4 * s**3 + 4 * s**2 - 4 * s + 2
    assert str(quartic) == "2S^4 - 4S^3 + 4S^2 - 4S + 2"
    assert str(Polynomial()) == "0"
    assert str(Polynomial.const(-3)) == "-3"
    assert str(-(s**2) + 2 * s - 1) == "-S^2 + 2S - 1"
    x = Polynomial.var("x")
    assert str(Polynomial.const(Fraction(11, 26)) * x + Fraction(70, 13)) == "11/26*x + 70/13"


def test_divmod_matches_sympy():
    rng = random.Random(43)
    for _ in range(40):
        a, b = _random_poly(rng), _random_poly(rng)
        if b.is_zero():
            with pytest.raises(InputError):
                poly_divmod(a, b)
            continue
        q, r = poly_divmod(a, b)
        assert a == q * b + r
        assert r.is_zero() or r.degree("x") < b.degree("x")
        sq, sr = sympy.div(_to_sympy(a), _to_sympy(b), _X)
        assert _to_sympy(q) == sympy.expand(sq)
        assert _to_sympy(r) == sympy.expand(sr)


def test_divmod_rejects_multivariate():
    s, t = Polynomial.var("s"), Polynomial.var("t")
    with pytest.raises(InputError):
        poly_divmod(s * t, s)


def test_gcd_and_xgcd_match_sympy():
    rng = random.Random(47)
    for _ in range(30):
        a, b = _random_poly(rng), _random_poly(rng)
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        want = sympy.gcd(_to_sympy(a), _to_sympy(b), _X)
        # both sides monic (or a unit) up to normalization
        assert _to_sympy(poly_monic(g)) == sympy.monic(want, _X)
        gg, u, v = poly_xgcd(a, b)
        assert u * a + v * b == gg


def test_inverse_mod():
    x = Polynomial.var("x")
    g = x**2 + 1
    a = x + 3
    inv = poly_inverse_mod(a, g)
    assert poly_mod(a * inv, g) == Polynomial.const(1)
    with pytest.raises(InputError):
        poly_inverse_mod(x**2 + 1, g)


def test_integer_operands_with_fractional_answers_match_sympy():
    """Integer-coefficient operands whose quotient, gcd or inverse needs
    fractions: the answers equal sympy's, in canonical form, with no float."""
    x = Polynomial.var("x")
    sx = lambda p: sympy.Poly(_to_sympy(p), _X, domain=sympy.QQ)  # noqa: E731
    for a, b in ((x, 2 * x + 1), (3 * x**3 - x + 2, 2 * x**2 + 3), (x**2 + 1, 4 * x - 6)):
        q, r = poly_divmod(a, b)
        sq, sr = sympy.div(sx(a), sx(b))
        assert sx(q) == sq and sx(r) == sr
        for p in (q, r):
            _assert_canonical(p)
    assert poly_divmod(x, 2 * x + 1) == (Polynomial.const(Fraction(1, 2)), Polynomial.const(Fraction(-1, 2)))
    for a, b in ((2 * x**2 + 3 * x + 1, 4 * x + 2), (6 * x**2 - x - 1, 9 * x**2 - 1)):
        g = poly_gcd(a, b)
        _assert_canonical(g)
        assert sx(g) == sympy.gcd(sx(a), sx(b)) and sx(g).LC() == 1
    assert poly_gcd(2 * x**2 + 3 * x + 1, 4 * x + 2) == x + Fraction(1, 2)
    for a, g in ((2 * x + 1, x**2 + 1), (3 * x**2 + 2, x**3 - 2 * x + 5)):
        inv = poly_inverse_mod(a, g)
        _assert_canonical(inv)
        assert sx(inv) == sympy.invert(sx(a), sx(g))
        assert poly_mod(a * inv, g) == Polynomial.const(1)
    assert poly_inverse_mod(2 * x + 1, x**2 + 1) == Fraction(-2, 5) * x + Fraction(1, 5)


def test_poly_mod_reduces_degree():
    x = Polynomial.var("x")
    g = x**2 + 1
    assert poly_mod(x**2, g) == Polynomial.const(-1)
    assert poly_mod(x**4 + x**2, g) == Polynomial()


def test_parse_scalar():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar("S") == Polynomial.var("S")
    assert parse_scalar("Ks1") == Polynomial.var("Ks1")
    with pytest.raises(InputError):
        parse_scalar("3x")
    with pytest.raises(InputError):
        parse_scalar("")


def _parse_scalar_oracle(text):
    """Every cell through ``Fraction`` first, as the parser read it before
    integer cells skipped the regular expression."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    if text.isidentifier():
        return Polynomial.var(text)
    raise InputError("cannot parse ring value %r" % text)


def _same_parse(text):
    try:
        want = _parse_scalar_oracle(text)
    except InputError as e:
        with pytest.raises(InputError) as got:
            parse_scalar(text)
        assert str(got.value) == str(e)
        return
    got = parse_scalar(text)
    assert type(got) is type(want) and got == want, text


@pytest.mark.parametrize(
    "text",
    ["+7", "-0", "007", " 3 ", "1_000", "\u0663", "1/2", "3/0", "2.5", "1e3", "--5", "-", "+", "q", "", "9" * 5000],
)
def test_parse_scalar_reads_every_cell_as_fraction_first(text):
    _same_parse(text)


_CELL_CHARS = "0123456789+-/._e xq\u0663\u00b2"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    st.one_of(
        st.text(st.sampled_from(_CELL_CHARS), max_size=8),
        st.from_regex(r"\A\s*[+-]?[0-9]{1,30}\s*\Z"),
        st.integers(-(10**40), 10**40).map(str),
    )
)
def test_parse_scalar_matches_the_fraction_first_oracle(text):
    _same_parse(text)


def test_zero_operand_keeps_the_other_operands_variable():
    t = Polynomial.var("t")
    assert poly_divmod(Polynomial(), t - 1) == (Polynomial(), Polynomial())
    assert poly_mod(Polynomial.const(3), t - 1) == Polynomial.const(3)
    assert poly_gcd(Polynomial(), t - 1) == t - 1
    assert poly_gcd(t**2 - 1, Polynomial()) == t**2 - 1
    g, u, v = poly_xgcd(Polynomial(), 2 * t - 2)
    assert g == t - 1 and u * Polynomial() + v * (2 * t - 2) == g
    with pytest.raises(InputError):
        poly_divmod(t, Polynomial.var("y") + 1)


# --- the arithmetic kernel against naive term dicts --------------------------
# The oracle keeps terms as {(exponent of q, exponent of r): coefficient},
# combines them the schoolbook way, and hands the result to the public
# constructor, which normalises whatever it is given.

_VARS = ("q", "r")
_coeffs = st.fractions(-4, 4, max_denominator=5)
_scalars = st.one_of(st.integers(-5, 5), _coeffs)


@st.composite
def _sparse_polys(draw):
    """A polynomial in q and r built through the constructor from raw
    terms: zero coefficients, zero exponents, unsorted and repeated
    monomials are all allowed in the input."""
    raw = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        mono = tuple(zip(_VARS, exps))
        if draw(st.booleans()):
            mono = mono[::-1]
        raw[mono] = draw(st.one_of(st.just(0), st.integers(-3, 3), _coeffs))
    return Polynomial(raw)


def _dense(p) -> dict:
    if not isinstance(p, Polynomial):
        return {(0, 0): Fraction(p)}
    out = {}
    for mono, c in p.terms.items():
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in _VARS)] = c
    return out


def _from_dense(terms: dict) -> Polynomial:
    return Polynomial({tuple(zip(_VARS, exps)): c for exps, c in terms.items()})


def _naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def _naive_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _naive_pow(a: dict, e: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = _naive_mul(out, a)
    return out


def _assert_canonical(p: Polynomial):
    for mono, c in p.terms.items():
        # an int when integral, else a Fraction that is not: never a float
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
        assert list(mono) == sorted(mono)
        assert len({n for n, _ in mono}) == len(mono)
        assert all(type(e) is int and e > 0 for _, e in mono)


def _check(got, want_dense):
    assert isinstance(got, Polynomial)
    _assert_canonical(got)
    want = _from_dense(want_dense)
    assert got.terms == want.terms
    assert got == want and hash(got) == hash(want)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_sparse_polys(), _sparse_polys(), _scalars, st.integers(0, 4))
def test_ring_operations_match_naive_term_dicts(a, b, s, e):
    da, db, ds = _dense(a), _dense(b), _dense(s)
    _assert_canonical(a)
    _check(a + b, _naive_add(da, db))
    _check(a - b, _naive_add(da, {k: -c for k, c in db.items()}))
    _check(-a, {k: -c for k, c in da.items()})
    _check(a * b, _naive_mul(da, db))
    _check(a**e, _naive_pow(da, e))
    _check(a + s, _naive_add(da, ds))
    _check(s + a, _naive_add(da, ds))
    _check(a - s, _naive_add(da, {k: -c for k, c in ds.items()}))
    _check(s - a, _naive_add(ds, {k: -c for k, c in da.items()}))
    _check(a * s, _naive_mul(da, ds))
    _check(s * a, _naive_mul(da, ds))
    # equal values hash alike however they were reached
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a - a).is_zero() and a - a == Polynomial() and hash(a - a) == hash(Polynomial())
    assert (a + b == a) == (not db)
    # a constant equals its int or Fraction scalar and hashes alike
    for c, scalar in ((Polynomial.const(s), s), ((a - a) + s, s), (a - a, 0), (a - a, Fraction(0))):
        assert c == scalar and hash(c) == hash(scalar) and len({c, scalar}) == 1
    if a.is_constant():
        assert a == a.constant_value() and hash(a) == hash(a.constant_value())
    else:
        assert a != s and len({a, s}) == 2


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_sparse_polys(), st.one_of(_sparse_polys(), _scalars), st.one_of(_sparse_polys(), _scalars))
def test_subs_matches_naive_term_dicts(a, for_q, for_r):
    dq, dr = _dense(for_q), _dense(for_r)
    want = {}
    for (i, j), c in _dense(a).items():
        term = _naive_mul(_naive_pow(dq, i), _naive_pow(dr, j))
        want = _naive_add(want, {k: c * v for k, v in term.items()})
    _check(a.subs({"q": for_q, "r": for_r}), want)
    # a variable left out of the mapping stays as it is
    q_only = {}
    for (i, j), c in _dense(a).items():
        term = _naive_mul(_naive_pow(dq, i), {(0, j): Fraction(1)})
        q_only = _naive_add(q_only, {k: c * v for k, v in term.items()})
    _check(a.subs({"q": for_q}), q_only)


def test_operands_that_are_not_exact_scalars_are_rejected():
    x = Polynomial.var("x")
    for bad in (1.5, "x", None):
        for op in (lambda: x + bad, lambda: x - bad, lambda: x * bad, lambda: bad - x):
            with pytest.raises(InputError):
                op()
