"""Exact polynomial arithmetic with rational coefficients.

Small and purpose-built: multivariate addition/multiplication for table
values, move products and the non-multiplicativity quartic, and
univariate division/gcd for reducing modulo a principal ideal.  A
state sum over a table in at most one indeterminate holds its values as
packed ints (see ``statesum.Plan``) and builds a polynomial only for the
result; one over a table in more eliminates on these polynomials.
Everything is exact: a coefficient is an int when it is integral and a
Fraction otherwise, never a float, so integer polynomials multiply and
add without a gcd per operation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .words import InputError

Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]


def _exact(c) -> Scalar:
    """A coefficient in canonical form: an int when it is integral, else a
    Fraction; a float is taken at its exact binary value."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: Dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


class Polynomial:
    """Canonical form: monomial -> nonzero coefficient, an int when it is
    integral and a Fraction otherwise (see ``_exact``)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        clean: Dict[Monomial, Scalar] = {}
        for mono, c in (terms or {}).items():
            c = _exact(c)
            if c:
                mono = tuple(sorted((n, e) for n, e in mono if e))
                c = _exact(clean.get(mono, 0) + c)
                if c:
                    clean[mono] = c
                else:
                    del clean[mono]
        self.terms = clean

    @classmethod
    def const(cls, c: Scalar) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): 1})

    @classmethod
    def _of(cls, terms: Dict[Monomial, Scalar]) -> "Polynomial":
        """Wrap terms with canonical monomials, dropping zero coefficients
        and turning integral Fractions into ints."""
        p = object.__new__(cls)
        p.terms = {m: c if type(c) is int else _exact(c) for m, c in terms.items() if c}
        return p

    # -- ring operations --
    # Operands are canonical, so results are merged as they stand: no
    # coefficient is re-wrapped and no monomial re-sorted.

    def __add__(self, other):
        other = _operand(other)
        merged = dict(self.terms)
        if isinstance(other, Polynomial):
            for mono, c in other.terms.items():
                merged[mono] = merged.get(mono, 0) + c
        else:
            merged[()] = merged.get((), 0) + other
        return Polynomial._of(merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_operand(other)

    def __rsub__(self, other):
        return -self + _operand(other)

    def __mul__(self, other):
        other = _operand(other)
        if not isinstance(other, Polynomial):
            return Polynomial._of({m: c * other for m, c in self.terms.items()})
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative power")
        out = Polynomial.const(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except InputError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.is_constant():  # equals its scalar, so hashes as it
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items())))

    # -- queries --

    def __bool__(self):  # zero is false, as the scalars are
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return Fraction(self.terms.get((), 0))

    def variables(self) -> Tuple[str, ...]:
        names = {n for m in self.terms for n, _ in m}
        return tuple(sorted(names))

    def degree(self, var: Optional[str] = None) -> int:
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e for _, e in m) for m in self.terms)
        return max((e for m in self.terms for n, e in m if n == var), default=0)

    def coeff(self, var: str, exp: int) -> "Polynomial":
        """Coefficient of var**exp, itself a polynomial in the others."""
        out: Dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            if exps.get(var, 0) == exp:
                rest = tuple(sorted((n, e) for n, e in exps.items() if n != var))
                out[rest] = out.get(rest, 0) + c
        return Polynomial(out)

    def subs(self, mapping: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        out = Polynomial()
        for m, c in self.terms.items():
            term = Polynomial.const(c)
            for name, e in m:
                repl = mapping.get(name)
                base = _coerce(repl) if repl is not None else Polynomial.var(name)
                term = term * base**e
            out = out + term
        return out

    def __call__(self, **values) -> Fraction:
        r = self.subs({k: Fraction(v) for k, v in values.items()})
        return r.constant_value()

    # -- formatting --

    def __str__(self):
        if not self.terms:
            return "0"
        def order(item):
            m, _ = item
            return (-sum(e for _, e in m), m)
        parts = []
        for m, c in sorted(self.terms.items(), key=order):
            mono = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in m)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            elif mag.denominator == 1:
                body = "%d%s" % (mag.numerator, mono)
            else:
                body = "%s*%s" % (mag, mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _operand(v):
    """``v`` itself if it is a polynomial or an exact scalar."""
    if isinstance(v, (Polynomial, int, Fraction)):
        return v
    raise InputError("cannot coerce %r to a polynomial" % (v,))


def _coerce(v) -> Polynomial:
    v = _operand(v)
    return v if isinstance(v, Polynomial) else Polynomial.const(v)


# --- univariate toolkit -----------------------------------------------------


def _univar(var: Optional[str], *polys: Polynomial) -> str:
    """The one indeterminate shared by ``polys``; a zero or constant
    operand contributes none, so it cannot hide the other's variable."""
    names = sorted({n for p in polys for n in p.variables()})
    if len(names) > 1 or (var and names and names != [var]):
        raise InputError("expected a univariate polynomial in %s" % (var or "one variable"))
    return var or (names[0] if names else "x")


def poly_divmod(a: Polynomial, b: Polynomial, var: Optional[str] = None) -> Tuple[Polynomial, Polynomial]:
    var = _univar(var, a, b)
    if b.is_zero():
        raise InputError("polynomial division by zero")
    q = Polynomial()
    r = a
    db, lead_b = b.degree(var), b.coeff(var, b.degree(var)).constant_value()
    while not r.is_zero() and r.degree(var) >= db:
        dr = r.degree(var)
        c = Fraction(r.coeff(var, dr).constant_value(), lead_b)
        t = Polynomial({((var, dr - db),) if dr != db else (): c})
        q = q + t
        r = r - t * b
    return q, r


def poly_mod(a: Polynomial, g: Polynomial, var: Optional[str] = None) -> Polynomial:
    return poly_divmod(a, g, var)[1]


def poly_monic(a: Polynomial, var: Optional[str] = None) -> Polynomial:
    if a.is_zero():
        return a
    var = _univar(var, a)
    lead = a.coeff(var, a.degree(var)).constant_value()
    return a * (Fraction(1) / lead)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    var = _univar(None, a, b)
    while not b.is_zero():
        a, b = b, poly_mod(a, b, var)
    return poly_monic(a, var) if not a.is_zero() else a


def parse_scalar(text: str):
    """CSV cell: integer, rational p/q, or an indeterminate name.  An
    integer cell (ASCII digits with an optional sign) is read by ``int``,
    and any other number by ``Fraction``'s regular expression."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    try:
        if digits.isdigit() and digits.isascii():
            return Fraction(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    if text.isidentifier():
        return Polynomial.var(text)
    raise InputError("cannot parse ring value %r" % text)
