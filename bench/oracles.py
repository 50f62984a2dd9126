"""Independent answers for checking smovelab's outputs.

Nothing here imports smovelab: words are tuples of signed ints, state
sums are numpy einsum contractions, and polynomials are coefficient lists
of Fractions.  Outputs that no oracle here can recompute (playground
matrices, abstract slice pictures) are compared with stdout digests
recorded by ``record_digests.py``.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

import numpy as np

# --- free-group words ---------------------------------------------------------


def free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters):
    return tuple(-x for x in reversed(letters))


def commutator(u, v):
    return free_reduce(tuple(u) + tuple(v) + inverse(u) + inverse(v))


def word_text(letters) -> str:
    out = []
    for x in letters:
        k = abs(x)
        if k <= 26:
            c = chr(ord("a") + k - 1)
            out.append(c if x > 0 else c.upper())
        else:
            out.append(("g%d" if x > 0 else "G%d") % k)
    return "".join(out) or "1"


_LETTER = re.compile(r"g(\d+)|G(\d+)|([a-z])|([A-Z])")


def word_letters(text: str):
    if text == "1":
        return ()
    out = []
    pos = 0
    for m in _LETTER.finditer(text):
        if m.start() != pos:
            raise ValueError("bad word text %r" % text)
        pos = m.end()
        if m.group(1):
            out.append(int(m.group(1)))
        elif m.group(2):
            out.append(-int(m.group(2)))
        elif m.group(3):
            out.append(ord(m.group(3)) - ord("a") + 1)
        else:
            out.append(-(ord(m.group(4)) - ord("A") + 1))
    if pos != len(text):
        raise ValueError("bad word text %r" % text)
    return tuple(out)


def is_rotation(word, of) -> bool:
    word, of = tuple(word), tuple(of)
    return len(word) == len(of) and any(of[i:] + of[:i] == word for i in range(max(len(of), 1)))


# --- univariate polynomials over Q (coefficients low to high) ---------------


def p_trim(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def p_sub(a, b):
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_mod(a, b):
    a = p_trim(a)
    b = p_trim(b)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = p_trim([a[i] - (c * b[i - shift] if i >= shift else 0) for i in range(len(a))])
    return a


def p_gcd(a, b):
    a, b = p_trim(a), p_trim(b)
    while b:
        a, b = b, p_mod(a, b)
    return [c / a[-1] for c in a] if a else a


def p_interpolate(xs, ys):
    """Newton interpolation through (xs, ys); exact over Fractions."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [Fraction(0)]
    for i in range(n - 1, -1, -1):
        out = p_mul(out, [Fraction(-xs[i]), Fraction(1)]) if out else []
        out = p_sub(out, [-coef[i]])
    return p_trim(out)


_TERM = re.compile(r"^(\d+(?:/\d+)?)?\*?([A-Za-z_]\w*)?(?:\^(\d+))?$")


def parse_poly(text: str):
    """Read smovelab's printed form of a univariate polynomial or number
    ("3/2*q^2 - q + 7", "-4", "0") into coefficients."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    parts = re.split(r" ([+-]) ", text)
    signs = ["+"] + parts[1::2]
    terms = parts[0::2]
    coeffs: dict = {}
    for sign, term in zip(signs, terms):
        if term.startswith("-"):
            sign = "-" if sign == "+" else "+"
            term = term[1:]
        m = _TERM.match(term)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError("bad polynomial term %r in %r" % (term, text))
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        e = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        if m.group(3) and not m.group(2):
            raise ValueError("exponent without variable in %r" % text)
        coeffs[e] = coeffs.get(e, Fraction(0)) + (c if sign == "+" else -c)
    top = max(coeffs)
    return p_trim([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


# --- 3j tables and state sums ---------------------------------------------------


class Table:
    """A fully symmetric 3j table whose entries are polynomials of degree
    at most one in a single indeterminate (numbers are degree zero)."""

    def __init__(self, colors: int, entries: dict):
        self.colors = colors
        self.entries = {tuple(sorted(k)): p_trim(v) for k, v in entries.items()}

    @property
    def degree(self) -> int:
        return max((len(v) - 1 for v in self.entries.values()), default=0)

    @property
    def scale(self) -> int:
        """Common denominator of every coefficient."""
        return math.lcm(1, *(c.denominator for v in self.entries.values() for c in v))

    def scaled_at(self, x: int) -> np.ndarray:
        """``scale`` times the table evaluated at the integer ``x``, as an
        object array of Python ints."""
        n, scale = self.colors, self.scale
        t = np.empty((n, n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    coeffs = self.entries.get(tuple(sorted((a, b, c))), [])
                    t[a, b, c] = int(sum(scale * cf * x**i for i, cf in enumerate(coeffs)))
        return t

    def int64(self) -> np.ndarray:
        if self.degree > 0 or self.scale != 1:
            raise ValueError("int64 contraction needs an integer table")
        return self.scaled_at(0).astype(np.int64)


class Graph:
    def __init__(self, vertices, edges, circles=0):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.circles = circles

    def text(self) -> str:
        lines = ["v %d" % v for v in self.vertices]
        lines += ["e %d %d" % e for e in self.edges]
        lines += ["circle"] * self.circles
        return "\n".join(lines) + "\n"

    def slots(self) -> int:
        return len(self.edges) + self.circles


def _einsum_spec(g: Graph) -> str:
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if len(g.edges) > len(letters):
        raise ValueError("graph has too many edges for one einsum")
    subs = []
    for v in g.vertices:
        s = "".join(letters[i] for i, (a, b) in enumerate(g.edges) for end in (a, b) if end == v)
        subs.append(s)
    return ",".join(subs) + "->"


def contract(g: Graph, t: np.ndarray):
    """Sum over all colourings of the product of vertex weights, times
    trace(ccc) per circle; ``t`` is an int64 or object array."""
    if g.vertices:
        # no contraction path: numpy's optimised path fails on object arrays
        # when the graph is disconnected
        total = np.einsum(_einsum_spec(g), *([t] * len(g.vertices)), optimize=False)
        total = total.item() if hasattr(total, "item") else total
    else:
        total = 1
    circle = sum(t[c, c, c] for c in range(t.shape[0]))
    for _ in range(g.circles):
        total = total * circle
    return total


def int64_state_sum(g: Graph, table: Table) -> int:
    t = table.int64()
    bound = max(1, int(np.abs(t).max())) ** (len(g.vertices) + g.circles) * table.colors ** g.slots()
    if bound >= 2**62:
        raise ValueError("int64 contraction could overflow on this graph")
    return int(contract(g, t))


def poly_state_sum(g: Graph, table: Table):
    """Exact state sum as a polynomial: contract at deg+1 points, interpolate."""
    factors = len(g.vertices) + g.circles
    xs = list(range(table.degree * factors + 1))
    denom = table.scale**factors
    ys = [Fraction(contract(g, table.scaled_at(x)), denom) for x in xs]
    return p_interpolate(xs, ys)


# --- digests ---------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
