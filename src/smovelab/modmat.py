"""Small exact matrices over a prime field, on top of numpy int64.

Everything is kept reduced mod p; inverses run Gauss-Jordan with modular
scalar inverses, so all arithmetic is exact.  Exactness needs int64 to
hold every intermediate: one entry of a d×d product of residues sums d
terms below (p-1)², so d·(p-1)² must stay below 2^63.  Every kernel
raises ``InputError`` past that bound instead of wrapping.
"""

from __future__ import annotations

import numpy as np

from .words import InputError


def _check_bound(p: int, d: int) -> None:
    """Raise unless d×d products of residues mod p are exact in int64."""
    if d * (p - 1) ** 2 >= 2**63:
        raise InputError(
            "p = %d with d = %d overflows int64 matrix products: need d*(p-1)^2 < 2^63" % (p, d)
        )


def _as_mod(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix")
    _check_bound(p, m.shape[0])
    return m % p


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.int64)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    _check_bound(p, a.shape[1])
    return (a @ b) % p


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    _check_bound(p, a.shape[0])
    if e < 0:
        return matpow(inverse(a, p), -e, p)
    out = identity(a.shape[0])
    base = a % p
    while e:
        if e & 1:
            out = mul(out, base, p)
        base = mul(base, base, p)
        e >>= 1
    return out


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan over GF(p); raises if singular.

    Each column is cleared in one numpy step: the pivot is the first
    nonzero row at or below the diagonal, and only the rows with a nonzero
    entry in the column are updated.  Entries are residues, so no
    intermediate exceeds (p-1)² + p.  The column is scanned as a Python
    list, which at d = 4 costs less than numpy's own index searches."""
    a = _as_mod(a, p)
    n = a.shape[0]
    work = np.concatenate([a, identity(n)], axis=1)
    for col in range(n):
        column = work[:, col].tolist()
        piv = next((r for r in range(col, n) if column[r]), None)
        if piv is None:
            raise InputError("matrix is singular mod %d" % p)
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            column[col], column[piv] = column[piv], column[col]
        work[col] = (work[col] * pow(column[col], -1, p)) % p
        rows = [r for r, x in enumerate(column) if x and r != col]
        if rows:
            work[rows] = (work[rows] - work[rows, col, None] * work[col]) % p
    return work[:, n:]


def is_identity(a: np.ndarray, p: int) -> bool:
    return bool(np.array_equal(a % p, identity(a.shape[0])))


def equal(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    return bool(np.array_equal(a % p, b % p))


def product(mats, p: int, dim: int) -> np.ndarray:
    """Left-to-right product; empty product is the identity."""
    _check_bound(p, dim)
    out = identity(dim)
    for m in mats:
        out = mul(out, m, p)
    return out


def random_invertible_diagonal(rng, dim: int, p: int) -> np.ndarray:
    d = [rng.randrange(1, p) for _ in range(dim)]
    return np.diag(np.array(d, dtype=np.int64))


def random_poly_in(rng, base: np.ndarray, p: int, max_degree: int = 3) -> np.ndarray:
    """A random invertible polynomial in one fixed matrix; such matrices
    all commute with each other."""
    return random_poly_with_inverse(rng, base, p, max_degree)[0]


def random_poly_with_inverse(rng, base: np.ndarray, p: int, max_degree: int = 3):
    """``random_poly_in`` together with the inverse that proves the drawn
    matrix invertible."""
    dim = base.shape[0]
    for _ in range(64):
        coeffs = [rng.randrange(p) for _ in range(max_degree + 1)]
        out = np.zeros((dim, dim), dtype=np.int64)
        power = identity(dim)
        for c in coeffs:
            out = (out + c * power) % p
            power = mul(power, base, p)
        try:
            return out, inverse(out, p)
        except InputError:
            continue
    raise InputError("could not draw an invertible polynomial")


def to_text(a: np.ndarray) -> str:
    return ";".join(",".join(str(int(x)) for x in row) for row in a)


def from_text(text: str, p: int) -> np.ndarray:
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.strip().split(";")]
    except ValueError as e:
        raise InputError("bad matrix text: %s" % e) from None
    a = np.array(rows, dtype=np.int64)
    return _as_mod(a, p)
