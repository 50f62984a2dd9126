"""Small exact matrices over a prime field, on top of numpy int64.

Results are reduced mod p and all arithmetic is exact: inverses run
Gauss-Jordan with modular scalar inverses and delayed reduction, or read
a diagonal matrix's inverse off its entries.  ``first_singular`` proves a
list of matrices invertible, or finds its first singular one, from its
prefix products with one Gauss-Jordan; playground backends keep no
inverses.  ``polynomials`` forms a run of polynomials in one matrix with
one product.

Exactness needs int64 to hold every intermediate: an entry of a d×d
product of residues sums d terms below (p-1)², so d·(p-1)² < 2^63, and
every kernel raises ``InputError`` past that bound instead of wrapping.
The same bound lets Gauss-Jordan leave its block unreduced between steps
(the delayed modular reduction of FFLAS-FFPACK: Dumas, Giorgi & Pernet,
ACM TOMS 34(4), 2008): a row takes fewer than d subtractions of residue
products between reductions, so no entry falls below -d·(p-1)².  From
d = 16 on, where BLAS beats numpy's int64 loop, a product over an inner
length n with n·(p-1)² < 2^53 runs in float64, exact because every
partial sum is then an integer below 2^53.
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


# From this dimension on a float64 product beats numpy's int64 one; below
# it int64 is faster (up to d = 8) or as fast (d = 12).
_FLOAT_DIM = 16


def _exact_in_float(n: int, p: int, d: int) -> bool:
    """Whether d×d products over an inner length n run in float64: every
    partial sum, at most n·(p-1)², is then an integer below 2^53."""
    return d >= _FLOAT_DIM and n * (p - 1) ** 2 < 2**53


def _float_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[1]
    _check_bound(p, n)
    if _exact_in_float(n, p, n):
        return _float_dot(a, b, p)
    return (a @ b) % p


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan over GF(p); raises if singular (``_invert``)."""
    return _invert(_as_mod(a, p), p)


def _invert(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse of a square matrix already reduced mod p.

    Gauss-Jordan with delayed reduction: each step reduces only what it
    must read exactly.  It reduces the pivot column, to find the first
    nonzero row at or below the diagonal, and the pivot row, before
    scaling it to a leading 1.  It then subtracts the outer product of
    the column (pivot entry zeroed) with that row from the whole block,
    unreduced, and the block is reduced once, at the end.  Entries start
    as residues; a row is reduced when it is the pivot row, and besides
    takes at most d-1 subtractions of products of two residues, so every
    entry lies in [-(d-1)·(p-1)², p).  The int64 bound d·(p-1)² < 2^63,
    checked where the matrix entered, keeps every step exact; scaling the
    pivot row before reducing it would not be.  The column is scanned as
    a Python list, which at d = 4 costs less than numpy's own index
    searches.  A diagonal matrix is inverted entry by entry."""
    if is_diagonal(a):
        diagonal = a.diagonal().tolist()
        if 0 in diagonal:
            raise InputError("matrix is singular mod %d" % p)
        return np.diag(np.array([pow(x, -1, p) for x in diagonal], dtype=np.int64))
    n = a.shape[0]
    work = np.concatenate([a, identity(n)], axis=1)
    for col in range(n):
        f = work[:, col] % p
        column = f.tolist()
        piv = next((r for r in range(col, n) if column[r]), None)
        if piv is None:
            raise InputError("matrix is singular mod %d" % p)
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            f[[col, piv]] = f[[piv, col]]
        row = work[col] % p * pow(column[piv], -1, p) % p
        work[col] = row
        f[col] = 0
        work -= f[:, None] * row
    return work[:, n:] % p


def first_singular(mats, p: int, probe=None):
    """The index of the first singular matrix of a list, or None when
    every one is invertible, with one Gauss-Jordan when none is.

    The prefix product P_i = A_1 ⋯ A_i is singular exactly when one of
    A_1 … A_i is.  The first prefix tried is the whole list, or the first
    ``probe`` matrices; while a prefix inverts, the next is twice as many
    matrices longer (capped at the whole list), and once one is singular,
    bisection between the longest prefix known to invert and the
    shortest known not to finds the first singular A_i.  Prefixes are
    multiplied out only as far as one is tried, and each matrix is
    reduced and shape-checked when a prefix first reaches it, so matrices
    past the last prefix tried are not read, and a tried prefix, reduced
    as it was formed, is not reduced again.  A caller that expects a
    singular matrix near the front passes a small ``probe``."""
    mats = list(mats)
    k, prefix = len(mats), []
    lo, hi = 0, None  # P_lo inverts (P_0 = I); P_hi is singular
    step = k if probe is None else max(probe, 1)
    while hi is None or hi - lo > 1:
        if hi is None and lo == k:
            return None
        n = min(lo + step, k) if hi is None else (lo + hi) // 2
        while len(prefix) < n:
            m = _as_mod(mats[len(prefix)], p)
            if prefix and m.shape != prefix[0].shape:
                raise InputError("matrices of different shapes")
            prefix.append(mul(prefix[-1], m, p) if prefix else m)
        try:
            _invert(prefix[n - 1], p)
        except InputError:
            hi = n
        else:
            lo, step = n, step * 2
    return lo


def is_diagonal(a: np.ndarray) -> bool:
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal())


def is_identity(a: np.ndarray, p: int) -> bool:
    return bool(np.array_equal(a % p, identity(a.shape[0])))


def equal(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    return bool(np.array_equal(a % p, b % p))


def product(mats, p: int, dim: int) -> np.ndarray:
    """Left-to-right product, reduced mod p; empty product is the identity."""
    _check_bound(p, dim)
    mats = iter(mats)
    out = next(mats, None)
    if out is None:
        return identity(dim)
    out = out % p
    for m in mats:
        out = mul(out, m, p)
    return out


def diagonals(rows) -> np.ndarray:
    """The diagonal matrices with the given diagonals, as one (k, d, d)
    array."""
    rows = np.array(rows, dtype=np.int64)
    k, d = rows.shape
    out = np.zeros((k, d * d), dtype=np.int64)
    out[:, :: d + 1] = rows
    return out.reshape(k, d, d)


def powers(a: np.ndarray, count: int, p: int) -> np.ndarray:
    """I, a, a², …: the first ``count`` powers of a, stacked."""
    out = np.empty((count,) + a.shape, dtype=np.int64)
    out[0] = identity(a.shape[0])
    for i in range(1, count):
        out[i] = mul(out[i - 1], a, p)
    return out


def polynomials(coeffs, powers: np.ndarray, p: int) -> np.ndarray:
    """The polynomials Σ c_i·powers[i], as one (m, d, d) stack, from their
    k·m coefficients in order, one polynomial after another.  Polynomials
    in one matrix all commute with each other; any of them may be
    singular.  In float64 (see ``_exact_in_float``) the stack is one
    product of the (m×k) coefficients with the (k×d²) stacked powers.  In
    int64 each term, a product of two residues, is reduced before the
    terms are summed: under the bound a term fits in int64, but four of
    them need not."""
    k, d = len(powers), powers.shape[1]
    c = np.array(coeffs, dtype=np.int64).reshape(-1, k)
    flat = powers.reshape(k, d * d)
    if _exact_in_float(k, p, d):
        out = _float_dot(c, flat, p)
    else:
        out = sum(c[:, i, None] * flat[i] % p for i in range(k)) % p
    return out.reshape(len(c), d, d)


def to_text(a: np.ndarray) -> str:
    return ";".join(",".join(map(str, row)) for row in a.tolist())
