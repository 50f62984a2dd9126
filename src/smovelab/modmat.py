"""Small exact matrices over a prime field, on top of numpy int64.

Everything is kept reduced mod p; inverses run Gauss-Jordan with modular
scalar inverses, so all arithmetic is exact.  ``inverse_all`` inverts a
list of matrices with one Gauss-Jordan; a playground backend inverts all
its matrices that way.  Exactness needs int64 to hold every
intermediate: one entry of a d×d product of residues sums d terms below
(p-1)², so d·(p-1)² must stay below 2^63.  Every kernel raises
``InputError`` past that bound instead of wrapping.
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


def inverse_all(mats, p: int):
    """The inverses of a list of matrices, with one Gauss-Jordan and
    3(k-1) products (Montgomery's trick): invert the product
    P_k = A_1 ⋯ A_k, then walk back from i = k, reading
    A_i⁻¹ = P_i⁻¹·P_(i-1) and P_(i-1)⁻¹ = A_i·P_i⁻¹.  No commutativity
    is needed.  Raises if any matrix is singular, since then P_k is."""
    mats = [_as_mod(m, p) for m in mats]
    if not mats:
        return []
    if any(m.shape != mats[0].shape for m in mats):
        raise InputError("matrices of different shapes")
    prefix = [mats[0]]
    for m in mats[1:]:
        prefix.append(mul(prefix[-1], m, p))
    inv = inverse(prefix.pop(), p)
    out = []
    for m in reversed(mats[1:]):
        out.append(mul(inv, prefix[-1], p))
        inv = mul(m, inv, p)
        prefix.pop()
    out.append(inv)
    out.reverse()
    return out


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


def powers(a: np.ndarray, count: int, p: int):
    """I, a, a², …: the first ``count`` powers of a."""
    out = [identity(a.shape[0])]
    for _ in range(count - 1):
        out.append(mul(out[-1], a, p))
    return out


def random_poly(rng, powers, p: int) -> np.ndarray:
    """Σ c_i·powers[i], the coefficients c_i drawn uniformly mod p in
    order.  Polynomials in one matrix all commute with each other; the
    result may be singular."""
    out = np.zeros_like(powers[0])
    for power in powers:
        out = (out + rng.randrange(p) * power) % p
    return out


def to_text(a: np.ndarray) -> str:
    return ";".join(",".join(str(int(x)) for x in row) for row in a)
