"""Small exact matrices over a prime field, on top of numpy int64.

Everything is kept reduced mod p; inverses run Gauss-Jordan with modular
scalar inverses, so all arithmetic is exact.  ``inverse_all`` inverts a
list of matrices with one Gauss-Jordan.  A drawn ``poly`` playground
backend inverts its base matrix and its polynomials that way, in one
batch; a drawn diagonal backend reads each inverse off the entries and
runs none.  ``draw`` is the one source of drawn entries.  Exactness
needs int64 to hold every intermediate: one entry of a d×d product of
residues sums d terms below (p-1)², so d·(p-1)² must stay below 2^63.
Every kernel raises ``InputError`` past that bound instead of wrapping.
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


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan over GF(p); raises if singular.

    Each column is cleared in one numpy step: the pivot is the first
    nonzero row at or below the diagonal, its row is scaled to a leading
    1, and the outer product of the column (pivot entry zeroed) with that
    row is subtracted from the whole block.  Entries are residues, so
    every intermediate lies in (-(p-1)², p).  The column is scanned as a
    Python list, which at d = 4 costs less than numpy's own index
    searches."""
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
        work[col] = (work[col] * pow(column[piv], -1, p)) % p
        f = work[:, col].copy()
        f[col] = 0
        work -= np.outer(f, work[col])
        work %= p
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


def draw(rng, count: int, p: int, low: int = 0) -> list:
    """``count`` residues drawn uniformly from [low, p), the same values,
    leaving ``rng`` in the same state, as ``count`` calls of
    ``rng.randrange(low, p)``: that call too rejects every
    ``getrandbits`` draw of the span's bit length that falls past the
    span.  It skips randrange's argument checks and call layers, which
    cost more than the draw itself."""
    span = p - low
    bits = span.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= span:
            r = getrandbits(bits)
        out.append(low + r)
    return out


def random_invertible_diagonal(rng, dim: int, p: int) -> np.ndarray:
    return np.diag(np.array(draw(rng, dim, p, 1), dtype=np.int64))


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
    for c, power in zip(draw(rng, len(powers), p), powers):
        out = (out + c * power) % p
    return out


def to_text(a: np.ndarray) -> str:
    return ";".join(",".join(map(str, row)) for row in a.tolist())
