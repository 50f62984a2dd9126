"""Small exact matrices over a prime field, on top of numpy int64.

Everything is kept reduced mod p; inverses run Gauss-Jordan with modular
scalar inverses, so all arithmetic is exact.  ``inverse_all`` inverts a
list of matrices with one Gauss-Jordan, and finds the first singular one
of a list that holds one by bisecting its prefix products.  A drawn
``poly`` playground backend inverts its base matrix and its polynomials
that way, in one batch; a drawn diagonal backend reads each inverse off
the entries, runs none, and builds its matrices and their inverses as
two stacks (``diagonals``).  ``draw`` is the one source of drawn
entries.  Exactness needs int64 to hold every intermediate: one entry of
a d×d product of residues sums d terms below (p-1)², so d·(p-1)² must
stay below 2^63.  Every kernel raises ``InputError`` past that bound
instead of wrapping.
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


class SingularMatrix(InputError):
    """A list handed to ``inverse_all`` holds a singular matrix: ``index``
    is the first, and ``inverses`` are the inverses of those before it."""

    def __init__(self, p: int, index: int, inverses):
        super().__init__("matrix is singular mod %d" % p)
        self.index = index
        self.inverses = inverses


def inverse_all(mats, p: int, probe=None):
    """The inverses of a list of matrices, with one Gauss-Jordan and
    3(k-1) products (Montgomery's trick): invert the product
    P_k = A_1 ⋯ A_k, then walk back from i = k, reading
    A_i⁻¹ = P_i⁻¹·P_(i-1) and P_(i-1)⁻¹ = A_i·P_i⁻¹.  No commutativity
    is needed.

    P_i is singular exactly when one of A_1 … A_i is, so the first
    singular matrix is found from the prefix products alone.  The first
    prefix inverted is the whole list, or the first ``probe`` matrices;
    while a prefix inverts, the next is twice as many matrices longer
    (capped at the whole list), and once one is singular, bisection
    between the longest prefix known to invert and the shortest known
    not to finds the first singular A_i.  The walk back from the longest
    prefix that inverted gives the inverses before it, and
    ``SingularMatrix`` carries them.  A caller that expects a singular
    matrix near the front passes a small ``probe``."""
    mats = [_as_mod(m, p) for m in mats]
    if not mats:
        return []
    if any(m.shape != mats[0].shape for m in mats):
        raise InputError("matrices of different shapes")
    prefix = [mats[0]]
    for m in mats[1:]:
        prefix.append(mul(prefix[-1], m, p))
    k = len(mats)
    lo, lo_inv, hi = 0, None, None  # P_lo inverts to lo_inv (P_0 = I); P_hi is singular
    step = k if probe is None else max(probe, 1)
    while hi is None or hi - lo > 1:
        n = min(lo + step, k) if hi is None else (lo + hi) // 2
        try:
            lo_inv, lo = inverse(prefix[n - 1], p), n
        except InputError:
            hi = n
        else:
            if n == k:
                return _walk_back(mats, prefix, lo_inv, p)
            step *= 2
    raise SingularMatrix(p, lo, _walk_back(mats[:lo], prefix, lo_inv, p))


def _walk_back(mats, prefix, inv, p: int):
    """The inverses of ``mats`` from ``inv``, the inverse of their product,
    and their prefix products."""
    out = []
    for i in range(len(mats) - 1, 0, -1):
        out.append(mul(inv, prefix[i - 1], p))
        inv = mul(mats[i], inv, p)
    if mats:
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


def random_poly(rng, powers: np.ndarray, p: int) -> np.ndarray:
    """Σ c_i·powers[i], the coefficients c_i drawn uniformly mod p in
    order.  Polynomials in one matrix all commute with each other; the
    result may be singular.  Each term is a product of two residues, so
    the terms are reduced before they are summed: under the bound a term
    fits in int64, but four of them need not."""
    c = np.array(draw(rng, len(powers), p), dtype=np.int64)
    return (c[:, None, None] * powers % p).sum(axis=0) % p


def to_text(a: np.ndarray) -> str:
    return ";".join(",".join(map(str, row)) for row in a.tolist())
