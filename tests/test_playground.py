from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
import sympy

import smovelab.modmat as modmat
import smovelab.playground as pg
from smovelab.criterion import build_instance, transport_qmove
from smovelab.presentations import ConjugateRelator, InvertRelator, MultiplyRight
from smovelab.playground import (
    DIAGONAL,
    LONGITUDINAL,
    MERIDIAN,
    PERMUTATION_SUM,
    POLY_IN_M,
    PRODUCT,
    SPHERE_LABEL,
    Backend,
    between_type_obstruction,
    check_assignment,
    dump_backend,
    global_combine,
    is_prime,
    load_backend,
    make_backend,
    other_type,
    perturbed_invariant,
    qmove_rider,
    spel_product,
    stabilization_demo,
    three_tests,
)
from smovelab.slicing import (
    CellToken,
    CommutatorToken,
    SpElToken,
    SphereToken,
    build_abstract,
    token_text,
)
from smovelab.words import InputError, Word, draw, invert, parse_word

from helpers import (
    backend_labels,
    compose,
    composed_invariant,
    gauge,
    gauged_sequence,
    identity_spels,
    matpow,
    py_inverse,
    py_mul,
    ordering_sum,
    random_invertible_diagonal,
    state_modules,
    transitions,
)


def _labels_for(*instances, types=(LONGITUDINAL, MERIDIAN)):
    seqs = []
    for inst in instances:
        for t in types:
            seqs.append(build_abstract(inst, t))
            seqs.append(gauged_sequence(inst, t))
    return backend_labels(*seqs)


def _readings(inst, t):
    """An instance's sequence of type ``t`` and its gauged sequence."""
    return build_abstract(inst, t), gauged_sequence(inst, t)


def _unaliased(t, alias=False):
    """A broken labelling, keyed by raw words: a word and its inverse get
    different matrices, so Z(V) != Z(V^-1) in general."""
    return token_text(t)


def _backend(seed=0, **kw):
    inst = build_instance(seed)
    b = make_backend(_labels_for(inst), seed=seed, **kw)
    return inst, b


def _same_invariant(aseq, other, b) -> bool:
    return modmat.equal(perturbed_invariant(aseq, b), perturbed_invariant(other, b), b.p)


# --- exact matrix arithmetic ----------------------------------------------


def test_modmat_inverse_and_power():
    p = 101
    rng = random.Random(1)
    for _ in range(20):
        a = random_invertible_diagonal(rng, 4, p)
        inv = modmat.inverse(a, p)
        assert modmat.is_identity(modmat.mul(a, inv, p), p)
        assert modmat.equal(matpow(a, 3, p), modmat.product([a, a, a], p, 4), p)
        assert modmat.equal(matpow(a, -2, p), modmat.mul(inv, inv, p), p)
    assert modmat.is_identity(matpow(a, 0, p), p)


def test_modmat_inverse_rejects_singular():
    with pytest.raises(InputError):
        modmat.inverse(np.zeros((3, 3), dtype=np.int64), 7)


def test_modmat_gauss_jordan_matches_adjugate_small():
    # independent 2x2 oracle: inverse via determinant and adjugate
    p = 13
    rng = random.Random(5)
    for _ in range(50):
        a = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)], dtype=np.int64)
        det = int(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) % p
        if det == 0:
            with pytest.raises(InputError):
                modmat.inverse(a, p)
            continue
        det_inv = pow(det, -1, p)
        want = (det_inv * np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=np.int64)) % p
        assert modmat.equal(modmat.inverse(a, p), want, p)


def test_modmat_product_and_text():
    p = 11
    assert modmat.is_identity(modmat.product([], p, 3), p)
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5, 6], [7, 8]], dtype=np.int64)
    assert modmat.equal(modmat.product([a, b], p, 2), modmat.mul(a, b, p), p)
    # the product starts from its first factor, reduced, not from I
    unreduced = a + 2 * p
    one = modmat.product([unreduced], p, 2)
    assert np.array_equal(one, a) and one is not unreduced
    assert modmat.to_text(a) == "1,2;3,4"
    ab = modmat.product([a, b], p, 2)
    assert modmat.to_text(ab) == ";".join(",".join(str(x) for x in row) for row in py_mul(a.tolist(), b.tolist(), p))


def test_random_polys_commute_with_base():
    p = 101
    rng = random.Random(9)
    base = random_invertible_diagonal(rng, 4, p)
    (m,) = modmat.polynomials(draw(rng, 4, p), modmat.powers(base, 4, p), p)
    assert modmat.equal(modmat.mul(m, base, p), modmat.mul(base, m, p), p)
    modmat.inverse(m, p)  # must not raise


# The three largest primes with (p-1)² < 2^63, the d = 1 bound.
_UNDER_D1_BOUND = (3037000493, 3037000453, 3037000429)


def test_draw_gives_the_values_and_stream_of_randrange():
    """``words.draw`` is the one path to every drawn entry and instance
    value, so drawn backends and instances stay the same only while it
    matches ``randrange``, ``randint`` and ``choice`` value for value and
    leaves the stream in the same state; a Python whose ``randrange``
    draws otherwise fails here."""
    for p in (3, 5, 101, 100003) + _UNDER_D1_BOUND:
        for low in (0, 1, 2):
            for seed in range(30):
                n = (0, 1, 2, 7, 16, 33)[seed % 6]
                mine, theirs = random.Random(seed), random.Random(seed)
                assert draw(mine, n, p, low) == [theirs.randrange(low, p) for _ in range(n)], (p, low, seed)
                assert mine.getstate() == theirs.getstate(), (p, low, seed)
    # a span of 1 takes one bit and rejects every odd draw
    rng = random.Random(4)
    assert draw(rng, 50, 3, 2) == [2] * 50
    # randint(a, b) and choice(seq), as build_instance draws them
    for seed in range(30):
        mine, theirs = random.Random(seed), random.Random(seed)
        for a, b in ((0, 3), (1, 3), (1, 4)):
            assert draw(mine, 1, b + 1, a) == [theirs.randint(a, b)], seed
        for seq in ((1, -1), (1, 2, -1, -2), ("x1", "x2", "x3")):
            assert seq[draw(mine, 1, len(seq))[0]] == theirs.choice(seq), seed
        assert mine.getstate() == theirs.getstate(), seed


# p = 4294967311 is prime and (p-1)² alone is past 2^63; 2^31 - 1 is the
# largest prime with 2·(p-1)² < 2^63, so d = 2 products are still exact.
_PAST_BOUND = 4294967311
_AT_BOUND_D2 = 2147483647


def test_modmat_raises_past_the_int64_bound():
    p = _PAST_BOUND
    a = np.array([[p - 1, p - 2], [p - 3, p - 4]], dtype=np.int64)
    rng = random.Random(0)
    for call in (
        lambda: modmat.mul(a, a, p),
        lambda: matpow(a, 2, p),
        lambda: matpow(a, 0, p),
        lambda: matpow(a, -1, p),
        lambda: modmat.product([a, a], p, 2),
        lambda: modmat.product([], p, 2),
        lambda: modmat.inverse(a, p),
        lambda: modmat.polynomials(draw(rng, 4, p), modmat.powers(modmat.identity(2), 4, p), p),
    ):
        with pytest.raises(InputError, match=r"p = 4294967311 with d = 2 overflows int64"):
            call()
    # the bound is d·(p-1)² < 2^63, so one more dimension can cross it
    q = _AT_BOUND_D2
    modmat.mul(modmat.identity(2), modmat.identity(2), q)
    with pytest.raises(InputError, match="d = 3 overflows"):
        modmat.mul(modmat.identity(3), modmat.identity(3), q)


def test_modmat_is_exact_at_the_int64_bound():
    p = _AT_BOUND_D2
    rows = [[p - 1, p - 2], [p - 3, p - 4]]
    a = np.array(rows, dtype=np.int64)
    square = py_mul(rows, rows, p)
    assert square == [[7, 10], [15, 22]]
    assert modmat.mul(a, a, p).tolist() == square
    assert matpow(a, 2, p).tolist() == square
    assert modmat.product([a, a, a], p, 2).tolist() == py_mul(square, rows, p)
    inv = modmat.inverse(a, p)
    assert py_mul(rows, inv.tolist(), p) == [[1, 0], [0, 1]]
    assert matpow(a, -2, p).tolist() == py_mul(inv.tolist(), inv.tolist(), p)


def _float_bound_primes(n):
    """The largest prime p with n·(p-1)² < 2^53, where a float64 product
    over an inner length n is exact, and the next prime above it."""
    p = sympy.prevprime(math.isqrt((2**53 - 1) // n) + 2)
    assert n * (p - 1) ** 2 < 2**53 <= n * (sympy.nextprime(p) - 1) ** 2
    return p, sympy.nextprime(p)


def test_mul_is_exact_on_both_sides_of_the_float64_bound():
    """From d = 16 on a product runs in float64 while d·(p-1)² < 2^53,
    and in int64 past it.  Rows and columns of p-1 ending in p-2 give
    every entry the odd sum (d-1)·(p-1)² + (p-2)², which float64 holds
    only below 2^53 and which passes 2^53 at the prime above the bound;
    random matrices are checked on Python ints, at d = 256 on five rows."""
    rng = random.Random(23)
    for d in (15, 16, 32, 256):
        for p in _float_bound_primes(d):
            a, b = np.full((d, d), p - 1, dtype=np.int64), np.full((d, d), p - 1, dtype=np.int64)
            a[:, -1] = b[-1, :] = p - 2
            assert modmat.mul(a, b, p).tolist() == [[((d - 1) * (p - 1) ** 2 + (p - 2) ** 2) % p] * d] * d, (d, p)
            a, b = ([[rng.randrange(p) for _ in range(d)] for _ in range(d)] for _ in range(2))
            rows = sorted({0, d - 1} | set(rng.sample(range(d), min(d, 3))))
            got = modmat.mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
            assert got.dtype == np.int64
            assert [got[i].tolist() for i in rows] == py_mul([a[i] for i in rows], b, p), (d, p)


def test_random_polys_are_exact_on_both_sides_of_the_float64_bound():
    """Σ c_i·M^i sums four products of residues: at d ≥ 16 one float64
    product while 4·(p-1)² < 2^53, and in int64 past it or below d = 16,
    where p may take 4·(p-1)² past 2^53 (and, at d < 4, past 2^63)."""
    p53, past53 = _float_bound_primes(4)
    cases = [(d, p) for d in (16, 32) for p in (p53, past53)]
    cases += [(d, p) for d in (1, 2, 3) for p in (past53, sympy.prevprime(math.isqrt((2**63 - 1) // d) + 2))]
    for d, p in cases:
        assert 4 * (p - 1) ** 2 >= 2**53 or d >= 16
        for seed in range(3):
            rng = random.Random(seed)
            base = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            powers = modmat.powers(np.array(base, dtype=np.int64), 4, p)
            want = [[int(i == j) for j in range(d)] for i in range(d)]
            for i in range(4):
                assert powers[i].tolist() == want, (d, p, i)
                want = py_mul(want, base, p)
            (got,) = modmat.polynomials(draw(random.Random(seed), 4, p), powers, p)
            stream = random.Random(seed)
            c = [stream.randrange(p) for _ in range(4)]
            want = [[sum(ci * m[i][j] for ci, m in zip(c, powers.tolist())) % p for j in range(d)] for i in range(d)]
            assert got.dtype == np.int64 and got.tolist() == want, (d, p, seed)


def test_random_polys_equal_one_draw_per_polynomial():
    """A run of m polynomials draws its k·m coefficients at once: the
    stack must equal m polynomials drawn one after another, coefficient
    by coefficient with ``randrange`` and summed on Python ints, and leave
    the stream where they leave it, in int64 and in float64 alike."""
    p53, past53 = _float_bound_primes(4)
    cases = [(1, _UNDER_D1_BOUND[0]), (2, 5), (3, past53), (4, 101), (16, 101), (16, past53), (32, 100003), (32, p53)]
    for d, p in cases:
        rng = random.Random(d)
        base = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        powers = modmat.powers(base, 4, p)
        flat = [m.ravel().tolist() for m in powers]
        for m in (1, 2, 5):
            mine, theirs = random.Random(m), random.Random(m)
            got = modmat.polynomials(draw(mine, 4 * m, p), powers, p)
            want = []
            for _ in range(m):
                c = [theirs.randrange(p) for _ in range(4)]
                want.append([sum(ci * f[e] for ci, f in zip(c, flat)) % p for e in range(d * d)])
            assert got.shape == (m, d, d) and got.dtype == np.int64, (d, p, m)
            assert got.reshape(m, d * d).tolist() == want, (d, p, m)
            assert mine.getstate() == theirs.getstate(), (d, p, m)


def test_diagonal_inverse_is_read_off_the_entries():
    """A diagonal matrix is inverted entry by entry; one zero on the
    diagonal makes it singular."""
    rng = random.Random(29)
    for d in (1, 2, 4, 32):
        for p in (2, 101, sympy.prevprime(math.isqrt((2**63 - 1) // d) + 2)):
            entries = [rng.randrange(1, p) for _ in range(d)]
            a = np.diag(np.array(entries, dtype=np.int64))
            inv = modmat.inverse(a, p)
            assert inv.dtype == np.int64 and inv.tolist() == np.diag([pow(x, -1, p) for x in entries]).tolist()
            assert py_mul(a.tolist(), inv.tolist(), p) == np.eye(d, dtype=int).tolist()
            entries[rng.randrange(d)] = 0
            a = np.diag(np.array(entries, dtype=np.int64))
            assert py_inverse(a.tolist(), p) is None
            with pytest.raises(InputError, match="^matrix is singular mod %d$" % p):
                modmat.inverse(a, p)


# --- backends ---------------------------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_token_text_aliases_inverse_words():
    w = parse_word("abA")
    assert token_text(CellToken(w), alias=True) == token_text(CellToken(invert(w)), alias=True)
    assert token_text(SpElToken("bag", w, 0), alias=True) == token_text(SpElToken("bag", invert(w), 3), alias=True)
    assert token_text(SphereToken(), alias=True) == SPHERE_LABEL
    assert token_text(CommutatorToken(w, 0), alias=True) == token_text(CommutatorToken(w, 1), alias=True)
    # a broken backend drops the aliasing
    assert token_text(CellToken(w)) != token_text(CellToken(invert(w)))


def test_make_backend_is_deterministic_and_checked():
    inst = build_instance(0)
    labels = _labels_for(inst)
    b1 = make_backend(labels, seed=42)
    b2 = make_backend(labels, seed=42)
    assert dump_backend(b1) == dump_backend(b2)
    assert b1.p == 101 and b1.dim == 4
    assert dump_backend(make_backend(labels, seed=43)) != dump_backend(b1)
    # every assigned matrix is invertible and they all commute pairwise
    mats = list(b1.assignment.values())
    for i, a in enumerate(mats):
        modmat.inverse(a, b1.p)
        for c in mats[i + 1 :]:
            assert modmat.equal(modmat.mul(a, c, b1.p), modmat.mul(c, a, b1.p), b1.p)


def test_make_backend_families_and_validation():
    inst = build_instance(1)
    labels = _labels_for(inst)
    for family in (DIAGONAL, POLY_IN_M):
        make_backend(labels, seed=7, family=family)
    with pytest.raises(InputError):
        make_backend(labels, p=100)
    with pytest.raises(InputError):
        make_backend(labels, d=0)
    with pytest.raises(InputError):
        make_backend(labels, family="hilbert")


_CELLS = tuple("cell:%d" % i for i in range(14))

# sha256 of dump_backend(make_backend(labels, p=101, d=d, seed=seed,
# family=family)), recorded from the draw-and-invert loop that redrew a
# label as soon as its draw was singular, with no label pinned to the
# identity (the False column).
_PINNED_BACKENDS = (
    # d, seed, family, False, labels, one draw is singular
    # seeds 86 and 712 draw a singular base first
    (4, 86, POLY_IN_M, False, _CELLS, True, "6e3c38b266142cca9507cc12cc59b17ea28089b6264ccf9759e334e9c9f339d3"),
    (4, 712, POLY_IN_M, False, _CELLS, True, "ba22afb3af6a9d3e7e37f7f0e64584d2356593b9d9616ca0e8b4754b0aa3f0e2"),
    (32, 0, POLY_IN_M, False, _CELLS, True, "40ad3a6dd882478d15167ea5ffec59c18fffdbabaccada2e15cfd0eaf6ae0d69"),
    (32, 21, POLY_IN_M, False, _CELLS, True, "91a319a74c7cc8e918891464c875a4d35426041708925d8d68936eed45e9dc2f"),
    (4, 2, POLY_IN_M, False, _CELLS, True, "8e76a5b36e84a0cd58a9bace3a5b322c8f9852da5a195824cddf3d81608cad74"),
    (4, 4, POLY_IN_M, False, _CELLS, True, "65cd3fbd259416c7cb76f051e3c1664b863b7c75a74525616129eb334e29be45"),
    (32, 1, POLY_IN_M, False, _CELLS, False, "2d3edef54f3d8a5a02b3ce834cab6ffede9caffe5edb1205afe0468e3a365497"),
    (4, 0, POLY_IN_M, False, _CELLS, False, "9b39ac1182189ec6f26f527211f07153a7fbd176ae959ed342e7e26080b53f63"),
    (4, 3, DIAGONAL, False, _CELLS, False, "9fb8bbf3cf65c34401d4eb49992666fa3deaf1e228998eda73d662108f455195"),
    # A:5 sorts before S2 and is redrawn, so the sphere's draw is replayed too
    (
        4,
        9,
        POLY_IN_M,
        False,
        tuple("A:%d" % i for i in range(7)) + _CELLS[:7],
        True,
        "8e85afc9e57e5944a6e23ac3b682edf2c7ea6ea901c1ff7e1c0d0e006e4bd2ab",
    ),
)


def test_drawn_backends_replay_every_redraw():
    """A singular draw is redrawn from the random stream right after it,
    so drawn backends stay the same however the draws are inverted."""
    import hashlib

    for d, seed, family, _, labels, _, digest in _PINNED_BACKENDS:
        b = make_backend(labels, p=101, d=d, seed=seed, family=family)
        assert hashlib.sha256(dump_backend(b).encode()).hexdigest() == digest, (d, seed, family)
    # the pins cover redraws: each flagged draw has a singular base or a
    # singular polynomial among the matrices drawn from its seed
    for d, seed, family, _, labels, redraws, _ in _PINNED_BACKENDS:
        rng = random.Random(seed)
        if family != POLY_IN_M:
            continue
        singular = False
        while True:
            base = np.array([[rng.randrange(101) for _ in range(d)] for _ in range(d)], dtype=np.int64)
            if py_inverse(base.tolist(), 101) is not None:
                break
            singular = True
        for lab in sorted(set(labels) | {SPHERE_LABEL}):
            if lab == SPHERE_LABEL:
                rng.randrange(2, 101)
            else:
                coeffs = [rng.randrange(101) for _ in range(4)]
                m = sum(c * matpow(base, e, 101) for e, c in enumerate(coeffs)) % 101
                singular = singular or py_inverse(m.tolist(), 101) is None
                if singular:
                    break
        assert singular == redraws, (d, seed)


def test_the_64_draw_limit_holds_per_label():
    """Over GF(5) about half of the 2×2 draws are singular: 200 labels
    redraw about a hundred times in all, but no label 64 times."""
    import hashlib

    b = make_backend(["cell:%d" % i for i in range(200)], p=5, d=2, seed=1, family=POLY_IN_M)
    digest = hashlib.sha256(dump_backend(b).encode()).hexdigest()
    assert digest == "66291099a7d3f13c82dec0bbaa32b979ddb8c3b6f9cbefa7d4031ad6e802b18c"
    _assert_invertible(b)


def test_a_failed_batch_bisects_for_its_first_singular_draw(monkeypatch):
    """A batch with a singular draw finds the first one from its prefix
    products, so no draw is inverted on its own.  Over GF(5), where about a third of
    the 2×2 polynomials are singular, inverting each draw up to the
    singular one ran 410 Gauss-Jordans for 200 labels; a d = 32 backend
    with one singular draw ran 11."""
    calls = []
    real = modmat._invert
    monkeypatch.setattr(modmat, "_invert", lambda a, p: calls.append(1) or real(a, p))
    make_backend(["cell:%d" % i for i in range(200)], p=5, d=2, seed=1, family=POLY_IN_M)
    assert len(calls) < 410
    calls.clear()
    make_backend(_CELLS, p=101, d=32, seed=0, family=POLY_IN_M)
    assert len(calls) <= 6


def test_a_failed_batch_replays_only_its_draws(monkeypatch):
    """A failed batch draws again up to its singular draw only to move the
    stream on, so it forms no matrix from those values.  The pinned d = 32
    backend of seed 0 has one singular polynomial: its base's powers are
    formed once, and its polynomial stack once per batch.  Replaying the
    matrices formed them twice and three times."""
    import hashlib

    counts = {"powers": 0, "polynomials": 0}

    def counted(name):
        real = getattr(modmat, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in counts:
        monkeypatch.setattr(modmat, name, counted(name))
    ((d, seed, family, _, labels, redraws, digest),) = [pin for pin in _PINNED_BACKENDS if pin[:3] == (32, 0, POLY_IN_M)]
    b = make_backend(labels, p=101, d=d, seed=seed, family=family)
    assert redraws and hashlib.sha256(dump_backend(b).encode()).hexdigest() == digest
    assert counts == {"powers": 1, "polynomials": 2}


def test_first_singular_reduces_only_the_matrices_its_prefixes_reach(monkeypatch):
    """Each matrix of a batch is reduced and shape-checked when a prefix
    first reaches it, so a short ``probe`` reduces a short prefix.  Over
    GF(5), where batches fail often, reducing every matrix of each batch
    up front made 30,384 reductions in three 200-label builds, for about
    632 products per build.  A tried prefix is reduced as it is formed, so
    the elimination does not reduce it again: the reductions are exactly
    the matrices reached."""
    import hashlib

    counts = {"_as_mod": 0, "mul": 0}
    batches = []
    real = {name: getattr(modmat, name) for name in ("_as_mod", "mul", "first_singular")}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return real[name](*args)

        return call

    def first_singular(mats, p, probe=None):
        mats = list(mats)
        before = dict(counts)
        at = real["first_singular"](mats, p, probe)
        # the first matrix is reached without a product, each later one by one
        reached = counts["mul"] - before["mul"] + (1 if mats else 0)
        reductions = counts["_as_mod"] - before["_as_mod"]
        batches.append((len(mats), reached, reductions))
        return at

    for name in ("_as_mod", "mul"):
        monkeypatch.setattr(modmat, name, counted(name))
    monkeypatch.setattr(modmat, "first_singular", first_singular)
    b = make_backend(["cell:%d" % i for i in range(200)], p=5, d=2, seed=1, family=POLY_IN_M)
    assert hashlib.sha256(dump_backend(b).encode()).hexdigest() == (
        "66291099a7d3f13c82dec0bbaa32b979ddb8c3b6f9cbefa7d4031ad6e802b18c"
    )
    assert len(batches) > 50
    assert all(reductions == reached for _, reached, reductions in batches), batches


def _assert_invertible(b):
    for lab, m in b.assignment.items():
        assert py_inverse(m.tolist(), b.p) is not None, lab


def test_redrawn_backends_are_invertible_and_commute():
    """A drawn backend is valid by construction and is not checked when
    drawn: the proof that its matrices commute and that its sphere is a
    non-identity scalar is made here."""
    small = [(d, seed, family, _CELLS) for d in (1, 2) for seed in (0, 1) for family in (DIAGONAL, POLY_IN_M)]
    for d, seed, family, labels in [pin[:3] + pin[4:5] for pin in _PINNED_BACKENDS] + small:
        b = make_backend(labels, p=101, d=d, seed=seed, family=family)
        _assert_invertible(b)
        mats = [b.assignment[lab] for lab in sorted(b.assignment)]
        for i, a in enumerate(mats):
            for c in mats[i + 1 :]:
                assert py_mul(a.tolist(), c.tolist(), 101) == py_mul(c.tolist(), a.tolist(), 101)
        sphere = b.assignment[SPHERE_LABEL]
        s = int(sphere[0, 0])
        assert np.array_equal(sphere, s * np.eye(d, dtype=np.int64)) and 2 <= s < b.p, (d, seed, family)


def test_poly_draw_gives_up_after_64_singular_draws(monkeypatch):
    """Stub the random stream to give zero coefficients, so every
    polynomial is the zero matrix: the label is drawn 64 times, then the
    draw fails.  The stub's state is the count of its draws, so a
    restored state gives the same draws again."""
    draws = []

    class ZeroCoefficients(random.Random):
        def seed(self, a=None, version=2):
            self.made = 0

        def getstate(self):
            return self.made

        def setstate(self, made):
            self.made = made

        def getrandbits(self, k):
            draws.append(k)
            self.made += 1
            # the base matrix is the identity, the sphere's scalar 2 and every coefficient 0
            return (1, 0, 0, 1)[self.made - 1] if self.made <= 4 else 0

    monkeypatch.setattr(pg.random, "Random", ZeroCoefficients)
    with pytest.raises(InputError, match="^could not draw an invertible polynomial$"):
        make_backend(["cell:a"], p=101, d=2, seed=0, family=POLY_IN_M)
    # The base's four entries, S2's scalar (S2 sorts before cell:a; 101
    # and the sphere's span 99 both take 7 bits) and cell:a's four
    # coefficients, then the same nine again to pass the singular draw.
    # Then cell:a is drawn 63 times more, each failure but the last drawn
    # again.
    assert draws == [7] * (2 * (4 + 1 + 4) + (63 + 62) * 4)


def test_base_draw_gives_up_after_64_singular_draws(monkeypatch):
    """A stream of zeros draws the zero base matrix each time: the base
    is redrawn, with every label after it, 64 times, then the draw
    fails.  Before each redraw the stream restarts where the failed batch
    started and draws the singular base again, to pass it."""
    draws = []

    class Zeros(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return 0

    monkeypatch.setattr(pg.random, "Random", Zeros)
    with pytest.raises(InputError, match="^could not draw an invertible base matrix$"):
        make_backend(["cell:a"], p=101, d=2, seed=0, family=POLY_IN_M)
    assert len(draws) == 64 * (4 + 1 + 4) + 63 * 4  # the base, S2's scalar, cell:a's coefficients


def test_make_backend_scalar_dimension():
    inst = build_instance(2)
    b = make_backend(_labels_for(inst), seed=3, d=1)
    assert b.dim == 1
    for a in b.assignment.values():
        assert a.shape == (1, 1) and int(a[0, 0]) % b.p != 0


def test_dimension_is_bounded_by_max_dim():
    # d·(p-1)² < 2^63 alone lets p = 2 through with any d, and the identity
    # matrix of a backend with d = 10^6 would take 8 TB
    pg._check_field(101, 256)
    for d in (257, 10**6):
        with pytest.raises(InputError, match="dimension must be at most 256, got %d" % d):
            pg._check_field(2, d)
    with pytest.raises(InputError, match="^line 1: dimension must be at most 256, got 1000000$"):
        load_backend("p 2 d 1000000\n")
    assert pg.MAX_DIM == 256


def test_backend_sphere_is_nonidentity_scalar():
    inst, b = _backend(4)
    s = b.assignment[SPHERE_LABEL]
    assert modmat.equal(s, int(s[0, 0]) * modmat.identity(b.dim) % b.p, b.p)
    assert 2 <= int(s[0, 0]) < b.p


def test_backend_value_unassigned_label():
    inst, b = _backend(5)
    assert "cell:Z" not in b.assignment
    with pytest.raises(InputError, match="^token cell:Z has no assigned matrix$"):
        b.value(CellToken(Word((26,))))


def test_spel_identity_backend():
    inst = build_instance(6)
    b = identity_spels(make_backend(_labels_for(inst), seed=6))
    aseq = build_abstract(inst, LONGITUDINAL)
    assert modmat.is_identity(spel_product(aseq, b), b.p)


def test_dump_load_round_trip():
    inst, b = _backend(7)
    text = dump_backend(b)
    assert text.splitlines()[0] == "p 101 d 4"
    b2 = load_backend(text)
    assert b2.p == b.p and b2.dim == b.dim
    assert set(b2.assignment) == set(b.assignment)
    for k in b.assignment:
        assert modmat.equal(b.assignment[k], b2.assignment[k], b.p)
    with pytest.raises(InputError):
        load_backend("q 101 d 4\n")
    with pytest.raises(InputError):
        load_backend("p 12 d 2\ntok S2 1 0 0 1\n")


def test_load_backend_errors_name_the_line():
    for text, lineno in (
        ("# dump\np 101 d 1\ntok S2 x\n", 3),
        ("p 101 d x\n", 1),
        ("p 101 d -1\ntok S2 1\n", 1),
        ("p 101 d 1\ntok S2 2\ntok cell:a 1 2\n", 3),
        ("\n\n", 1),
    ):
        with pytest.raises(InputError, match="^line %d: " % lineno):
            load_backend(text)
    with pytest.raises(InputError, match="S2"):
        load_backend("p 101 d 1\ntok cell:a 3\n")


def test_load_backend_rejects_a_duplicate_token_label():
    """A repeated ``tok`` label used to keep its last matrix silently."""
    text = "p 101 d 1\ntok S2 2\ntok cell:a 3\n# again\ntok cell:a 5\n"
    with pytest.raises(InputError, match="^line 5: duplicate token label cell:a$"):
        load_backend(text)


def test_backend_is_checked_when_built():
    p, i = 5, modmat.identity(2)
    s2 = 2 * i
    cases = (
        ({SPHERE_LABEL: s2, "cell:a": 0 * i}, "^matrix is singular mod 5$"),
        (
            {SPHERE_LABEL: s2, "cell:a": np.array([[1, 1], [0, 1]]), "cell:b": np.array([[1, 0], [1, 1]])},
            "^assigned matrices do not commute$",
        ),
        ({SPHERE_LABEL: 0 * i, "cell:a": i}, "^matrix is singular mod 5$"),
    )
    for assignment, message in cases:
        with pytest.raises(InputError, match=message):
            check_assignment(p, 2, assignment)
        text = "p 5 d 2\n" + "".join(
            "tok %s %s\n" % (lab, " ".join(str(int(x)) for x in m.ravel())) for lab, m in assignment.items()
        )
        with pytest.raises(InputError, match=message):
            load_backend(text)
    with pytest.raises(InputError, match="p must be prime"):
        check_assignment(4, 2, {SPHERE_LABEL: i})
    with pytest.raises(InputError, match="no S2"):
        check_assignment(5, 2, {"cell:a": i})


def test_commutation_is_proved_unless_every_matrix_is_diagonal(monkeypatch):
    calls, compared = [], []
    real_mul, real_equal = modmat.mul, modmat.equal
    monkeypatch.setattr(modmat, "mul", lambda a, b, p: calls.append(1) or real_mul(a, b, p))
    monkeypatch.setattr(modmat, "equal", lambda a, b, p: compared.append(1) or real_equal(a, b, p))
    p, i = 5, modmat.identity(2)
    # proving k matrices invertible in one batch takes their k-1 prefix products
    batch = 3 - 1
    diagonal = {SPHERE_LABEL: 2 * i, "cell:a": np.diag([1, 2]), "cell:b": np.diag([3, 4])}
    check_assignment(p, 2, diagonal)
    assert len(calls) == batch  # diagonal matrices commute: no pairwise products
    assert compared == []
    # one non-diagonal matrix among diagonal ones brings the proof back
    calls.clear()
    with pytest.raises(InputError, match="^assigned matrices do not commute$"):
        check_assignment(p, 2, dict(diagonal, **{"cell:c": np.array([[1, 1], [0, 1]])}))
    assert len(calls) > 4 - 1 and compared
    calls.clear()
    commuting = {SPHERE_LABEL: 2 * i, "cell:a": np.array([[1, 1], [0, 1]]), "cell:b": np.array([[1, 2], [0, 1]])}
    check_assignment(p, 2, commuting)
    assert len(calls) == batch + 2 * 3  # and both orders of each of the three pairs
    # a drawn backend commutes by construction and forms no pairwise
    # product: three for the powers M, M², M³ and the prefix products of
    # the batch of the base and 14 cells
    for d, seed in ((4, 0), (32, 1)):
        calls.clear()
        compared.clear()
        make_backend(_CELLS, d=d, seed=seed, family=POLY_IN_M)
        assert len(calls) == 3 + (15 - 1)
        assert compared == []


def test_backend_formats_each_token_label_once(monkeypatch):
    inst = build_instance(4)
    b = make_backend(_labels_for(inst), seed=4)
    aseq = build_abstract(inst, LONGITUDINAL)
    expected = perturbed_invariant(aseq, b)
    labelled = []
    real = pg.token_text
    monkeypatch.setattr(pg, "token_text", lambda t, alias=False: labelled.append(t) or real(t, alias))
    for _ in range(3):
        assert modmat.equal(perturbed_invariant(aseq, b), expected, b.p)
    assert labelled == []  # every token was resolved by the first call
    fresh = make_backend(_labels_for(inst), seed=4)
    labelled.clear()
    assert modmat.equal(perturbed_invariant(aseq, fresh), expected, fresh.p)
    assert sorted(map(repr, labelled)) == sorted(map(repr, {t for sl in aseq.slices for t in sl.tokens}))
    # a whole command labels each distinct token once: the labels that drew
    # the backend are the ones its lookups read
    from smovelab import cli

    labelled.clear()
    assert cli.main(["inv", "playground", "--seed", "4", "--type", "long", "--obstruction"]) == 3  # Obstructed
    seqs = (build_abstract(inst, LONGITUDINAL), build_abstract(inst, MERIDIAN))
    tokens = {t for seq in seqs for sl in seq.slices for t in sl.tokens} | {SphereToken(), CellToken(Word())}
    assert sorted(map(repr, labelled)) == sorted(map(repr, tokens))


def test_a_backend_runs_one_gauss_jordan_for_all_its_inverses(monkeypatch):
    """Drawn without a singular draw, a poly backend proves its base and
    its polynomials invertible in one batch, with one Gauss-Jordan; a
    diagonal backend has nonzero entries and runs none.  A loaded backend
    runs one for all its matrices."""
    labels = _labels_for(build_instance(5))
    calls = []
    real = modmat._invert
    monkeypatch.setattr(modmat, "_invert", lambda a, p: calls.append(1) or real(a, p))
    for kw, gauss_jordans in (
        (dict(family=DIAGONAL), 0),
        (dict(family=POLY_IN_M), 1),
        (dict(family=POLY_IN_M, d=32), 1),
    ):
        calls.clear()
        b = make_backend(labels, seed=1, **kw)
        assert len(calls) == gauss_jordans, kw
        calls.clear()
        load_backend(dump_backend(b))
        assert len(calls) == 1, kw


def test_invariants_run_no_gauss_jordan(monkeypatch):
    """The invariants, a gauged sequence's among them, and the
    stabilization demo invert nothing; an obstruction inverts one matrix,
    its own spherical-element product."""
    inst = build_instance(6)
    b = make_backend(_labels_for(inst), d=5, seed=6, family=POLY_IN_M)
    calls = []
    real = modmat._invert
    monkeypatch.setattr(modmat, "_invert", lambda a, p: calls.append(a) or real(a, p))
    invariants, obstructed = [], 0
    for t in (LONGITUDINAL, MERIDIAN):
        aseq = build_abstract(inst, t)
        invariants.append(perturbed_invariant(aseq, b))
        perturbed_invariant(gauged_sequence(inst, t), b)
        assert calls == []
        rep = between_type_obstruction(aseq, build_abstract(inst, other_type(t)), b)
        if rep.verdict == "Obstructed":
            obstructed += 1
            (inverted,) = calls
            assert np.array_equal(inverted, spel_product(aseq, b))
        else:
            assert calls == []
        calls.clear()
    stabilization_demo(b, 2, *invariants)
    assert calls == [] and obstructed == 2


def test_load_backend_rejects_noncommuting_or_singular():
    head = "p 5 d 2\n"
    singular = head + "tok S2 2 0 0 2\ntok cell:a 0 0 0 0\n"
    with pytest.raises(InputError):
        load_backend(singular)
    noncomm = head + "tok S2 2 0 0 2\ntok cell:a 1 1 0 1\ntok cell:b 1 0 1 1\n"
    with pytest.raises(InputError):
        load_backend(noncomm)


# --- state modules and invariants -------------------------------------------


def test_state_modules_of_the_empty_and_sphere_slices():
    inst, b = _backend(8)
    endos = state_modules(build_abstract(inst, LONGITUDINAL), b).endos
    assert modmat.is_identity(endos[0], b.p)
    assert modmat.equal(endos[1], matpow(b.assignment[SPHERE_LABEL], 2, b.p), b.p)


def test_state_modules_and_telescoping():
    for seed in range(10):
        inst = build_instance(seed)
        b = make_backend(_labels_for(inst), seed=seed)
        for t in (LONGITUDINAL, MERIDIAN):
            aseq = build_abstract(inst, t)
            sm = state_modules(aseq, b)
            maps = transitions(sm)
            assert len(maps) == len(sm.endos) - 1 == 7
            # each transition carries one module onto the next
            for k, f in enumerate(maps):
                assert modmat.equal(
                    modmat.mul(f, sm.endos[k], b.p), sm.endos[k + 1], b.p
                )
            # unperturbed composite telescopes to the identity
            assert modmat.is_identity(compose(maps, b.p, b.dim), b.p)
            # and the perturbed one to the closed form
            assert modmat.equal(perturbed_invariant(aseq, b), composed_invariant(aseq, b), b.p)


def test_perturbed_invariant_equals_spel_product():
    """Oracle: the matrices of the spherical elements at the perturbation,
    looked up by label in ``b.assignment`` and multiplied in Python ints."""
    for seed in range(8):
        inst = build_instance(seed)
        b = make_backend(_labels_for(inst), seed=seed + 100)
        for t in (LONGITUDINAL, MERIDIAN):
            aseq = build_abstract(inst, t)
            spels = [tok for tok in aseq.slices[aseq.perturbation_index].tokens if isinstance(tok, SpElToken)]
            assert len(spels) == 2 * len(inst.factors)
            want = np.identity(b.dim, dtype=object)
            for tok in spels:
                want = want.dot(b.assignment[token_text(tok, True)].astype(object)) % b.p
            got = perturbed_invariant(aseq, b)
            assert got.dtype == np.int64 and (got.astype(object) == want).all()
    # identity-spel control collapses the perturbation
    inst = build_instance(3)
    b = identity_spels(make_backend(_labels_for(inst), seed=1))
    assert modmat.is_identity(perturbed_invariant(build_abstract(inst, MERIDIAN), b), b.p)


def test_products_do_not_depend_on_the_token_order():
    """Tokens are multiplied in the order a slice lists them: every
    backend commutes, a drawn one by construction and a loaded one as
    ``check_assignment`` proves, and products mod p are exact.  Judged
    against the spherical elements multiplied in shuffled orders, in
    Python ints, on a diagonal, a d = 32 poly and a loaded backend."""
    rng = random.Random(24)
    for seed in range(4):
        inst = build_instance(seed, n_factors=3)
        seqs = [build_abstract(inst, t) for t in (LONGITUDINAL, MERIDIAN)]
        labels = backend_labels(*seqs)
        backends = (
            make_backend(labels, d=4, seed=seed),
            make_backend(labels, d=32, seed=seed, family=POLY_IN_M),
            load_backend(dump_backend(make_backend(labels, d=3, seed=seed, family=POLY_IN_M))),
        )
        for b in backends:
            for aseq in seqs:
                spels = [tok for tok in aseq.slices[aseq.perturbation_index].tokens if isinstance(tok, SpElToken)]
                got = spel_product(aseq, b)
                assert modmat.equal(perturbed_invariant(aseq, b), got, b.p)
                for _ in range(3):
                    rng.shuffle(spels)
                    want = np.identity(b.dim, dtype=object)
                    for tok in spels:
                        want = want.dot(b.value(tok).astype(object)) % b.p
                    assert (got.astype(object) == want).all(), (seed, b.dim)


def test_invariants_read_off_the_spherical_elements_alone(monkeypatch):
    """Over n factors the perturbation slice holds 2n spherical elements:
    the invariant is their product, at most 2n - 1 matrix products, and
    the obstruction adds the commutators and the inverse spherical
    elements, 5n - 1 in all, whatever the sequence's other slices hold."""
    calls = []
    real = modmat.mul
    monkeypatch.setattr(modmat, "mul", lambda a, b, p: calls.append(1) or real(a, b, p))
    for n in range(6):
        inst = build_instance(n, n_factors=n)
        for family in (DIAGONAL, POLY_IN_M):
            for spel in (False, True):
                b = make_backend(_labels_for(inst), seed=n, family=family)
                b = identity_spels(b) if spel else b
                for t in (LONGITUDINAL, MERIDIAN):
                    own, other = build_abstract(inst, t), build_abstract(inst, other_type(t))
                    calls.clear()
                    perturbed_invariant(own, b)
                    assert len(calls) <= max(2 * n - 1, 0), (n, family, spel, t)
                    calls.clear()
                    rep = between_type_obstruction(own, other, b)
                    bound = 5 * n - 1 if rep.verdict == "Obstructed" else max(2 * n - 1, 0)
                    assert len(calls) <= bound, (n, family, spel, t)


def test_identification_types_usually_differ():
    # the invariant must be able to separate the two types
    separated = 0
    for seed in range(10):
        inst = build_instance(seed)
        b = make_backend(_labels_for(inst), seed=seed)
        lon = perturbed_invariant(build_abstract(inst, LONGITUDINAL), b)
        mer = perturbed_invariant(build_abstract(inst, MERIDIAN), b)
        if not modmat.equal(lon, mer, b.p):
            separated += 1
    assert separated >= 8


@pytest.mark.parametrize(
    "qmove",
    [
        InvertRelator("R"),
        InvertRelator("S"),
        ConjugateRelator("R", 2),
        ConjugateRelator("S", -1),
        MultiplyRight("R", "x1"),
        MultiplyRight("S", "y1"),
    ],
)
def test_inside_invariance_all_qmove_kinds(qmove):
    """``inv playground --qmove`` prints Pass from this fact: the rider's
    factors expand as before, so its spherical elements at the
    perturbation are its base's."""
    for seed in (0, 5, 11):
        inst = build_instance(seed)
        for t in (LONGITUDINAL, MERIDIAN):
            base, rider = build_abstract(inst, t), qmove_rider(inst, qmove, t)
            labels = backend_labels(base, rider)
            b = make_backend(labels, seed=seed)
            assert _same_invariant(rider, base, b), (seed, t)
            spels = [[x for x in seq.slices[3].tokens if isinstance(x, SpElToken)] for seq in (base, rider)]
            assert spels[0] == spels[1], (seed, t)


def test_analyses_check_the_sequences_they_are_handed():
    inst, b = _backend(4)
    lon, mer = build_abstract(inst, LONGITUDINAL), build_abstract(inst, MERIDIAN)
    rider = qmove_rider(inst, InvertRelator("R"), LONGITUDINAL)
    assert rider.residual == transport_qmove(inst, InvertRelator("R")).residual
    assert lon.residual is None
    with pytest.raises(InputError, match="different identification types"):
        between_type_obstruction(lon, lon, b)
    assert between_type_obstruction(mer, lon, b).verdict in ("Pass", "Obstructed")


def test_gauge_equality_and_negative_control(monkeypatch):
    inst = build_instance(9)
    b = make_backend(_labels_for(inst), seed=9)
    assert _same_invariant(*_readings(inst, LONGITUDINAL), b)
    assert _same_invariant(*_readings(inst, MERIDIAN), b)
    # broken backend: no inverse aliasing, so Z(V) != Z(V^-1) in general
    monkeypatch.setattr(pg, "token_text", _unaliased)
    broken = make_backend(_labels_for(inst), seed=9)
    assert not _same_invariant(*_readings(inst, LONGITUDINAL), broken)


def test_gauge_trivial_for_empty_decomposition():
    inst = build_instance(1, n_factors=0)
    b = make_backend(_labels_for(inst), seed=2)
    assert _same_invariant(*_readings(inst, LONGITUDINAL), b)


def test_a_gauged_sequence_has_its_own_sequences_labels_and_invariant(monkeypatch):
    """``test three-tests`` prints both gauge lines from I_gauge(X) = I(X):
    every backend the CLI makes, drawn or loaded, aliases a word with its
    inverse, so a gauged sequence carries its own sequence's labels and
    has its invariant.  A backend that keys raw words fails the gauge.
    ``inv playground --gauge`` prints its verdict from the same fact."""
    rng = random.Random(31)
    broken_fails = 0
    for seed in range(60):
        inst = build_instance(seed, n_factors=1 + seed % 4)
        for t in (LONGITUDINAL, MERIDIAN):
            own, gauged = _readings(inst, t)
            labels = backend_labels(own)
            assert backend_labels(own, gauged) == labels
            diagonals = {lab: random_invertible_diagonal(rng, 3, 101) for lab in labels + [SPHERE_LABEL]}
            for b in (
                make_backend(labels, d=3, seed=seed),
                make_backend(labels, d=3, seed=seed, family=POLY_IN_M),
                load_backend(dump_backend(Backend(101, 3, diagonals))),
            ):
                assert modmat.equal(perturbed_invariant(gauged, b), perturbed_invariant(own, b), b.p), (seed, t)
            with monkeypatch.context() as m:
                m.setattr(pg, "token_text", _unaliased)
                broken = make_backend(backend_labels(own, gauged), d=3, seed=seed)
                broken_fails += not _same_invariant(own, gauged, broken)
    assert broken_fails == 120


def test_the_permutation_sum_of_commuting_matrices_is_n_factorial_copies():
    """``--combine permsum`` sums the product of a side's invariants over
    every ordering; they are products of one backend's matrices, which
    commute, so the sum is n!·(their product) mod p.  Judged against the
    brute sum over the orderings, up to 8 factors (7 for diagonal ones)."""
    inst = build_instance(5, n_factors=4)
    p, d = 101, 2
    for family, most in ((DIAGONAL, 7), (POLY_IN_M, 8)):
        ms = list(make_backend(_labels_for(inst), p=p, d=d, seed=5, family=family).assignment.values())
        mats = [modmat.mul(ms[i], ms[-1 - i], p) for i in range(most)]
        for n in range(most + 1):
            want = math.factorial(n) % p * modmat.product(mats[:n], p, d) % p
            assert modmat.equal(ordering_sum(mats[:n], p, d), want, p), (family, n)


def test_between_type_obstruction_iff_spel_product_nontrivial():
    for seed in range(6):
        inst = build_instance(seed)
        b = make_backend(_labels_for(inst), seed=seed + 50)
        aseq = build_abstract(inst, LONGITUDINAL)
        other = build_abstract(inst, other_type(LONGITUDINAL))
        rep = between_type_obstruction(aseq, other, b)
        forced = spel_product(other, b)
        if modmat.is_identity(forced, b.p):
            assert rep.verdict == "Pass"
        else:
            assert rep.verdict == "Obstructed"
            assert "F'2 = F2" in rep.witness
    # identity controls must pass
    inst = build_instance(2)
    b = identity_spels(make_backend(_labels_for(inst), seed=1))
    lon, mer = build_abstract(inst, LONGITUDINAL), build_abstract(inst, MERIDIAN)
    assert between_type_obstruction(lon, mer, b).verdict == "Pass"


def test_obstruction_witness_is_the_thread_chain_map():
    """F2 is the transition a3·a2⁻¹ between the levels z·E_own·cells and
    z·comm·cells of the joined picture, here multiplied out in slice order
    and inverted by Gauss-Jordan."""
    obstructed = 0
    for seed in range(6):
        inst = build_instance(seed)
        for family in (DIAGONAL, POLY_IN_M):
            b = make_backend(_labels_for(inst), seed=seed + 50, family=family)
            for t in (LONGITUDINAL, MERIDIAN):
                own, other = build_abstract(inst, t), build_abstract(inst, other_type(t))
                rep = between_type_obstruction(own, other, b)
                if rep.verdict != "Obstructed":
                    continue
                obstructed += 1
                k = own.perturbation_index
                z = b.value(CellToken(Word()))
                cells = [b.value(x) for x in own.slices[k].tokens if isinstance(x, CellToken)]
                comms = [b.value(x) for x in own.slices[k + 1].tokens if isinstance(x, CommutatorToken)]
                a2 = modmat.product([z, spel_product(own, b)] + cells, b.p, b.dim)
                a3 = modmat.product([z] + comms + cells, b.p, b.dim)
                f2 = modmat.mul(a3, modmat.inverse(a2, b.p), b.p)
                forced = modmat.mul(f2, spel_product(other, b), b.p)
                assert rep.witness == "forced F'2 = F2: %s != %s" % (modmat.to_text(forced), modmat.to_text(f2))
    assert obstructed >= 20


def test_global_combine_modes():
    p, d = 101, 3
    rng = random.Random(13)
    mats = [random_invertible_diagonal(rng, d, p) for _ in range(4)]
    prod = global_combine(mats, PRODUCT, p, d)
    assert modmat.equal(prod, modmat.product(mats, p, d), p)
    assert modmat.is_identity(global_combine([], PRODUCT, p, d), p)
    # appending a unit local invariant changes nothing
    assert modmat.equal(global_combine(mats + [modmat.identity(d)], PRODUCT, p, d), prod, p)
    # for commuting matrices the permutation sum collapses to n! copies,
    # with no limit on the factor count
    psum = global_combine(mats, PERMUTATION_SUM, p, d)
    assert modmat.equal(psum, math.factorial(len(mats)) * prod % p, p)
    diag = [random_invertible_diagonal(rng, d, p) for _ in range(10)]
    for n in range(11):
        want = math.factorial(n) * modmat.product(diag[:n], p, d) % p
        assert modmat.equal(global_combine(diag[:n], PERMUTATION_SUM, p, d), want, p)
    seven = global_combine([modmat.identity(2)] * 7, PERMUTATION_SUM, p, 2)
    assert modmat.equal(seven, 5040 % p * modmat.identity(2), p)
    # it is the sum over every ordering, multiplied out by brute force, on
    # commuting matrices that are not diagonal: polynomials in one matrix
    base = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    square = py_mul(base, base, p)
    full = []
    for _ in range(6):
        c0, c1, c2 = (rng.randrange(p) for _ in range(3))
        full.append([[(c0 * (i == j) + c1 * base[i][j] + c2 * square[i][j]) % p for j in range(d)] for i in range(d)])
    assert any(full[0][i][j] for i in range(d) for j in range(d) if i != j)
    assert py_mul(full[0], full[1], p) == py_mul(full[1], full[0], p)
    for n in range(7):
        brute = [[0] * d for _ in range(d)]
        for order in itertools.permutations(full[:n]):
            term = [[int(i == j) for j in range(d)] for i in range(d)]
            for m in order:
                term = py_mul(term, m, p)
            brute = [[(x + y) % p for x, y in zip(u, v)] for u, v in zip(brute, term)]
        got = global_combine([np.array(m, dtype=np.int64) for m in full[:n]], PERMUTATION_SUM, p, d)
        assert got.tolist() == brute
    # from p factors on, n! is 0 mod p
    assert not global_combine(diag[:5], PERMUTATION_SUM, 5, d).any()
    with pytest.raises(InputError):
        global_combine([modmat.identity(2), modmat.identity(3)], PRODUCT, p, 2)
    with pytest.raises(InputError):
        global_combine(mats, "median", p, d)


def test_three_tests_identical_sides():
    for seed, t in ((4, LONGITUDINAL), (7, MERIDIAN)):
        inst = build_instance(seed)
        b = make_backend(_labels_for(inst), seed=seed)
        side = [build_abstract(inst, t)]
        assert three_tests(side, side, b) is True
        assert three_tests(side, side, b, mode=PERMUTATION_SUM) is True


def test_three_tests_distinct_types_flags():
    inst = build_instance(4)
    b = make_backend(_labels_for(inst), seed=4)
    assert three_tests([build_abstract(inst, LONGITUDINAL)], [build_abstract(inst, MERIDIAN)], b) is False
    with pytest.raises(InputError):
        three_tests([build_abstract(inst, LONGITUDINAL)], [], b)


def test_stabilization_demo():
    inst, b = _backend(3)
    aseq = build_abstract(inst, LONGITUDINAL)
    inv = perturbed_invariant(aseq, b)
    for v in (1, 2, 3):
        rep = stabilization_demo(b, v, inv_k=inv, inv_l=inv)
        assert rep.verdict == "Obstructed"
        assert "Z(S2)^%d is invertible" % v in rep.witness
        assert "no nonzero weight annihilates" in rep.witness
    with pytest.raises(InputError):
        stabilization_demo(b, 0, inv, inv)


def test_other_type_swaps():
    assert other_type(LONGITUDINAL) == MERIDIAN
    assert other_type(MERIDIAN) == LONGITUDINAL
    with pytest.raises(InputError):
        other_type("radial")
