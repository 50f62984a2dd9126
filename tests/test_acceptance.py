"""End-to-end acceptance checks: one test per advertised guarantee.

Every check is exact — no tolerances.  Where a guarantee needs an
independent cross-check, the oracle is implemented here from scratch
(plain numpy compositions, pure-Python Gauss-Jordan inverses, an einsum
contraction for large state sums, exhaustive word enumeration) rather
than by calling the code under test twice.
"""
from __future__ import annotations

import math
import random
import string
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import smovelab.modmat as modmat
from smovelab.criterion import (
    build_instance,
    residual_r,
    verification_word,
    verify,
)
from smovelab.playground import (
    DIAGONAL,
    LONGITUDINAL,
    MERIDIAN,
    POLY_IN_M,
    SPHERE_LABEL,
    between_type_obstruction,
    make_backend,
    other_type,
    perturbed_invariant,
    qmove_rider,
    stabilization_demo,
)
from smovelab.presentations import ConjugateRelator, InvertRelator, MultiplyRight, NielsenMove
from smovelab.ring import Polynomial, poly_mod
from smovelab.slicing import (
    CellToken,
    CommutatorToken,
    SpElToken,
    boundary_trace,
    build_abstract,
    slice_bag,
    slice_commutator,
    slice_product,
    token_text,
)
from smovelab.statesum import (
    TrivalentGraph,
    certificate,
    complete_table,
    nonmult_check,
    nonmult_expand,
    state_sum,
)
from smovelab.words import InputError, Word, commutator, invert, multiply, parse_word, reduce

from helpers import (
    abstract_ok,
    backend_labels,
    compose,
    gauge,
    gauged_sequence,
    identity_spels,
    is_cyclic_rotation,
    mutate_conjugator,
    nielsen_transport,
    poly_inverse_mod,
    poly_local_invariant,
    product_sides,
    py_inverse,
    py_product,
    residual_commutator_check,
    slots,
    state_modules,
    transitions,
    wedge,
)


# --- shared helpers ----------------------------------------------------------


def _random_word(rng, max_len=8, gens=3):
    n = rng.randrange(max_len + 1)
    return reduce(rng.choice((g, -g)) for g in (rng.randrange(1, gens + 1) for _ in range(n)))


@pytest.fixture(scope="module")
def instances():
    # index == seed; shared by the verification, gauge and residual checks
    return [build_instance(seed) for seed in range(1000)]


def _np_product(mats, p, d):
    out = np.eye(d, dtype=np.int64)
    for m in mats:
        out = (out @ m) % p
    return out


def _own_endo(aslice, b):
    # sorted-label product of the token matrices, in raw numpy
    pairs = sorted(((token_text(t, True), b.value(t)) for t in aslice.tokens), key=lambda kv: kv[0])
    return _np_product((m for _, m in pairs), b.p, b.dim)


# --- words and residuals -----------------------------------------------------


def test_residual_formulas_on_random_relator_moves():
    rng = random.Random(20260816)
    for _ in range(500):
        r = _random_word(rng)
        rk = _random_word(rng)
        # replacing R by R.R_k splits off R.R_k^-1.R^-1
        lhs = residual_r(r, multiply(r, rk))
        rhs = reduce(tuple(r) + tuple(invert(rk)) + tuple(invert(r)))
        assert tuple(lhs) == tuple(rhs)
        # replacing R by R^-1 splits off the square
        assert tuple(residual_r(r, invert(r))) == tuple(reduce(tuple(r) + tuple(r)))


def test_thousand_instances_verify_and_mutations_break(instances):
    broken = 0
    for seed, inst in enumerate(instances):
        assert verify(inst)
        assert verification_word(inst) == ()
        lhs, rhs = product_sides(inst)  # the two evaluation routes agree
        assert tuple(lhs) == tuple(rhs)
        if not verify(mutate_conjugator(inst, seed + 1)):
            broken += 1
    assert broken >= 990


def test_gauge_identity_and_verification(instances):
    for inst in instances:
        swapped = reduce(tuple(inst.s_word) + tuple(invert(inst.r_word)))
        own = reduce(tuple(inst.r_word) + tuple(invert(inst.s_word)))
        assert tuple(swapped) == tuple(invert(own))
        assert verify(gauge(inst))


def test_relator_swap_residual_is_inverse_commutator_product(instances):
    for inst in instances:
        chk = residual_commutator_check(inst)
        assert chk.ok
        assert tuple(chk.l_prime) == tuple(chk.inverse_commutator_product)
        assert tuple(chk.l_prime) == tuple(chk.m_prime_inv)


# --- state modules over the prime field --------------------------------------


def test_unperturbed_transitions_telescope_to_identity():
    for seed in range(100):
        inst = build_instance(seed)
        t = LONGITUDINAL if seed % 2 == 0 else MERIDIAN
        aseq = build_abstract(inst, t)
        b = make_backend(backend_labels(aseq), p=101, d=4, seed=seed)
        maps = transitions(state_modules(aseq, b))
        assert modmat.is_identity(compose(maps, b.p, b.dim), b.p)


_QMOVES = (
    InvertRelator("R"),
    InvertRelator("S"),
    MultiplyRight("R", "x1"),  # the auxiliary relators live alongside R resp. S
    MultiplyRight("S", "y1"),
    ConjugateRelator("R", 1),
    ConjugateRelator("S", -2),
)


def _playground_sequences(inst, t):
    """Every sequence a playground command builds from an instance read
    with type ``t``: its own, the other type's, the gauged one and a
    rider for each relator move kind on either side."""
    seqs = [build_abstract(inst, t), build_abstract(inst, other_type(t)), gauged_sequence(inst, t)]
    return seqs + [qmove_rider(inst, m, t) for m in _QMOVES]


def test_playground_sequences_put_each_commutator_after_its_spherical_elements():
    """The closed form is the telescoped composition only while the
    perturbation slice holds the spherical elements of exactly the factor
    indices whose commutators the next slice holds, on top of the same
    cells."""
    for seed in range(50):
        inst = build_instance(seed)
        for t in (LONGITUDINAL, MERIDIAN):
            for aseq in _playground_sequences(inst, t):
                assert abstract_ok(aseq), (seed, t)
                k = aseq.perturbation_index
                spels = [tok.index for tok in aseq.slices[k].tokens if isinstance(tok, SpElToken)]
                comms = [tok.index for tok in aseq.slices[k + 1].tokens if isinstance(tok, CommutatorToken)]
                assert sorted(set(spels)) == sorted(comms) == list(range(aseq.factor_count)), (seed, t)


def test_perturbed_invariant_matches_brute_force_composition():
    for seed in range(60):
        inst = build_instance(seed)
        for t in (LONGITUDINAL, MERIDIAN):
            seqs = _playground_sequences(inst, t)
            b = make_backend(backend_labels(*seqs), seed=seed * 7 + 1)
            p, d = b.p, b.dim
            for aseq in seqs:
                got = perturbed_invariant(aseq, b)

                # closed form: product of the spherical-element matrices, raw numpy
                spels = [tok for tok in aseq.slices[3].tokens if isinstance(tok, SpElToken)]
                ordered = sorted(((token_text(tk, True), b.value(tk)) for tk in spels), key=lambda kv: kv[0])
                closed = _np_product((m for _, m in ordered), p, d)

                # brute force: compose all eight level maps with the third one perturbed
                endos = [_own_endo(sl, b) for sl in aseq.slices]
                k = aseq.perturbation_index
                after = aseq.slices[k + 1].tokens
                cells = [b.value(tk) for tk in after if isinstance(tk, CellToken)]
                comms = {tk.index: b.value(tk) for tk in after if isinstance(tk, CommutatorToken)}
                spels_by = {}
                for tk in aseq.slices[k].tokens:
                    if isinstance(tk, SpElToken):
                        spels_by.setdefault(tk.index, []).append(b.value(tk))
                level = _np_product(cells, p, d)
                for idx in sorted(comms):
                    level = _np_product([level, comms[idx]] + spels_by.get(idx, []), p, d)
                invs = [np.array(py_inverse(e.tolist(), p), dtype=np.int64) for e in endos]
                maps = [(endos[i + 1] @ invs[i]) % p for i in range(len(endos) - 1)]
                maps[k] = (level @ invs[k]) % p
                brute = np.eye(d, dtype=np.int64)
                for m in maps:
                    brute = (m @ brute) % p

                assert modmat.equal(got, closed, p)
                assert modmat.equal(got, brute, p)


def _largest_prime_in_bound(d):
    """The largest prime p with d·(p-1)² < 2^63, where int64 still holds
    every product of residues exactly."""
    return sympy.prevprime(math.isqrt((2**63 - 1) // d) + 2)


def _inverse_cases(rng, d, p):
    """Dense (often singular for small p), diagonal (singular when a zero
    is drawn), permuted triangular (invertible, needs row swaps) and
    singular (one row a combination of the others) d×d matrices."""
    yield [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    yield [[rng.randrange(p) if i == j else 0 for j in range(d)] for i in range(d)]
    upper = [[rng.randrange(1, p) if i == j else rng.randrange(p) * (j > i) for j in range(d)] for i in range(d)]
    yield rng.sample(upper, d)
    rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d - 1)]
    coeffs = [rng.randrange(p) for _ in rows]
    rows.insert(rng.randrange(d), [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(d)])
    yield rows


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_modmat_inverse_matches_python_gauss_jordan(seed):
    rng = random.Random(seed)
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 32):
        for p in (2, 101, 100003, _largest_prime_in_bound(d)):
            for rows in _inverse_cases(rng, d, p):
                want = py_inverse(rows, p)
                a = np.array(rows, dtype=np.int64)
                if want is None:
                    with pytest.raises(InputError, match="singular"):
                        modmat.inverse(a, p)
                else:
                    assert modmat.inverse(a, p).tolist() == want
                assert a.tolist() == rows  # the input is left alone


def _rank_deficient(rng, d, p, rank):
    """A d×d product of a d×rank and a rank×d matrix mod p: its rank is
    at most ``rank``."""
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(d)]
    right = [[rng.randrange(p) for _ in range(d)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]


def _py_delayed_low(rows, p):
    """The lowest entry the delayed-reduction Gauss-Jordan of
    ``modmat._invert`` holds in its block, computed on Python ints, which
    cannot wrap; None when the rows are singular mod p."""
    n = len(rows)
    work = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    low = 0
    for col in range(n):
        f = [row[col] % p for row in work]
        piv = next((r for r in range(col, n) if f[r]), None)
        if piv is None:
            return None
        work[col], work[piv], f[col], f[piv] = work[piv], work[col], f[piv], f[col]
        scale = pow(f[col], -1, p)
        pivot_row = work[col] = [x % p * scale % p for x in work[col]]
        f[col] = 0
        work = [[x - fr * y for x, y in zip(row, pivot_row)] for fr, row in zip(f, work)]
        low = min(low, min(map(min, work)))
    return low


@settings(max_examples=2, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_delayed_reduction_gauss_jordan_is_exact_up_to_the_int64_bound(seed):
    """Gauss-Jordan reduces only the pivot column and the pivot row in each
    step, and its block once, at the end.  A row is reduced when it is the
    pivot row and takes at most d-1 subtractions of residue products
    besides, so its entries sink no lower than -(d-1)·(p-1)², which the
    int64 bound keeps above -2^63.  At d = 4 and 32, at the largest p under
    the bound, they sink past -(p-1)², the floor when each step reduced
    the whole block, so the delayed entries are in use; at d = 2 that
    floor is the bound.  On dense, diagonal, permuted triangular, singular
    and rank-deficient matrices at d = 2, 4 and 32, from p = 3 to that
    largest p, every inverse and every singular verdict, of ``inverse``
    and of ``first_singular``, equals Gauss-Jordan on Python ints."""
    rng = random.Random(seed)
    for d in (2, 4, 32):
        top = _largest_prime_in_bound(d)
        for p in (3, 101, 100003, top):
            lows = []
            for rows in list(_inverse_cases(rng, d, p)) + [_rank_deficient(rng, d, p, d // 2)]:
                want, low = py_inverse(rows, p), _py_delayed_low(rows, p)
                assert (want is None) == (low is None), (d, p)
                a = np.array(rows, dtype=np.int64)
                if want is None:
                    with pytest.raises(InputError, match="singular"):
                        modmat.inverse(a, p)
                else:
                    assert -(d - 1) * (p - 1) ** 2 <= low, (d, p)
                    lows.append(low)
                    assert modmat.inverse(a, p).tolist() == want, (d, p)
                assert modmat.first_singular([a], p) == (0 if want is None else None), (d, p)
            if p == top and d > 2:
                assert min(lows) < -((p - 1) ** 2), (d, p, lows)


@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_modmat_first_singular_matches_python_gauss_jordan(seed):
    rng = random.Random(seed)
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 32):
        for p in (2, 101, 100003, _largest_prime_in_bound(d)):
            invertible, singular = [], []
            while len(invertible) < 7 or not singular:
                for rows in _inverse_cases(rng, d, p):
                    (singular if py_inverse(rows, p) is None else invertible).append(rows)
            for k in (0, 1, 2, 7):
                mats = [np.array(rows, dtype=np.int64) for rows in invertible[:k]]
                assert modmat.first_singular(mats, p) is None
                assert [m.tolist() for m in mats] == invertible[:k]  # left alone
            for at in (0, 3, 6):
                rows = invertible[:6]
                rows.insert(at, singular[0])
                assert modmat.first_singular([np.array(r, dtype=np.int64) for r in rows], p) == at
            with pytest.raises(InputError, match="different shapes"):
                modmat.first_singular([modmat.identity(d), modmat.identity(d - 1)], p)


@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_first_singular_names_the_first_singular_matrix(seed):
    """A batch of 12 with no singular matrix, one, or several gives the
    index of the first one, or None, whatever prefix is tried first."""
    rng = random.Random(seed)
    for d in (1, 2, 4):
        for p in (2, 5, 101, _largest_prime_in_bound(d)):
            invertible, singular = [], []
            while len(invertible) < 12 or len(singular) < 3:
                for rows in _inverse_cases(rng, d, p):
                    (singular if py_inverse(rows, p) is None else invertible).append(rows)
            for probe in [None] + list(range(1, 14)) + [40]:
                mats = [np.array(rows, dtype=np.int64) for rows in invertible[:12]]
                assert modmat.first_singular(mats, p, probe) is None, (d, p, probe)
                for at in (0, 1, 4, 7, 11):
                    for later in (0, 2):  # one singular matrix, or three
                        batch = invertible[:12]
                        batch[at] = singular[0]
                        for s in singular[1 : 1 + later]:
                            batch[rng.randrange(at, 12)] = s
                        got = modmat.first_singular([np.array(r, dtype=np.int64) for r in batch], p, probe)
                        assert got == at, (d, p, probe, at, later)


def _py_poly_backend(labels, p, d, seed):
    """The matrices of a drawn ``poly`` backend on Python ints, for a
    stream that draws no singular matrix: the base's d² entries, then for
    each label in sorted order the sphere's scalar or the coefficients of
    I, M, M², M³."""
    rng = random.Random(seed)
    base = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    powers = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for _ in range(3):
        powers.append([[sum(x * y for x, y in zip(row, col)) % p for col in zip(*base)] for row in powers[-1]])
    out = {"base": base}
    for lab in sorted(set(labels) | {SPHERE_LABEL}):
        if lab == SPHERE_LABEL:
            s = rng.randrange(2, p)
            out[lab] = [[s * (i == j) for j in range(d)] for i in range(d)]
        else:
            c = [rng.randrange(p) for _ in powers]
            out[lab] = [[sum(ci * m[i][j] for ci, m in zip(c, powers)) % p for j in range(d)] for i in range(d)]
    return out


def test_drawn_poly_backends_are_exact_at_the_int64_bound():
    """At the largest p the bound allows, each term c_i·M^i of a drawn
    polynomial is a residue product just short of 2^63/d, so at d = 1, 2
    and 3 a sum of its four terms wraps in int64 unless it is reduced
    first.  Every matrix must equal the same draw made on Python ints."""
    labels = ["cell:%d" % i for i in range(6)]
    for d in (1, 2, 3):
        p = _largest_prime_in_bound(d)
        assert 4 * (p - 1) ** 2 >= 2**63
        for seed in range(30):
            want = _py_poly_backend(labels, p, d, seed)
            assert all(py_inverse(m, p) is not None for m in want.values()), (d, seed)
            b = make_backend(labels, p=p, d=d, seed=seed, family=POLY_IN_M)
            got = {lab: m.tolist() for lab, m in b.assignment.items()}
            assert got == {lab: m for lab, m in want.items() if lab != "base"}, (d, seed)


def test_inside_type_invariance_under_all_relator_moves():
    for seed in range(200):
        inst = build_instance(seed)
        t = LONGITUDINAL if seed % 2 == 0 else MERIDIAN
        seqs = [build_abstract(inst, t)]
        seqs += [qmove_rider(inst, m, t) for m in _QMOVES]
        b = make_backend(backend_labels(*seqs), seed=seed + 13)
        plain = perturbed_invariant(seqs[0], b)
        for m, rider in zip(_QMOVES, seqs[1:]):
            assert modmat.equal(perturbed_invariant(rider, b), plain, b.p), (seed, m)


def test_between_type_obstruction_iff_spel_product_nontrivial():
    obstructed = controls = 0
    for seed in range(200):
        inst = build_instance(seed % 50)
        t = LONGITUDINAL if seed % 2 == 0 else MERIDIAN
        identity_control = seed < 20
        labels = backend_labels(
            build_abstract(inst, LONGITUDINAL), build_abstract(inst, MERIDIAN)
        )
        b = make_backend(labels, seed=seed)
        if identity_control:
            b = identity_spels(b)
        report = between_type_obstruction(build_abstract(inst, t), build_abstract(inst, other_type(t)), b)

        other = build_abstract(inst, other_type(t))
        spels = [tok for tok in other.slices[3].tokens if isinstance(tok, SpElToken)]
        prod = _np_product((b.value(tk) for tk in spels), b.p, b.dim)
        nontrivial = not np.array_equal(prod, np.eye(b.dim, dtype=np.int64))

        assert (report.verdict == "Obstructed") == nontrivial
        if identity_control:
            assert report.verdict == "Pass"
            controls += 1
        elif report.verdict == "Obstructed":
            obstructed += 1
    assert controls == 20
    assert obstructed >= 170  # the generic draw must actually obstruct


@pytest.mark.parametrize("family, d, seeds", [(DIAGONAL, 4, 8), (POLY_IN_M, 4, 8), (POLY_IN_M, 32, 3)])
def test_obstruction_witness_is_f2_from_oracle_inverses(tmp_path, capsys, family, d, seeds):
    """``inv playground --obstruction`` prints F2 = C·E_own⁻¹ and the
    forced F'2 = F2·E_other, where C is the commutator product after the
    perturbation and E_own, E_other the two types' spherical-element
    products at it.  Here each is built on Python ints from the backend
    the command dumps, with E_own⁻¹ the product of its matrices'
    Gauss-Jordan inverses."""
    from smovelab import cli

    path = tmp_path / "backend.txt"
    obstructed = 0
    for seed in range(seeds):
        inst = build_instance(seed)
        for t, flag in ((LONGITUDINAL, "long"), (MERIDIAN, "mer")):
            argv = ["inv", "playground", "--seed", str(seed), "--type", flag, "--family", family, "--d", str(d)]
            code = cli.main(argv + ["--obstruction", "--dump-backend", str(path)])
            out = capsys.readouterr().out.splitlines()
            head, *toks = (line.split() for line in path.read_text(encoding="utf-8").splitlines())
            p = int(head[1])
            mats = {tok[1]: [[int(x) for x in tok[2 + i * d : 2 + (i + 1) * d]] for i in range(d)] for tok in toks}
            own, other = build_abstract(inst, t), build_abstract(inst, other_type(t))

            def at(aseq, kind, after=0):
                tokens = aseq.slices[aseq.perturbation_index + after].tokens
                return [mats[token_text(x, True)] for x in tokens if isinstance(x, kind)]

            f2 = py_product(at(own, CommutatorToken, 1) + [py_inverse(m, p) for m in at(own, SpElToken)], p, d)
            forced = py_product([f2] + at(other, SpElToken), p, d)
            if forced == f2:
                assert (code, out[1]) == (0, "verdict: Pass"), (family, d, seed, t)
                continue
            obstructed += 1
            text = [";".join(",".join(map(str, row)) for row in m) for m in (forced, f2)]
            assert code == 3 and out[2] == "witness: forced F'2 = F2: %s != %s" % tuple(text), (family, d, seed, t)
    assert obstructed >= seeds


# --- state sums ---------------------------------------------------------------


def test_nonmult_quartic_exact_values_and_detection():
    s = Polynomial.var("S")
    assert nonmult_expand() == 2 * s**4 - 4 * s**3 + 4 * s**2 - 4 * s + 2
    assert nonmult_expand()(S=Fraction(1)) == 0
    assert nonmult_expand()(S=Fraction(2)) == 10
    table = complete_table([((0, 0, 0), Fraction(1)), ((1, 1, 1), Fraction(1))], 2)
    report = nonmult_check(table)  # diagonal sum 2
    assert report.s_value == 2
    assert report.multiplicative is False


def _perfect_matchings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for sub in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield (pair,) + sub


def _all_trivalent_graphs():
    """Every graph with at most 4 vertices: circle components plus every
    degree-3 multigraph reachable as a pairing of vertex half-edges."""
    found = {}
    for c in range(3):
        g = TrivalentGraph(circles=c)
        found[certificate(g)] = g
    for n in (2, 4):
        half_edges = tuple((v, i) for v in range(n) for i in range(3))
        seen_labeled = set()
        for matching in _perfect_matchings(half_edges):
            edges = tuple(sorted(tuple(sorted((a[0], b[0]))) for a, b in matching))
            if edges in seen_labeled:
                continue
            seen_labeled.add(edges)
            g = TrivalentGraph(tuple(range(n)), edges)
            found.setdefault(certificate(g), g)
    return list(found.values())


def _einsum_state_sum(g, weights):
    """Independent exact evaluation: contract one weight tensor per vertex
    (loops repeat an index) and one diagonal vector per circle."""
    if not g.vertices and slots(g) == 0:
        return 1
    letters = iter(string.ascii_letters)
    edge_idx = [next(letters) for _ in g.edges]
    circle_idx = [next(letters) for _ in range(g.circles)]
    subs, ops = [], []
    for v in g.vertices:
        incident = ""
        for i, (a, bb) in enumerate(g.edges):
            if a == v:
                incident += edge_idx[i]
            if bb == v:
                incident += edge_idx[i]
        subs.append(incident)
        ops.append(weights)
    diag = np.array([weights[a, a, a] for a in range(weights.shape[0])], dtype=np.int64)
    for j in range(g.circles):
        subs.append(circle_idx[j])
        ops.append(diag)
    return int(np.einsum(",".join(subs) + "->", *ops))


def test_state_sum_multiplicative_over_all_small_graphs():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    triples = list(combinations_with_replacement(range(3), 3))
    table = complete_table([(tr, Fraction(v)) for tr, v in zip(triples, values)], 3)
    weights = np.zeros((3, 3, 3), dtype=np.int64)
    for a in range(3):
        for bb in range(3):
            for c in range(3):
                weights[a, bb, c] = int(table.lookup(a, bb, c))

    graphs = _all_trivalent_graphs()
    assert sum(1 for g in graphs if len(g.vertices) == 4) >= 8

    singles = {}
    for g in graphs:
        v = state_sum(g, table)
        assert v.denominator == 1
        assert int(v) == _einsum_state_sum(g, weights)  # oracle agrees everywhere
        singles[id(g)] = int(v)

    for g1, g2 in combinations_with_replacement(graphs, 2):
        union = wedge(g1, g2)
        want = singles[id(g1)] * singles[id(g2)]
        assert _einsum_state_sum(union, weights) == want
        assert int(state_sum(union, table)) == want


# --- slicing readouts ---------------------------------------------------------


def _reduced_words(max_len, gens=2):
    out, frontier = [()], [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in (1, -1, 2, -2):
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        out += nxt
        frontier = nxt
    return [Word(w) for w in out]


def test_slicing_readouts_exhaustively_match_the_words():
    assert str(Word(-x for x in parse_word("aabb"))) == "AABB"  # the letterwise-inverted reading
    words = _reduced_words(4)
    assert len(words) == 161
    for w in words:
        assert tuple(boundary_trace(slice_bag(w))) == ()
    for r in words:
        for s in words:
            got = boundary_trace(slice_product(r, s))
            assert tuple(got) == tuple(reduce(tuple(r) + tuple(invert(s))))
    for r in words:
        for s in words:
            base = commutator(r, s)
            for dom in ("R", "S"):
                assert is_cyclic_rotation(boundary_trace(slice_commutator(r, s, dom)), base)


# --- generator substitutions ----------------------------------------------------


def test_nielsen_two_sided_preserved_one_sided_breaks():
    moves = (
        NielsenMove("inv", 1),
        NielsenMove("inv", 2),
        NielsenMove("rmul", 1, 2),
        NielsenMove("lmul", 2, 1),
    )
    for seed in range(200):
        inst = build_instance(seed)
        assert verify(nielsen_transport(inst, moves[seed % 4]))
    # substituting in only one presentation loses the pairing
    broken = nielsen_transport(build_instance(0), NielsenMove("rmul", 1, 2), one_sided=True)
    assert not verify(broken)


# --- polynomial local invariant -------------------------------------------------


def test_poly_invariant_chain_fixture_and_rejections():
    x = Polynomial.var("x")
    g = x**2 + 1
    ps = [x + k for k in range(1, 7)]

    out = poly_local_invariant(ps, g, Fraction(2))
    assert str(out) == "11/26*x + 70/13"
    assert out == poly_local_invariant(ps, g, Fraction(2))  # deterministic

    # each level quotient carries its numerator: Q_k . P_k = P_{k+1} mod g
    qs = {}
    for k in (1, 2, 3, 5):
        q = poly_mod(ps[k] * poly_inverse_mod(ps[k - 1], g, "x"), g, "x")
        assert poly_mod(q * ps[k - 1] - ps[k], g, "x") == Polynomial.const(0)
        qs[k] = q
    # the output is exactly the chain product with the fourth level rescaled
    c3 = ps[2].subs({"x": Fraction(2)}).constant_value()
    assert c3 == 5
    q4 = poly_mod(ps[3].subs({"x": x * c3}) * poly_inverse_mod(ps[3], g, "x"), g, "x")
    total = qs[1] * qs[2] * qs[3] * q4 * qs[5]
    assert poly_mod(total, g, "x") == out

    # rescale factors 0 and 1 are degenerate and must be refused
    with pytest.raises(InputError):
        poly_local_invariant(ps, g, Fraction(-3))  # P_3(-3) = 0
    with pytest.raises(InputError):
        poly_local_invariant(ps, g, Fraction(-2))  # P_3(-2) = 1


# --- stabilization ---------------------------------------------------------------


def test_stabilization_forces_equality_no_annihilator():
    for seed in range(20):
        inst = build_instance(seed)
        seqs = [build_abstract(inst, LONGITUDINAL), build_abstract(inst, MERIDIAN)]
        b = make_backend(backend_labels(*seqs), seed=seed)
        scalar = int(b.assignment["S2"][0, 0])
        inv_k, inv_l = (perturbed_invariant(aseq, b) for aseq in seqs)
        for v in (1, 2, 3):
            report = stabilization_demo(b, v, inv_k, inv_l)
            assert report.verdict == "Obstructed"
            assert "Z(S2)^%d is invertible" % v in report.witness
            assert "no nonzero weight annihilates" in report.witness
            # independent check over the prime field
            assert pow(scalar, v, b.p) != 0
            assert all((w * pow(scalar, v, b.p)) % b.p != 0 for w in range(1, b.p))
