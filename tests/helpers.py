"""Helpers shared by the test modules."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

import smovelab.modmat as modmat
from smovelab.criterion import (
    ConjugatedRelator,
    CriterionInstance,
    Factor,
    InvalidInstance,
    Reading,
    verify,
)
from smovelab.playground import Backend, label_tokens, other_type
from smovelab.presentations import (
    ConjugateRelator,
    InvertRelator,
    MultiplyRight,
    NielsenMove,
    Presentation,
    QMove,
    apply_nielsen,
)
from smovelab.ring import Polynomial, _univar, poly_divmod, poly_gcd, poly_mod
from smovelab.slicing import (
    AbstractSequence,
    AbstractSlice,
    BirthCircle,
    CellToken,
    Circle,
    CirculateStep,
    CommutatorToken,
    Component,
    DeathCircle,
    LocalMove,
    ReadoutStrand,
    SliceError,
    SliceSequence,
    SpElToken,
    _at,
    _marks,
    _need,
    build_abstract,
    token_text,
)
from smovelab.statesum import TrivalentGraph
from smovelab.words import InputError, Word, draw, format_word, invert, reduce, substitute


def commutator_product(inst: CriterionInstance) -> Word:
    """[S_1,R_1]...[S_n,R_n] in decomposition order."""
    return reduce(*inst.read().commutators)


def mutate_conjugator(inst: CriterionInstance, seed: int) -> CriterionInstance:
    """Change one letter of one decomposition conjugator.

    A letter change can be absorbed when it lies in the centralizer of the
    base relator (conjugating ``a`` by ``a`` does nothing), so candidates
    are redrawn until the expanded decomposition actually differs.
    """
    if not inst.factors:
        raise InvalidInstance("no factors to mutate")
    rng = random.Random(seed)
    for _ in range(64):
        i = rng.randrange(len(inst.factors))
        f = inst.factors[i]
        side = rng.choice(("r", "s"))
        c = f.r if side == "r" else f.s
        letters = list(c.conjugator)
        x = rng.choice(
            [g for g in range(1, inst.k.generator_count + 1)]
            + [-g for g in range(1, inst.k.generator_count + 1)]
        )
        if letters:
            j = rng.randrange(len(letters))
            if letters[j] == x:
                x = -x
            letters[j] = x
        else:
            letters.append(x)
        c2 = ConjugatedRelator(Word(letters), c.base, c.exponent)
        f2 = Factor(r=c2, s=f.s) if side == "r" else Factor(r=f.r, s=c2)
        factors = tuple(f2 if j == i else g for j, g in enumerate(inst.factors))
        mutated = replace(inst, factors=factors)
        if mutated.read().expanded != inst.read().expanded:
            return mutated
    raise InvalidInstance("could not find a non-absorbed mutation")


def conjugate(w, by) -> Word:
    """reduce(by . w . by^-1)."""
    by = Word(by)
    return reduce(by, w, invert(by))


def backend_labels(*aseqs):
    """The sorted backend labels of the sequences' tokens."""
    return sorted(set(label_tokens(*aseqs).values()))


def identity_spels(b: Backend) -> Backend:
    """``b`` with every spherical-element matrix set to the identity: the
    control whose perturbation is vacuous."""
    eye = modmat.identity(b.dim)
    return Backend(b.p, b.dim, {lab: eye if lab.startswith("spel:") else m for lab, m in b.assignment.items()})


def random_invertible_diagonal(rng, dim: int, p: int) -> np.ndarray:
    """A diagonal matrix of nonzero entries drawn mod p."""
    return np.diag(np.array(draw(rng, dim, p, 1), dtype=np.int64))


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by repeated multiplication; a negative e powers the
    inverse."""
    if e < 0:
        a, e = modmat.inverse(a, p), -e
    return modmat.product([a] * e, p, a.shape[0])


# --- oracles on Python ints, apart from numpy and modmat --------------------


def py_mul(a, b, p: int) -> List[List[int]]:
    """The product of two matrices, given as lists of rows, mod p."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def py_product(mats, p: int, d: int) -> List[List[int]]:
    """The left-to-right product of d×d matrices mod p; the identity when
    there are none."""
    out = [[int(i == j) for j in range(d)] for i in range(d)]
    for m in mats:
        out = py_mul(out, m, p)
    return out


def py_inverse(rows, p: int) -> Optional[List[List[int]]]:
    """Gauss-Jordan on Python ints, row by row; None when singular mod p."""
    n = len(rows)
    work = [[int(x) % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        scale = pow(work[col][col], -1, p)
        work[col] = [x * scale % p for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def is_cyclic_rotation(w, base) -> bool:
    """Whether the letters of ``w`` are a cyclic rotation of ``base``'s."""
    w, base = tuple(w), tuple(base)
    if len(w) != len(base):
        return False
    return any(base[i:] + base[:i] == w for i in range(len(base) or 1))


# --- the telescoping composition, an oracle for the closed forms -------------


@dataclass(frozen=True)
class StateModuleSeq:
    endos: Tuple[np.ndarray, ...]
    p: int
    dim: int
    inverses: Tuple[np.ndarray, ...]


def state_modules(aseq, b) -> StateModuleSeq:
    """Each slice's endomorphism A_k, the product of its tokens' matrices
    in sorted-label order, with its inverse by ``modmat.inverse``."""
    endos = []
    for sl in aseq.slices:
        tokens = sorted(sl.tokens, key=lambda t: token_text(t, True))
        endos.append(modmat.product([b.value(t) for t in tokens], b.p, b.dim))
    return StateModuleSeq(tuple(endos), b.p, b.dim, tuple(modmat.inverse(e, b.p) for e in endos))


def transitions(sm: StateModuleSeq) -> List[np.ndarray]:
    """F_k with F_k·A_k = A_{k+1}."""
    return [modmat.mul(sm.endos[k + 1], sm.inverses[k], sm.p) for k in range(len(sm.endos) - 1)]


def compose(maps: Sequence[np.ndarray], p: int, dim: int) -> np.ndarray:
    """Apply left to right: returns maps[-1] ··· maps[1] · maps[0]."""
    return modmat.product(reversed(list(maps)), p, dim)


def composed_invariant(aseq, b) -> np.ndarray:
    """The perturbed invariant by brute force: every transition composed,
    the spherical-element one replaced by the map onto the perturbed
    level, where each commutator is followed by the spherical elements of
    its factor index, on top of the plain cells."""
    sm = state_modules(aseq, b)
    maps = transitions(sm)
    k = aseq.perturbation_index
    after = aseq.slices[k + 1].tokens
    spels = {}
    for t in aseq.slices[k].tokens:
        if isinstance(t, SpElToken):
            spels.setdefault(t.index, []).append(b.value(t))
    level = modmat.product([b.value(t) for t in after if isinstance(t, CellToken)], b.p, b.dim)
    for t in sorted((t for t in after if isinstance(t, CommutatorToken)), key=lambda t: t.index):
        level = modmat.product([level, b.value(t)] + spels.get(t.index, []), b.p, b.dim)
    maps[k] = modmat.mul(level, sm.inverses[k], b.p)
    return compose(maps, b.p, b.dim)


# --- the cross-checks behind verdict lines that hold by construction ---------
#
# Each command prints these lines from the fact that makes them true; these
# computations are the oracles that judge the fact.


def abstract_ok(aseq) -> bool:
    """Structural sanity: empty ends, product cell flanked by the
    spherical elements before and the commutators after the perturbation."""
    s = aseq.slices
    if len(s) != 8 or s[0].tokens or s[-1].tokens:
        return False
    if any(sl.level != k for k, sl in enumerate(s)):
        return False
    p = aseq.perturbation_index
    before, after = s[p].tokens, s[p + 1].tokens
    n = aseq.factor_count
    spel = [t for t in before if isinstance(t, SpElToken)]
    comm = [t for t in after if isinstance(t, CommutatorToken)]
    cells_before = [t for t in before if isinstance(t, CellToken)]
    cells_after = [t for t in after if isinstance(t, CellToken)]
    return (
        len(spel) == 2 * n
        and len(comm) == n
        and len(spel) + len(cells_before) == len(before)
        and len(comm) + len(cells_after) == len(after)
        and cells_before == cells_after
    )


def product_sides(inst) -> Tuple[Word, Word]:
    """The product form: (reduce(R.S^-1), [R_n,S_n]...[R_1,S_1]); the
    right side is the inverse of the commutator product."""
    return inst.read().product, invert(commutator_product(inst))


@dataclass(frozen=True)
class ResidualCommutatorCheck:
    ok: bool
    l_prime: Word
    inverse_commutator_product: Word
    m_prime_inv: Word


def residual_commutator_check(inst) -> ResidualCommutatorCheck:
    """For the move replacing R by S itself: the leftover L' must equal the
    inverse of the commutator product.  The two residual routes,
    ``residual_r(R, S)`` and ``residual_s(S, R)``, are both reduce(R.S^-1)
    by definition, which the reading holds."""
    if not verify(inst):
        raise InvalidInstance("instance does not verify")
    l_prime = m_prime_inv = inst.read().product
    inv_prod = invert(commutator_product(inst))
    return ResidualCommutatorCheck(equal(l_prime, inv_prod), l_prime, inv_prod, m_prime_inv)


def gauge(inst: CriterionInstance) -> CriterionInstance:
    """Swap the two sides: compare S against R.  Factors reverse their
    order and swap their r/s roles (the commutator product inverts).

    If ``inst`` has been read, the swapped instance is handed its reading
    rearranged, since [R_i,S_i] is the letter-by-letter inverse of
    [S_i,R_i]: the pairs swapped and in reverse order, the commutators
    inverted and in reverse order, and the product S.R^-1 inverted."""
    read = inst._reading
    if read is not None:
        read = Reading(
            tuple((sw, rw) for rw, sw in reversed(read.expanded)),
            tuple(invert(c) for c in reversed(read.commutators)),
            invert(read.product),
        )
    return CriterionInstance(
        k=inst.l,
        l=inst.k,
        r_name=inst.s_name,
        s_name=inst.r_name,
        factors=tuple(Factor(r=f.s, s=f.r) for f in reversed(inst.factors)),
        reading=read,
    )


def gauged_sequence(inst: CriterionInstance, identification: str) -> AbstractSequence:
    """The side-swapped instance read with the opposite identification
    and every 2-cell's boundary orientation reversed, each token's word
    inverted: the gauge of ``identification``'s reading.  ``inv playground
    --gauge`` and ``test three-tests`` print their gauge lines from the
    facts this oracle judges."""

    def flip(t):
        return replace(t, word=invert(t.word)) if hasattr(t, "word") else t

    aseq = build_abstract(gauge(inst), other_type(identification))
    return replace(aseq, slices=tuple(AbstractSlice(sl.level, tuple(map(flip, sl.tokens))) for sl in aseq.slices))


def slots(g: TrivalentGraph) -> int:
    """How many colours a colouring of ``g`` assigns: one per edge and one
    per circle."""
    return len(g.edges) + g.circles


def wedge(g1: TrivalentGraph, g2: TrivalentGraph) -> TrivalentGraph:
    """Disjoint union; the wedge point carries no weight."""
    offset = max(g1.vertices, default=-1) + 1
    return TrivalentGraph(
        g1.vertices + tuple(v + offset for v in g2.vertices),
        g1.edges + tuple((a + offset, b + offset) for a, b in g2.edges),
        g1.circles + g2.circles,
    )


def ordering_sum(mats: Sequence[np.ndarray], p: int, dim: int) -> np.ndarray:
    """The sum over every ordering of ``mats`` of their product mod p, by
    brute force: a walk over the orderings that multiplies each prefix
    once."""
    total = np.zeros((dim, dim), dtype=np.int64)

    def walk(prefix, rest):
        nonlocal total
        if not rest:
            total = (total + prefix) % p
        for i, m in enumerate(rest):
            walk(modmat.mul(prefix, m, p), rest[:i] + rest[i + 1 :])

    walk(modmat.identity(dim), list(mats))
    return total

# --- public names that only the tests run ---------------------------------
#
# API with no caller in the library, kept here for the tests that use it:
# the writer of the decomposition format, the builder that joins slice
# pieces with the two cell moves only it makes, relator-move inverses, Nielsen transport, the polynomial local
# invariant with the modular inverse it needs, and free-group equality.


def equal(u: Iterable[int], v: Iterable[int]) -> bool:
    """Equality in the free group (compare reduced forms)."""
    return reduce(u) == reduce(v)


def inverse_qmoves(m: QMove) -> Tuple[QMove, ...]:
    """A move sequence undoing ``m`` letter-for-letter."""
    if isinstance(m, InvertRelator):
        return (m,)
    if isinstance(m, ConjugateRelator):
        return (ConjugateRelator(m.target, -m.gen),)
    if isinstance(m, MultiplyRight):
        return (
            InvertRelator(m.other),
            MultiplyRight(m.target, m.other),
            InvertRelator(m.other),
        )
    raise InputError("unknown relator move %r" % (m,))


def nielsen_transport(
    inst: CriterionInstance, m: NielsenMove, one_sided: bool = False
) -> CriterionInstance:
    """Substitute a generator in both presentations and in every
    decomposition conjugator.  ``one_sided`` applies the substitution to K
    only (deliberately losing the s-side control)."""
    k2 = apply_nielsen(inst.k, m)
    l2 = inst.l if one_sided else apply_nielsen(inst.l, m)
    repl = m.replacement()

    def sub_conj(c: ConjugatedRelator) -> ConjugatedRelator:
        return ConjugatedRelator(substitute(c.conjugator, m.gen, repl), c.base, c.exponent)

    factors = tuple(Factor(r=sub_conj(f.r), s=sub_conj(f.s)) for f in inst.factors)
    return replace(inst, k=k2, l=l2, factors=factors)


def format_decomposition(factors) -> str:
    lines = []
    for f in factors:
        lines.append(
            "factor wR=%s R=%s^%s wS=%s S=%s^%s"
            % (
                format_word(f.r.conjugator),
                f.r.base,
                "+1" if f.r.exponent == 1 else "-1",
                format_word(f.s.conjugator),
                f.s.base,
                "+1" if f.s.exponent == 1 else "-1",
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class JoinCells(LocalMove):
    index: int
    other: int

    def _apply(self, cs: list):
        a = _at(cs, self.index, Circle)
        b = _at(cs, self.other, Circle)
        _need(self.other != self.index, "cell join needs two distinct circles")
        lo, hi = sorted((self.index, self.other))
        cs[lo] = Circle(a.marks + b.marks)
        del cs[hi]

    def _text(self):
        return "-- JoinCells %s %s" % (self.index, self.other)


@dataclass(frozen=True)
class SplitCells(LocalMove):
    index: int
    marks_first: Tuple[str, ...]
    marks_second: Tuple[str, ...]

    def _apply(self, cs: list):
        a = _at(cs, self.index, Circle)
        _need(
            a.marks == tuple(self.marks_first) + tuple(self.marks_second),
            "cell split must partition the marks in order",
        )
        cs[self.index] = Circle(tuple(self.marks_first))
        cs.append(Circle(tuple(self.marks_second)))

    def _text(self):
        return "-- SplitCells %s %s %s" % (self.index, _marks(self.marks_first), _marks(self.marks_second))


def _shift_move(m: LocalMove, off: int, prefix: str) -> LocalMove:
    """``m`` on a slice with ``off`` more components in front, its strand
    renamed under ``prefix``."""
    changes = {f: getattr(m, f) + off for f in ("index", "other") if getattr(m, f, None) is not None}
    if isinstance(m, CirculateStep):
        changes["strand"] = prefix + m.strand
    return replace(m, **changes)


def connect(pieces) -> SliceSequence:
    """One sequence containing every piece: a single absolute-minimum root
    circle, each piece entered at its own local minima; with two or more
    pieces each piece's final circle is joined into the root cell and split
    back out before dying.  Circulation moves are replayed verbatim."""
    pieces = list(pieces)
    if not pieces:
        raise InputError("connect needs at least one piece")
    live: list[Component] = []  # where the pieces sit; arcs carry no trace
    moves: list[LocalMove] = []

    def push(m: LocalMove):
        if not isinstance(m, CirculateStep):  # a step moves no component
            m._apply(live)
        moves.append(m)

    push(BirthCircle(("root",)))
    readout: list[ReadoutStrand] = []
    if len(pieces) == 1:
        for m in pieces[0].moves:
            push(_shift_move(m, 1, "0:"))
        readout += [ReadoutStrand("0:" + r.key, r.transform) for r in pieces[0].readout]
        push(DeathCircle(0))
        return SliceSequence(tuple(moves), tuple(readout))

    leftovers: list[tuple[int, int]] = []  # (piece id, live index of its circle)
    for pid, p in enumerate(pieces):
        body = list(p.moves)
        trailing = 0
        while body and isinstance(body[-1], DeathCircle):
            body.pop()
            trailing += 1
        off = len(live)
        for m in body:
            push(_shift_move(m, off, "%d:" % pid))
        got = len(live) - off
        if got != trailing:
            raise SliceError("piece %d does not end in its own circles" % pid)
        leftovers += [(pid, off + i) for i in range(got)]
        readout += [ReadoutStrand("%d:%s" % (pid, r.key), r.transform) for r in p.readout]
    # join each piece circle into the root cell, split it back, let it die
    for _ in leftovers:
        c = live[1]
        _need(isinstance(c, Circle), "piece leftover must be a circle")
        root = live[0]
        push(JoinCells(0, 1))
        push(SplitCells(0, root.marks, c.marks))
        push(DeathCircle(len(live) - 1))
    push(DeathCircle(0))
    return SliceSequence(tuple(moves), tuple(readout))


def poly_xgcd(a: Polynomial, b: Polynomial, var: Optional[str] = None):
    """(g, u, v) with u·a + v·b = g, g monic."""
    var = _univar(var, a, b)
    r0, r1 = a, b
    u0, u1 = Polynomial.const(1), Polynomial()
    v0, v1 = Polynomial(), Polynomial.const(1)
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1, var)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.coeff(var, r0.degree(var)).constant_value()
    s = Polynomial.const(Fraction(1) / lead)
    return r0 * s, u0 * s, v0 * s


def poly_inverse_mod(a: Polynomial, g: Polynomial, var: Optional[str] = None) -> Polynomial:
    var = _univar(var, a, g)
    d, u, _ = poly_xgcd(a, g, var)
    if d != Polynomial.const(1):
        raise InputError("polynomial is not invertible modulo the ideal")
    return poly_mod(u, g, var)


def poly_local_invariant(ps: Sequence[Polynomial], g: Polynomial, x3: Fraction) -> Polynomial:
    """Product of the level-transition quotients Q_k = P_{k+1}/P_k mod g,
    with the fourth level replaced by its perturbed version P_4(c3·x)."""
    ps = list(ps)
    if len(ps) != 6:
        raise InputError("need exactly six level polynomials")
    names = set(g.variables())
    for p in ps:
        names |= set(p.variables())
    if len(names) > 1:
        raise InputError("level polynomials must share one variable")
    var = names.pop() if names else "x"
    for k, p in enumerate(ps, start=1):
        if poly_gcd(p, g) != Polynomial.const(1):
            raise InputError("P_%d is not invertible modulo the ideal" % k)
    c3 = ps[2].subs({var: Fraction(x3)}).constant_value()
    if c3 in (0, 1):
        raise InputError("evaluation point gives c3 = %s; need c3 outside {0, 1}" % c3)

    def quotient(num: Polynomial, den: Polynomial) -> Polynomial:
        return poly_mod(num * poly_inverse_mod(den, g, var), g, var)

    qs = {k: quotient(ps[k], ps[k - 1]) for k in (1, 2, 3, 5)}
    perturbed = ps[3].subs({var: Polynomial.var(var) * c3})
    q4 = quotient(perturbed, ps[3])
    out = Polynomial.const(1)
    for q in (qs[1], qs[2], qs[3], q4, qs[5]):
        out = out * q
    return poly_mod(out, g, var)


# --- seeded instances drawn with ``random.Random``'s own methods -------------


def _rng_reduced_word(rng: random.Random, n_gens: int, length: int) -> Word:
    alphabet = [g for g in range(1, n_gens + 1)] + [-g for g in range(1, n_gens + 1)]
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice(alphabet)
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return Word(letters)


def rng_build_instance(seed: int, n_factors: int = 2) -> CriterionInstance:
    """``criterion.build_instance`` drawn one value at a time with
    ``rng.randint`` and ``rng.choice``, through a probe instance whose R is
    the empty word: the oracle for the library's drawer."""
    n_generators, max_conjugator_len = 2, 3
    rng = random.Random(seed)
    k_aux = [
        ("x%d" % (i + 1), _rng_reduced_word(rng, n_generators, rng.randint(1, 3)))
        for i in range(max(n_factors, 1))
    ]
    l_aux = [
        ("y%d" % (i + 1), _rng_reduced_word(rng, n_generators, rng.randint(1, 3)))
        for i in range(max(n_factors, 1))
    ]
    factors = []
    for _ in range(n_factors):
        factors.append(
            Factor(
                r=ConjugatedRelator(
                    _rng_reduced_word(rng, n_generators, rng.randint(0, max_conjugator_len)),
                    rng.choice(k_aux)[0],
                    rng.choice((1, -1)),
                ),
                s=ConjugatedRelator(
                    _rng_reduced_word(rng, n_generators, rng.randint(0, max_conjugator_len)),
                    rng.choice(l_aux)[0],
                    rng.choice((1, -1)),
                ),
            )
        )
    s_word = _rng_reduced_word(rng, n_generators, rng.randint(1, 4))
    l = Presentation(n_generators, (("S", s_word),) + tuple(l_aux))
    k_probe = Presentation(n_generators, (("R", Word()),) + tuple(k_aux))
    probe = CriterionInstance(k_probe, l, "R", "S", tuple(factors))
    c_inv = invert(commutator_product(probe))
    k = Presentation(n_generators, (("R", reduce(c_inv, s_word)),) + tuple(k_aux))
    return CriterionInstance(k, l, "R", "S", tuple(factors))
