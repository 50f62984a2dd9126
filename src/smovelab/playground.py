"""Matrix playground for abstract slice sequences.

Cell tokens get pairwise-commuting invertible matrices over a prime
field; slices multiply out to endomorphisms A_k, levels are connected by
transition maps F_k with F_k · A_k = A_{k+1}, and the invariant of a
sequence is what survives perturbing the spherical-element transition.
The matrices commute, so every analysis reads its answer off in closed
form: the composite of the maps telescopes, and the perturbed one leaves
the product of the spherical-element matrices at the perturbation.  The
tests compose the maps by brute force as an oracle.

A backend is checked where it enters: ``make_backend`` draws one that is
valid by construction, and ``load_backend`` proves a dump valid with
``check_assignment``, the one validation path.  A backend keeps no
inverse; the obstruction inverts the one product it reads.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass, field
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import criterion as crit
from . import modmat
from .slicing import (
    AbstractSequence,
    CommutatorToken,
    LONGITUDINAL,
    MERIDIAN,
    SpElToken,
    SphereToken,
    Token,
    build_abstract,
    token_text,
)
from .words import InputError, _ContentLines, _line_ints, draw

DIAGONAL = "diagonal"
POLY_IN_M = "poly"

PRODUCT = "product"
PERMUTATION_SUM = "permutation_sum"

SPHERE_LABEL = token_text(SphereToken())


def other_type(identification: str) -> str:
    if identification == LONGITUDINAL:
        return MERIDIAN
    if identification == MERIDIAN:
        return LONGITUDINAL
    raise InputError("unknown identification type %r" % identification)


def label_tokens(*aseqs: AbstractSequence) -> Dict[Token, str]:
    """Every distinct token of the sequences with its backend label, each
    labelled once."""
    tokens = {t for aseq in aseqs for sl in aseq.slices for t in sl.tokens}
    return {t: token_text(t, True) for t in tokens}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# The largest matrix dimension a backend may have.  The int64 bound alone
# lets p = 2 through with any d.
MAX_DIM = 256


def _check_field(p: int, d: int):
    """1 ≤ d ≤ MAX_DIM, p prime and every d×d product of residues exact
    in int64 (``modmat._check_bound``).  The bound is checked first; it
    also keeps the trial division in ``is_prime`` short."""
    if d < 1:
        raise InputError("dimension must be positive")
    if d > MAX_DIM:
        raise InputError("dimension must be at most %d, got %d" % (MAX_DIM, d))
    if p >= 2:
        modmat._check_bound(p, d)
    if not is_prime(p):
        raise InputError("p must be prime, got %d" % p)


@dataclass(frozen=True)
class Backend:
    """A commuting assignment of invertible matrices over GF(p), keyed by
    backend label: a word and its inverse share one label, so Z(V) =
    Z(V⁻¹).  It checks nothing itself (see the module docstring).  Each
    token is resolved to its matrix once per backend; ``token_labels``
    hands over labels already formatted (``label_tokens``), so those
    tokens are not labelled again."""

    p: int
    dim: int
    assignment: Dict[str, np.ndarray]
    token_labels: InitVar[Optional[Dict[Token, str]]] = None
    _resolved: Dict[Token, np.ndarray] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, token_labels):
        for t, lab in (token_labels or {}).items():
            if lab in self.assignment:
                self._resolved[t] = self.assignment[lab]

    def value(self, t: Token) -> np.ndarray:
        """A token's matrix; its label is formatted on the first lookup
        only, unless it was handed over."""
        hit = self._resolved.get(t)
        if hit is None:
            lab = token_text(t, True)
            if lab not in self.assignment:
                raise InputError("token %s has no assigned matrix" % lab)
            hit = self._resolved[t] = self.assignment[lab]
        return hit


def check_assignment(p: int, d: int, assignment: Dict[str, np.ndarray]) -> None:
    """Prove that an assignment read from outside is a valid backend:
    field bound, then ``S2`` present, then every matrix invertible (so
    ``S2`` is nonzero), then pairwise commutation.  ``modmat.first_singular``
    proves all the matrices invertible together, with one Gauss-Jordan.
    Diagonal matrices commute over any commutative ring, so the pairwise
    products are only formed when some matrix has a nonzero entry off its
    diagonal."""
    _check_field(p, d)
    if SPHERE_LABEL not in assignment:
        raise InputError("backend dump has no %s token" % SPHERE_LABEL)
    mats = [assignment[k] for k in sorted(assignment)]
    if modmat.first_singular(mats, p) is not None:
        raise InputError("matrix is singular mod %d" % p)
    if not all(map(modmat.is_diagonal, mats)):
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                if not modmat.equal(modmat.mul(a, b, p), modmat.mul(b, a, p), p):
                    raise InputError("assigned matrices do not commute")


def make_backend(
    labels: Iterable[str],
    p: int = 101,
    d: int = 4,
    seed: int = 0,
    family: str = DIAGONAL,
    token_labels: Optional[Dict[Token, str]] = None,
) -> Backend:
    """Deterministic commuting assignment for a finite label set.

    ``family`` draws each label's matrix as a diagonal or as a polynomial
    in one base matrix.  ``token_labels`` is handed to the backend (see
    ``Backend``).

    The backend is valid by construction, so no check is replayed on it:
    diagonal matrices with nonzero entries, or polynomials in one
    invertible base matrix, commute; the sphere is s·I with 2 ≤ s < p,
    which needs p ≥ 3.  Every entry comes from one random stream through
    ``words.draw``: a ``poly`` base first, then the labels in sorted
    order.  The sphere and a diagonal draw are diagonal matrices with
    nonzero entries, so they are invertible.  Their diagonals are kept as
    rows while drawing, and all of them become one (k, d, d) stack
    (``modmat.diagonals``).  The polynomial labels on either side of the
    sphere form at most two runs, and each run is drawn with one draw of
    its coefficients, the same stream as one draw per label, and formed
    with one product (``modmat.polynomials``).  The ``poly`` base and
    polynomials are proved invertible in one batch, the base first, so
    drawing a ``poly`` backend runs one Gauss-Jordan and a diagonal one
    none.

    When a draw in the batch is singular, ``modmat.first_singular`` finds
    the first one from the batch's prefix products; the draws before it
    stand.  The stream resumes right after the singular draw, with that
    draw and every one after it made again, up to 64 times per draw.  To
    get there, a failed batch restarts the stream where the batch
    started, at the seed for the first batch and at a state saved after
    the last failure for a later one, and draws the values again up to
    its singular draw, forming no matrix from them.  So a batch with no
    singular draw saves no state.  The next batch first tries a prefix as
    long as the failed one's was up to its singular draw, so that where
    singular draws are dense (a small field) its search stays near the
    front, and where they are rare it tries the whole batch.
    """
    _check_field(p, d)
    if p < 3:
        raise InputError("a drawn backend needs p >= 3: over GF(2) the only nonzero scalar is the identity")
    if family not in (DIAGONAL, POLY_IN_M):
        raise InputError("unknown backend family %r" % family)
    rng = random.Random(seed)
    order: List[Optional[str]] = sorted(set(labels) | {SPHERE_LABEL})
    if family == POLY_IN_M:
        order.insert(0, None)  # the base matrix, which no label names
    rows: Dict[str, List[int]] = {}  # a diagonal matrix's diagonal
    batch: Dict[Optional[str], np.ndarray] = {}  # the base and the polynomials

    # per label: how many values it draws, and their least value
    layout = {None: (d * d, 0), SPHERE_LABEL: (1, 2), DIAGONAL: (d, 1), POLY_IN_M: (4, 0)}

    def draw_labels(labs) -> list:
        """Each group of labels with its values, in stream order.  The base
        and the sphere stand alone; the labels between them form runs."""
        drawn = []
        for which, run in groupby(labs, lambda lab: lab if lab in (None, SPHERE_LABEL) else family):
            run = list(run)
            n, low = layout[which]
            drawn.append((which, run, draw(rng, n * len(run), p, low)))
        return drawn

    start = tries = 0
    probe = state = None
    while True:
        for which, run, values in draw_labels(order[start:]):
            if which is None:
                base = np.array(values, dtype=np.int64).reshape(d, d)
                batch[None], powers = base, modmat.powers(base, layout[POLY_IN_M][0], p)
            elif which == SPHERE_LABEL:
                rows[SPHERE_LABEL] = values * d
            elif which == DIAGONAL:
                rows.update((lab, values[i * d : (i + 1) * d]) for i, lab in enumerate(run))
            else:
                batch.update(zip(run, modmat.polynomials(values, powers, p)))
        todo = [lab for lab in order[start:] if lab in batch]
        at = modmat.first_singular([batch[lab] for lab in todo], p, probe)
        if at is None:
            break
        # the base or a polynomial is singular: the draws before it stand
        j, probe = order.index(todo[at]), at + 1
        tries = tries + 1 if j == start else 1
        if tries == 64:
            raise InputError("could not draw an invertible %s" % ("base matrix" if order[j] is None else "polynomial"))
        if state is None:
            rng.seed(seed)
        else:
            rng.setstate(state)
        draw_labels(order[start : j + 1])  # the draws alone move the stream on
        state = rng.getstate()
        start = j
    batch.pop(None, None)
    assignment = dict(zip(rows, modmat.diagonals(list(rows.values()))))
    assignment.update(batch)
    return Backend(p, d, assignment, token_labels)


# --- the invariant ------------------------------------------------------------


def resolve(aseq: AbstractSequence, b: Backend) -> None:
    """Look up every token of the sequence in slice order, so that a
    backend missing one names the first.  A verdict printed from a fact
    first resolves the sequences its comparison would read."""
    for sl in aseq.slices:
        for t in sl.tokens:
            b.value(t)


def _product(tokens: Iterable[Token], b: Backend) -> np.ndarray:
    """The product of the tokens' matrices in token order.  Every backend
    commutes and products mod p are exact, so the order does not change
    the result."""
    return modmat.product(map(b.value, tokens), b.p, b.dim)


def _spel_tokens(aseq: AbstractSequence) -> List[SpElToken]:
    return [t for t in aseq.slices[aseq.perturbation_index].tokens if isinstance(t, SpElToken)]


def spel_product(aseq: AbstractSequence, b: Backend) -> np.ndarray:
    return _product(_spel_tokens(aseq), b)


def perturbed_invariant(aseq: AbstractSequence, b: Backend) -> np.ndarray:
    """What survives perturbing the spherical-element transition.

    The perturbed level multiplies each commutator by the spherical
    elements of its factor index, and the later maps stay those of the
    unperturbed sequence.  Every backend commutes, so the composite
    telescopes to exactly the product of the spherical-element matrices
    at the perturbation, which is returned.
    """
    resolve(aseq, b)
    return spel_product(aseq, b)


# --- invariance analyses ----------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    verdict: str  # "Pass" | "Obstructed"
    witness: Optional[str] = None
    detail: str = ""


def qmove_rider(inst, qmove, identification: str) -> AbstractSequence:
    """The sequence of the instance a relator move transports, with the
    leftover cell riding; it carries that cell as ``residual``."""
    t = crit.transport_qmove(inst, qmove)
    return build_abstract(t.instance, identification, residual=t.residual)


def between_type_obstruction(own: AbstractSequence, other: AbstractSequence, b: Backend) -> InvarianceReport:
    """Attempt to carry the perturbed invariant of ``own`` across to
    ``other``, the same instance read with the other identification type,
    along two readings of the joined picture.

    The longer reading refines one step of the shorter one through the
    switched-type spherical elements.  Both readings share the map F2
    from the spherical-element level to the commutator level, which over
    a commuting backend is the commutator product times the inverse of
    ``own``'s spherical-element product.  Carrying the invariant across
    forces F'2 = F2·E_other = F2, which holds only when ``other``'s
    spherical-element product E_other is the identity.
    """
    if other.identification != other_type(own.identification):
        raise InputError("the two sequences must have different identification types")
    resolve(own, b)
    resolve(other, b)
    e_other = spel_product(other, b)
    if modmat.is_identity(e_other, b.p):
        return InvarianceReport("Pass", detail="switched spherical elements are trivial")
    comms = (t for t in own.slices[own.perturbation_index + 1].tokens if isinstance(t, CommutatorToken))
    f2 = modmat.mul(_product(comms, b), modmat.inverse(spel_product(own, b), b.p), b.p)
    return InvarianceReport(
        "Obstructed",
        witness="forced F'2 = F2: %s != %s" % (modmat.to_text(modmat.mul(f2, e_other, b.p)), modmat.to_text(f2)),
        detail="switched spherical-element product is not the identity",
    )


# --- global combination and the three tests ---------------------------------


def global_combine(mats: Sequence[np.ndarray], mode: str, p: int, dim: int) -> np.ndarray:
    """The product of ``mats``, or its sum over every ordering of them.

    The matrices must commute, as products of one backend's matrices do,
    so every ordering has the same product and the sum is n! copies of it.
    """
    mats = list(mats)
    if any(m.shape != (dim, dim) for m in mats):
        raise InputError("dimension mismatch in global combination")
    if mode == PRODUCT:
        return modmat.product(mats, p, dim)
    if mode == PERMUTATION_SUM:
        return math.factorial(len(mats)) % p * modmat.product(mats, p, dim) % p
    raise InputError("unknown combination mode %r" % mode)


# The report of a three-tests run whose comparisons all fail.
COUNTEREXAMPLE_FLAG = (
    "all three comparisons failed: Andrews-Curtis counterexample candidate flagged (protocol report, not a proof)"
)


def three_tests(k_side, l_side, b: Backend, mode: str = PRODUCT) -> bool:
    """Whether the two presentations' combined invariants are equal.

    Each side holds one sequence per relator pair.  The protocol also
    compares each side through its gauge, but every backend aliases a
    word with its inverse, so a gauged sequence carries its own
    sequence's labels and invariant, and all three comparisons are this
    one.
    """
    k_side, l_side = list(k_side), list(l_side)
    if len(k_side) != len(l_side):
        raise InputError("relator pairing mismatch: %d vs %d" % (len(k_side), len(l_side)))

    def combined(side):
        return global_combine([perturbed_invariant(aseq, b) for aseq in side], mode, b.p, b.dim)

    return modmat.equal(combined(k_side), combined(l_side), b.p)


def check_stabilization_count(v: int) -> None:
    """Stabilizing means adding at least one sphere."""
    if v < 1:
        raise InputError("stabilization count must be >= 1")


def stabilization_demo(b: Backend, v: int, inv_k: np.ndarray, inv_l: np.ndarray) -> InvarianceReport:
    """Why sphere stabilization cannot rescue the invariant: both sides
    pick up the same invertible factor Z(S²)^v, so equality after
    stabilization forces equality before it; and over a field no nonzero
    weight annihilates Z(S²).  Neither fact needs a computation: every
    backend has p prime and Z(S²) invertible, a drawn one by
    construction and a loaded one as ``check_assignment`` proves."""
    check_stabilization_count(v)
    witness = (
        "I_K.Z(S2)^%d = I_L.Z(S2)^%d forces I_K = I_L since Z(S2)^%d is invertible; "
        "no nonzero weight annihilates Z(S2) over GF(%d)" % (v, v, v, b.p)
    )
    detail = "unstabilized invariants %s" % (
        "already equal" if modmat.equal(inv_k, inv_l, b.p) else "differ, and stay distinguishable"
    )
    return InvarianceReport("Obstructed", witness=witness, detail=detail)


# --- dump / load ------------------------------------------------------------


def dump_backend(b: Backend) -> str:
    lines = ["p %d d %d" % (b.p, b.dim)]
    for lab in sorted(b.assignment):
        flat = " ".join(map(str, b.assignment[lab].ravel().tolist()))
        lines.append("tok %s %s" % (lab, flat))
    return "\n".join(lines) + "\n"


def load_backend(text: str) -> Backend:
    assignment: Dict[str, np.ndarray] = {}
    with _ContentLines(text) as lines:
        head = next(lines, [])
        if len(head) != 4 or head[0] != "p" or head[2] != "d":
            raise InputError("backend dump must start with 'p <p> d <d>'")
        p, d = _line_ints((head[1], head[3]))
        _check_field(p, d)
        for parts in lines:
            if parts[0] != "tok" or len(parts) != 2 + d * d:
                raise InputError("bad backend line")
            if parts[1] in assignment:
                raise InputError("duplicate token label %s" % parts[1])
            vals = [x % p for x in _line_ints(parts[2:])]  # reduced before int64 holds them
            assignment[parts[1]] = np.array(vals, dtype=np.int64).reshape(d, d)
    check_assignment(p, d, assignment)
    return Backend(p, d, assignment)
