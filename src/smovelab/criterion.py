"""Commutator-product verification for relator pairs.

A pair of relators R (in presentation K) and S (in presentation L) passes
the criterion when R.S^-1 equals a product of commutators of conjugated
relators, one commutator per decomposition factor.  One word equation is
computed, the verification form

    R.S^-1.[S_1,R_1]...[S_n,R_n] = 1,

where R_i, S_i are the expanded conjugated relators of factor i.  Free
reduction is unique, so it holds exactly when the product form
R.S^-1 = [R_n,S_n]...[R_1,S_1] does; the tests keep the product form as
an oracle.  The residual of a relator move records the leftover cell:
replacing R by R' leaves L' with L'.R' = R, replacing S by S' leaves
M'^-1 with S'^-1.M'^-1 = S^-1.

An instance is verified once, where it enters: ``build_instance`` checks
its own draw, the CLI verifies a loaded one, and a relator move's
transport satisfies the residual-corrected equation by construction.
``load_instance`` looks up every relator name where it is read, so a
``CriterionInstance`` checks nothing itself.

An instance's reading, its expanded relators R_i, S_i, commutators
[S_i,R_i] and reduced product R.S^-1, is computed once, on first use, and
kept on the instance; every equation and every slice sequence of the
instance reads it there.
"""

from __future__ import annotations

import os
import random
from dataclasses import InitVar, dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

from . import presentations as pres
from .presentations import (
    ConjugateRelator,
    InvertRelator,
    Presentation,
    QMove,
    apply_qmove,
)
from .words import (  # InvalidInstance is defined in words and re-exported here
    InputError,
    InvalidInstance,
    Word,
    _ContentLines,
    _read,
    commutator,
    draw,
    invert,
    parse_word,
    reduce,
)


@dataclass(frozen=True)
class ConjugatedRelator:
    conjugator: Word
    base: str
    exponent: int = 1  # +1 or -1: parse_decomposition reads no other

    def expand(self, w: Word) -> Word:
        """The base relator's word ``w`` raised to the exponent and
        conjugated."""
        if self.exponent == -1:
            w = invert(w)
        return reduce(self.conjugator, w, invert(self.conjugator))


@dataclass(frozen=True)
class Factor:
    r: ConjugatedRelator  # resolves in K
    s: ConjugatedRelator  # resolves in L


class Reading(NamedTuple):
    """Per factor, in decomposition order: the expanded relators
    (R_i, S_i), and the commutators [S_i,R_i]; then reduce(R.S^-1)."""

    expanded: Tuple[Tuple[Word, Word], ...]
    commutators: Tuple[Word, ...]
    product: Word


def _read_factors(factors, k_word, l_word):
    """A reading's expanded relators and commutators, the base relators'
    words looked up by name with ``k_word`` and ``l_word``."""
    expanded = tuple((f.r.expand(k_word(f.r.base)), f.s.expand(l_word(f.s.base))) for f in factors)
    return expanded, tuple(commutator(sw, rw) for rw, sw in expanded)


@dataclass(frozen=True)
class CriterionInstance:
    """R in K against S in L, with the decomposition ``factors``.

    The instance's ``Reading`` is computed by ``read`` on first use and
    kept; it takes no part in comparison, so an instance equals any other
    with the same fields.  An instance built from one already read can be
    handed the reading it would compute (``reading``), as
    ``build_instance`` does.  A copy made with ``dataclasses.replace`` is
    not handed one, since its fields may change what it reads.  It
    checks nothing: ``load_instance`` looks up the relator names it reads,
    and ``build_instance`` draws existing ones."""

    k: Presentation
    l: Presentation
    r_name: str
    s_name: str
    factors: Tuple[Factor, ...]
    reading: InitVar[Optional[Reading]] = None
    _reading: Optional[Reading] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self, reading):
        object.__setattr__(self, "_reading", reading)

    def read(self) -> Reading:
        """Every factor expanded and its commutator formed, and R.S^-1
        reduced, once."""
        if self._reading is None:
            expanded, commutators = _read_factors(self.factors, self.k.word, self.l.word)
            reading = Reading(expanded, commutators, reduce(self.r_word, invert(self.s_word)))
            object.__setattr__(self, "_reading", reading)
        return self._reading

    @property
    def r_word(self) -> Word:
        return self.k.word(self.r_name)

    @property
    def s_word(self) -> Word:
        return self.l.word(self.s_name)


def verification_word(inst: CriterionInstance) -> Word:
    """R.S^-1.[S_1,R_1]...[S_n,R_n], freely reduced."""
    reading = inst.read()
    # free reduction is confluent, so R.S^-1 may enter reduced
    return reduce(reading.product, *reading.commutators)


def verify(inst: CriterionInstance) -> bool:
    return len(verification_word(inst)) == 0


# --- residuals -----------------------------------------------------------


def residual_r(r: Word, r_new: Word) -> Word:
    """Leftover cell of replacing R by R_new: L' with L'.R_new = R."""
    return reduce(r, invert(r_new))


def residual_s(s: Word, s_new: Word) -> Word:
    """Leftover cell of replacing S by S_new: M'^-1 with S_new^-1.M'^-1 = S^-1."""
    return reduce(s_new, invert(s))


# --- seeded instance generation ------------------------------------------


def _random_reduced_word(rng: random.Random, n_gens: int, length: int) -> Word:
    """A reduced word of ``length`` letters, each drawn uniformly from the
    2·n_gens letters and drawn again while it would cancel the one before.
    The letters still missing are drawn together: the loop makes as many
    draws as drawing one letter at a time, so the stream is the same."""
    alphabet = [g for g in range(1, n_gens + 1)] + [-g for g in range(1, n_gens + 1)]
    letters: list[int] = []
    while len(letters) < length:
        for i in draw(rng, length - len(letters), len(alphabet)):
            x = alphabet[i]
            if not (letters and letters[-1] == -x):
                letters.append(x)
    return Word(letters)


def build_instance(seed: int, n_factors: int = 2) -> CriterionInstance:
    """Deterministically draw a verifying instance on two generators:
    random conjugated relators, with conjugators of at most three letters,
    and S, then R = C^-1.S defined by the product form, C the commutator
    product.  No factor conjugates R, so the reading is formed before R
    is known, from the auxiliary relators' words, with reduce(R.S^-1) =
    C^-1, and the instance is handed it.  Every value comes from ``draw``:
    a choice from k items is a draw below k, and a length in [a, b] one in
    [a, b + 1)."""
    if n_factors < 0:
        raise InputError("need a nonnegative factor count")
    n_generators, max_conjugator_len = 2, 3
    rng = random.Random(seed)

    def word(low, high):
        return _random_reduced_word(rng, n_generators, draw(rng, 1, high + 1, low)[0])

    def conjugated(aux):
        conjugator = word(0, max_conjugator_len)
        base = aux[draw(rng, 1, len(aux))[0]][0]
        return ConjugatedRelator(conjugator, base, (1, -1)[draw(rng, 1, 2)[0]])

    k_aux = [("x%d" % (i + 1), word(1, 3)) for i in range(max(n_factors, 1))]
    l_aux = [("y%d" % (i + 1), word(1, 3)) for i in range(max(n_factors, 1))]
    factors = tuple(Factor(r=conjugated(k_aux), s=conjugated(l_aux)) for _ in range(n_factors))
    s_word = word(1, 4)
    l = Presentation(n_generators, (("S", s_word),) + tuple(l_aux))
    expanded, commutators = _read_factors(factors, dict(k_aux).__getitem__, l.word)
    c_inv = invert(reduce(*commutators))
    k = Presentation(n_generators, (("R", reduce(c_inv, s_word)),) + tuple(k_aux))
    inst = CriterionInstance(k, l, "R", "S", factors, reading=Reading(expanded, commutators, c_inv))
    if not verify(inst):
        raise RuntimeError("drawn instance fails the commutator criterion")
    return inst


# --- transport under relator moves ---------------------------------------


@dataclass(frozen=True)
class QMoveTransport:
    instance: CriterionInstance  # carries the moved relator
    residual: Word  # L' (move on R) or M'^-1 (move on S)


def _rebased(c: ConjugatedRelator, m: QMove) -> ConjugatedRelator:
    """``c`` rewritten to expand as before once ``m`` has moved its base:
    R' = R^-1 flips the exponent, and R' = g.R.g^-1 turns the conjugator
    w into w.g^-1."""
    if c.base != m.target:
        return c
    if isinstance(m, InvertRelator):
        return ConjugatedRelator(c.conjugator, c.base, -c.exponent)
    if isinstance(m, ConjugateRelator):
        return ConjugatedRelator(reduce(c.conjugator, (-m.gen,)), c.base, c.exponent)
    raise InputError("cannot right-multiply %s: a decomposition factor conjugates %s itself" % (m.target, m.target))


def transport_qmove(inst: CriterionInstance, m: QMove) -> QMoveTransport:
    """Apply a relator move to R or S and record the leftover cell.

    Every factor that conjugates the moved relator itself is rewritten to
    expand as before, so the moved instance satisfies the criterion with
    the residual in front of R' (a move on R: L'.R'.S^-1 times the
    commutators is 1) or behind S'^-1 (a move on S) by construction, and
    is not verified again.  A right-multiplied relator cannot be
    rewritten that way.
    """
    if m.target == inst.r_name:
        k2 = apply_qmove(inst.k, m)
        factors = tuple(Factor(r=_rebased(f.r, m), s=f.s) for f in inst.factors)
        res = residual_r(inst.r_word, k2.word(inst.r_name))
        return QMoveTransport(replace(inst, k=k2, factors=factors), res)
    if m.target == inst.s_name:
        l2 = apply_qmove(inst.l, m)
        factors = tuple(Factor(r=f.r, s=_rebased(f.s, m)) for f in inst.factors)
        res = residual_s(inst.s_word, l2.word(inst.s_name))
        return QMoveTransport(replace(inst, l=l2, factors=factors), res)
    raise InvalidInstance(
        "move target %r is neither %s nor %s" % (m.target, inst.r_name, inst.s_name)
    )


# --- file formats ---------------------------------------------------------


def _relator_ref(val: str, p: Presentation) -> Tuple[str, int]:
    """A ``<name>^<+1|-1>`` field; the name must be one of ``p``'s relators."""
    if "^" not in val:
        raise InputError("relator reference needs ^+1 or ^-1")
    name, exp = val.rsplit("^", 1)
    if exp not in ("+1", "-1") or not name:
        raise InputError("bad relator reference %r" % val)
    p.word(name)  # an unknown name raises here, on its line
    return name, 1 if exp == "+1" else -1


def parse_decomposition(text: str, k: Presentation, l: Presentation) -> Tuple[Factor, ...]:
    """Lines: ``factor wR=<word> R=<name>^<+1|-1> wS=<word> S=<name>^<+1|-1>``,
    each R= naming a relator of ``k`` and each S= one of ``l``."""
    factors = []
    with _ContentLines(text) as lines:
        for parts in lines:
            if parts[0] != "factor" or len(parts) != 5:
                raise InputError("bad factor line")
            fields = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise InputError("bad field %r" % part)
                key, val = part.split("=", 1)
                fields[key] = val
            if set(fields) != {"wR", "R", "wS", "S"}:
                raise InputError("need wR=, R=, wS=, S= fields")
            r_base, r_exp = _relator_ref(fields["R"], k)
            s_base, s_exp = _relator_ref(fields["S"], l)
            factors.append(
                Factor(
                    r=ConjugatedRelator(parse_word(fields["wR"]), r_base, r_exp),
                    s=ConjugatedRelator(parse_word(fields["wS"]), s_base, s_exp),
                )
            )
    return tuple(factors)


def _instance_fields(text: str) -> Dict[str, Tuple[str, int]]:
    """Each directive's value and the line it is on."""
    fields = {}
    lines = _ContentLines(text)
    with lines as directives:
        for parts in directives:
            if len(parts) != 2 or parts[0] not in ("K", "L", "R", "S", "decomp"):
                raise InputError("bad instance directive")
            if parts[0] in fields:
                raise InputError("duplicate %s" % parts[0])
            fields[parts[0]] = parts[1], lines.lineno
    missing = {"K", "L", "R", "S", "decomp"} - set(fields)
    if missing:
        raise InputError("instance file missing %s" % ", ".join(sorted(missing)))
    return fields


def load_instance(path) -> CriterionInstance:
    """An instance file: ``K <path>``, ``L <path>``, ``R <name>``,
    ``S <name>``, ``decomp <path>``, its paths resolved against the file's
    directory.  Each named file is read on its own, so an error names the
    file that holds it.  Every relator name is looked up here, where it
    arrives, so an unknown one is reported with its file and line; the
    instance is not verified."""
    fields = _read(path, _instance_fields)
    base_dir = os.path.dirname(os.path.abspath(path))
    k = pres.load_presentation(os.path.join(base_dir, fields["K"][0]))
    l = pres.load_presentation(os.path.join(base_dir, fields["L"][0]))
    for key, p in (("R", k), ("S", l)):
        name, lineno = fields[key]
        if name not in p.names():
            raise InputError("%s: line %d: unknown relator %r" % (path, lineno, name))
    factors = _read(os.path.join(base_dir, fields["decomp"][0]), lambda text: parse_decomposition(text, k, l))
    return CriterionInstance(k, l, fields["R"][0], fields["S"][0], factors)
