"""Helpers shared by the test modules."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import List, Sequence, Tuple

import numpy as np

import smovelab.modmat as modmat
from smovelab.criterion import ConjugatedRelator, CriterionInstance, Factor, InvalidInstance
from smovelab.playground import label_tokens
from smovelab.slicing import CellToken, CommutatorToken, SpElToken
from smovelab.words import Word, invert, reduce


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


def backend_labels(*aseqs, alias: bool = True):
    """The sorted backend labels of the sequences' tokens."""
    return sorted(set(label_tokens(*aseqs, alias=alias).values()))


def random_invertible_diagonal(rng, dim: int, p: int) -> np.ndarray:
    """A diagonal matrix of nonzero entries drawn mod p."""
    return np.diag(np.array(modmat.draw(rng, dim, p, 1), dtype=np.int64))


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by repeated multiplication; a negative e powers the
    inverse."""
    if e < 0:
        a, e = modmat.inverse(a, p), -e
    return modmat.product([a] * e, p, a.shape[0])


# --- the telescoping composition, an oracle for the closed forms -------------


@dataclass(frozen=True)
class StateModuleSeq:
    endos: Tuple[np.ndarray, ...]
    p: int
    dim: int
    inverses: Tuple[np.ndarray, ...]


def state_modules(aseq, b) -> StateModuleSeq:
    """Each slice's endomorphism A_k, the product of its tokens' matrices
    in sorted-label order, with its inverse, the product of their
    inverses."""
    endos, inverses = [], []
    for sl in aseq.slices:
        entries = sorted((b._lookup(t) for t in sl.tokens), key=itemgetter(0))
        endos.append(modmat.product((m for _, m, _ in entries), b.p, b.dim))
        inverses.append(modmat.product((i for _, _, i in entries), b.p, b.dim))
    return StateModuleSeq(tuple(endos), b.p, b.dim, tuple(inverses))


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
