"""Helpers shared by the test modules."""

from __future__ import annotations

import random
from dataclasses import replace

from smovelab.criterion import ConjugatedRelator, CriterionInstance, Factor, InvalidInstance
from smovelab.playground import label_tokens
from smovelab.words import Word


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
        if mutated.expanded() != inst.expanded():
            return mutated
    raise InvalidInstance("could not find a non-absorbed mutation")


def backend_labels(*aseqs, alias: bool = True):
    """The sorted backend labels of the sequences' tokens."""
    return sorted(set(label_tokens(*aseqs, alias=alias).values()))
