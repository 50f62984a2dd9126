"""Balanced-presentation bookkeeping: named relators, relator moves
(invert / right-multiply / conjugate), generator substitutions applied to
every relator at once, and prolongation by a fresh generator.

File format (one directive per line, ``#`` comments allowed)::

    gens 2
    rel R abA
    rel S b

Moves file::

    inv R
    mulr R S
    conj R a
    nielsen inv a
    nielsen rmul a b
    nielsen lmul a b
    prolong
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from .words import (
    InputError,
    Word,
    _ContentLines,
    _read,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce,
    substitute,
)


@dataclass(frozen=True)
class Presentation:
    """Named relators over ``generator_count`` generators: the names
    distinct, each word freely reduced and in the alphabet.  Nothing here
    checks that.  ``parse_presentation`` checks a presentation where it
    enters, and the moves below and ``criterion.build_instance`` build
    theirs valid."""

    generator_count: int
    relators: Tuple[Tuple[str, Word], ...]
    _words: Dict[str, Word] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_words", dict(self.relators))

    def names(self) -> Tuple[str, ...]:
        return tuple(self._words)

    def word(self, name: str) -> Word:
        try:
            return self._words[name]
        except KeyError:
            raise InputError("unknown relator %r" % name) from None

    def with_relator(self, name: str, w: Word) -> "Presentation":
        self.word(name)  # existence check
        return Presentation(self.generator_count, tuple({**self._words, name: w}.items()))


# --- relator moves (applied to exactly one relator) ---------------------


@dataclass(frozen=True)
class InvertRelator:
    target: str


@dataclass(frozen=True)
class MultiplyRight:
    target: str
    other: str


@dataclass(frozen=True)
class ConjugateRelator:
    target: str
    gen: int  # signed generator letter


QMove = Union[InvertRelator, MultiplyRight, ConjugateRelator]


def apply_qmove(p: Presentation, m: QMove) -> Presentation:
    old = p.word(m.target)
    if isinstance(m, InvertRelator):
        new = invert(old)
    elif isinstance(m, MultiplyRight):
        if m.other == m.target:
            raise InputError("right-multiply needs two distinct relators")
        new = multiply(old, p.word(m.other))
    elif isinstance(m, ConjugateRelator):
        if m.gen == 0 or abs(m.gen) > p.generator_count:
            raise InputError("conjugating letter out of range")
        new = reduce((m.gen,), old, (-m.gen,))
    else:
        raise InputError("unknown relator move %r" % (m,))
    return p.with_relator(m.target, new)


# --- generator substitutions (applied to every relator) -----------------


@dataclass(frozen=True)
class NielsenMove:
    kind: str  # "inv" | "rmul" | "lmul"
    gen: int
    other: int = 0

    def __post_init__(self):
        if self.kind not in ("inv", "rmul", "lmul"):
            raise InputError("unknown substitution kind %r" % self.kind)
        if self.gen <= 0:
            raise InputError("substitution target must be a positive generator")
        if self.kind != "inv":
            if self.other <= 0:
                raise InputError("substitution partner must be a positive generator")
            if self.other == self.gen:
                raise InputError("substitution needs two distinct generators")

    def replacement(self) -> Word:
        if self.kind == "inv":
            return Word((-self.gen,))
        if self.kind == "rmul":
            return Word((self.gen, self.other))
        return Word((self.other, self.gen))


def apply_nielsen(p: Presentation, m: NielsenMove) -> Presentation:
    if m.gen > p.generator_count or (m.kind != "inv" and m.other > p.generator_count):
        raise InputError("substitution letter out of range")
    repl = m.replacement()
    rels = tuple((n, substitute(w, m.gen, repl)) for n, w in p.relators)
    return Presentation(p.generator_count, rels)


@dataclass(frozen=True)
class Prolong:
    pass


def prolong(p: Presentation) -> Presentation:
    """Add a fresh generator together with the relator equal to it."""
    n = p.generator_count + 1
    name = "t%d" % n
    if name in p.names():
        raise InputError("relator name %s already taken" % name)
    return Presentation(n, p.relators + ((name, Word((n,))),))


Move = Union[QMove, NielsenMove, Prolong]


def apply_move(p: Presentation, m: Move) -> Presentation:
    if isinstance(m, NielsenMove):
        return apply_nielsen(p, m)
    if isinstance(m, Prolong):
        return prolong(p)
    return apply_qmove(p, m)


# --- text format ---------------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    """A presentation file, its relator names checked distinct and its
    words range-checked and stored reduced."""
    n = None
    rels = {}
    with _ContentLines(text) as lines:
        for parts in lines:
            if parts[0] == "gens":
                if n is not None or len(parts) != 2 or not parts[1].isdigit():
                    raise InputError("bad gens directive")
                n = int(parts[1])
            elif parts[0] == "rel":
                if n is None:
                    raise InputError("rel before gens")
                if len(parts) != 3:
                    raise InputError("rel needs a name and a word")
                if parts[1] in rels:
                    raise InputError("duplicate relator name %r" % parts[1])
                rels[parts[1]] = reduce(parse_word(parts[2], n))
            else:
                raise InputError("unknown directive %r" % parts[0])
    if n is None:
        raise InputError("missing gens directive")
    return Presentation(n, tuple(rels.items()))


def format_presentation(p: Presentation) -> str:
    lines = ["gens %d" % p.generator_count]
    lines += ["rel %s %s" % (n, format_word(w)) for n, w in p.relators]
    return "\n".join(lines) + "\n"


def load_presentation(path) -> Presentation:
    return _read(path, parse_presentation)


def _one_letter(tok: str, positive=False) -> int:
    w = parse_word(tok)
    if len(w) != 1:
        raise InputError("expected a single letter, got %r" % tok)
    if positive and w[0] < 0:
        raise InputError("expected a plain generator letter")
    return w[0]


def parse_moves(text: str):
    moves: list[Move] = []
    with _ContentLines(text) as lines:
        for parts in lines:
            head = parts[0]
            if head == "inv" and len(parts) == 2:
                moves.append(InvertRelator(parts[1]))
            elif head == "mulr" and len(parts) == 3:
                moves.append(MultiplyRight(parts[1], parts[2]))
            elif head == "conj" and len(parts) == 3:
                moves.append(ConjugateRelator(parts[1], _one_letter(parts[2])))
            elif head == "nielsen" and len(parts) >= 2:
                kind = parts[1]
                if kind == "inv" and len(parts) == 3:
                    moves.append(NielsenMove("inv", _one_letter(parts[2], True)))
                elif kind in ("rmul", "lmul") and len(parts) == 4:
                    moves.append(NielsenMove(kind, _one_letter(parts[2], True), _one_letter(parts[3], True)))
                else:
                    raise InputError("bad nielsen move")
            elif head == "prolong" and len(parts) == 1:
                moves.append(Prolong())
            else:
                raise InputError("unknown move %r" % " ".join(parts))
    return moves


def load_moves(path):
    return _read(path, parse_moves)
