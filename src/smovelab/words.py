"""Free-group words over a finite generator alphabet.

A word is a sequence of nonzero integers: letter ``k > 0`` is the k-th
generator, ``-k`` its inverse.  Surface syntax uses ``a``..``z`` for
generators 1..26, ``A``..``Z`` for their inverses, and the escape forms
``g<k>`` / ``G<k>`` (k in ASCII digits, no more of them than ``int()``
converts) for larger alphabets.  The empty word is written ``1``.

Free reduction cancels adjacent pairs ``x x^-1``; the normal form is
independent of cancellation order, so a single left-to-right pass with a
pushdown suffices.
"""

from __future__ import annotations

import re
from typing import Iterable, List, NoReturn, Optional, Sequence


class InputError(ValueError):
    """Malformed surface input (word literals, file formats, CLI args)."""


# The two error kinds below belong to ``criterion`` and ``slicing``, which
# re-export them.  They live here so that ``cli.main`` can catch them
# without importing either module.


class InvalidInstance(ValueError):
    """A precondition on a criterion instance does not hold."""


class SliceError(ValueError):
    """Structurally invalid slice sequence or move application."""


class Word(tuple):
    """An immutable word; not necessarily freely reduced."""

    def __new__(cls, letters: Iterable[int] = ()):
        letters = tuple(map(int, letters))
        if 0 in letters:
            raise InputError("word letters must be nonzero integers")
        return super().__new__(cls, letters)

    def __repr__(self):
        return "Word(%r)" % format_word(self)

    def __str__(self):
        return format_word(self)

    # Concatenate-then-reduce; use tuple(u) + tuple(v) for raw concatenation.
    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return invert(self)


EMPTY = Word()

# Escape forms must precede the single-letter alternatives or "g12" would
# tokenize as the letter g followed by stray digits.  An index is ASCII
# digits only: ``\d`` would also take other scripts' decimal digits.
_TOKEN = re.compile(r"\s+|g([0-9]+)|G([0-9]+)|[a-z]|[A-Z]|.", re.DOTALL)
# Only whitespace runs and escapes span more than one character, and
# neither holds a g or G past its first, so every g or G starts a token:
# this splits out exactly the escapes that ``_TOKEN`` reads.
_ESCAPE = re.compile(r"([gG])([0-9]+)")


class _LetterText(dict):
    """Letter -> surface text; indices past 26 fall through to the escapes."""

    def __missing__(self, x):
        return ("g%d" if x > 0 else "G%d") % abs(x)


# One table for both directions: a..z are generators 1..26, A..Z their inverses.
_LETTER_TEXT = _LetterText(
    (sign * k, c if sign > 0 else c.upper())
    for k, c in enumerate("abcdefghijklmnopqrstuvwxyz", start=1)
    for sign in (1, -1)
)
_TEXT_LETTER = {c: x for x, c in _LETTER_TEXT.items()}


def parse_word(text: str, n_generators: int | None = None) -> Word:
    """Parse a word literal; ``1`` (or an all-whitespace string) is empty.

    No token spans whitespace, so each whitespace-free chunk is split at
    its escapes by one regex, and each plain run between them maps through
    the letter table in one pass.  Anything else in a run, a zero index,
    an index past ``int()``'s digit limit or an index out of range sends
    the text through the token loop, which names the first bad token."""
    stripped = text.strip()
    if stripped == "1" or stripped == "":
        return EMPTY
    letter = _TEXT_LETTER.__getitem__
    letters: list[int] = []
    try:
        for chunk in stripped.split():
            parts = _ESCAPE.split(chunk)  # run, then (g or G, index, run) per escape
            letters += map(letter, parts[0])
            for sign, index, run in zip(parts[1::3], parts[2::3], parts[3::3]):
                k = int(index)
                letters.append(k if sign == "g" else -k)
                letters += map(letter, run)
        if n_generators is None or max(map(abs, letters)) <= n_generators:
            return Word(letters)
    # KeyError: a character no letter spells.  ValueError: an index with
    # more digits than int() converts, or a zero index, which Word rejects.
    except (KeyError, ValueError):
        pass
    _parse_tokens(text, n_generators)


def _parse_tokens(text: str, n_generators: int | None) -> NoReturn:
    """Raise on the first bad token of a text ``parse_word`` rejected."""
    for m in _TOKEN.finditer(text):
        tok = m.group(0)
        x = _TEXT_LETTER.get(tok)
        if x is None:
            if tok.isspace():
                continue
            index = m.group(1) or m.group(2)
            if index is None:
                raise InputError("bad word token %r in %r" % (tok, text))
            try:
                x = int(index)
            except ValueError:  # past the interpreter's limit, 4,300 digits by default
                raise InputError("generator index has too many digits in token %r" % tok) from None
            if x == 0:
                raise InputError("generator index must be >= 1 in %r" % text)
        if n_generators is not None and abs(x) > n_generators:
            raise InputError(
                "generator index %d out of range (alphabet has %d)"
                % (abs(x), n_generators)
            )
    raise RuntimeError("parse_word rejected %r, which has no bad token" % text)


def format_word(w: Iterable[int]) -> str:
    return "".join(map(_LETTER_TEXT.__getitem__, w)) or "1"


def reduce(w: Iterable[int]) -> Word:
    """Freely reduce: single left-to-right pass with a pushdown."""
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return Word(stack)


def invert(w: Iterable[int]) -> Word:
    if isinstance(w, Word):  # its letters are nonzero ints already
        return tuple.__new__(Word, [-x for x in reversed(w)])
    return Word(-x for x in reversed(tuple(w)))


def multiply(u: Iterable[int], v: Iterable[int]) -> Word:
    return reduce(tuple(u) + tuple(v))


def conjugate(w: Iterable[int], by: Iterable[int]) -> Word:
    """reduce(by . w . by^-1)."""
    by = tuple(by)
    return reduce(by + tuple(w) + tuple(invert(by)))


def commutator(u: Iterable[int], v: Iterable[int]) -> Word:
    """reduce(u . v . u^-1 . v^-1)."""
    u, v = tuple(u), tuple(v)
    return reduce(u + v + tuple(invert(u)) + tuple(invert(v)))


def equal(u: Iterable[int], v: Iterable[int]) -> bool:
    """Equality in the free group (compare reduced forms)."""
    return reduce(u) == reduce(v)


def substitute(w: Iterable[int], gen: int, repl: Iterable[int]) -> Word:
    """Replace generator ``gen`` by ``repl`` (inverse occurrences get
    the inverted replacement), then reduce."""
    if gen <= 0:
        raise InputError("substitute target must be a positive generator index")
    repl = Word(repl)
    repl_inv = invert(repl)
    out: list[int] = []
    for x in w:
        if x == gen:
            out.extend(repl)
        elif x == -gen:
            out.extend(repl_inv)
        else:
            out.append(x)
    return reduce(out)


def max_generator(w: Iterable[int]) -> int:
    """Largest generator index used (0 for the empty word)."""
    return max((abs(x) for x in w), default=0)


class _ContentLines:
    """A text's content lines, as a context: ``with _ContentLines(text) as
    lines`` gives the fields of each line left nonblank once its ``#``
    comment is cut, split on whitespace or on ``sep``.  An input error
    raised inside the block names the line last given (line 1 before the
    first), so code after the loop that reports on the whole text belongs
    outside it."""

    def __init__(self, text: str, sep: Optional[str] = None):
        self._text = text
        self._sep = sep
        self.lineno = 1

    def _fields(self):
        for lineno, raw in enumerate(self._text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.lineno = lineno
                yield line.split(self._sep)

    def __enter__(self):
        return self._fields()

    def __exit__(self, kind, err, tb):
        if isinstance(err, InputError):
            raise InputError("line %d: %s" % (self.lineno, err)) from None
        return False


def _read(path, parse):
    """``parse`` applied to the file's text; an input error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except InputError as e:
        raise InputError("%s: %s" % (path, e)) from None


def _line_ints(fields: Sequence[str]) -> List[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InputError("expected integers, got %r" % " ".join(fields)) from None
