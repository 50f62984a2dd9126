"""Free-group words over a finite generator alphabet.

A word is a sequence of nonzero integers: letter ``k > 0`` is the k-th
generator, ``-k`` its inverse.  Surface syntax uses ``a``..``z`` for
generators 1..26, ``A``..``Z`` for their inverses, and the escape forms
``g<k>`` / ``G<k>`` (k in ASCII digits, no more of them than ``int()``
converts) for larger alphabets.  The empty word is written ``1``.

Letters are checked once, where they enter from outside: ``Word(w)``
converts every letter to an ``int``, rejecting zero and any value
``int()`` would truncate, unless ``w`` is a ``Word`` already (a
``Reduced`` too), which it returns as it is.  Every kernel here takes its
word arguments through that one check and builds its result unchecked: a
``Word`` handed in is not checked again, and the parser builds its words
from its own table's letters.

Free reduction cancels adjacent pairs ``x x^-1``; the normal form is
independent of cancellation order, so ``reduce(*parts)`` makes one
left-to-right pass over all its parts, and a caller hands over the pieces
of a product as they are rather than joining them.  Its result is a
``Reduced``, a ``Word`` whose type records that it is reduced, so a
product of reduced parts cancels only at their joins; ``invert`` of a
``Reduced`` is one too.  A parsed word stays a plain ``Word``, since
``slice piece`` circulates its letters as written.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import chain
from operator import index
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
    """An immutable word; not necessarily freely reduced.  A ``Word`` is
    returned as it is; any other iterable is converted and checked."""

    def __new__(cls, letters: Iterable[int] = ()):
        if isinstance(letters, Word):
            return letters
        letters = tuple(letters)
        try:
            letters = tuple(map(index, letters))  # ints only; int() would truncate 1.5
        except TypeError:
            letters = tuple(map(_integral, letters))
        if 0 in letters:
            raise InputError("word letters must be nonzero integers")
        return super().__new__(cls, letters)

    def __repr__(self):
        return "Word(%r)" % format_word(self)

    def __str__(self):
        return format_word(self)


def _integral(x) -> int:
    """``int(x)``, for a letter that is not an int: a text ``int()`` reads,
    or a number equal to its ``int()``."""
    k = int(x)
    if k != x and not isinstance(x, (str, bytes, bytearray)):
        raise InputError("word letter %r is not an integer" % (x,))
    return k


class Reduced(Word):
    """A freely reduced word: no letter stands next to its inverse.
    ``reduce`` makes them, so ``Reduced(w)`` is ``reduce(w)``."""

    def __new__(cls, letters: Iterable[int] = ()):
        return reduce(letters)


# A Word, or a Reduced, of letters already checked: no conversion, no zero test.
_checked = partial(tuple.__new__, Word)
_reduced = partial(tuple.__new__, Reduced)

EMPTY = Word()

# Escape forms must precede the single-letter alternatives or "g12" would
# tokenize as the letter g followed by stray digits.  An index is ASCII
# digits only: ``\d`` would also take other scripts' decimal digits.
_TOKEN = re.compile(r"\s+|g([0-9]+)|G([0-9]+)|[a-z]|[A-Z]|.", re.DOTALL)
# Only whitespace runs and escapes span more than one character, and
# neither holds a g or G past its first, so every g or G starts a token:
# this splits out exactly the escapes that ``_TOKEN`` reads.
_ESCAPE = re.compile(r"([gG][0-9]+)")


def _escape_text(x: int) -> str:
    return ("g%d" if x > 0 else "G%d") % abs(x)


class _EscapeLetters(dict):
    """One ``parse_word`` call's token table, a copy of the letters': each
    escape is converted the first time it is read, then kept.  A zero
    index, an index past ``int()``'s digit limit, and a lone character no
    letter spells (its index is empty) raise ``ValueError``."""

    def __missing__(self, token):
        k = int(token[1:])
        if not k:
            raise ValueError("zero index")
        self[token] = x = k if token[0] == "g" else -k
        return x


class _LetterText(dict):
    """Letter -> surface text; indices past 26 fall through to the escapes."""

    def __missing__(self, x):
        return _escape_text(x)


class _EscapesOnce(dict):
    """One ``format_word`` call's letter table: each escape is formatted
    the first time it is read, then kept."""

    def __missing__(self, x):
        self[x] = text = _escape_text(x)
        return text


# One table for both directions: a..z are generators 1..26, A..Z their inverses.
_PLAIN_TEXT = {
    sign * k: c if sign > 0 else c.upper()
    for k, c in enumerate("abcdefghijklmnopqrstuvwxyz", start=1)
    for sign in (1, -1)
}
_TEXT_LETTER = {c: x for x, c in _PLAIN_TEXT.items()}
_LETTER_TEXT = _LetterText(_PLAIN_TEXT)


def parse_word(text: str, n_generators: int | None = None) -> Word:
    """Parse a word literal; ``1`` (or an all-whitespace string) is empty.

    No token spans whitespace, so each whitespace-free chunk is split at
    its escapes by one regex.  A chunk with no escape maps through the
    letter table in one pass; a chunk with one is read as one stream of
    tokens, its runs' characters with each escape between them, through a
    copy of the table made for this call that converts each distinct
    escape once.  The letters are the table's own, so the word is built
    without a second check.  Anything else in a run, a zero index, an
    index past ``int()``'s digit limit or an index out of range sends the
    text through the token loop, which names the first bad token."""
    stripped = text.strip()
    if stripped == "1" or stripped == "":
        return EMPTY
    letter = _TEXT_LETTER.__getitem__
    token = None
    letters: list[int] = []
    try:
        for chunk in stripped.split():
            parts = _ESCAPE.split(chunk)  # runs, with the escapes between them
            if len(parts) == 1:
                letters += map(letter, chunk)
                continue
            if token is None:
                token = _EscapeLetters(_TEXT_LETTER).__getitem__
            parts[1::2] = zip(parts[1::2])  # an escape is one token
            letters += map(token, chain.from_iterable(parts))
        if n_generators is None or max(map(abs, letters)) <= n_generators:
            return _checked(letters)
    # KeyError: a character no letter spells.  ValueError: the same beside
    # an escape, an index with more digits than int() converts, or a zero
    # index.
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
    """The surface text.  A word of plain letters is one join over the
    a..z table; a word with an escape is joined again over a copy of the
    table made for this call, which formats each distinct escape once."""
    letters = w if isinstance(w, tuple) else tuple(w)  # an iterator may be joined twice
    try:
        return "".join(map(_PLAIN_TEXT.__getitem__, letters)) or "1"
    except KeyError:
        return "".join(map(_EscapesOnce(_PLAIN_TEXT).__getitem__, letters))


def reduce(*parts: Iterable[int]) -> Reduced:
    """Freely reduce the concatenation of ``parts`` in one left-to-right
    pass.  The letters of a ``Reduced`` part cannot cancel each other, so
    it is cancelled only at its join, against the letters before it, and
    the rest is copied.  Any other part goes through a pushdown letter by
    letter; if it is not a ``Word``, it is checked as ``Word`` checks it,
    before any of its letters can cancel."""
    stack: list[int] = []
    for part in parts:
        if type(part) is Reduced:
            n = 0
            for x in part:
                if not stack or stack[-1] != -x:
                    break
                stack.pop()
                n += 1
            stack += part[n:] if n else part
            continue
        if not isinstance(part, Word):
            part = Word(part)
        for x in part:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
    return _reduced(stack)


def invert(w: Iterable[int]) -> Word:
    """The inverse word; the inverse of a ``Reduced`` is one too."""
    if type(w) is Reduced:
        return _reduced([-x for x in w[::-1]])
    if not isinstance(w, Word):
        w = Word(w)
    return _checked([-x for x in w[::-1]])


def multiply(u: Iterable[int], v: Iterable[int]) -> Word:
    return reduce(u, v)


def commutator(u: Iterable[int], v: Iterable[int]) -> Reduced:
    """reduce(u . v . u^-1 . v^-1), with u and v reduced first unless they
    are ``Reduced`` already, so that the four parts cancel only at their
    joins."""
    if type(u) is not Reduced:
        u = reduce(u)
    if type(v) is not Reduced:
        v = reduce(v)
    return reduce(u, v, invert(u), invert(v))


def substitute(w: Iterable[int], gen: int, repl: Iterable[int]) -> Word:
    """Replace generator ``gen`` by ``repl`` (inverse occurrences get
    the inverted replacement), then reduce."""
    if gen <= 0:
        raise InputError("substitute target must be a positive generator index")
    repl = Word(repl)
    repl_inv = invert(repl)
    out: list[int] = []
    for x in Word(w):
        if x == gen:
            out.extend(repl)
        elif x == -gen:
            out.extend(repl_inv)
        else:
            out.append(x)
    return reduce(_checked(out))


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


# The one drawer of seeded values, for instances and backends alike.  It
# lives here, beside the other shared helpers, so that ``criterion`` can
# draw without importing numpy.


def draw(rng, count: int, p: int, low: int = 0) -> list:
    """``count`` integers drawn uniformly from [low, p), the same values,
    leaving ``rng`` in the same state, as ``count`` calls of
    ``rng.randrange(low, p)``: that call too rejects every
    ``getrandbits`` draw of the span's bit length that falls past the
    span.  ``rng.randint(a, b)`` is ``randrange(a, b + 1)``, and
    ``rng.choice(seq)`` is ``seq[randrange(len(seq))]``, so they draw
    this way too.  It skips randrange's argument checks and call layers,
    which cost more than the draw itself."""
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
