from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smovelab.words import (
    _TEXT_LETTER,
    EMPTY,
    InputError,
    Word,
    commutator,
    format_word,
    invert,
    multiply,
    parse_word,
    reduce,
    substitute,
)

from helpers import conjugate, equal


def _reduce_randomly(letters, rng):
    """Oracle: cancel adjacent inverse pairs in random order until none remain.

    Free reduction is confluent, so the result must match the single-pass
    implementation no matter which cancellation order the oracle picks.
    """
    out = list(letters)
    while True:
        spots = [i for i in range(len(out) - 1) if out[i] == -out[i + 1]]
        if not spots:
            return tuple(out)
        i = rng.choice(spots)
        del out[i : i + 2]


def _random_letters(rng, n_gens=3, max_len=14):
    return [rng.choice([1, -1]) * rng.randint(1, n_gens) for _ in range(rng.randint(0, max_len))]


def test_parse_round_trip_basic():
    for text in ("a", "ab", "abAB", "aBc", "1", "zZ"):
        w = parse_word(text)
        assert format_word(w) == ("1" if reduce(w) == () and text == "1" else text)


def test_parse_escapes_large_alphabet():
    w = parse_word("g27G30a")
    assert tuple(w) == (27, -30, 1)
    assert format_word(w) == "g27G30a"


def test_parse_whitespace_and_empty():
    assert parse_word("  a  b ") == Word([1, 2])
    assert parse_word("1") == EMPTY
    assert parse_word("   ") == EMPTY


def test_parse_rejects_bad_tokens():
    with pytest.raises(InputError):
        parse_word("a-b")
    with pytest.raises(InputError):
        parse_word("g0")
    with pytest.raises(InputError):
        parse_word("2")


def test_parse_respects_alphabet_bound():
    assert parse_word("ab", n_generators=2) == Word([1, 2])
    with pytest.raises(InputError):
        parse_word("abc", n_generators=2)
    with pytest.raises(InputError):
        parse_word("g9", n_generators=8)


def test_word_rejects_zero_letters():
    with pytest.raises(InputError):
        Word([1, 0, 2])


def test_reduce_known_cases():
    assert reduce(parse_word("aA")) == EMPTY
    assert reduce(parse_word("abBA")) == EMPTY
    assert reduce(parse_word("abBc")) == parse_word("ac")
    assert reduce(parse_word("aabB")) == parse_word("aa")
    assert format_word(reduce(parse_word("BaAb"))) == "1"


def test_reduce_matches_random_order_oracle():
    rng = random.Random(20240917)
    for _ in range(300):
        letters = _random_letters(rng)
        got = tuple(reduce(letters))
        want = _reduce_randomly(letters, rng)
        assert got == want


def test_reduce_is_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        w = reduce(_random_letters(rng))
        assert reduce(w) == w
        assert all(a != -b for a, b in zip(w, w[1:]))  # no adjacent x x^-1


def test_invert_involution_and_anti_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        u = reduce(_random_letters(rng))
        v = reduce(_random_letters(rng))
        assert invert(invert(u)) == u
        assert invert(multiply(u, v)) == multiply(invert(v), invert(u))
        assert multiply(u, invert(u)) == EMPTY


def test_invert_checks_letters_unless_given_a_word():
    """A Word's letters are nonzero ints already, so its inverse is built
    from them unchecked; any other iterable is checked as ``Word`` checks."""
    with pytest.raises(InputError):
        invert([1, 0])
    with pytest.raises(InputError):
        invert((0,))
    assert invert([1, -2, 3]) == Word((-3, 2, -1)) and type(invert([1, -2, 3])) is Word
    rng = random.Random(17)
    for _ in range(100):
        w = Word(_random_letters(rng))
        got = invert(w)
        assert type(got) is Word
        assert got == Word(-x for x in reversed(tuple(w)))
        assert all(type(x) is int and x != 0 for x in got)


def test_multiply_associative_on_reduced_forms():
    rng = random.Random(13)
    for _ in range(60):
        u, v, w = (reduce(_random_letters(rng)) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))



def test_conjugate_and_commutator():
    a, b = parse_word("a"), parse_word("b")
    assert conjugate(b, a) == parse_word("abA")
    assert commutator(a, b) == parse_word("abAB")
    assert commutator(a, a) == EMPTY
    # [u, v]^-1 == [v, u]
    rng = random.Random(17)
    for _ in range(50):
        u = reduce(_random_letters(rng))
        v = reduce(_random_letters(rng))
        assert invert(commutator(u, v)) == commutator(v, u)


def test_equal_compares_reduced_forms():
    assert equal(parse_word("abBA"), EMPTY)
    assert equal((1, 2, -2), (1,))
    assert not equal(parse_word("ab"), parse_word("ba"))


def test_substitute_replaces_generator_and_inverse():
    w = parse_word("abA")
    assert substitute(w, 2, parse_word("cc")) == parse_word("accA")
    # B picks up the inverted replacement BA; the trailing Aa then cancels
    assert substitute(parse_word("aBa"), 2, parse_word("ab")) == parse_word("aB")
    # replacing by the generator itself is the identity
    rng = random.Random(19)
    for _ in range(50):
        u = reduce(_random_letters(rng))
        assert substitute(u, 1, (1,)) == u
    with pytest.raises(InputError):
        substitute(w, -1, (1,))


@pytest.mark.parametrize(
    "make,kind,message",
    [
        (lambda: Word([1, 0]), InputError, "word letters must be nonzero integers"),
        (lambda: reduce([2, 0]), InputError, "word letters must be nonzero integers"),
        (lambda: Word(["x"]), ValueError, "invalid literal for int() with base 10: 'x'"),
        (lambda: Word([None]), TypeError, None),
        (lambda: Word(5), TypeError, None),
    ],
    ids=["zero letter", "zero through reduce", "non-numeric letter", "None letter", "not iterable"],
)
def test_word_construction_errors_keep_their_types(make, kind, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is kind
    if message is not None:
        assert str(info.value) == message


def test_word_converts_letters_to_int():
    w = Word(["3", -2.0, True])
    assert tuple(w) == (3, -2, 1) and all(type(x) is int for x in w)
    assert Word(iter([1, -1])) == (1, -1)


def test_letter_table_matches_the_surface_syntax():
    for k in range(1, 61):
        name = chr(ord("a") + k - 1) if k <= 26 else "g%d" % k
        inverse = name.upper() if k <= 26 else "G%d" % k
        assert format_word([k]) == name and format_word([-k]) == inverse
        assert parse_word(name) == Word([k]) and parse_word(inverse) == Word([-k])
    assert format_word(()) == "1" and format_word(iter([2, -27])) == "bG27"


@pytest.mark.parametrize(
    "text,n_generators,message",
    [
        ("a-b", None, "bad word token '-' in 'a-b'"),
        ("g0", None, "generator index must be >= 1 in 'g0'"),
        ("2", None, "bad word token '2' in '2'"),
        ("abc", 2, "generator index 3 out of range (alphabet has 2)"),
        ("G9", 8, "generator index 9 out of range (alphabet has 8)"),
    ],
)
def test_parse_error_messages(text, n_generators, message):
    with pytest.raises(InputError) as info:
        parse_word(text, n_generators)
    assert str(info.value) == message


# --- parts of any kind, checked where they enter ----------------------------

_LETTER = st.integers(-40, 40).filter(bool)  # past 26 a letter is an escape
_PART_KINDS = {
    "Word": Word,
    "tuple": tuple,
    "list": list,
    "iterator": iter,
    "floats": lambda letters: [float(x) for x in letters],
}
_PARTS = st.lists(st.tuples(st.sampled_from(sorted(_PART_KINDS)), st.lists(_LETTER, max_size=10)), max_size=5)


def _all_ints(w):
    return type(w) is Word and all(type(x) is int for x in w)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_PARTS)
@example([("iterator", [1, 2]), ("floats", [-2, -1])])
@example([("Word", [3, 27]), ("list", [-27, -3, 5])])
def test_reduce_and_invert_take_parts_of_any_kind(parts):
    """``reduce(*parts)`` is the oracle's reduction of the concatenation,
    and ``invert`` the letter-by-letter inverse, whatever kind each part
    is; a result is a ``Word`` of ints, and ``Word`` hands a ``Word``
    back as it is."""
    concat = [x for _, letters in parts for x in letters]
    got = reduce(*(_PART_KINDS[kind](letters) for kind, letters in parts))
    assert got == _reduce_randomly(concat, random.Random(len(concat))) and _all_ints(got)
    for kind, letters in parts:
        inv = invert(_PART_KINDS[kind](letters))
        assert inv == tuple(-x for x in reversed(letters)) and _all_ints(inv)
    w = Word(concat)
    assert Word(w) is w and Word(got) is got
    assert parse_word(format_word(w)) == w and parse_word(format_word(got)) == got


def test_format_word_formats_each_escape_once_per_call(monkeypatch):
    import smovelab.words as words

    formatted = []
    real = words._escape_text
    monkeypatch.setattr(words, "_escape_text", lambda x: formatted.append(x) or real(x))
    assert format_word(Word((27, 1, 27, -27, 2, 27, -30))) == "g27ag27G27bg27G30"
    assert sorted(formatted) == [-30, -27, 27]
    formatted.clear()
    assert format_word(Word((27, 27))) == "g27g27" and formatted == [27]


# --- parse_word against the token-by-token parser ---------------------------

_ORACLE_TOKEN = re.compile(r"\s+|g([0-9]+)|G([0-9]+)|[a-z]|[A-Z]|.", re.DOTALL)


def _oracle_parse_word(text, n_generators=None):
    """The parser as it read one token at a time, with escapes taking
    ASCII digits only."""
    stripped = text.strip()
    if stripped == "1" or stripped == "":
        return EMPTY
    letters = []
    for m in _ORACLE_TOKEN.finditer(text):
        tok = m.group(0)
        x = _TEXT_LETTER.get(tok)
        if x is None:
            if tok.isspace():
                continue
            if m.group(1) is not None:
                x = int(m.group(1))
            elif m.group(2) is not None:
                x = -int(m.group(2))
            else:
                raise InputError("bad word token %r in %r" % (tok, text))
        if x == 0:
            raise InputError("generator index must be >= 1 in %r" % text)
        if n_generators is not None and abs(x) > n_generators:
            raise InputError(
                "generator index %d out of range (alphabet has %d)"
                % (abs(x), n_generators)
            )
        letters.append(x)
    return Word(letters)


_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c"])
_ASCII_INDEX = st.text(st.sampled_from("0123456789"), min_size=1, max_size=4) | st.sampled_from(["007", "27", "9" * 30])
_ESCAPE = st.builds("".join, st.tuples(st.sampled_from("gG"), _ASCII_INDEX))
_CLEAN = st.one_of(st.text(st.sampled_from("abcgzABCGZ"), min_size=1, max_size=6), _ESCAPE, _SPACES)
_ODD = st.one_of(
    st.builds("".join, st.tuples(st.sampled_from("gG"), st.sampled_from(["٣", "2٣", "١٠", "\uff17"]))),
    st.builds("".join, st.tuples(st.sampled_from("gG"), _SPACES, _ASCII_INDEX)),
    _ASCII_INDEX,
    st.sampled_from(["1", "-", "!", "é", "ß", "_", "٣", "\x00"]),
)
_SOME_CLEAN = st.lists(_CLEAN, max_size=4)
_TEXTS = st.one_of(
    st.lists(_CLEAN, max_size=8).map("".join),
    st.builds(lambda a, odd, b: "".join(a + [odd] + b), _SOME_CLEAN, _ODD, _SOME_CLEAN),
    st.lists(_CLEAN | _ODD, max_size=8).map("".join),
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_TEXTS, st.none() | st.integers(0, 40))
@example(" 1\t", 3)
@example("g 27", None)
@example("g٣", None)
def test_parse_word_agrees_with_the_token_parser(text, n_generators):
    """Same word, or the same message for the same first bad token.  The
    texts are well formed, or hold one odd piece (a non-ASCII digit, a
    space inside an escape, a stray digit or character), or several."""
    try:
        want = _oracle_parse_word(text, n_generators)
    except InputError as e:
        with pytest.raises(InputError) as info:
            parse_word(text, n_generators)
        assert str(info.value) == str(e)
    else:
        got = parse_word(text, n_generators)
        assert got == want and type(got) is Word


def test_a_well_formed_word_never_runs_the_token_loop(monkeypatch):
    import smovelab.words as words

    def refuse(text, n_generators):
        raise AssertionError("token loop ran on %r" % text)

    monkeypatch.setattr(words, "_parse_tokens", refuse)
    assert parse_word(" ab\tg27G30a\xa0G007 zZ\n", 30) == Word([1, 2, 27, -30, 1, -7, 26, -26])
    assert parse_word("g12345678901234567890") == Word([12345678901234567890])


def test_the_token_loop_only_names_a_bad_token():
    """``parse_word`` sends a text to the token loop only when some token
    of it is bad, so a text with none is a broken invariant, not a word."""
    import smovelab.words as words

    for text, n in (("ab g3", None), ("G12 a", 12), ("", 0)):
        with pytest.raises(RuntimeError, match="has no bad token"):
            words._parse_tokens(text, n)
    with pytest.raises(InputError, match="out of range"):
        words._parse_tokens("a G3", 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: reduce([0]),
        lambda: reduce([0, 0]),
        lambda: reduce([1, 0, 0, -1]),
        lambda: multiply([0], [0]),
        lambda: multiply([1, 0], [0, -1]),
        lambda: commutator([0], [1]),
        lambda: equal([0, 0], ()),
    ],
    ids=["lone zero", "zero pair", "zero pair inside a word", "zeros across factors",
         "zeros across a product's seam", "zero in a commutator", "zeros compared"],
)
def test_zero_letters_that_would_cancel_are_rejected(make):
    """A zero letter is its own inverse, so a pushdown that only compares
    neighbours cancels a pair of them; the letters are checked first."""
    with pytest.raises(InputError, match="word letters must be nonzero integers"):
        make()
