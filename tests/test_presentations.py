from __future__ import annotations

import random
import re

import pytest

from smovelab.presentations import (
    ConjugateRelator,
    InvertRelator,
    MultiplyRight,
    NielsenMove,
    Presentation,
    Prolong,
    apply_move,
    apply_nielsen,
    apply_qmove,
    format_presentation,
    load_presentation,
    parse_moves,
    parse_presentation,
    prolong,
)
from smovelab.words import InputError, Word, invert, parse_word, reduce

from helpers import inverse_qmoves


def _ak3():
    return Presentation(
        2,
        (
            ("R", parse_word("aaaBBB")),
            ("S", parse_word("abaBAB")),
        ),
    )


def test_presentation_reduces_and_validates():
    """A presentation is checked where it is parsed: its words are stored
    reduced, and a repeated name or a letter past the alphabet is an
    error on its line.  A name never holds whitespace, since the fields
    are split on it."""
    p = parse_presentation("gens 2\nrel R aAb\nrel S 1\n")
    assert p.relators == (("R", parse_word("b")), ("S", Word()))
    for text, message in (
        ("gens 2\nrel R a\n# S\nrel R b\n", "line 4: duplicate relator name 'R'"),
        ("gens 1\nrel R ab\n", "line 2: generator index 2 out of range (alphabet has 1)"),
        ("gens 2\nrel bad name a\n", "line 2: rel needs a name and a word"),
        ("gens -1\n", "line 1: bad gens directive"),
    ):
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            parse_presentation(text)
    with pytest.raises(InputError, match="^unknown relator 'nope'$"):
        _ak3().word("nope")
    with pytest.raises(InputError, match="^unknown relator 'nope'$"):
        _ak3().with_relator("nope", Word([1]))
    # a replaced relator keeps its place, and the lookup reads it
    q = _ak3().with_relator("R", Word([1]))
    assert q.relators == (("R", Word([1])), ("S", parse_word("abaBAB")))
    assert q.word("R") == Word([1]) and q.names() == ("R", "S")


def test_invert_relator_is_an_involution():
    p = _ak3()
    q = apply_qmove(p, InvertRelator("R"))
    assert q.word("R") == invert(p.word("R"))
    assert q.word("S") == p.word("S")
    assert apply_qmove(q, InvertRelator("R")) == p


def test_multiply_right_concatenates_reduced():
    p = _ak3()
    q = apply_qmove(p, MultiplyRight("R", "S"))
    assert q.word("R") == reduce(tuple(p.word("R")) + tuple(p.word("S")))
    assert q.word("S") == p.word("S")
    with pytest.raises(InputError):
        apply_qmove(p, MultiplyRight("R", "R"))


def test_conjugate_relator_by_signed_letter():
    p = _ak3()
    q = apply_qmove(p, ConjugateRelator("S", -1))
    assert q.word("S") == reduce((-1,) + tuple(p.word("S")) + (1,))
    with pytest.raises(InputError):
        apply_qmove(p, ConjugateRelator("S", 3))
    with pytest.raises(InputError):
        apply_qmove(p, ConjugateRelator("S", 0))


def test_inverse_qmoves_round_trip_every_kind():
    p = _ak3()
    moves = [
        InvertRelator("R"),
        ConjugateRelator("R", 2),
        ConjugateRelator("S", -1),
        MultiplyRight("S", "R"),
    ]
    for m in moves:
        q = apply_qmove(p, m)
        for undo in inverse_qmoves(m):
            q = apply_qmove(q, undo)
        assert q == p


def test_nielsen_inv_twice_is_identity():
    p = _ak3()
    m = NielsenMove("inv", 1)
    assert apply_nielsen(apply_nielsen(p, m), m) == p


def test_nielsen_rmul_substitutes_everywhere():
    p = _ak3()
    q = apply_nielsen(p, NielsenMove("rmul", 1, 2))
    # every occurrence of a becomes ab, of A becomes BA, then reduce
    for name in p.names():
        want = reduce(
            sum(((1, 2) if x == 1 else (-2, -1) if x == -1 else (x,) for x in p.word(name)), ())
        )
        assert q.word(name) == want


def test_nielsen_lmul_and_undo():
    p = _ak3()
    q = apply_nielsen(p, NielsenMove("lmul", 2, 1))
    # undo: b -> ab followed by b -> Ab returns the original
    r = apply_nielsen(q, NielsenMove("inv", 1))
    r = apply_nielsen(r, NielsenMove("lmul", 2, 1))
    r = apply_nielsen(r, NielsenMove("inv", 1))
    assert r == p


def test_nielsen_move_validation():
    with pytest.raises(InputError):
        NielsenMove("inv", -1)
    with pytest.raises(InputError):
        NielsenMove("rmul", 1, 1)
    with pytest.raises(InputError):
        NielsenMove("swap", 1, 2)
    with pytest.raises(InputError):
        apply_nielsen(_ak3(), NielsenMove("rmul", 1, 3))


def test_prolong_adds_fresh_generator_relator():
    p = _ak3()
    q = prolong(p)
    assert q.generator_count == 3
    assert q.word("t3") == parse_word("c")
    assert q.names() == ("R", "S", "t3")
    r = apply_move(q, Prolong())
    assert r.word("t4") == Word([4])


def test_qmoves_random_walk_stays_invertible():
    rng = random.Random(23)
    p = _ak3()
    walk = []
    q = p
    for _ in range(40):
        kind = rng.randrange(3)
        target = rng.choice(q.names())
        if kind == 0:
            m = InvertRelator(target)
        elif kind == 1:
            other = rng.choice([n for n in q.names() if n != target])
            m = MultiplyRight(target, other)
        else:
            m = ConjugateRelator(target, rng.choice([1, -1, 2, -2]))
        q = apply_qmove(q, m)
        walk.append(m)
    for m in reversed(walk):
        for undo in inverse_qmoves(m):
            q = apply_qmove(q, undo)
    assert q == p


def test_parse_and_format_round_trip(tmp_path):
    text = "# two-generator pair\ngens 2\nrel R aaaBBB  # trefoil-flavored\nrel S abaBAB\n"
    p = parse_presentation(text)
    assert p == _ak3()
    assert parse_presentation(format_presentation(p)) == p
    f = tmp_path / "p.txt"
    f.write_text(format_presentation(p), encoding="utf-8")
    assert load_presentation(f) == p


def test_parse_presentation_errors():
    with pytest.raises(InputError):
        parse_presentation("rel R a\n")
    with pytest.raises(InputError):
        parse_presentation("gens 2\ngens 3\n")
    with pytest.raises(InputError):
        parse_presentation("gens two\n")
    with pytest.raises(InputError):
        parse_presentation("gens 2\nrel R\n")
    with pytest.raises(InputError):
        parse_presentation("gens 2\nfoo bar\n")
    with pytest.raises(InputError):
        parse_presentation("")


def test_parse_moves_full_grammar():
    moves = parse_moves(
        "\n".join(
            [
                "# a sample walk",
                "inv R",
                "mulr R S",
                "conj S A",
                "nielsen inv a",
                "nielsen rmul a b",
                "nielsen lmul b a",
                "prolong",
            ]
        )
    )
    assert moves == [
        InvertRelator("R"),
        MultiplyRight("R", "S"),
        ConjugateRelator("S", -1),
        NielsenMove("inv", 1),
        NielsenMove("rmul", 1, 2),
        NielsenMove("lmul", 2, 1),
        Prolong(),
    ]


def test_parse_moves_errors():
    for bad in ("inv", "mulr R", "conj S ab", "nielsen inv A", "nielsen rmul a", "spin R", "prolong x"):
        with pytest.raises(InputError):
            parse_moves(bad)
