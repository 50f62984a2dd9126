from __future__ import annotations

import random
from functools import partial

import pytest

from smovelab.criterion import InvalidInstance, build_instance, gauge, transport_qmove
from smovelab.presentations import InvertRelator, ConjugateRelator
from smovelab.slicing import (
    Arc,
    BirthCircle,
    CellToken,
    Circle,
    CirculateStep,
    CommutatorToken,
    DeathCircle,
    IdentifyEdges,
    JoinArcsToCircle,
    JoinCells,
    LONGITUDINAL,
    LocalMove,
    MERIDIAN,
    MergeArcs,
    ReadoutStrand,
    ReorderStep,
    Slice,
    SliceError,
    SliceSequence,
    SpElToken,
    SphereToken,
    SplitCells,
    SplitCircleToArc,
    abstract_ok,
    apply_move,
    boundary_trace,
    build_abstract,
    connect,
    format_abstract,
    format_sequence,
    slice_bag,
    slice_commutator,
    slice_inverse_pair,
    slice_product,
    spel_kinds,
    token_text,
    validate,
)
from smovelab.words import InputError, Word, commutator, invert, parse_word, reduce

from helpers import mutate_conjugator


def _is_cyclic_rotation(u, v):
    u, v = tuple(u), tuple(v)
    return len(u) == len(v) and (u == v or u in tuple(v + v[i:] + v[:i] for i in range(len(v))) or any(v[i:] + v[:i] == u for i in range(len(v))))


def test_inverse_trace_flips_letters_in_place():
    inverse_trace = lambda w: Word(-x for x in w)  # noqa: E731  (flip every letter, keep the order)
    assert inverse_trace(parse_word("aabb")) == parse_word("AABB")
    assert inverse_trace(parse_word("aB")) == parse_word("Ab")
    assert inverse_trace(()) == Word()
    w = parse_word("abAB")
    assert inverse_trace(inverse_trace(w)) == w


def test_apply_move_basic_lifecycle():
    cs = apply_move((), BirthCircle(("x", "y")))
    assert cs == (Circle(("x", "y")),)
    cs = apply_move(cs, SplitCircleToArc(0, "x", "y"))
    assert cs == (Arc("x", "y"),)
    cs = apply_move(cs, CirculateStep(0, 2, "x"))
    assert cs[0].trace == Word([2])
    cs = apply_move(cs, JoinArcsToCircle(0))
    assert cs == (Circle(("x", "y")),)
    assert apply_move(cs, DeathCircle(0)) == ()


def test_apply_move_errors():
    with pytest.raises(SliceError):
        apply_move((), DeathCircle(0))
    with pytest.raises(SliceError):
        apply_move((Circle(("x",)),), CirculateStep(0, 1, "x"))
    arc = apply_move(apply_move((), BirthCircle(("x", "y"))), SplitCircleToArc(0, "x", "y"))
    with pytest.raises(SliceError):
        apply_move(arc, CirculateStep(0, 0, "x"))
    with pytest.raises(SliceError):
        apply_move(arc, JoinArcsToCircle(0, 0))
    with pytest.raises(SliceError):
        apply_move(arc, MergeArcs(0, 0))
    with pytest.raises(SliceError):
        apply_move((Circle(("a", "b")),), SplitCells(0, ("b",), ("a",)))


def test_identify_reorder_saddle_and_cells():
    cs = (Circle(("R", "R^-1")), Arc("R", "R^-1", Word([1])))
    cs = apply_move(cs, IdentifyEdges("R", "R^-1"))
    assert cs == (Circle(("R", "R")), Arc("R", "R", Word([1])))
    cs2 = apply_move(cs, ReorderStep(1))
    assert cs2[1] == Arc("R", "R", Word([1]))
    cells = (Circle(("a",)), Circle(("b", "c")))
    joined = apply_move(cells, JoinCells(0, 1))
    assert joined == (Circle(("a", "b", "c")),)
    back = apply_move(joined, SplitCells(0, ("a",), ("b", "c")))
    assert back == cells


def test_merge_arcs_concatenates_traces():
    cs = (Arc("p", "q", Word([1, 2])), Arc("u", "v", Word([-1])))
    plain = apply_move(cs, MergeArcs(0, 1))
    assert plain == (Arc("p", "v", Word([1, 2, -1])),)
    absorbed = apply_move(cs, MergeArcs(0, 1, absorb=True))
    assert absorbed == (Arc("p", "q", Word([1, 2, -1])),)


def test_validate_replays_and_localizes_failures():
    seq = slice_bag(parse_word("ab"))
    assert validate(seq)
    # tamper with one intermediate slice
    bad_slices = list(seq.slices)
    bad_slices[3] = Slice(3, (Circle(("oops",)),) + seq.slices[3].components[1:])
    bad = SliceSequence(tuple(bad_slices), seq.moves, seq.readout)
    v = validate(bad)
    assert not v
    assert v.index == 3
    # arity rule
    assert not validate(SliceSequence(seq.slices, seq.moves[:-1], seq.readout))
    assert not validate(SliceSequence((), (), ()))
    # level numbering
    shifted = (Slice(5, seq.slices[0].components),) + seq.slices[1:]
    assert not validate(SliceSequence(shifted, seq.moves, seq.readout))


def test_boundary_requires_valid_sequence():
    seq = slice_bag(parse_word("a"))
    broken = SliceSequence(seq.slices, seq.moves[:-1], seq.readout)
    with pytest.raises(SliceError):
        boundary_trace(broken)
    with pytest.raises(SliceError):
        boundary_trace(SliceSequence(seq.slices, seq.moves, (ReadoutStrand("W", "mirror"),)))


def test_bag_boundary_is_trivial():
    for text in ("1", "a", "ab", "abA", "aabb"):
        seq = slice_bag(parse_word(text))
        assert validate(seq)
        assert boundary_trace(seq) == Word()


def test_bag_identify_adds_two_moves():
    w = parse_word("ab")
    plain = slice_bag(w)
    glued = slice_bag(w, identify=True)
    assert len(glued.moves) == len(plain.moves) + 2
    assert validate(glued)
    assert boundary_trace(glued) == Word()


def test_inverse_pair_boundary_is_trivial_and_interleaved():
    seq = slice_inverse_pair(parse_word("ab"))
    assert validate(seq)
    assert boundary_trace(seq) == Word()
    # the two strands circulate in step: letters alternate R, R^-1
    strands = [m.strand for m in seq.moves if isinstance(m, CirculateStep)]
    assert strands == ["R", "R^-1", "R", "R^-1"]


def test_product_boundary_reads_r_s_inverse():
    seq = slice_product(parse_word("abA"), parse_word("b"))
    assert validate(seq)
    assert boundary_trace(seq) == parse_word("abAB")
    assert boundary_trace(slice_product(parse_word("ab"), parse_word("ab"))) == Word()


def test_commutator_boundary_both_dominants():
    r, s = parse_word("a"), parse_word("b")
    for dom in ("R", "S"):
        seq = slice_commutator(r, s, dominant=dom)
        assert validate(seq)
        assert boundary_trace(seq) == parse_word("abAB")
    r, s = parse_word("ab"), parse_word("ba")
    for dom in ("R", "S"):
        assert boundary_trace(slice_commutator(r, s, dominant=dom)) == parse_word("abbaBAAB")
    with pytest.raises(InputError):
        slice_commutator(r, s, dominant="T")


def test_commutator_identify_ladder_is_five_moves():
    r, s = parse_word("ab"), parse_word("b")
    plain = slice_commutator(r, s)
    glued = slice_commutator(r, s, identify=True)
    assert len(glued.moves) == len(plain.moves) + 5
    assert validate(glued)
    assert boundary_trace(glued) == boundary_trace(plain)


def test_commutator_boundary_is_cyclic_rotation_of_commutator():
    for r_text, s_text in (("a", "b"), ("ab", "ba"), ("aab", "b")):
        r, s = parse_word(r_text), parse_word(s_text)
        want = commutator(r, s)
        for dom in ("R", "S"):
            got = boundary_trace(slice_commutator(r, s, dominant=dom))
            assert _is_cyclic_rotation(got, want)


def test_connect_single_piece_wraps_with_root():
    piece = slice_product(parse_word("abA"), parse_word("b"))
    seq = connect([piece])
    assert validate(seq)
    assert boundary_trace(seq) == parse_word("abAB")
    assert isinstance(seq.moves[0], BirthCircle)
    assert isinstance(seq.moves[-1], DeathCircle)
    # strands gain the piece prefix
    assert all(r.key.startswith("0:") for r in seq.readout)


def test_connect_concatenates_piece_boundaries():
    pieces = [slice_commutator(parse_word("a"), parse_word("b")) for _ in range(3)]
    seq = connect(pieces)
    assert validate(seq)
    assert boundary_trace(seq) == parse_word("abABabABabAB")
    # circulation moves are replayed verbatim (same letter multiset)
    want = sorted(m.letter for p in pieces for m in p.moves if isinstance(m, CirculateStep))
    got = sorted(m.letter for m in seq.moves if isinstance(m, CirculateStep))
    assert got == want


def test_connect_mixed_pieces_and_errors():
    pieces = [
        slice_bag(parse_word("ab")),
        slice_inverse_pair(parse_word("a")),
        slice_product(parse_word("ab"), parse_word("b")),
    ]
    seq = connect(pieces)
    assert validate(seq)
    # trivial bag and pair boundaries, then ab.B from the product piece
    assert boundary_trace(seq) == parse_word("a")
    with pytest.raises(InputError):
        connect([])
    broken = SliceSequence(pieces[0].slices, pieces[0].moves[:-1], pieces[0].readout)
    with pytest.raises(SliceError):
        connect([broken, pieces[1]])


def test_format_sequence_shape():
    text = format_sequence(slice_product(parse_word("a"), parse_word("b")))
    lines = text.splitlines()
    assert lines[0] == "slice 0"
    assert any(l.startswith("-- BirthCircle") for l in lines)
    assert any(l.startswith("A[") and "trace=" in l for l in lines)
    assert any(l.startswith("C[") for l in lines)
    assert text.endswith("\n")


def test_spel_kinds_by_identification():
    assert spel_kinds(LONGITUDINAL) == ("invpair", "bag")
    assert spel_kinds(MERIDIAN) == ("bag", "invpair")
    with pytest.raises(InputError):
        spel_kinds("diagonal")


def test_token_text():
    assert token_text(SphereToken()) == "S2"
    assert token_text(CellToken(parse_word("ab"))) == "cell:ab"
    assert token_text(SpElToken("bag", parse_word("a"), 0)) == "spel:bag:a"
    assert token_text(CommutatorToken(parse_word("abAB"), 1)) == "comm:abAB"


def test_build_abstract_structure():
    inst = build_instance(12)
    aseq = build_abstract(inst, LONGITUDINAL)
    assert abstract_ok(aseq)
    assert len(aseq.slices) == 8
    assert aseq.perturbation_index == 3
    assert len(aseq.transitions) == 7
    assert aseq.factor_count == len(inst.factors)
    s = aseq.slices
    assert s[0].tokens == () and s[7].tokens == ()
    assert s[1].tokens == (SphereToken(), SphereToken()) == s[6].tokens
    assert s[5].tokens == (CellToken(Word()),)
    # before the perturbation: product cell plus two spherical elements
    # per factor; after: product cell plus one commutator per factor
    n = len(inst.factors)
    assert sum(isinstance(t, SpElToken) for t in s[3].tokens) == 2 * n
    assert sum(isinstance(t, CommutatorToken) for t in s[4].tokens) == n
    prod = CellToken(reduce(tuple(inst.r_word) + tuple(invert(inst.s_word))))
    assert prod in s[3].tokens and prod in s[4].tokens


def test_build_abstract_spel_kinds_swap_between_types():
    inst = build_instance(3)
    lon = build_abstract(inst, LONGITUDINAL)
    mer = build_abstract(inst, MERIDIAN)
    lon_spels = [t for t in lon.slices[3].tokens if isinstance(t, SpElToken)]
    mer_spels = [t for t in mer.slices[3].tokens if isinstance(t, SpElToken)]
    assert [t.kind for t in lon_spels[0::2]] == ["invpair"] * len(inst.factors)
    assert [t.kind for t in lon_spels[1::2]] == ["bag"] * len(inst.factors)
    assert [(t.kind, t.word) for t in mer_spels] == [
        ({"invpair": "bag", "bag": "invpair"}[t.kind], t.word) for t in lon_spels
    ]


def test_build_abstract_orientation_inverts_every_word():
    inst = build_instance(8)
    fwd = build_abstract(inst, LONGITUDINAL)
    rev = build_abstract(inst, LONGITUDINAL, orientation=-1)
    for a, b in zip(fwd.slices, rev.slices):
        for ta, tb in zip(a.tokens, b.tokens):
            if hasattr(ta, "word"):
                assert tb.word == invert(ta.word)
    with pytest.raises(InputError):
        build_abstract(inst, LONGITUDINAL, orientation=0)


def test_build_abstract_rejects_broken_instance():
    inst = build_instance(4)
    with pytest.raises(InvalidInstance):
        build_abstract(mutate_conjugator(inst, 99), LONGITUDINAL)
    with pytest.raises(InputError):
        build_abstract(inst, "sideways")


def test_build_abstract_residual_riders():
    inst = build_instance(6)
    t = transport_qmove(inst, InvertRelator("R"))
    aseq = build_abstract(t.instance, LONGITUDINAL, residual=t.residual, residual_side="r")
    assert abstract_ok(aseq)
    rider = CellToken(Word(t.residual))
    assert rider in aseq.slices[3].tokens and rider in aseq.slices[4].tokens
    t2 = transport_qmove(inst, ConjugateRelator("S", 1))
    aseq2 = build_abstract(t2.instance, LONGITUDINAL, residual=t2.residual, residual_side="s")
    assert abstract_ok(aseq2)
    # the wrong side rejects the residual-corrected equation
    with pytest.raises(InvalidInstance):
        build_abstract(t.instance, LONGITUDINAL, residual=t.residual, residual_side="s")
    with pytest.raises(InputError):
        build_abstract(t.instance, LONGITUDINAL, residual=t.residual, residual_side="q")


def test_gauged_instance_with_reversed_orientation_builds():
    inst = build_instance(10)
    aseq = build_abstract(gauge(inst), MERIDIAN, orientation=-1)
    assert abstract_ok(aseq)
    assert aseq.identification == MERIDIAN


def test_format_abstract_marks_perturbation():
    inst = build_instance(2)
    text = format_abstract(build_abstract(inst, MERIDIAN))
    lines = text.splitlines()
    assert lines[0] == "identification meridian"
    assert lines[1] == "slice 0: (empty)"
    assert "<- perturbation" in lines[4]
    assert "S2 S2" in lines[2]


def _built_pieces():
    r, s = parse_word("abA"), parse_word("bb")
    return {
        "bag": (slice_bag(r), Word()),
        "bag identify": (slice_bag(r, identify=True), Word()),
        "inverse pair": (slice_inverse_pair(r), Word()),
        "commutator R": (slice_commutator(r, s, dominant="R"), parse_word("abAbbaBABB")),
        "commutator S": (slice_commutator(r, s, dominant="S"), parse_word("abAbbaBABB")),
        "product": (slice_product(r, s), parse_word("abABB")),
        "connect": (
            connect([slice_product(r, s), slice_commutator(r, s, identify=True)]),
            parse_word("abABBabAbbaBABB"),
        ),
    }


def test_builder_output_is_read_without_replay(monkeypatch):
    import dataclasses

    import smovelab.slicing as slicing

    pieces = _built_pieces()
    replayed = {name: boundary_trace(dataclasses.replace(seq)) for name, (seq, _) in pieces.items()}
    calls = []
    real = slicing.apply_move
    monkeypatch.setattr(slicing, "apply_move", lambda cs, m: calls.append(m) or real(cs, m))
    for name, (seq, want) in pieces.items():
        assert boundary_trace(seq) == want == replayed[name], name
    assert calls == []


def test_connect_does_not_revalidate_built_pieces(monkeypatch):
    import smovelab.slicing as slicing

    pieces = [slice_bag(parse_word("ab")), slice_product(parse_word("a"), parse_word("b"))]

    def refuse(seq):
        raise AssertionError("built piece was replayed")

    monkeypatch.setattr(slicing, "validate", refuse)
    assert boundary_trace(connect(pieces)) == parse_word("aB")


def test_copies_of_builder_output_are_replayed():
    import dataclasses

    seq = slice_commutator(parse_word("ab"), parse_word("b"))
    copy = dataclasses.replace(seq)
    assert copy == seq and repr(copy) == repr(seq)
    assert "_built" not in repr(seq)
    with pytest.raises(SliceError):
        boundary_trace(dataclasses.replace(seq, moves=seq.moves[:-1]))
    with pytest.raises(SliceError):
        connect([dataclasses.replace(seq, moves=seq.moves[:-1])])
    bad = list(seq.slices)
    bad[4] = Slice(4, ())
    with pytest.raises(SliceError):
        boundary_trace(dataclasses.replace(seq, slices=tuple(bad)))


def test_arc_traces_are_plain_int_tuples():
    seq = slice_product(parse_word("ab"), parse_word("a"))
    traces = [c.trace for sl in seq.slices for c in sl.components if isinstance(c, Arc)]
    assert traces and all(type(t) is tuple for t in traces)
    assert (1, 2) in traces and (1, 2, -1) in traces


# --- format_sequence against the per-arc formatter --------------------------


def _oracle_word(w):
    out = []
    for x in w:
        k = abs(x)
        if k <= 26:
            c = chr(ord("a") + k - 1)
            out.append(c if x > 0 else c.upper())
        else:
            out.append(("g%d" if x > 0 else "G%d") % k)
    return "".join(out) if out else "1"


def _oracle_format_sequence(seq):
    """Every arc's trace formatted from scratch, letter by letter."""
    from smovelab.slicing import _move_text

    lines = []
    for k, s in enumerate(seq.slices):
        lines.append("slice %d" % s.level)
        for c in s.components:
            if isinstance(c, Circle):
                lines.append("C[%s]" % ",".join(c.marks))
            else:
                lines.append("A[%s,%s;trace=%s]" % (c.left, c.right, _oracle_word(c.trace)))
        if k < len(seq.moves):
            lines.append(_move_text(seq.moves[k]))
    return "\n".join(lines) + "\n"


def _oracle_pieces():
    """Piece name -> a function that builds the piece.  Nothing is built
    here, at collection, so a builder fault fails only the tests of the
    pieces it breaks."""
    rng = random.Random(11)

    def word(n):
        return Word(rng.choice((1, 2, 3, 27, 30)) * rng.choice((1, -1)) for _ in range(n))

    r, s, e = word(23), word(17), Word()
    esc = parse_word("g27aG30g27")
    out = {}
    for w_name, w in (("r", r), ("empty", e), ("escapes", esc)):
        out["bag %s" % w_name] = partial(slice_bag, w)
        out["bag identify %s" % w_name] = partial(slice_bag, w, identify=True)
        out["invpair %s" % w_name] = partial(slice_inverse_pair, w)
    for (r_name, rw), (s_name, sw) in (
        (("r", r), ("s", s)),
        (("empty", e), ("s", s)),
        (("r", r), ("empty", e)),
        (("escapes", esc), ("escapes", esc)),
    ):
        for dom in ("R", "S"):
            for identify in (False, True):
                key = "comm %s %s dominant %s%s" % (r_name, s_name, dom, " identify" if identify else "")
                out[key] = partial(slice_commutator, rw, sw, dominant=dom, identify=identify)
        out["prod %s %s" % (r_name, s_name)] = partial(slice_product, rw, sw)
    out["connect two"] = lambda: connect([slice_product(r, s), slice_commutator(esc, s, identify=True)])
    out["connect three"] = lambda: connect(
        [slice_bag(r, identify=True), slice_inverse_pair(esc), slice_commutator(s, r, dominant="S")]
    )
    out["connect one"] = lambda: connect([slice_commutator(r, s)])
    return out


@pytest.mark.parametrize("name", sorted(_oracle_pieces()))
def test_format_sequence_matches_the_per_arc_formatter_on_built_pieces(name):
    seq = _oracle_pieces()[name]()
    assert format_sequence(seq) == _oracle_format_sequence(seq)


def _hand_made(*levels, moves=None):
    """An unbuilt sequence with the given component tuples per level; its
    moves default to endpoint reorders and need not replay."""
    slices = tuple(Slice(k, tuple(cs)) for k, cs in enumerate(levels))
    if moves is None:
        moves = tuple(ReorderStep(0) for _ in levels[1:])
    return SliceSequence(slices, tuple(moves))


def _fresh(letters):
    """A trace equal to ``letters`` but a distinct tuple object."""
    return tuple(list(letters))


def test_format_sequence_matches_the_per_arc_formatter_on_hand_made_sequences():
    t1, t2 = (1, -2), (27, 3)
    cases = {
        # the merged arc sits at the higher index, another arc below it
        "merge kept high": _hand_made(
            (Arc("p", "q", t1), Arc("u", "v", t2)),
            (Arc("x", "y", (5,)), Arc("p", "v", t1 + t2)),
            moves=(MergeArcs(0, 1),),
        ),
        # the first operand is at the higher index and the merge lands low
        "merge from high": _hand_made(
            (Arc("p", "q", t1), Arc("u", "v", t2)),
            (Arc("u", "q", t2 + t1),),
            moves=(MergeArcs(1, 0),),
        ),
        "identify renames": _hand_made(
            (Arc("R", "R^-1", t1), Circle(("R^-1", "x"))),
            (Arc("R", "R", t1), Circle(("R", "x"))),
            moves=(IdentifyEdges("R", "R^-1"),),
        ),
        "reorder swaps": _hand_made(
            (Arc("a", "b", t2),),
            (Arc("b", "a", t2),),
            (Arc("b", "a", t2 + (-30,)),),
            moves=(ReorderStep(0), CirculateStep(0, -30, "a")),
        ),
        "equal but distinct traces": _hand_made(
            (Arc("a", "b", t1),),
            (Arc("a", "b", _fresh(t1)),),
            (Arc("a", "b", _fresh(t1) + (4,)),),
        ),
        "shrink, diverge, empty": _hand_made(
            (Arc("a", "b", (1, 2, 3)),),
            (Arc("a", "b", (1, 2)),),
            (Arc("a", "b", (1, -2, 3)),),
            (Arc("a", "b", ()),),
            (Arc("a", "b", (7,)),),
        ),
        "arc under a circle or nothing": _hand_made(
            (Circle(("m",)),),
            (Arc("a", "b", (1,)), Arc("c", "d", (1, 2))),
            (Circle(()), Arc("c", "d", (1, 2, 3)), Arc("e", "f", (1, 2, 3, 4))),
        ),
    }
    for name, seq in cases.items():
        assert format_sequence(seq) == _oracle_format_sequence(seq), name


def test_format_sequence_matches_the_per_arc_formatter_on_random_hand_made_sequences():
    rng = random.Random(2024)
    letters = (1, -1, 2, -2, 26, -26, 27, -27, 40)
    for _ in range(300):
        levels = [[]]
        for _ in range(rng.randint(1, 9)):
            cs = list(levels[-1])
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(7)
                i = rng.randrange(len(cs)) if cs else None
                arc = cs[i] if i is not None and isinstance(cs[i], Arc) else None
                if op == 0 or arc is None:
                    cs.insert(rng.randint(0, len(cs)), Arc("l", "r", tuple(rng.choices(letters, k=rng.randint(0, 3)))))
                elif op == 1:
                    cs[i] = Arc(arc.left, arc.right, arc.trace + tuple(rng.choices(letters, k=rng.randint(1, 3))))
                elif op == 2:
                    cs[i] = Arc(arc.right, arc.left, _fresh(arc.trace))
                elif op == 3:
                    cs[i] = Arc(arc.left, arc.right, arc.trace[: rng.randint(0, len(arc.trace))])
                elif op == 4:
                    j = rng.randrange(len(cs))
                    cs[i], cs[j] = cs[j], cs[i]
                elif op == 5:
                    cs[i] = Circle((arc.left,))
                else:
                    del cs[i]
            levels.append(cs)
        seq = _hand_made(*levels)
        assert format_sequence(seq) == _oracle_format_sequence(seq)


@pytest.mark.parametrize("dominant", ["R", "S"])
@pytest.mark.parametrize("identify", [False, True])
def test_format_sequence_formats_each_letter_a_bounded_number_of_times(monkeypatch, dominant, identify):
    import smovelab.slicing as slicing

    handed = []
    real = slicing.format_word
    monkeypatch.setattr(slicing, "format_word", lambda w: handed.append(len(w)) or real(w))
    for n in (16, 64):
        r = Word((1, 2, -3, 27) * (n // 4))
        s = Word((-2, 30, 1, 1) * (n // 4))
        seq = slice_commutator(r, s, dominant=dominant, identify=identify)
        handed.clear()
        text = slicing.format_sequence(seq)
        assert sum(handed) <= 4 * (len(r) + len(s)) + 8, (n, sum(handed))
        assert text == _oracle_format_sequence(seq)


# --- the move records ------------------------------------------------------


class _UnknownMove:
    pass


def test_unknown_move_type_is_a_slice_error():
    with pytest.raises(SliceError, match="unknown move"):
        apply_move((Circle(("x",)),), _UnknownMove())
    seq = SliceSequence((Slice(0, ()), Slice(1, ())), (_UnknownMove(),))
    v = validate(seq)
    assert not v and v.index == 1 and v.reason.startswith("unknown move")
    with pytest.raises(SliceError, match="unknown move"):
        boundary_trace(seq)


def test_join_cells_needs_two_distinct_circles():
    with pytest.raises(SliceError, match="two distinct circles"):
        apply_move((Circle(("a",)), Circle(("b",))), JoinCells(1, 1))


def test_negative_indices_are_out_of_range():
    cs = (Circle(("a",)), Arc("p", "q", (1,)))
    for m in (DeathCircle(-2), CirculateStep(-1, 1, "p"), ReorderStep(-1)):
        with pytest.raises(SliceError, match="out of range"):
            apply_move(cs, m)


def test_failed_moves_leave_the_builder_unchanged():
    from smovelab.slicing import _Builder

    b = _Builder()
    b.push(BirthCircle(("a",)))
    b.push(SplitCircleToArc(0, "a", "b"))
    before = (b.components, list(b.slices), list(b.moves))
    for m in (MergeArcs(0, 0), CirculateStep(0, 0, "a"), JoinCells(0, 0), SplitCells(0, ("a",), ())):
        with pytest.raises(SliceError):
            b.push(m)
    assert (b.components, b.slices, b.moves) == before
    assert tuple(b._live) == b.components


def test_connect_shifts_every_move_type_by_its_component_positions():
    from smovelab.slicing import _shift_move

    examples = [
        ((Circle(("a",)),), BirthCircle(("x", "y"))),
        ((Arc("p", "q", (1,)), Circle(("a",))), DeathCircle(1)),
        ((Circle(("x", "y")),), SplitCircleToArc(0, "x", "y")),
        ((Arc("p", "q", (1,)), Circle(("a",)), Arc("u", "v", (2,))), JoinArcsToCircle(2, 0, "Q")),
        ((Circle(("a",)), Arc("p", "q", (1,))), JoinArcsToCircle(1)),
        ((Circle(("a",)), Arc("p", "q", (1,))), CirculateStep(1, -2, "R")),
        ((Arc("p", "q", (1,)), Arc("u", "v", (2,))), MergeArcs(1, 0, absorb=True)),
        ((Circle(("R", "R^-1")), Arc("R^-1", "q", (1,))), IdentifyEdges("R", "R^-1")),
        ((Circle(("a",)), Arc("p", "q", (1,))), ReorderStep(1)),
        ((Circle(("a",)), Circle(("b", "c"))), JoinCells(1, 0)),
        ((Circle(("a", "b", "c")),), SplitCells(0, ("a",), ("b", "c"))),
    ]
    assert {type(m) for _, m in examples} == set(LocalMove.__subclasses__())
    pad = (Circle(("root",)), Arc("s", "t", (3,)))
    for cs, m in examples:
        assert apply_move(pad + cs, _shift_move(m, len(pad), "0:")) == pad + apply_move(cs, m), m
    assert _shift_move(CirculateStep(1, -2, "R"), 2, "0:").strand == "0:R"
