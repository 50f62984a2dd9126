from __future__ import annotations

import dataclasses
import random
from functools import partial

import pytest

from smovelab.criterion import build_instance, transport_qmove
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
    SplitCircleToArc,
    apply_move,
    boundary_trace,
    build_abstract,
    format_abstract,
    format_sequence,
    slice_bag,
    slice_commutator,
    slice_inverse_pair,
    slice_product,
    spel_kinds,
    token_text,
)
from smovelab.words import InputError, Word, commutator, invert, parse_word, reduce

from helpers import (
    JoinCells,
    SplitCells,
    _shift_move,
    abstract_ok,
    commutator_product,
    connect,
    gauge,
    gauged_sequence,
    is_cyclic_rotation,
)


def test_inverse_trace_flips_letters_in_place():
    def inverse_trace(w):
        """The letters the R^-1 strand circulates in ``slice_inverse_pair``."""
        steps = [m for m in slice_inverse_pair(w).moves if isinstance(m, CirculateStep)]
        return Word(m.letter for m in steps if m.strand == "R^-1")

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


def test_a_sequence_starts_empty_and_replays_its_moves():
    seq = slice_bag(parse_word("ab"))
    assert SliceSequence(seq.moves, seq.readout) == seq
    assert [s.level for s in seq.slices] == list(range(len(seq.moves) + 1))
    assert seq.slices[0] == Slice(0, ())
    assert seq.slices[3] == Slice(3, (Arc("W^-1", "W"), Circle(("w^-1", "w"))))
    assert SliceSequence(()).slices == (Slice(0, ()),)
    # a bag without its first move: the second split finds one component
    with pytest.raises(SliceError, match=r"^sequence invalid at slice 2: component index 1 out of range$"):
        SliceSequence(seq.moves[1:], seq.readout)


def test_boundary_rejects_an_unknown_readout_transform():
    seq = slice_bag(parse_word("a"))
    with pytest.raises(SliceError, match="unknown readout transform"):
        boundary_trace(SliceSequence(seq.moves, (ReadoutStrand("W", "mirror"),)))


def test_bag_boundary_is_trivial():
    for text in ("1", "a", "ab", "abA", "aabb"):
        seq = slice_bag(parse_word(text))
        assert seq.slices[-1].components == ()
        assert boundary_trace(seq) == Word()


def test_bag_identify_adds_two_moves():
    w = parse_word("ab")
    plain = slice_bag(w)
    glued = slice_bag(w, identify=True)
    assert len(glued.moves) == len(plain.moves) + 2
    assert glued.slices[-1].components == ()
    assert boundary_trace(glued) == Word()


def test_inverse_pair_boundary_is_trivial_and_interleaved():
    seq = slice_inverse_pair(parse_word("ab"))
    assert seq.slices[-1].components == ()
    assert boundary_trace(seq) == Word()
    # the two strands circulate in step: letters alternate R, R^-1
    strands = [m.strand for m in seq.moves if isinstance(m, CirculateStep)]
    assert strands == ["R", "R^-1", "R", "R^-1"]


def test_product_boundary_reads_r_s_inverse():
    seq = slice_product(parse_word("abA"), parse_word("b"))
    assert seq.slices[-1].components == ()
    assert boundary_trace(seq) == parse_word("abAB")
    assert boundary_trace(slice_product(parse_word("ab"), parse_word("ab"))) == Word()


def test_commutator_boundary_both_dominants():
    r, s = parse_word("a"), parse_word("b")
    for dom in ("R", "S"):
        seq = slice_commutator(r, s, dominant=dom)
        assert seq.slices[-1].components == ()
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
    assert glued.slices[-1].components == ()
    assert boundary_trace(glued) == boundary_trace(plain)


def test_commutator_boundary_is_cyclic_rotation_of_commutator():
    for r_text, s_text in (("a", "b"), ("ab", "ba"), ("aab", "b")):
        r, s = parse_word(r_text), parse_word(s_text)
        want = commutator(r, s)
        for dom in ("R", "S"):
            got = boundary_trace(slice_commutator(r, s, dominant=dom))
            assert is_cyclic_rotation(got, want)


def test_connect_single_piece_wraps_with_root():
    piece = slice_product(parse_word("abA"), parse_word("b"))
    seq = connect([piece])
    assert seq.slices[-1].components == ()
    assert boundary_trace(seq) == parse_word("abAB")
    assert isinstance(seq.moves[0], BirthCircle)
    assert isinstance(seq.moves[-1], DeathCircle)
    # strands gain the piece prefix
    assert all(r.key.startswith("0:") for r in seq.readout)


def test_connect_concatenates_piece_boundaries():
    pieces = [slice_commutator(parse_word("a"), parse_word("b")) for _ in range(3)]
    seq = connect(pieces)
    assert seq.slices[-1].components == ()
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
    assert seq.slices[-1].components == ()
    # trivial bag and pair boundaries, then ab.B from the product piece
    assert boundary_trace(seq) == parse_word("a")
    with pytest.raises(InputError):
        connect([])
    # without its final death the bag ends in a circle it does not kill
    open_bag = dataclasses.replace(pieces[0], moves=pieces[0].moves[:-1])
    with pytest.raises(SliceError, match="piece 0 does not end in its own circles"):
        connect([open_bag, pieces[1]])


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


def test_a_gauged_sequence_inverts_every_word():
    inst = build_instance(8)
    fwd = build_abstract(gauge(inst), MERIDIAN)
    rev = gauged_sequence(inst, LONGITUDINAL)
    assert [len(sl.tokens) for sl in fwd.slices] == [len(sl.tokens) for sl in rev.slices]
    for a, b in zip(fwd.slices, rev.slices):
        for ta, tb in zip(a.tokens, b.tokens):
            assert type(ta) is type(tb)
            if hasattr(ta, "word"):
                assert tb.word == invert(ta.word)


def test_build_abstract_rejects_an_unknown_identification():
    """A broken instance is rejected where it enters, not here: the CLI
    verifies a loaded one (``test_cli``) and ``build_instance`` its own."""
    with pytest.raises(InputError, match="^unknown identification type 'sideways'$"):
        build_abstract(build_instance(4), "sideways")


def test_build_abstract_residual_riders():
    inst = build_instance(6)
    for move in (InvertRelator("R"), ConjugateRelator("S", 1)):
        t = transport_qmove(inst, move)
        aseq = build_abstract(t.instance, LONGITUDINAL, residual=t.residual)
        assert abstract_ok(aseq)
        rider = CellToken(Word(t.residual))
        assert rider in aseq.slices[3].tokens and rider in aseq.slices[4].tokens
        # the residual closes the equation in front of R for a move on R
        # and behind S^-1 for a move on S, and not on the other side
        r, s_inv, comm = t.instance.r_word, invert(t.instance.s_word), commutator_product(t.instance)
        closes = (reduce(t.residual, r, s_inv, comm) == (), reduce(r, s_inv, t.residual, comm) == ())
        assert closes == ((True, False) if move.target == inst.r_name else (False, True))


def test_gauged_instance_with_reversed_orientation_builds():
    inst = build_instance(10)
    aseq = gauged_sequence(inst, LONGITUDINAL)
    assert abstract_ok(aseq)
    assert aseq.identification == MERIDIAN


def test_every_built_sequence_has_the_abstract_structure():
    """``smove build`` prints ``structure ok: true`` from the fact that
    ``build_abstract`` either builds this structure or raises; the old
    check judges it over 16,000 built sequences: seeds 0-399, 0-4 factors,
    both types and orientations, plain and swapped: a gauged sequence is
    a swapped instance read with every word inverted."""
    for seed in range(400):
        for n in range(5):
            inst = build_instance(seed, n_factors=n)
            for side in (inst, gauge(inst)):
                for t in (LONGITUDINAL, MERIDIAN):
                    assert abstract_ok(build_abstract(side, t)), (seed, n, t)
                    assert abstract_ok(gauged_sequence(side, t)), (seed, n, t)


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
    import smovelab.slicing as slicing

    pieces = _built_pieces()
    replayed = {name: boundary_trace(dataclasses.replace(seq)) for name, (seq, _) in pieces.items()}
    calls = []
    real = slicing.apply_move
    monkeypatch.setattr(slicing, "apply_move", lambda cs, m: calls.append(m) or real(cs, m))
    for name, (seq, want) in pieces.items():
        assert boundary_trace(seq) == want == replayed[name], name
    assert calls == []


def test_connect_does_not_replay_its_pieces(monkeypatch):
    import smovelab.slicing as slicing

    pieces = [slice_bag(parse_word("ab")), slice_product(parse_word("a"), parse_word("b"))]

    def refuse(cs, m):
        raise AssertionError("a level was replayed")

    monkeypatch.setattr(slicing, "apply_move", refuse)
    assert boundary_trace(connect(pieces)) == parse_word("aB")


def test_copies_are_checked_when_made():
    seq = slice_commutator(parse_word("ab"), parse_word("b"))
    copy = dataclasses.replace(seq)
    assert copy == seq and repr(copy) == repr(seq) and hash(copy) == hash(seq)
    assert repr(seq).startswith("SliceSequence(moves=(")
    with pytest.raises(SliceError, match="^sequence invalid at slice 4: component index 9 out of range$"):
        dataclasses.replace(seq, moves=seq.moves[:4] + (DeathCircle(9),) + seq.moves[5:])
    with pytest.raises(TypeError):  # the levels are read from the moves, never given
        dataclasses.replace(seq, slices=seq.slices)


@pytest.mark.parametrize("name", sorted(_built_pieces()))
def test_making_a_sequence_checks_each_move_once(monkeypatch, name):
    """A step is checked and not applied; every other move is applied
    once, on the live list of the sequence being made, and no level is
    replayed until ``slices`` is read, and then once."""
    import smovelab.slicing as slicing

    seq = _built_pieces()[name][0]
    levels = seq.slices
    seen = []
    for cls in LocalMove.__subclasses__():
        meth = "_check" if cls is CirculateStep else "_apply"
        real = getattr(cls, meth)
        monkeypatch.setattr(cls, meth, lambda m, cs, real=real: seen.append(m) or real(m, cs))
    replayed = []
    real_apply_move = slicing.apply_move
    monkeypatch.setattr(slicing, "apply_move", lambda cs, m: replayed.append(m) or real_apply_move(cs, m))
    copy = SliceSequence(seq.moves, seq.readout)
    assert seen == list(seq.moves) and replayed == []
    assert copy.slices == levels and copy.slices is copy.slices
    assert replayed == list(seq.moves)


def test_arc_traces_are_plain_int_tuples():
    seq = slice_product(parse_word("ab"), parse_word("a"))
    traces = [c.trace for sl in seq.slices for c in sl.components if isinstance(c, Arc)]
    assert traces and all(type(t) is tuple for t in traces)
    assert (1, 2) in traces and (1, 2, -1) in traces


def test_building_reading_and_printing_a_piece_hold_traces_linear_in_its_word(monkeypatch):
    """Building a piece, reading its boundary and printing it make no
    Slice, and the Arcs made on the way hold a number of int letters
    linear in the word; the levels are there when ``slices`` is read."""
    import smovelab.slicing as slicing

    held = []  # int letters in the trace of every Arc made
    made = []  # the level of every Slice made

    class CountingArc(slicing.Arc):
        __slots__ = ()

        def __new__(cls, left, right, trace=()):
            held.append(sum(type(x) is int for x in trace))
            return super().__new__(cls, left, right, trace)

    class CountingSlice(slicing.Slice):
        __slots__ = ()

        def __new__(cls, level, components):
            made.append(level)
            return super().__new__(cls, level, components)

    r = Word((1, 2, -3, 27) * 128)
    s = Word((-2, 30, 1, 1) * 128)
    cases = (
        ("comm", lambda: slice_commutator(r, s), r + s + invert(r) + invert(s), len(r) + len(s)),
        ("bag", lambda: slice_bag(r), Word(), len(r)),
    )
    for name, build, boundary, n in cases:
        with monkeypatch.context() as mp:
            mp.setattr(slicing, "Arc", CountingArc)
            mp.setattr(slicing, "Slice", CountingSlice)
            held.clear()
            made.clear()
            seq = build()
            assert boundary_trace(seq) == reduce(boundary), name
            text = format_sequence(seq)
        assert made == [], name
        assert sum(held) <= 4 * n, (name, sum(held))
        levels = [()]
        for m in seq.moves:
            levels.append(apply_move(levels[-1], m))
        assert list(seq.slices) == [Slice(k, cs) for k, cs in enumerate(levels)], name
        assert len(seq.slices) == len(seq.moves) + 1
        assert text == _oracle_format_sequence(seq), name


def test_a_piece_makes_one_step_record_per_distinct_step():
    """A step record is frozen, so a piece shares one among every letter
    that makes the same step; the sequence is the one made of a fresh
    record per move.  The words are drawn over the slice_readout
    benchmark's alphabet."""
    rng = random.Random(512)
    r, s = (Word(rng.choice((1, 2, 3, 4, 27)) * rng.choice((1, -1)) for _ in range(512)) for _ in range(2))
    pieces = {
        "bag": slice_bag(r),
        "bag identify": slice_bag(r, identify=True),
        "inverse pair": slice_inverse_pair(r),
        "commutator R": slice_commutator(r, s),
        "commutator S": slice_commutator(r, s, dominant="S", identify=True),
        "product": slice_product(r, s),
    }
    for name, seq in pieces.items():
        steps = [m for m in seq.moves if isinstance(m, CirculateStep)]
        distinct = {(m.index, m.letter, m.strand) for m in steps}
        assert len(steps) >= 512 and len({id(m) for m in steps}) <= len(distinct) <= 40, name
        fresh = SliceSequence(tuple(dataclasses.replace(m) for m in seq.moves), seq.readout)
        assert len({id(m) for m in fresh.moves if isinstance(m, CirculateStep)}) == len(steps), name
        assert fresh == seq and hash(fresh) == hash(seq) and repr(fresh) == repr(seq), name
        assert format_sequence(fresh) == format_sequence(seq), name


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


def _oracle_move_text(m):
    """The move's type name, then each field of the record in order."""
    vals = []
    for f in m.__dataclass_fields__:
        v = getattr(m, f)
        if isinstance(v, tuple):
            vals.append(",".join(v) if v else "-")
        elif isinstance(v, bool):
            vals.append("absorb" if v else "plain")
        elif v is None:
            vals.append("-")
        else:
            vals.append(str(v))
    return "-- %s %s" % (type(m).__name__, " ".join(vals))


def _oracle_format_sequence(seq):
    """Every arc's trace formatted from scratch, letter by letter."""
    lines = []
    for k, s in enumerate(seq.slices):
        lines.append("slice %d" % s.level)
        for c in s.components:
            if isinstance(c, Circle):
                lines.append("C[%s]" % ",".join(c.marks))
            else:
                lines.append("A[%s,%s;trace=%s]" % (c.left, c.right, _oracle_word(c.trace)))
        if k < len(seq.moves):
            lines.append(_oracle_move_text(seq.moves[k]))
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


_LETTERS = (1, -1, 2, -2, 26, -26, 27, -27, 40)
_MARKS = ("a", "b", "R", "R^-1", "0:S")


def _random_moves(rng, n):
    """``n`` moves, each drawn against the level it starts from, so that
    the list is a valid sequence; every move type can be drawn."""
    cs, moves = (), []
    while len(moves) < n:
        arcs = [i for i, c in enumerate(cs) if isinstance(c, Arc)]
        circles = [i for i, c in enumerate(cs) if isinstance(c, Circle)]
        kind = rng.randrange(13)
        if kind == 0:
            m = BirthCircle(tuple(rng.sample(_MARKS, rng.randint(0, 3))))
        elif kind == 1 and circles:
            m = DeathCircle(rng.choice(circles))
        elif kind == 2 and circles:
            m = SplitCircleToArc(rng.choice(circles), *rng.sample(_MARKS, 2))
        elif kind == 3 and len(arcs) > 1:
            m = JoinArcsToCircle(*rng.sample(arcs, 2), rng.choice("QM"))
        elif kind == 4 and arcs:
            m = JoinArcsToCircle(rng.choice(arcs))
        elif kind in (5, 6, 7) and arcs:
            m = CirculateStep(rng.choice(arcs), rng.choice(_LETTERS), rng.choice(("R", "0:S^-1")))
        elif kind == 8 and len(arcs) > 1:
            m = MergeArcs(*rng.sample(arcs, 2), "M", rng.random() < 0.5)
        elif kind == 9:
            m = IdentifyEdges(*rng.sample(_MARKS, 2))
        elif kind == 10 and arcs:
            m = ReorderStep(rng.choice(arcs))
        elif kind == 11 and len(circles) > 1:
            m = JoinCells(*rng.sample(circles, 2))
        elif kind == 12 and circles:
            i = rng.choice(circles)
            cut = rng.randint(0, len(cs[i].marks))
            m = SplitCells(i, cs[i].marks[:cut], cs[i].marks[cut:])
        else:
            continue
        cs = apply_move(cs, m)
        moves.append(m)
    return tuple(moves)


def test_format_sequence_matches_the_per_arc_formatter_on_random_move_lists():
    rng = random.Random(2024)
    drawn = set()
    for _ in range(300):
        seq = SliceSequence(_random_moves(rng, rng.randint(0, 40)))
        drawn |= {type(m) for m in seq.moves}
        assert format_sequence(seq) == _oracle_format_sequence(seq)
    assert drawn == set(LocalMove.__subclasses__())


def test_a_bad_move_at_any_level_fails_when_the_sequence_is_made():
    """The error names the slice the move starts from and carries the
    reason ``apply_move`` gives on that slice; a copy made with
    ``dataclasses.replace`` is checked the same way."""
    bad_moves = (DeathCircle(99), CirculateStep(0, 0, "R"), MergeArcs(0, 0), JoinCells(0, 0), ReorderStep(-1), _UnknownMove())
    rng = random.Random(7)
    for _ in range(200):
        good = SliceSequence(_random_moves(rng, rng.randint(0, 20)))
        k = rng.randint(0, len(good.moves))
        bad = rng.choice(bad_moves)
        with pytest.raises(SliceError) as replayed:
            apply_move(good.slices[k].components, bad)
        want = "sequence invalid at slice %d: %s" % (k, replayed.value)
        moves = good.moves[:k] + (bad,) + good.moves[k:]
        with pytest.raises(SliceError) as made:
            SliceSequence(moves)
        assert str(made.value) == want
        with pytest.raises(SliceError) as copied:
            dataclasses.replace(good, moves=moves)
        assert str(copied.value) == want


@pytest.mark.parametrize("dominant", ["R", "S"])
@pytest.mark.parametrize("identify", [False, True])
def test_format_sequence_formats_each_letter_a_bounded_number_of_times(monkeypatch, dominant, identify):
    import smovelab.slicing as slicing

    handed = []  # letters per call: whole traces, or one letter a step adds

    class CountingLetters(type(slicing._LETTER_TEXT)):
        def __getitem__(self, x):
            handed.append(1)
            return super().__getitem__(x)

    real = slicing.format_word
    monkeypatch.setattr(slicing, "format_word", lambda w: handed.append(len(w)) or real(w))
    monkeypatch.setattr(slicing, "_LETTER_TEXT", CountingLetters(slicing._LETTER_TEXT))
    for n in (16, 64):
        r = Word((1, 2, -3, 27) * (n // 4))
        s = Word((-2, 30, 1, 1) * (n // 4))
        seq = slice_commutator(r, s, dominant=dominant, identify=identify)
        handed.clear()
        text = slicing.format_sequence(seq)
        assert sum(handed) <= 4 * (len(r) + len(s)) + 8, (n, sum(handed))
        assert text == _oracle_format_sequence(seq)


def test_format_sequence_prints_every_move_type_as_its_fields():
    moves = (
        BirthCircle(()),
        BirthCircle(("x", "y")),
        DeathCircle(0),
        SplitCircleToArc(0, "x", "y"),
        BirthCircle(("R^-1", "u")),
        SplitCircleToArc(1, "R^-1", "v"),
        CirculateStep(1, -2, "0:R"),
        CirculateStep(0, 27, "x"),
        MergeArcs(1, 0, absorb=True),  # from the higher index, landing low
        BirthCircle(("p", "q")),
        SplitCircleToArc(1, "p", "q"),
        CirculateStep(1, -30, "S"),
        MergeArcs(0, 1),
        IdentifyEdges("R", "R^-1"),
        ReorderStep(0),
        BirthCircle(("a", "b")),
        SplitCircleToArc(1, "a", "b"),
        JoinArcsToCircle(1, 0, "Q"),
        BirthCircle(("c",)),
        JoinCells(1, 0),
        SplitCells(0, ("c",), ("a", "b", "q", "R")),
        SplitCells(0, (), ("c",)),
        SplitCircleToArc(2, "c", "d"),
        JoinArcsToCircle(2),
        DeathCircle(2),
        DeathCircle(1),
        DeathCircle(0),
    )
    assert {type(m) for m in moves} == set(LocalMove.__subclasses__())
    seq = SliceSequence(moves)
    assert seq.slices[9].components == (Arc("R^-1", "v", (-2, 27)),)
    assert seq.slices[-1].components == ()
    assert format_sequence(seq) == _oracle_format_sequence(seq)


# --- the move records ------------------------------------------------------


class _UnknownMove:
    pass


def test_unknown_move_type_is_a_slice_error():
    with pytest.raises(SliceError, match="unknown move"):
        apply_move((Circle(("x",)),), _UnknownMove())
    with pytest.raises(SliceError, match="^sequence invalid at slice 0: unknown move"):
        SliceSequence((_UnknownMove(),))


def test_join_cells_needs_two_distinct_circles():
    with pytest.raises(SliceError, match="two distinct circles"):
        apply_move((Circle(("a",)), Circle(("b",))), JoinCells(1, 1))


def test_negative_indices_are_out_of_range():
    cs = (Circle(("a",)), Arc("p", "q", (1,)))
    for m in (DeathCircle(-2), CirculateStep(-1, 1, "p"), ReorderStep(-1)):
        with pytest.raises(SliceError, match="out of range"):
            apply_move(cs, m)


def test_connect_shifts_every_move_type_by_its_component_positions():

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
