"""Level-by-level readings of attached 2-cells.

A slice is the intersection of a height level with the attached cells:
circles (closed components, carrying the labels fused into them) and arcs
(relator strands in transit, accumulating circulation letters).  A slice
sequence is its local moves, taken one after another from the empty
level, and the readout order of its strands.  Making one checks each move
once against a live state whose arcs carry no trace, so a bad move fails
when the sequence is made and every sequence that exists is valid;
``boundary_trace`` reads the attaching word back out of the circulation
letters, the dump walks the moves once, and the levels are replayed from
the moves only when ``slices`` is read.  Move records are frozen, so a
builder makes one step record per distinct (arc, letter, strand) and
shares it among the letters that repeat it.

Readout convention: every builder registers its relator strands in the
cyclic order of the attaching curve.  A positively labelled strand
contributes its circulation letters as accumulated; an inversely labelled
strand circulates letterwise-inverted (order preserved) and is read in
reverse, which restores the genuine inverse word; the doubled curve of a
bag is read once forward and once fully inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple, Optional, Tuple, Union

from .words import _LETTER_TEXT, EMPTY, InputError, SliceError, Word, format_word, invert, reduce  # SliceError is re-exported


# --- components -----------------------------------------------------------

# Named tuples: a replay makes one record per component it changes and one
# Slice per move, and a tuple is built in half the time of a frozen
# dataclass.  The three have different lengths, so no two compare equal.


class Circle(NamedTuple):
    marks: Tuple[str, ...]


class Arc(NamedTuple):
    left: str
    right: str
    trace: Tuple[int, ...] = ()


Component = Union[Circle, Arc]


class Slice(NamedTuple):
    level: int
    components: Tuple[Component, ...]


# --- local moves ----------------------------------------------------------


def _need(cond: bool, msg: str):
    if not cond:
        raise SliceError(msg)


def _at(cs: list, i: int, kind=None) -> Component:
    if not 0 <= i < len(cs):
        raise SliceError("component index %d out of range" % i)
    c = cs[i]
    if kind is not None and not isinstance(c, kind):
        raise SliceError("component %d is not a %s" % (i, kind.__name__))
    return c


class LocalMove:
    """A local move between consecutive slices.  Each move type is a frozen
    record whose ``_apply`` checks every precondition before it edits the
    live component list in place, and whose ``_text`` is its line in the
    dump: the type name, then each field in order."""


def _marks(marks: Tuple[str, ...]) -> str:
    return ",".join(marks) if marks else "-"


@dataclass(frozen=True)
class BirthCircle(LocalMove):
    marks: Tuple[str, ...]

    def _apply(self, cs: list):
        cs.append(Circle(tuple(self.marks)))

    def _text(self):
        return "-- BirthCircle " + _marks(self.marks)


@dataclass(frozen=True)
class DeathCircle(LocalMove):
    index: int

    def _apply(self, cs: list):
        _at(cs, self.index, Circle)
        del cs[self.index]

    def _text(self):
        return "-- DeathCircle %s" % self.index


@dataclass(frozen=True)
class SplitCircleToArc(LocalMove):
    index: int
    left: str
    right: str

    def _apply(self, cs: list):
        _at(cs, self.index, Circle)
        cs[self.index] = Arc(self.left, self.right)

    def _text(self):
        return "-- SplitCircleToArc %s %s %s" % (self.index, self.left, self.right)


@dataclass(frozen=True)
class JoinArcsToCircle(LocalMove):
    index: int
    other: Optional[int] = None  # None closes a single arc onto itself
    mark: str = "Q"

    def _apply(self, cs: list):
        a = _at(cs, self.index, Arc)
        if self.other is None:
            cs[self.index] = Circle((a.left, a.right))
            return
        b = _at(cs, self.other, Arc)
        _need(self.other != self.index, "join needs two distinct arcs")
        lo, hi = sorted((self.index, self.other))
        cs[lo] = Circle((a.left, a.right, b.left, b.right))
        del cs[hi]

    def _text(self):
        other = "-" if self.other is None else self.other
        return "-- JoinArcsToCircle %s %s %s" % (self.index, other, self.mark)


@dataclass(frozen=True)
class CirculateStep(LocalMove):
    index: int
    letter: int
    strand: str

    def _check(self, cs: list) -> Arc:
        a = _at(cs, self.index, Arc)
        _need(self.letter != 0, "circulation letter must be nonzero")
        return a

    def _apply(self, cs: list):
        a = self._check(cs)
        cs[self.index] = Arc(a.left, a.right, a.trace + (self.letter,))

    def _text(self):
        return "-- CirculateStep %s %s %s" % (self.index, self.letter, self.strand)


@dataclass(frozen=True)
class MergeArcs(LocalMove):
    index: int
    other: int
    mark: str = "M"
    absorb: bool = False  # keep the first arc's endpoints, swallow the other

    def _apply(self, cs: list):
        a = _at(cs, self.index, Arc)
        b = _at(cs, self.other, Arc)
        _need(self.other != self.index, "merge needs two distinct arcs")
        lo, hi = sorted((self.index, self.other))
        cs[lo] = Arc(a.left, a.right if self.absorb else b.right, a.trace + b.trace)
        del cs[hi]

    def _text(self):
        absorb = "absorb" if self.absorb else "plain"
        return "-- MergeArcs %s %s %s %s" % (self.index, self.other, self.mark, absorb)


@dataclass(frozen=True)
class IdentifyEdges(LocalMove):
    keep: str
    drop: str

    def _apply(self, cs: list):
        def rn(label):
            return self.keep if label == self.drop else label

        cs[:] = [
            Circle(tuple(rn(x) for x in c.marks))
            if isinstance(c, Circle)
            else Arc(rn(c.left), rn(c.right), c.trace)
            for c in cs
        ]

    def _text(self):
        return "-- IdentifyEdges %s %s" % (self.keep, self.drop)


@dataclass(frozen=True)
class ReorderStep(LocalMove):
    index: int  # exchange the endpoint order of one arc

    def _apply(self, cs: list):
        a = _at(cs, self.index, Arc)
        cs[self.index] = Arc(a.right, a.left, a.trace)

    def _text(self):
        return "-- ReorderStep %s" % self.index


def apply_move(components: Tuple[Component, ...], m: LocalMove) -> Tuple[Component, ...]:
    if not isinstance(m, LocalMove):
        raise SliceError("unknown move %r" % (m,))
    cs = list(components)
    m._apply(cs)
    return tuple(cs)


# --- sequences ------------------------------------------------------------


@dataclass(frozen=True)
class ReadoutStrand:
    key: str
    transform: str  # "as_is" | "reverse" | "invert"


@dataclass(frozen=True)
class SliceSequence:
    """Local moves taken one after another from the empty level, and the
    readout order of the strands.  Making a sequence checks each move once
    against a live component list whose arcs carry no trace: a
    ``CirculateStep`` only adds a letter to a trace, so it is checked and
    not applied, and every other move runs its ``_apply``.  A bad move
    raises ``SliceError`` naming the slice it starts from."""

    moves: Tuple[LocalMove, ...]
    readout: Tuple[ReadoutStrand, ...] = ()

    def __post_init__(self):
        live: list[Component] = []
        for k, m in enumerate(self.moves):
            try:
                if isinstance(m, CirculateStep):
                    m._check(live)
                elif isinstance(m, LocalMove):
                    m._apply(live)
                else:
                    raise SliceError("unknown move %r" % (m,))
            except SliceError as e:
                raise SliceError("sequence invalid at slice %d: %s" % (k, e)) from None

    @cached_property
    def slices(self) -> Tuple[Slice, ...]:
        """Every level, replayed from the moves through ``apply_move``."""
        cs: Tuple[Component, ...] = ()
        out = [Slice(0, cs)]
        for k, m in enumerate(self.moves, 1):
            cs = apply_move(cs, m)
            out.append(Slice(k, cs))
        return tuple(out)


def boundary_trace(seq: SliceSequence) -> Word:
    """Concatenate the strand contributions in attaching-curve order and
    freely reduce."""
    collected: dict[str, list[int]] = {}
    for m in seq.moves:
        if isinstance(m, CirculateStep):
            collected.setdefault(m.strand, []).append(m.letter)
    out: list[int] = []
    for strand in seq.readout:
        letters = collected.get(strand.key, [])
        if strand.transform == "as_is":
            out.extend(letters)
        elif strand.transform == "reverse":
            out.extend(reversed(letters))
        elif strand.transform == "invert":
            out.extend(-x for x in reversed(letters))
        else:
            raise SliceError("unknown readout transform %r" % strand.transform)
    return reduce(out)


# --- piece builders -------------------------------------------------------


def _circulate(w: Word, *lanes: Tuple[int, str, int]) -> list:
    """The steps that carry ``w`` round each lane ``(index, strand, sign)``
    in turn, letter by letter; a lane of sign -1 circulates each letter
    inverted.  Step records are frozen, so a piece makes one per distinct
    (index, letter, strand) here, and every later letter reuses it."""
    made: dict[int, list] = {}
    moves: list = []
    for x in w:
        steps = made.get(x)
        if steps is None:
            steps = made[x] = []
            for index, strand, sign in lanes:
                steps.append(CirculateStep(index, sign * x, strand))
        moves += steps
    return moves


def slice_bag(w, identify: bool = False) -> SliceSequence:
    """Doubled curve with boundary W.W^-1: two circles split to arcs, the
    relator arc circulates W, everything rejoins and dies at the maximum.
    Like every builder, it takes its steps from ``_circulate``, one shared
    record per distinct step."""
    w = Word(w)
    moves = [
        BirthCircle(("W^-1", "W")),
        BirthCircle(("w^-1", "w")),
        SplitCircleToArc(0, "W^-1", "W"),
        SplitCircleToArc(1, "w^-1", "w"),
    ]
    if identify:
        moves += [IdentifyEdges("W", "W^-1"), IdentifyEdges("w", "w^-1")]
    moves += _circulate(w, (0, "W", 1))
    moves += [JoinArcsToCircle(0, 1, "Q"), DeathCircle(0)]
    return SliceSequence(tuple(moves), (ReadoutStrand("W", "as_is"), ReadoutStrand("W", "invert")))


def slice_inverse_pair(r) -> SliceSequence:
    """A relator and its inverse, circulating in step in opposite
    directions, each exiting through its own circle: ``_circulate`` makes
    one step record per distinct letter on each of the two arcs."""
    r = Word(r)
    moves = [
        BirthCircle(("R", "r")),
        BirthCircle(("R^-1", "r^-1")),
        SplitCircleToArc(0, "R", "r"),
        SplitCircleToArc(1, "R^-1", "r^-1"),
    ]
    moves += _circulate(r, (0, "R", 1), (1, "R^-1", -1))
    moves += [JoinArcsToCircle(0), JoinArcsToCircle(1), DeathCircle(1), DeathCircle(0)]
    return SliceSequence(tuple(moves), (ReadoutStrand("R", "as_is"), ReadoutStrand("R^-1", "reverse")))


_COMM_READOUT = (
    ReadoutStrand("R", "as_is"),
    ReadoutStrand("S", "as_is"),
    ReadoutStrand("R^-1", "reverse"),
    ReadoutStrand("S^-1", "reverse"),
)


def slice_commutator(r, s, dominant: str = "R", identify: bool = False) -> SliceSequence:
    """Commutator cell [R,S]: four circles, the dominant pair circulates
    to the midlevel where the arcs merge pairwise, then the other pair
    circulates to the top, joins and dies.

    ``identify`` inserts the fixed identification ladder (edge-path pairs,
    then the relator pairs, then one endpoint reorder) right after the
    splits; the midlevel and top identifications coincide with the merges
    already present.  Each pair's steps come from one ``_circulate`` call,
    one shared record per distinct step.
    """
    r, s = Word(r), Word(s)
    if dominant not in ("R", "S"):
        raise InputError("dominant must be 'R' or 'S'")
    moves = [
        BirthCircle(("S^-1", "R")),
        BirthCircle(("r", "S")),
        BirthCircle(("s", "r^-1")),
        BirthCircle(("R^-1", "s^-1")),
        SplitCircleToArc(0, "S^-1", "R"),
        SplitCircleToArc(1, "r", "S"),
        SplitCircleToArc(2, "s", "r^-1"),
        SplitCircleToArc(3, "R^-1", "s^-1"),
    ]
    if identify:
        moves += [
            IdentifyEdges("r", "r^-1"),
            IdentifyEdges("s", "s^-1"),
            IdentifyEdges("R", "R^-1"),
            IdentifyEdges("S", "S^-1"),
            ReorderStep(1),
        ]
    if dominant == "R":
        moves += _circulate(r, (0, "R", 1), (3, "R^-1", -1))
        moves += [MergeArcs(0, 1, "M"), MergeArcs(1, 2, "M")]
        moves += _circulate(s, (0, "S", 1), (0, "S^-1", -1))
    else:
        moves += _circulate(s, (1, "S", 1), (0, "S^-1", -1))
        moves += [MergeArcs(1, 2, "M"), MergeArcs(2, 0, "M")]
        moves += _circulate(r, (0, "R", 1), (0, "R^-1", -1))
    moves += [JoinArcsToCircle(0, 1, "Q"), DeathCircle(0)]
    return SliceSequence(tuple(moves), _COMM_READOUT)


def slice_product(r, s) -> SliceSequence:
    """Product cell R.S^-1: the R arc circulates to the midlevel, is
    absorbed into the other arc, and the S^-1 circulation runs to the top;
    each circulation's steps come from ``_circulate``, one shared record
    per distinct step."""
    r, s = Word(r), Word(s)
    moves = [
        BirthCircle(("r", "R")),
        BirthCircle(("S^-1", "s^-1")),
        SplitCircleToArc(0, "r", "R"),
        SplitCircleToArc(1, "S^-1", "s^-1"),
    ]
    moves += _circulate(r, (0, "R", 1))
    moves.append(MergeArcs(1, 0, "M", absorb=True))
    moves += _circulate(s, (0, "S^-1", -1))
    moves += [JoinArcsToCircle(0, mark="Q"), DeathCircle(0)]
    return SliceSequence(tuple(moves), (ReadoutStrand("R", "as_is"), ReadoutStrand("S^-1", "reverse")))


# --- text dump ------------------------------------------------------------


def format_sequence(seq: SliceSequence) -> str:
    """The dump prints every arc's whole trace at every level, so it grows
    quadratically with the word; it is made in one walk over the moves, in
    time linear in its length.  It keeps the live components and the
    level's lines, and for each component its line head (an arc's
    ``A[left,right;trace=``, a circle's whole line) and its trace text
    (None for a circle).  A ``CirculateStep`` appends its letter's text to
    the arc's and makes that one line as head + text + ``]``, with no
    ``Arc`` built; each distinct step's letter text and move line are made
    once.  Every other move writes the arcs' texts back (when a step has
    grown one since the last write), runs its own ``_apply`` on the
    components and makes the level's heads, texts and lines again in one
    pass; a piece has few such moves, and each copies at most one level's
    text, which the dump prints anyway."""
    cs: list[Component] = []
    heads: list[str] = []
    texts: list[Optional[str]] = []
    row: list[str] = []
    lines: list[str] = []
    steps: dict[int, tuple] = {}  # id of a step -> (index, letter text, move line)
    stepped = False  # whether texts have grown since the components were last written
    for level, m in enumerate(seq.moves):
        lines.append("slice %d" % level)
        lines += row
        if isinstance(m, CirculateStep):
            step = steps.get(id(m))
            if step is None:
                step = steps[id(m)] = (m.index, _LETTER_TEXT[m.letter], m._text())
            i, letter, line = step
            lines.append(line)
            texts[i] = text = texts[i] + letter
            row[i] = f"{heads[i]}{text}]"
            stepped = True
            continue
        lines.append(m._text())
        if stepped:
            for i, text in enumerate(texts):
                if text is not None:
                    cs[i] = Arc(cs[i].left, cs[i].right, (text,))
            stepped = False
        m._apply(cs)
        heads, texts, row = [], [], []
        for c in cs:
            if isinstance(c, Circle):
                head = "C[%s]" % ",".join(c.marks)
                text = None
                row.append(head)
            else:
                head = "A[%s,%s;trace=" % (c.left, c.right)
                text = "".join(c.trace)
                row.append(f"{head}{text or '1'}]")
            heads.append(head)
            texts.append(text)
    lines.append("slice %d" % len(seq.moves))
    lines += row
    lines.append("")  # a final newline, without copying the joined text
    return "\n".join(lines)


# --- abstract slice sequences --------------------------------------------


@dataclass(frozen=True)
class SphereToken:
    pass


@dataclass(frozen=True)
class CellToken:
    word: Word


@dataclass(frozen=True)
class SpElToken:
    kind: str  # "bag" | "invpair"
    word: Word
    index: int


@dataclass(frozen=True)
class CommutatorToken:
    word: Word
    index: int


Token = Union[SphereToken, CellToken, SpElToken, CommutatorToken]

LONGITUDINAL = "longitudinal"
MERIDIAN = "meridian"


def token_text(t: Token, alias: bool = False) -> str:
    """The token's text, which is also its backend label.  With ``alias``
    a word and its inverse read as the lesser of the two, which is how a
    backend enforces Z(V) = Z(V⁻¹)."""
    if isinstance(t, SphereToken):
        return "S2"
    if isinstance(t, CellToken):
        head = "cell"
    elif isinstance(t, SpElToken):
        head = "spel:" + t.kind
    elif isinstance(t, CommutatorToken):
        head = "comm"
    else:
        raise InputError("unknown token %r" % (t,))
    w = t.word
    if alias:
        w = min(w, invert(w))
    return "%s:%s" % (head, format_word(w))


@dataclass(frozen=True)
class AbstractSlice:
    level: int
    tokens: Tuple[Token, ...]


@dataclass(frozen=True)
class AbstractSequence:
    slices: Tuple[AbstractSlice, ...]
    identification: str
    factor_count: int
    residual: Optional[Word] = None  # the leftover cell riding with the product cell
    perturbation_index: ClassVar[int] = 3


def spel_kinds(identification: str) -> Tuple[str, str]:
    """(kind on the r-side relators, kind on the s-side relators)."""
    if identification == LONGITUDINAL:
        return ("invpair", "bag")
    if identification == MERIDIAN:
        return ("bag", "invpair")
    raise InputError("unknown identification type %r" % identification)


def build_abstract(inst, identification: str, residual: Optional[Word] = None) -> AbstractSequence:
    """Canonical eight-slice sequence for an instance that satisfies the
    criterion, which is checked where the instance enters, not here:
    ``criterion.build_instance`` checks its own draw, the CLI verifies a
    loaded instance, and a relator move's transport satisfies the
    residual-corrected criterion by construction.

    ``residual`` adds the leftover cell riding with the product cell on
    both sides of the perturbation transition.
    """
    reading = inst.read()
    kind_r, kind_s = spel_kinds(identification)
    spels: list[Token] = []
    comms: list[Token] = []
    for i, ((rw, sw), cw) in enumerate(zip(reading.expanded, reading.commutators)):
        spels.append(SpElToken(kind_r, rw, i))
        spels.append(SpElToken(kind_s, sw, i))
        comms.append(CommutatorToken(cw, i))
    cell_r = CellToken(inst.r_word)
    cell_s_inv = CellToken(invert(inst.s_word))
    prod = CellToken(reading.product)
    riders: tuple = (CellToken(Word(residual)),) if residual is not None else ()
    seq = (
        (),
        (SphereToken(), SphereToken()),
        (cell_r, cell_s_inv) + tuple(spels),
        (prod,) + riders + tuple(spels),
        (prod,) + riders + tuple(comms),
        (CellToken(EMPTY),),
        (SphereToken(), SphereToken()),
        (),
    )
    slices = tuple(AbstractSlice(k, toks) for k, toks in enumerate(seq))
    return AbstractSequence(slices, identification, len(inst.factors), residual=residual)


def format_abstract(aseq: AbstractSequence) -> str:
    lines = ["identification %s" % aseq.identification]
    for sl in aseq.slices:
        toks = " ".join(sorted(token_text(t) for t in sl.tokens))
        marker = "  <- perturbation" if sl.level == aseq.perturbation_index else ""
        lines.append("slice %d: %s%s" % (sl.level, toks if toks else "(empty)", marker))
    return "\n".join(lines) + "\n"
