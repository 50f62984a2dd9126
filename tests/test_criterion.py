from __future__ import annotations

import random
import re

import pytest

from smovelab.criterion import (
    ConjugatedRelator,
    CriterionInstance,
    Factor,
    InvalidInstance,
    QMoveTransport,
    build_instance,
    load_instance,
    parse_decomposition,
    residual_r,
    residual_s,
    transport_qmove,
    verification_word,
    verify,
)
from smovelab.presentations import (
    ConjugateRelator,
    InvertRelator,
    MultiplyRight,
    NielsenMove,
    Presentation,
    format_presentation,
    parse_presentation,
)
from smovelab.words import InputError, Word, commutator, invert, parse_word, reduce

from helpers import (
    commutator_product,
    format_decomposition,
    gauge,
    mutate_conjugator,
    nielsen_transport,
    product_sides,
    residual_commutator_check,
    rng_build_instance,
)


def _hand_instance():
    """One factor, built so the product form holds by construction."""
    k_aux = ("x1", parse_word("a"))
    l_aux = ("y1", parse_word("b"))
    f = Factor(
        r=ConjugatedRelator(parse_word("b"), "x1", 1),
        s=ConjugatedRelator(Word(), "y1", 1),
    )
    s_word = parse_word("a")
    r_1 = parse_word("baB")
    s_1 = parse_word("b")
    r_word = reduce(tuple(commutator(r_1, s_1)) + tuple(s_word))
    k = Presentation(2, (("R", r_word), k_aux))
    l = Presentation(2, (("S", s_word), l_aux))
    return CriterionInstance(k, l, "R", "S", (f,))


def _random_reduced(rng, max_len=8):
    letters = []
    n = rng.randint(0, max_len)
    while len(letters) < n:
        x = rng.choice([1, -1, 2, -2, 3, -3])
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return Word(letters)


def test_residual_r_recovers_replaced_relator():
    r = parse_word("abA")
    r_new = parse_word("abAb")
    res = residual_r(r, r_new)
    assert reduce(tuple(res) + tuple(r_new)) == r
    # replacing R by its inverse leaves the doubled relator
    assert residual_r(parse_word("ab"), invert(parse_word("ab"))) == parse_word("abab")


def test_residual_s_recovers_replaced_relator():
    s = parse_word("ba")
    s_new = parse_word("bab")
    res = residual_s(s, s_new)
    assert reduce(tuple(invert(s_new)) + tuple(res)) == invert(s)


def test_residual_formulas_random_pairs():
    rng = random.Random(31)
    for _ in range(200):
        w, w_new = _random_reduced(rng), _random_reduced(rng)
        assert reduce(tuple(residual_r(w, w_new)) + tuple(w_new)) == reduce(w)
        assert reduce(tuple(invert(w_new)) + tuple(residual_s(w, w_new))) == invert(reduce(w))
        # unchanged relator leaves no residual
        assert residual_r(w, w) == ()
        assert residual_s(w, w) == ()


def test_hand_instance_verifies_in_both_forms():
    inst = _hand_instance()
    assert verify(inst)
    assert verification_word(inst) == ()
    lhs, rhs = product_sides(inst)
    assert lhs == rhs
    # [baB, b]·a = baB·b·bAB·B·a with the inner Bb pair cancelling
    assert inst.r_word == parse_word("babABBa")


def test_expanded_conjugation_and_exponent():
    inst = _hand_instance()
    (rw, sw), = inst.read().expanded
    assert rw == parse_word("baB")
    assert sw == parse_word("b")
    flipped = ConjugatedRelator(parse_word("b"), "x1", -1)
    assert flipped.expand(inst.k.word(flipped.base)) == parse_word("bAB")
    # an exponent other than +1 or -1 cannot enter: the decomposition parser rejects it
    with pytest.raises(InputError, match=r"^line 1: bad relator reference 'x1\^2'$"):
        parse_decomposition("factor wR=1 R=x1^2 wS=1 S=y1^+1\n", inst.k, inst.l)


def test_build_instance_is_deterministic_and_verifies():
    for seed in range(25):
        a = build_instance(seed)
        b = build_instance(seed)
        assert a == b
        assert verify(a)
        lhs, rhs = product_sides(a)
        assert lhs == rhs
    assert build_instance(1) != build_instance(2)


def test_build_instance_draws_what_random_methods_draw():
    """Every value of a drawn instance comes from ``words.draw``: over 300
    seeds and 0-6 factors the instance equals the one drawn with
    ``randint`` and ``choice`` through a probe instance, and so does the
    reading it is handed, which an unread copy computes again."""
    for n in range(7):
        for seed in range(300):
            inst, want = build_instance(seed, n), rng_build_instance(seed, n)
            assert inst == want, (seed, n)
            assert inst.read() == want.read() == _unread(inst).read(), (seed, n)


def test_build_instance_parameter_ranges():
    inst = build_instance(3, n_factors=4)
    assert len(inst.factors) == 4
    assert verify(inst)
    with pytest.raises(InputError):
        build_instance(0, n_factors=-1)


def test_empty_decomposition_means_equal_relators():
    inst = build_instance(5, n_factors=0)
    assert inst.factors == ()
    assert commutator_product(inst) == ()
    assert inst.r_word == inst.s_word
    assert verify(inst)


def test_mutation_breaks_verification():
    broken = 0
    total = 60
    for seed in range(total):
        inst = build_instance(seed)
        mut = mutate_conjugator(inst, seed + 1000)
        assert mut.read().expanded != inst.read().expanded
        if not verify(mut):
            broken += 1
    # a genuinely changed decomposition can still cancel by accident,
    # but only rarely
    assert broken >= total - 2


def test_gauge_swaps_sides_and_still_verifies():
    for seed in range(20):
        inst = build_instance(seed)
        g = gauge(inst)
        assert g.r_word == inst.s_word
        assert g.s_word == inst.r_word
        assert verify(g)
        assert gauge(g) == inst
        lhs = reduce(tuple(inst.r_word) + tuple(invert(inst.s_word)))
        glhs = reduce(tuple(g.r_word) + tuple(invert(g.s_word)))
        assert glhs == invert(lhs)


def test_residual_commutator_check_on_built_instances():
    for seed in range(20):
        chk = residual_commutator_check(build_instance(seed))
        assert chk.ok
        assert reduce(chk.l_prime) == reduce(chk.inverse_commutator_product)
        assert reduce(chk.l_prime) == reduce(chk.m_prime_inv)
    with pytest.raises(InvalidInstance):
        residual_commutator_check(mutate_conjugator(build_instance(0), 77))


def test_the_product_form_and_the_residual_check_follow_from_verify():
    """``crit verify`` prints ``product form agrees: true``: free reduction
    is unique, so the two sides of the product form are equal exactly when
    the verification word reduces to 1.  ``crit check`` prints one word
    three times: on a verifying instance L', the inverse commutator
    product and M'^-1 are that word, and a failing one is refused."""
    failing = 0
    for seed in range(150):
        inst = build_instance(seed, n_factors=1 + seed % 4)
        for x in (inst, gauge(inst), _unread(inst), mutate_conjugator(inst, seed)):
            lhs, rhs = product_sides(x)
            ok = verify(x)
            assert (lhs == rhs) == ok, seed
            if ok:
                chk = residual_commutator_check(x)
                assert chk.ok and chk.l_prime == chk.inverse_commutator_product == chk.m_prime_inv == lhs
            else:
                failing += 1
                with pytest.raises(InvalidInstance, match="^instance does not verify$"):
                    residual_commutator_check(x)
    assert failing >= 140


def _text_instance(k: str, l: str, decomp: str) -> CriterionInstance:
    k, l = parse_presentation(k), parse_presentation(l)
    return CriterionInstance(k, l, "R", "S", parse_decomposition(decomp, k, l))


# Valid instances with a factor that conjugates R or S itself: one on R
# (R·S⁻¹·[y1, R] = 1), its gauge with one on S, and R = S with one factor
# on both (a conjugated relator commutes with its own inverse).
_ON_R = _text_instance(
    "gens 2\nrel R ab\nrel x1 b\n", "gens 2\nrel S aabA\nrel y1 a\n", "factor wR=1 R=R^+1 wS=1 S=y1^+1\n"
)
_ON_S = gauge(_ON_R)  # the sides swap, so the factor conjugates the s-side relator, named R
_ON_BOTH = _text_instance(
    "gens 2\nrel R ab\nrel x1 b\n", "gens 2\nrel S ab\nrel y1 a\n", "factor wR=b R=R^+1 wS=b S=S^-1\n"
)


def _random_factor_on_r(seed):
    """A random valid instance whose one factor conjugates R itself: S is
    solved from R·S⁻¹·[S_1,R_1] = 1 as [S_1,R_1]·R."""
    rng = random.Random(seed)
    k = Presentation(3, (("R", _random_reduced(rng)), ("x1", _random_reduced(rng))))
    l = Presentation(3, (("S", Word()), ("y1", _random_reduced(rng))))
    f = Factor(
        r=ConjugatedRelator(_random_reduced(rng, 3), "R", rng.choice((1, -1))),
        s=ConjugatedRelator(_random_reduced(rng, 3), "y1", rng.choice((1, -1))),
    )
    s_word = reduce(tuple(commutator(f.s.expand(l.word(f.s.base)), f.r.expand(k.word(f.r.base)))) + tuple(k.word("R")))
    return CriterionInstance(k, l.with_relator("S", s_word), "R", "S", (f,))


_DRAWN_ON_R = tuple(_random_factor_on_r(seed) for seed in range(6))


@pytest.mark.parametrize(
    "move",
    [
        InvertRelator("R"),
        InvertRelator("S"),
        ConjugateRelator("R", 1),
        ConjugateRelator("S", -2),
        MultiplyRight("R", "x1"),
        MultiplyRight("S", "y1"),
    ],
)
def test_transport_qmove_keeps_equation_closed(move):
    drawn = _DRAWN_ON_R + tuple(map(gauge, _DRAWN_ON_R))
    for inst in (build_instance(0), build_instance(7), build_instance(19), _ON_R, _ON_S, _ON_BOTH) + drawn:
        assert verify(inst)
        on_r = move.target == inst.r_name
        bases = {(f.r if on_r else f.s).base for f in inst.factors}
        if isinstance(move, MultiplyRight) and move.target in bases:
            with pytest.raises(InputError, match="^cannot right-multiply %s: " % move.target):
                transport_qmove(inst, move)
            continue
        t = transport_qmove(inst, move)
        assert isinstance(t, QMoveTransport)
        # every factor expands as before, so the commutator product stands
        assert t.instance.read().expanded == inst.read().expanded
        comm = tuple(commutator_product(t.instance))
        if on_r:
            assert t.instance.l == inst.l
            assert t.residual == residual_r(inst.r_word, t.instance.r_word)
            assert reduce(tuple(t.residual) + tuple(t.instance.r_word)) == inst.r_word
            moved = tuple(t.residual) + tuple(t.instance.r_word) + tuple(invert(inst.s_word)) + comm
        else:
            assert t.instance.k == inst.k
            assert t.residual == residual_s(inst.s_word, t.instance.s_word)
            moved = tuple(inst.r_word) + tuple(invert(t.instance.s_word)) + tuple(t.residual) + comm
        # the residual-corrected equation, spelled out by hand
        assert reduce(moved) == ()


def test_transport_qmove_rejects_other_targets():
    inst = build_instance(2)
    with pytest.raises(InvalidInstance):
        transport_qmove(inst, InvertRelator("x1"))


def test_nielsen_transport_two_sided_preserves_verification():
    moves = [
        NielsenMove("inv", 1),
        NielsenMove("inv", 2),
        NielsenMove("rmul", 1, 2),
        NielsenMove("lmul", 2, 1),
    ]
    for seed in range(15):
        inst = build_instance(seed)
        for m in moves:
            assert verify(nielsen_transport(inst, m))


def test_nielsen_transport_one_sided_loses_control():
    inst = build_instance(0)
    t = nielsen_transport(inst, NielsenMove("rmul", 1, 2), one_sided=True)
    assert not verify(t)
    # the untouched side keeps its relators
    assert t.l == inst.l


def test_decomposition_text_round_trip():
    inst = build_instance(4)
    text = format_decomposition(inst.factors)
    assert parse_decomposition(text, inst.k, inst.l) == inst.factors
    assert parse_decomposition("", inst.k, inst.l) == ()
    assert format_decomposition(()) == ""


def test_parse_decomposition_errors():
    inst = _hand_instance()
    for bad in (
        "factor wR=a R=x1^+1 wS=b",
        "factor wR=a R=x1 wS=b S=y1^+1",
        "factor wR=a R=x1^2 wS=b S=y1^+1",
        "factor wR=a R=x1^+1 wS=b S=y1^+1 extra=1",
        "notfactor wR=a R=x1^+1 wS=b S=y1^+1",
    ):
        with pytest.raises(InputError, match="^line 1: "):
            parse_decomposition(bad, inst.k, inst.l)
    # R= names a relator of K and S= one of L, each looked up on its line
    good = "factor wR=a R=x1^+1 wS=b S=y1^+1\n"
    for bad, name in (
        ("factor wR=a R=y1^+1 wS=b S=y1^+1\n", "y1"),
        ("factor wR=a R=x1^+1 wS=b S=x1^-1\n", "x1"),
        ("factor wR=a R=R^+1 wS=b S=Q^+1\n", "Q"),
    ):
        with pytest.raises(InputError, match="^line 2: unknown relator '%s'$" % name):
            parse_decomposition(good + bad, inst.k, inst.l)


def test_instance_file_round_trip(tmp_path):
    inst = build_instance(9)
    (tmp_path / "K.txt").write_text(format_presentation(inst.k), encoding="utf-8")
    (tmp_path / "L.txt").write_text(format_presentation(inst.l), encoding="utf-8")
    (tmp_path / "d.txt").write_text(format_decomposition(inst.factors), encoding="utf-8")
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(
        "K K.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8"
    )
    loaded = load_instance(inst_file)
    assert loaded == inst
    assert verify(loaded)


def test_instance_file_errors(tmp_path):
    path = tmp_path / "inst.txt"
    for text, message in (
        ("K a.txt\nL b.txt\nR R\nS S\n", "instance file missing decomp"),
        ("K a.txt\nK b.txt\nL c.txt\nR R\nS S\ndecomp d.txt\n", "line 2: duplicate K"),
        ("Q a.txt\n", "line 1: bad instance directive"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="^%s: %s$" % (re.escape(str(path)), message)):
            load_instance(path)


def test_instance_requires_known_relator_names(tmp_path):
    """Relator names arrive from outside only in an instance file and its
    decomposition; each unknown one is reported with its file and line."""
    inst = _hand_instance()
    path = _write_instance_files(inst, tmp_path / "i")
    bad_d = tmp_path / "i" / "bad_d.txt"
    bad_d.write_text(format_decomposition(inst.factors) + "factor wR=1 R=missing^+1 wS=1 S=y1^+1\n", encoding="utf-8")
    for text, where, message in (
        ("K K.txt\nL L.txt\nR missing\nS S\ndecomp d.txt\n", path, "line 3: unknown relator 'missing'"),
        ("K K.txt\nL L.txt\n\nS R\nR R\ndecomp d.txt\n", path, "line 4: unknown relator 'R'"),
        ("K K.txt\nL L.txt\nR R\nS S\ndecomp bad_d.txt\n", bad_d, "line 2: unknown relator 'missing'"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="^%s: %s$" % (re.escape(str(where)), message)):
            load_instance(path)


def test_build_instance_reduces_no_presentation_word_again(monkeypatch):
    """The drawn words are reduced as they are made, so building the two
    presentations reduces nothing; the draw is verified once."""
    import smovelab.criterion as criterion
    import smovelab.presentations as presentations

    reduced, verified = [], []
    real_reduce, real_word = presentations.reduce, criterion.verification_word
    monkeypatch.setattr(presentations, "reduce", lambda *parts: reduced.append(parts) or real_reduce(*parts))
    monkeypatch.setattr(criterion, "verification_word", lambda inst: verified.append(inst) or real_word(inst))
    inst = criterion.build_instance(5)
    assert (reduced, verified) == ([], [inst])
    assert all(w == reduce(w) for p in (inst.k, inst.l) for _, w in p.relators)


def test_build_instance_raises_if_the_draw_does_not_verify(monkeypatch):
    import smovelab.criterion as criterion

    monkeypatch.setattr(criterion, "verify", lambda inst: False)
    with pytest.raises(RuntimeError):
        criterion.build_instance(0)


def _unread(inst):
    """An instance with the same fields and no reading handed to it."""
    return CriterionInstance(inst.k, inst.l, inst.r_name, inst.s_name, inst.factors)


def _write_instance_files(inst, where):
    where.mkdir()
    (where / "K.txt").write_text(format_presentation(inst.k), encoding="utf-8")
    (where / "L.txt").write_text(format_presentation(inst.l), encoding="utf-8")
    (where / "d.txt").write_text(format_decomposition(inst.factors), encoding="utf-8")
    (where / "inst.txt").write_text("K K.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8")
    return where / "inst.txt"


def test_a_handed_reading_is_the_reading_of_a_fresh_instance(tmp_path):
    """``build_instance`` hands its probe's reading to the instance it
    returns, and ``gauge`` hands a read instance's reading, rearranged, to
    the swapped one.  Either must equal what an instance with the same
    fields reads for itself: the expanded relators and the commutators
    [S_i,R_i], and reduce(R.S^-1).  A copy made with ``dataclasses.replace`` is not handed the
    reading of the instance it was copied from."""
    for seed in range(200):
        built = build_instance(seed, n_factors=seed % 5)
        loaded = load_instance(_write_instance_files(built, tmp_path / str(seed)))
        instances = [built, loaded]
        if built.factors:
            instances.append(mutate_conjugator(built, seed))
        for inst in instances:
            fresh = _unread(inst).read()
            assert inst.read() == fresh, seed
            assert fresh.product == reduce(tuple(inst.r_word) + tuple(invert(inst.s_word))), seed
            assert fresh.commutators == tuple(commutator(sw, rw) for rw, sw in fresh.expanded)
            k_word, l_word = inst.k.word, inst.l.word
            assert fresh.expanded == tuple(
                (f.r.expand(k_word(f.r.base)), f.s.expand(l_word(f.s.base))) for f in inst.factors
            )
            g = gauge(inst)
            assert g.read() == _unread(g).read(), seed
            assert gauge(g) == inst and gauge(g).read() == inst.read(), seed
        moved = transport_qmove(built, InvertRelator("R")).instance
        assert moved.read() == _unread(moved).read(), seed


def test_the_gauge_verifies_exactly_when_its_instance_does():
    """``crit gauge`` prints ``verify`` of the instance itself: the swapped
    instance's verification word is C.w^-1.C^-1, where w is the
    instance's and C its commutator product, so it reduces to 1 exactly
    when w does, failing instances included, whether or not the instance
    was read before it was swapped."""
    verdicts = []
    for seed in range(100):
        inst = build_instance(seed)
        for x in (inst, mutate_conjugator(inst, seed + 1), _unread(mutate_conjugator(inst, seed + 2))):
            unread_gauge = gauge(_unread(x))
            verdict = verify(x)
            assert verify(gauge(x)) == verdict == verify(unread_gauge), seed
            assert verification_word(gauge(x)) == verification_word(unread_gauge), seed
            c = commutator_product(x)
            assert verification_word(gauge(x)) == reduce(c, invert(verification_word(x)), invert(c)), seed
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
