from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import re
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smovelab.playground  # noqa: F401  (binds build_abstract; loaded before counting)
from smovelab import cli, criterion, slicing, words
from smovelab.criterion import build_instance
from smovelab.presentations import format_presentation

from helpers import (
    backend_labels,
    format_decomposition,
    gauge,
    mutate_conjugator,
    ordering_sum,
    residual_commutator_check,
)


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _write_instance(tmp_path, seed=0, corrupt=False):
    inst = build_instance(seed)
    (tmp_path / "K.txt").write_text(format_presentation(inst.k), encoding="utf-8")
    (tmp_path / "L.txt").write_text(format_presentation(inst.l), encoding="utf-8")
    decomp = format_decomposition(inst.factors)
    if corrupt:
        decomp = format_decomposition(mutate_conjugator(inst, 7).factors)
    (tmp_path / "d.txt").write_text(decomp, encoding="utf-8")
    path = tmp_path / "inst.txt"
    path.write_text("K K.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8")
    return str(path)


def test_word_commands(capsys):
    code, out = _run(capsys, ["word", "reduce", "abBA"])
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "---csv---" in out
    assert "result,1" in out

    code, out = _run(capsys, ["word", "invert", "abA"])
    assert code == 0 and out.splitlines()[0] == "aBA"

    code, out = _run(capsys, ["word", "multiply", "ab", "BA", "ab"])
    assert code == 0 and out.splitlines()[0] == "ab"

    code, out = _run(capsys, ["word", "comm", "a", "b"])
    assert code == 0 and out.splitlines()[0] == "abAB"


def test_word_input_errors_exit_2(capsys):
    code, out = _run(capsys, ["word", "reduce", "a!b"])
    assert code == 2
    assert out.startswith("error:")
    code, out = _run(capsys, ["word", "comm", "a"])
    assert code == 2


@pytest.mark.parametrize("text", ["g٣", "G٣", "g2٣", "a g١٠"])
def test_an_escape_takes_ascii_digits_only(capsys, text):
    """The word grammar is ``g<k>`` with k in ASCII digits: an Arabic-Indic
    three after ``g`` is a stray token, not generator 3."""
    bad = next(ch for ch in text if ch.isdigit() and not ch.isascii())
    assert _run(capsys, ["word", "reduce", text]) == (2, "error: bad word token %r in %r\n" % (bad, text))
    assert _run(capsys, ["word", "reduce", "g3"])[1].splitlines()[0] == "c"


_LONG_ESCAPES = ("g" + "1" * 5000, "G" + "0" * 4999 + "1")


@pytest.mark.parametrize(
    "text",
    [*_LONG_ESCAPES, "ab %s c" % _LONG_ESCAPES[0], "g0%s" % _LONG_ESCAPES[1]],
    ids=["ones", "leading-zeros", "between-letters", "after-a-zero-index"],
)
def test_an_escape_index_past_the_int_digit_limit_exits_2(capsys, text):
    """``int()`` reads at most 4,300 digits: a longer index is named as a
    bad token, not raised out of ``cli.main``; a zero index before it is
    still reported first."""
    tok = next((t for t in _LONG_ESCAPES if t in text.split()), None)
    want = "error: generator index has too many digits in token %r\n" % tok
    if tok is None:
        want = "error: generator index must be >= 1 in %r\n" % text
    assert _run(capsys, ["word", "reduce", text]) == (2, want)


def test_pres_applies_moves_file(tmp_path, capsys):
    (tmp_path / "p.txt").write_text("gens 2\nrel R aabb\nrel Q b\n", encoding="utf-8")
    (tmp_path / "m.txt").write_text("mulr R Q\nconj Q a\nprolong\n", encoding="utf-8")
    code, out = _run(
        capsys, ["pres", "--file", str(tmp_path / "p.txt"), "--moves", str(tmp_path / "m.txt")]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gens 3"
    assert "rel R aabbb" in lines
    assert "rel Q abA" in lines
    assert "rel t3 c" in lines
    assert "moves_applied,3" in out


def test_pres_missing_file_exit_2(tmp_path, capsys):
    code, out = _run(capsys, ["pres", "--file", str(tmp_path / "nope.txt")])
    assert code == 2 and out.startswith("error:")


def test_crit_residual_golden(capsys):
    code, out = _run(capsys, ["crit", "residual", "--R", "ab", "--move", "inv"])
    assert code == 0
    assert out.splitlines()[0] == "abab"
    # residual of a right-multiply is the inverse letter conjugated back through R
    code, out = _run(capsys, ["crit", "residual", "--R", "ab", "--move", "mulr:b"])
    assert code == 0 and out.splitlines()[0] == "aBA"
    code, out = _run(capsys, ["crit", "residual", "--R", "ab"])
    assert code == 2


def test_crit_residual_takes_the_empty_word(capsys):
    """``--R ''`` is the empty word, as everywhere a word is read, not a
    missing option; the residual of inverting it is the empty word."""
    code, out = _run(capsys, ["crit", "residual", "--R", "", "--move", "inv"])
    assert (code, out) == (0, "1\n---csv---\nkey,value\nresidual,1\n")
    code, out = _run(capsys, ["crit", "residual", "--R", "ab", "--move", ""])
    assert (code, out) == (2, "error: move must be inv, mulr:<word>, or conj:<letter>\n")


def test_crit_verify_and_check(tmp_path, capsys):
    path = _write_instance(tmp_path, seed=3)
    code, out = _run(capsys, ["crit", "verify", "--instance", path])
    assert code == 0
    assert "verify: true" in out
    assert "product form agrees: true" in out

    code, out = _run(capsys, ["crit", "gauge", "--instance", path])
    assert code == 0 and "gauge verifies: true" in out

    code, out = _run(capsys, ["crit", "check", "--instance", path])
    assert code == 0 and "agree: true" in out
    chk = residual_commutator_check(build_instance(3))
    assert out.splitlines()[:3] == [
        "L' = %s" % (chk.l_prime,),
        "inverse commutator product = %s" % (chk.inverse_commutator_product,),
        "M'^-1 = %s" % (chk.m_prime_inv,),
    ]


def test_crit_verify_corrupted_exit_1(tmp_path, capsys):
    path = _write_instance(tmp_path, seed=3, corrupt=True)
    code, out = _run(capsys, ["crit", "verify", "--instance", path])
    assert code == 1
    assert out.splitlines()[:2] == ["verify: false", "product form agrees: true"]
    code, out = _run(capsys, ["crit", "check", "--instance", path])
    assert (code, out) == (2, "error: instance does not verify\n")


def test_slice_piece_commands(capsys):
    code, out = _run(capsys, ["slice", "piece", "--type", "bag", "--R", "abA"])
    assert code == 0
    assert "validates: true" in out
    assert "boundary: 1" in out
    assert out.splitlines()[0] == "slice 0"

    code, out = _run(capsys, ["slice", "piece", "--type", "prod", "--R", "abA", "--S", "b"])
    assert code == 0 and "boundary: abAB" in out

    code, out = _run(
        capsys, ["slice", "piece", "--type", "comm", "--R", "ab", "--S", "ba", "--dominant", "S"]
    )
    assert code == 0 and "boundary: abbaBAAB" in out

    code, out = _run(capsys, ["slice", "piece", "--type", "invpair", "--R", "ab"])
    assert code == 0 and "boundary: 1" in out

    code, out = _run(capsys, ["slice", "piece", "--type", "comm", "--R", "ab"])
    assert code == 2


def test_smove_build(capsys):
    code, out = _run(capsys, ["smove", "build", "--type", "long", "--seed", "5"])
    assert code == 0
    assert out.splitlines()[0] == "identification longitudinal"
    assert "structure ok: true" in out
    assert "<- perturbation" in out
    assert "perturbation_index,3" in out


def test_inv_playground_default_and_determinism(capsys):
    argv = ["inv", "playground", "--seed", "9"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("invariant: ")


def test_inv_playground_qmove_and_gauge(capsys):
    code, out = _run(capsys, ["inv", "playground", "--seed", "4", "--qmove", "inv R"])
    assert code == 0 and "verdict: Pass" in out
    code, out = _run(capsys, ["inv", "playground", "--seed", "4", "--qmove", "conj S a"])
    assert code == 0 and "verdict: Pass" in out
    code, out = _run(capsys, ["inv", "playground", "--seed", "4", "--gauge", "--type", "mer"])
    assert code == 0 and "verdict: Pass" in out
    for bad in ("twist R", "prolong", "conj S ab", "inv R\ninv S"):
        code, out = _run(capsys, ["inv", "playground", "--seed", "4", "--qmove", bad])
        assert code == 2 and out.startswith("error: ")


def test_an_empty_qmove_spec_exits_2(capsys):
    """``--qmove`` names one relator move; an empty spec names none, so it
    is an error like a blank one, not a request for the plain invariant."""
    error = "error: qmove spec must be 'inv <rel>', 'mulr <rel> <rel>' or 'conj <rel> <letter>'\n"
    for spec in ("", "  ", "# no move"):
        assert _run(capsys, ["inv", "playground", "--seed", "4", "--qmove", spec]) == (2, error), spec


@pytest.mark.parametrize(
    "argv",
    [
        ["inv", "playground", "--seed", "1", "--backend", ""],
        ["demo", "stabilization", "--seed", "1", "--backend", ""],
        ["test", "three-tests", "--seed", "1", "--backend", ""],
        ["inv", "playground", "--seed", "1", "--dump-backend", ""],
        ["smove", "build", "--type", "long", "--instance", ""],
        ["crit", "verify", "--instance", ""],
        ["inv", "playground", "--seed", "1", "--instance", ""],
        ["demo", "nonmult", "--table", ""],
        ["pres", "--file", "{K.txt}", "--moves", ""],
        ["inv", "statesum", "--graphs", "{circle.txt}", "--table", "{t.csv}", "--moves", ""],
        ["inv", "statesum", "--graphs", "{circle.txt}", "--table", "{t.csv}", "--moves", "{moves.txt}", "--relations", ""],
    ],
)
def test_an_empty_path_names_no_file(tmp_path, capsys, argv):
    """An option that names a file is read whenever it is given: an empty
    path is a file that cannot be opened, not a request to skip it."""
    _write_instance(tmp_path)
    (tmp_path / "t.csv").write_text("0,0,0,S\n", encoding="utf-8")
    (tmp_path / "circle.txt").write_text("circle\n", encoding="utf-8")
    (tmp_path / "moves.txt").write_text("circle.txt circle.txt\n", encoding="utf-8")
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert _run(capsys, argv) == (2, "error: [Errno 2] No such file or directory: ''\n")


def test_inv_playground_obstruction_exit_3(capsys):
    code, out = _run(capsys, ["inv", "playground", "--seed", "4", "--obstruction"])
    assert code == 3
    assert "verdict: Obstructed" in out
    assert "F'2 = F2" in out


def test_inv_playground_backend_round_trip(tmp_path, capsys):
    dump = tmp_path / "backend.txt"
    argv = ["inv", "playground", "--seed", "11", "--dump-backend", str(dump)]
    code, out1 = _run(capsys, argv)
    assert code == 0 and dump.exists()
    code, out2 = _run(capsys, ["inv", "playground", "--seed", "11", "--backend", str(dump)])
    assert code == 0
    assert out1.splitlines()[-3:] == out2.splitlines()[-3:]  # same invariant rows


@pytest.mark.parametrize(
    "argv",
    (
        ["inv", "playground", "--seed", "5", "--family", "poly"],
        ["test", "three-tests", "--seed", "5", "--pairs", "2"],
        ["demo", "stabilization", "--seed", "5", "--family", "poly", "--d", "3"],
    ),
    ids=("inv-playground", "three-tests", "stabilization"),
)
def test_every_backend_command_writes_the_backend_it_used(tmp_path, capsys, monkeypatch, argv):
    """``--dump-backend`` is an option of every backend command, and each
    writes the backend it drew; the file loads back to its assignment."""
    from smovelab import playground as pg

    drawn = []
    real = pg.make_backend
    monkeypatch.setattr(pg, "make_backend", lambda *a, **kw: drawn.append(real(*a, **kw)) or drawn[-1])
    path = tmp_path / "backend.txt"
    code, out = _run(capsys, argv + ["--dump-backend", str(path)])
    assert code in (0, 1, 3) and "backend written to %s" % path in out.splitlines()
    (b,) = drawn
    loaded = pg.load_backend(path.read_text(encoding="utf-8"))
    assert (loaded.p, loaded.dim) == (b.p, b.dim)
    assert {lab: m.tolist() for lab, m in loaded.assignment.items()} == {
        lab: m.tolist() for lab, m in b.assignment.items()
    }


def test_inv_playground_instance_file(tmp_path, capsys):
    path = _write_instance(tmp_path, seed=6)
    code, out = _run(capsys, ["inv", "playground", "--instance", path, "--seed", "2"])
    assert code == 0 and out.startswith("invariant: ")


def _write_factor_on_r_instance(tmp_path):
    """A valid instance whose one factor conjugates R itself:
    R·S⁻¹·[y1, R] = ab·aBAA·aabABA = 1."""
    (tmp_path / "K.txt").write_text("gens 2\nrel R ab\nrel x1 b\n", encoding="utf-8")
    (tmp_path / "L.txt").write_text("gens 2\nrel S aabA\nrel y1 a\n", encoding="utf-8")
    (tmp_path / "d.txt").write_text("factor wR=1 R=R^+1 wS=1 S=y1^+1\n", encoding="utf-8")
    path = tmp_path / "inst.txt"
    path.write_text("K K.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("qmove", ["inv R", "conj R a", "conj R B"])
def test_a_relator_move_keeps_a_factor_on_the_moved_relator_valid(tmp_path, capsys, qmove):
    path = _write_factor_on_r_instance(tmp_path)
    code, out = _run(capsys, ["crit", "verify", "--instance", path])
    assert code == 0
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--instance", path, "--qmove", qmove])
    assert (code, out.splitlines()[0]) == (0, "verdict: Pass")


def test_right_multiplying_a_relator_a_factor_conjugates_is_bad_input(tmp_path, capsys):
    path = _write_factor_on_r_instance(tmp_path)
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--instance", path, "--qmove", "mulr R x1"])
    assert (code, out) == (2, "error: cannot right-multiply R: a decomposition factor conjugates R itself\n")


def test_smove_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("SMOVE_SEED", "13")
    code, env_out = _run(capsys, ["inv", "playground"])
    assert code == 0
    monkeypatch.delenv("SMOVE_SEED")
    code, explicit_out = _run(capsys, ["inv", "playground", "--seed", "13"])
    assert env_out == explicit_out
    monkeypatch.setenv("SMOVE_SEED", "not-a-number")
    code, out = _run(capsys, ["word", "reduce", "a"])  # commands without seeds ignore it
    assert code == 0
    code, out = _run(capsys, ["smove", "build", "--type", "long"])
    assert (code, out) == (2, "error: SMOVE_SEED must be an integer\n")
    code, out = _run(capsys, ["smove", "build", "--type", "long", "--seed", "5"])  # an explicit seed wins
    assert code == 0


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_three_tests_rejects_fewer_than_one_pair(capsys, pairs):
    code, out = _run(capsys, ["test", "three-tests", "--pairs", pairs])
    assert (code, out) == (2, "error: --pairs must be at least 1\n")


def test_inv_statesum(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,1\n1,1,1,1\n", encoding="utf-8")
    (tmp_path / "circle.txt").write_text("circle\n", encoding="utf-8")
    (tmp_path / "theta.txt").write_text("v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n", encoding="utf-8")
    code, out = _run(
        capsys,
        [
            "inv",
            "statesum",
            "--graphs",
            str(tmp_path / "circle.txt"),
            str(tmp_path / "theta.txt"),
            "--table",
            str(tmp_path / "t.csv"),
        ],
    )
    assert code == 0
    assert "state sum circle.txt: 2" in out
    assert "multiplicativity: PASS" in out


def test_inv_statesum_moves_and_relations(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,S\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("# nothing\n", encoding="utf-8")
    (tmp_path / "circle.txt").write_text("circle\n", encoding="utf-8")
    (tmp_path / "moves.txt").write_text("empty.txt circle.txt\ncircle.txt empty.txt\n", encoding="utf-8")
    code, out = _run(
        capsys,
        [
            "inv",
            "statesum",
            "--graphs",
            str(tmp_path / "circle.txt"),
            "--table",
            str(tmp_path / "t.csv"),
            "--moves",
            str(tmp_path / "moves.txt"),
        ],
    )
    assert code == 0
    assert "move invariant: -S^2 + 2S - 1" in out


def test_a_move_command_sums_each_graph_once(tmp_path, capsys, monkeypatch):
    """The command's own graph is summed once for the command and the
    invariant, and a move that starts from a relabelled copy of the last
    move's end takes that end's sum: three sums for four graph files."""
    from smovelab import statesum as ss

    files = {
        "t.csv": "0,0,0,q\n0,1,1,1/2\n1,1,1,1/3\n0,0,1,-1/4\n",
        "theta.g": "v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n",
        "k4.g": "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n",
        "k4r.g": "v 13\nv 11\nv 12\nv 10\ne 12 13\ne 10 11\ne 11 13\ne 10 12\ne 11 12\ne 10 13\n",
        "prism.g": "v 0\nv 1\nv 2\nv 3\nv 4\nv 5\ne 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 5 3\ne 0 3\ne 1 4\ne 2 5\n",
        "moves.txt": "theta.g k4.g\nk4r.g prism.g\n",
        "relations.txt": "theta.g prism.g = prism.g theta.g\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    table = ss.load_table(str(tmp_path / "t.csv"))
    graphs = {n[:-2]: ss.load_graph(str(tmp_path / n)) for n in files if n.endswith(".g")}
    assert graphs["k4"] != graphs["k4r"] and ss.isomorphic(graphs["k4"], graphs["k4r"])
    z = {n: ss.state_sum(g, table) for n, g in graphs.items()}
    want = ss.ideal_reduce(
        (z["k4"] - z["theta"]) * (z["prism"] - z["k4r"]), [(z["prism"] - z["theta"]) - (z["theta"] - z["prism"])]
    )
    assert isinstance(want, ss.Polynomial) and want.degree() > 0

    calls = []
    real = ss.state_sum
    monkeypatch.setattr(ss, "state_sum", lambda g, t: calls.append(g) or real(g, t))
    argv = ["inv", "statesum", "--graphs", str(tmp_path / "theta.g"), "--table", str(tmp_path / "t.csv")]
    argv += ["--moves", str(tmp_path / "moves.txt"), "--relations", str(tmp_path / "relations.txt")]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[:2] == ["state sum theta.g: %s" % z["theta"], "move invariant: %s" % want]
    assert len(calls) == 3 and set(calls) == {graphs["theta"], graphs["k4"], graphs["prism"]}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_inv_statesum_sums_each_graph_once(tmp_path, capsys, monkeypatch, k):
    """k graphs make k sums: multiplicativity over their disjoint union is
    printed from the fact that a sum over colourings factorises.  The
    graphs' vertex ids overlap, and the second's run below the first's."""
    from smovelab import statesum as ss

    files = {
        "t.csv": "0,0,0,2\n0,1,1,-1\n1,1,1,1/3\n",
        "theta.g": "v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n",
        "dumbbell.g": "v -1\nv 0\ne -1 -1\ne -1 0\ne 0 0\n",
        "circle.g": "circle\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = [str(tmp_path / n) for n in ("theta.g", "dumbbell.g", "circle.g")[:k]]
    table = ss.load_table(str(tmp_path / "t.csv"))
    want = ["state sum %s: %s" % (p.rsplit("/", 1)[-1], ss.state_sum(ss.load_graph(p), table)) for p in paths]
    calls = []
    real = ss.state_sum
    monkeypatch.setattr(ss, "state_sum", lambda g, t: calls.append(g) or real(g, t))
    code, out = _run(capsys, ["inv", "statesum", "--graphs", *paths, "--table", str(tmp_path / "t.csv")])
    assert code == 0
    assert out.split("---csv---")[0].splitlines() == want + (["multiplicativity: PASS"] if k > 1 else [])
    assert len(calls) == k


def test_demo_nonmult(tmp_path, capsys):
    code, out = _run(capsys, ["demo", "nonmult"])
    assert code == 0
    assert out.splitlines()[0] == "2S^4 - 4S^3 + 4S^2 - 4S + 2"
    (tmp_path / "t.csv").write_text("0,0,0,1\n1,1,1,1\n", encoding="utf-8")
    code, out = _run(capsys, ["demo", "nonmult", "--table", str(tmp_path / "t.csv")])
    assert code == 0
    assert "non-multiplicative at S = 2: defect 10" in out


def test_demo_stabilization_exit_3(capsys):
    code, out = _run(capsys, ["demo", "stabilization", "--v", "2", "--seed", "3"])
    assert code == 3
    assert "verdict: Obstructed" in out
    assert "Z(S2)^2 is invertible" in out


@pytest.mark.parametrize("v", ["0", "-1"])
def test_demo_stabilization_rejects_the_count_before_drawing(tmp_path, capsys, v):
    """A count below 1 is bad input, rejected before the instance and the
    backend are drawn, so no ``--dump-backend`` file is written."""
    dump = tmp_path / "b.txt"
    code, out = _run(capsys, ["demo", "stabilization", "--v", v, "--dump-backend", str(dump)])
    assert (code, out) == (2, "error: stabilization count must be >= 1\n")
    assert not dump.exists()


def test_a_drawn_backend_needs_p_at_least_3(capsys):
    """Over GF(2) the only nonzero scalar is the identity, so no drawn
    backend has a non-identity sphere: bad input, not a traceback."""
    from smovelab.playground import make_backend
    from smovelab.words import InputError

    for argv in (
        ["inv", "playground", "--seed", "1", "--p", "2"],
        ["demo", "stabilization", "--p", "2"],
        ["test", "three-tests", "--p", "2"],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out.startswith("error:") and "p >= 3" in captured.out, argv
        assert "Traceback" not in captured.out + captured.err, argv
    with pytest.raises(InputError, match="p >= 3"):
        make_backend(["cell:a"], p=2)


def test_three_tests_protocol(capsys):
    code, out = _run(capsys, ["test", "three-tests", "--seed", "2"])
    # the demo pits the two identification types against each other
    assert "I(K)=I(L): " in out
    if code == 1:
        assert "counterexample" in out
    else:
        assert code == 0


def test_three_tests_permsum_answers_for_seven_pairs(capsys):
    """The permutation sum is n!·(the product), with no factor limit, so
    seven pairs answer.  The expected verdict comes from the brute sum
    over every ordering of each side's invariants."""
    from smovelab import playground as pg

    code, out = _run(capsys, ["test", "three-tests", "--seed", "3", "--pairs", "7", "--combine", "permsum"])
    instances = [build_instance(3 + i) for i in range(7)]
    sides = [[slicing.build_abstract(inst, t) for inst in instances] for t in (slicing.LONGITUDINAL, slicing.MERIDIAN)]
    b = pg.make_backend(backend_labels(*sides[0], *sides[1]), seed=3)
    i_k, i_l = (ordering_sum([pg.perturbed_invariant(s, b) for s in side], b.p, b.dim) for side in sides)
    same = str(bool((i_k == i_l).all())).lower()
    lines = out.splitlines()
    assert lines[:3] == ["I(K)=I(L): %s" % same, "I_gauge(K)=I(L): %s" % same, "I(K)=I_gauge(L): %s" % same]
    assert code == (0 if same == "true" else 1)
    assert (lines[3] == pg.COUNTEREXAMPLE_FLAG) == (same == "false")


def _count_calls(monkeypatch, fn):
    """Count the calls to ``fn`` made through any smovelab module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("smovelab") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize(
    "argv, sequences, transports",
    [
        (["inv", "playground", "--seed", "4"], 2, 0),
        (["inv", "playground", "--seed", "4", "--gauge"], 2, 0),
        (["inv", "playground", "--seed", "4", "--obstruction"], 2, 0),
        (["inv", "playground", "--seed", "4", "--qmove", "inv R"], 3, 1),
        (["test", "three-tests", "--seed", "4", "--pairs", "3"], 6, 0),
        # a loaded backend reads no labels: the other type only for the obstruction
        (["inv", "playground", "--seed", "4", "--backend", "<backend>"], 1, 0),
        (["inv", "playground", "--seed", "4", "--backend", "<backend>", "--gauge"], 1, 0),
        (["inv", "playground", "--seed", "4", "--backend", "<backend>", "--obstruction"], 2, 0),
        (["inv", "playground", "--seed", "4", "--backend", "<backend>", "--qmove", "inv R"], 2, 1),
    ],
)
def test_a_command_builds_each_abstract_sequence_once(monkeypatch, capsys, tmp_path, argv, sequences, transports):
    if "<backend>" in argv:
        backend = str(tmp_path / "b.txt")
        assert cli.main(["inv", "playground", "--seed", "4", "--qmove", "inv R", "--dump-backend", backend]) == 0
        capsys.readouterr()
        argv = [backend if a == "<backend>" else a for a in argv]
    built = _count_calls(monkeypatch, slicing.build_abstract)
    moved = _count_calls(monkeypatch, criterion.transport_qmove)
    code, out = _run(capsys, argv)
    assert code in (0, 1, 3) and "---csv---" in out
    assert (len(built), len(moved)) == (sequences, transports)


@pytest.mark.parametrize(
    "argv, verified",
    [
        (["inv", "playground", "--seed", "3"], 1),
        (["inv", "playground", "--seed", "3", "--gauge"], 1),
        (["inv", "playground", "--seed", "3", "--obstruction"], 1),
        (["inv", "playground", "--seed", "3", "--qmove", "inv R"], 1),
        (["test", "three-tests", "--seed", "3", "--pairs", "3"], 3),
        (["smove", "build", "--type", "long", "--seed", "3"], 1),
        (["demo", "stabilization", "--seed", "3"], 1),
        (["smove", "build", "--type", "mer", "--instance", "<instance>"], 1),
        (["inv", "playground", "--seed", "3", "--instance", "<instance>", "--qmove", "conj S a"], 1),
    ],
)
def test_each_instance_is_verified_once_where_it_enters(monkeypatch, capsys, tmp_path, argv, verified):
    """``build_instance`` verifies its own draw and the CLI a loaded
    instance; no sequence builder and no relator move verifies again."""
    argv = [_write_instance(tmp_path, seed=3) if a == "<instance>" else a for a in argv]
    calls = _count_calls(monkeypatch, criterion.verification_word)
    code, out = _run(capsys, argv)
    assert code in (0, 1, 3) and "---csv---" in out
    assert len(calls) == verified


@pytest.mark.parametrize("what", [["smove", "build", "--type", "long"], ["inv", "playground", "--seed", "3"]])
def test_a_loaded_instance_that_fails_the_criterion_exits_2(capsys, tmp_path, what):
    path = _write_instance(tmp_path, seed=3, corrupt=True)
    assert _run(capsys, what + ["--instance", path]) == (2, "error: instance fails the commutator criterion\n")


@pytest.mark.parametrize(
    "name, text, lineno, message",
    [
        ("K.txt", "gens 2\nrel R a\n\nrel R b\n", 4, "duplicate relator name 'R'"),
        ("inst.txt", "K K.txt\nL L.txt\nR Q\nS S\ndecomp d.txt\n", 3, "unknown relator 'Q'"),
        ("inst.txt", "decomp d.txt\nS x1\nR R\nK K.txt\nL L.txt\n", 2, "unknown relator 'x1'"),
        ("d.txt", "factor wR=1 R=x1^+1 wS=1 S=y1^+1\nfactor wR=1 R=Q^-1 wS=1 S=y1^+1\n", 2, "unknown relator 'Q'"),
        ("d.txt", "factor wR=1 R=x1^+1 wS=1 S=x1^+1\n", 1, "unknown relator 'x1'"),
    ],
)
def test_a_relator_name_error_names_its_file_and_line(tmp_path, capsys, name, text, lineno, message):
    """Names are checked where they are parsed: a repeated relator in its
    presentation file, and an unknown one in the instance or
    decomposition file that names it."""
    inst = _write_instance(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    expected = (2, "error: %s: line %d: %s\n" % (tmp_path / name, lineno, message))
    for command in (["crit", "verify"], ["smove", "build", "--type", "long"]):
        assert _run(capsys, command + ["--instance", inst]) == expected


_SWAP_FREE = [
    (["test", "three-tests", "--seed", "4", "--pairs", "3"], "I_gauge(K)=I(L): "),
    (["inv", "playground", "--seed", "4", "--gauge"], "verdict: Pass"),
    (["inv", "playground", "--seed", "4", "--gauge", "--type", "mer", "--backend", "<backend>"], "verdict: Pass"),
    (["inv", "playground", "--seed", "4", "--qmove", "inv R"], "verdict: Pass"),
    (["crit", "gauge", "--instance", "<instance>"], "gauge verifies: true"),
    (["crit", "gauge", "--instance", "<corrupt>"], "gauge verifies: false"),
]


@pytest.mark.parametrize("argv, printed", _SWAP_FREE, ids=[" ".join(a) for a, _ in _SWAP_FREE])
def test_no_command_builds_a_swapped_instance(monkeypatch, capsys, tmp_path, argv, printed):
    """Every gauge line holds by construction, so no command constructs a
    swapped instance.  Every backend aliases a word with its inverse, so
    the gauge lines of ``test three-tests`` and ``inv playground
    --gauge`` repeat the direct comparison; a swapped instance verifies
    exactly when its own instance does, which ``crit gauge`` prints."""
    backend = str(tmp_path / "b.txt")
    assert cli.main(["inv", "playground", "--seed", "4", "--dump-backend", backend]) == 0
    capsys.readouterr()
    (tmp_path / "corrupt").mkdir()
    made = {
        "<backend>": backend,
        "<instance>": _write_instance(tmp_path, seed=3),
        "<corrupt>": _write_instance(tmp_path / "corrupt", seed=3, corrupt=True),
    }
    argv = [made.get(a, a) for a in argv]
    built = []
    init = criterion.CriterionInstance.__post_init__
    monkeypatch.setattr(
        criterion.CriterionInstance, "__post_init__", lambda self, reading: built.append(self) or init(self, reading)
    )
    code, out = _run(capsys, argv)
    monkeypatch.undo()
    assert code in (0, 1) and printed in out
    assert built and not set(built) & set(map(gauge, built))


@pytest.mark.parametrize("action, corrupt, code", [("verify", False, 0), ("verify", True, 1), ("check", False, 0)])
def test_crit_verify_and_check_form_no_inverse_commutator_product(monkeypatch, capsys, tmp_path, action, corrupt, code):
    """The product form and the residual check hold by construction, so
    neither command multiplies out the commutator product again."""
    path = _write_instance(tmp_path, seed=3, corrupt=corrupt)
    commutators = criterion.load_instance(path).read().commutators
    reduced = _count_calls(monkeypatch, words.reduce)
    got, out = _run(capsys, ["crit", action, "--instance", path])
    assert got == code and "---csv---" in out
    assert commutators and commutators not in reduced


@pytest.mark.parametrize(
    "argv, out",
    [
        (["word", "comm", "abg27", "Bg30a"], "abg27Bg30aG27BAAG30b\n"),
        (["word", "multiply", "abA", "aB", "bcg27", "G27C"], "ab\n"),
        (["crit", "residual", "--R", "abABg27", "--move", "inv"], "abABg27abABg27\n"),
        (["crit", "residual", "--R", "abAB", "--move", "conj:c"], "abABcbaBAC\n"),
    ],
)
def test_word_commands_convert_no_letter_after_parsing(monkeypatch, capsys, argv, out):
    """The parser builds its words from its own letters, and every kernel
    after it takes ``Word``s as they are, so no letter of a word command
    goes through ``Word``'s converting path."""
    from smovelab.words import Word

    converted = []
    real = Word.__new__

    def counted(cls, letters=()):
        if type(letters) is not cls:
            letters = tuple(letters)
            converted.append(letters)
        return real(cls, letters)

    monkeypatch.setattr(Word, "__new__", counted)
    code, got = _run(capsys, argv)
    assert (code, got.split("---csv---")[0]) == (0, out)
    assert converted == []


@pytest.mark.parametrize("action, formatted", [("slice", 1), ("check", 1)])
def test_a_word_printed_on_two_lines_is_formatted_once(monkeypatch, capsys, tmp_path, action, formatted):
    """``slice piece`` prints its boundary word in the text and the CSV
    block, and ``crit check`` prints one word on three lines and in the
    CSV block: each is formatted once."""
    calls = []
    real = cli.format_word
    monkeypatch.setattr(cli, "format_word", lambda w: calls.append(w) or real(w))
    if action == "slice":
        argv = ["slice", "piece", "--type", "comm", "--R", "abg27", "--S", "Bg30a"]
    else:
        argv = ["crit", "check", "--instance", _write_instance(tmp_path)]
    code, out = _run(capsys, argv)
    assert code == 0 and "---csv---" in out
    assert len(calls) == formatted


def test_csv_block_is_well_formed(capsys):
    code, out = _run(capsys, ["word", "comm", "ab", "ba"])
    text_part, csv_part = out.split("---csv---\n")
    lines = csv_part.splitlines()
    assert lines[0] == "key,value"
    assert all("," in ln for ln in lines[1:])


def test_inv_statesum_zero_valued_move_with_polynomial_relation(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,S\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("# nothing\n", encoding="utf-8")
    (tmp_path / "circle.txt").write_text("circle\n", encoding="utf-8")
    # the second move leaves the state sum unchanged, so its value is 0
    (tmp_path / "moves.txt").write_text("empty.txt circle.txt\ncircle.txt circle.txt\n", encoding="utf-8")
    (tmp_path / "rels.txt").write_text("empty.txt circle.txt = circle.txt empty.txt\n", encoding="utf-8")
    code, out = _run(
        capsys,
        [
            "inv",
            "statesum",
            "--graphs",
            str(tmp_path / "circle.txt"),
            "--table",
            str(tmp_path / "t.csv"),
            "--moves",
            str(tmp_path / "moves.txt"),
            "--relations",
            str(tmp_path / "rels.txt"),
        ],
    )
    assert code == 0
    assert "move invariant: 0" in out


def test_malformed_graph_line_exits_2(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,1\n", encoding="utf-8")
    (tmp_path / "g.txt").write_text("v 0\nv x\n", encoding="utf-8")
    code, out = _run(
        capsys, ["inv", "statesum", "--graphs", str(tmp_path / "g.txt"), "--table", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert out.startswith("error: %s: line 2: " % (tmp_path / "g.txt"))


def test_bad_graph_named_in_a_moves_file_names_that_graph_file(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,1\n", encoding="utf-8")
    (tmp_path / "c.g").write_text("circle\n", encoding="utf-8")
    (tmp_path / "bad.g").write_text("v 0\n# ports\n\ne 0 x\n", encoding="utf-8")
    (tmp_path / "moves.txt").write_text("c.g bad.g\n", encoding="utf-8")
    argv = ["inv", "statesum", "--graphs", str(tmp_path / "c.g"), "--table", str(tmp_path / "t.csv")]
    code, out = _run(capsys, argv + ["--moves", str(tmp_path / "moves.txt")])
    assert code == 2
    assert out == "error: %s: line 4: expected integers, got '0 x'\n" % (tmp_path / "bad.g")
    (tmp_path / "moves.txt").write_text("c.g c.g\nc.g\n", encoding="utf-8")
    code, out = _run(capsys, argv + ["--moves", str(tmp_path / "moves.txt")])
    assert code == 2
    assert out.startswith("error: %s: line 2: " % (tmp_path / "moves.txt"))
    (tmp_path / "t.csv").write_text("0,0,0,1\n0,0\n", encoding="utf-8")
    code, out = _run(capsys, argv)
    assert code == 2
    assert out.startswith("error: %s: line 2: " % (tmp_path / "t.csv"))


@pytest.mark.parametrize(
    "flags",
    [
        ["--p", "4294967311"],
        ["--family", "poly", "--p", "2147483647"],
        ["--d", "2", "--p", "3037000507"],
    ],
)
def test_inv_playground_rejects_fields_that_overflow_int64(capsys, flags):
    code, out = _run(capsys, ["inv", "playground", "--seed", "1"] + flags)
    assert code == 2
    assert out.startswith("error: ") and "d*(p-1)^2 < 2^63" in out


def test_inv_playground_backend_file_beyond_the_int64_bound_exits_2(tmp_path, capsys):
    for p in (4294967311, 2**64 + 13):
        (tmp_path / "b.txt").write_text("p %d d 1\ntok S2 5\n" % p, encoding="utf-8")
        code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(tmp_path / "b.txt")])
        assert code == 2
        assert out.startswith("error: %s: line 1: " % (tmp_path / "b.txt")) and "d*(p-1)^2 < 2^63" in out


def test_inv_playground_large_dimension_below_the_bound_still_runs(capsys):
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--d", "32", "--p", "100003"])
    assert code == 0 and out.startswith("invariant: ")
    assert "p,100003" in out and "d,32" in out


def test_dimension_beyond_max_dim_exits_2(tmp_path, capsys):
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--p", "2", "--d", "1000000"])
    assert (code, out) == (2, "error: dimension must be at most 256, got 1000000\n")
    path = tmp_path / "b.txt"
    path.write_text("p 2 d 1000000\ntok S2 1\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(path)])
    assert (code, out) == (2, "error: %s: line 1: dimension must be at most 256, got 1000000\n" % path)


def test_malformed_backend_value_exits_2(tmp_path, capsys):
    (tmp_path / "b.txt").write_text("p 101 d 1\ntok S2 x\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(tmp_path / "b.txt")])
    assert code == 2
    assert out.startswith("error: %s: line 2: " % (tmp_path / "b.txt"))


def test_backend_entries_load_reduced_mod_p(tmp_path, capsys):
    """An entry past int64, or a negative one, loads as its residue: the
    invariant is the one the reduced dump gives."""
    reduced = tmp_path / "reduced.txt"
    code, _ = _run(capsys, ["inv", "playground", "--seed", "3", "--dump-backend", str(reduced)])
    assert code == 0
    lines = reduced.read_text(encoding="utf-8").splitlines()
    p = int(lines[0].split()[1])
    unreduced = [lines[0]]
    for line in lines[1:]:
        tok, label, *entries = line.split()
        shifted = [int(x) + (p * 10**28 if i % 2 else -7 * p) for i, x in enumerate(entries)]
        unreduced.append(" ".join([tok, label] + [str(x) for x in shifted]))
    assert any(abs(int(x)) >= 2**63 for x in unreduced[1].split()[2:])
    assert any(int(x) < 0 for x in unreduced[1].split()[2:])
    big = tmp_path / "unreduced.txt"
    big.write_text("\n".join(unreduced) + "\n", encoding="utf-8")
    code, want = _run(capsys, ["inv", "playground", "--seed", "3", "--backend", str(reduced)])
    assert code == 0 and want.startswith("invariant: ")
    assert _run(capsys, ["inv", "playground", "--seed", "3", "--backend", str(big)]) == (0, want)


def test_backend_line_one_entry_short_exits_2(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("p 101 d 2\ntok S2 2 0 0 2\ntok cell:a 1 0 1\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(path)])
    assert (code, out) == (2, "error: %s: line 3: bad backend line\n" % path)


def test_backend_holding_only_the_sphere_exits_2(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("p 101 d 1\ntok S2 2\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(path)])
    assert (code, out) == (2, "error: token cell:BabaBaBBAbbAbABaBBabbAbabABABababaBABA has no assigned matrix\n")


@pytest.mark.parametrize("form", [["--obstruction"], ["--gauge"], ["--qmove", "inv R"]])
def test_a_backend_missing_tokens_names_the_first_in_slice_order(tmp_path, capsys, form):
    path = tmp_path / "b.txt"
    path.write_text("p 101 d 1\ntok S2 2\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(path)] + form)
    assert (code, out) == (2, "error: token cell:BabaBaBBAbbAbABaBBabbAbabABABababaBABA has no assigned matrix\n")


_VERDICT_PASS = "verdict: Pass\n---csv---\nkey,value\nverdict,Pass\n"


def test_a_backend_for_the_base_labels_only_answers_the_gauge_but_not_a_rider(tmp_path, capsys):
    """With a loaded backend, ``--gauge`` looks up the base sequence, whose
    labels a gauged sequence shares, and ``--qmove`` the base and then the
    rider, which a backend drawn for the base labels alone does not cover:
    it names the rider's first missing label.  With ``--gauge`` and
    ``--qmove`` together the gauge answers, and the rider is still built."""
    from smovelab import playground as pg
    from smovelab.presentations import InvertRelator

    inst = build_instance(4)
    base = slicing.build_abstract(inst, slicing.LONGITUDINAL)
    b = pg.make_backend(backend_labels(base), seed=4)
    path = tmp_path / "b.txt"
    path.write_text(pg.dump_backend(b), encoding="utf-8")
    rider = pg.qmove_rider(inst, InvertRelator("R"), slicing.LONGITUDINAL)
    labels = (slicing.token_text(t, True) for sl in rider.slices for t in sl.tokens)
    missing = next(lab for lab in labels if lab not in b.assignment)
    loaded = ["inv", "playground", "--seed", "4", "--backend", str(path)]
    assert _run(capsys, loaded + ["--qmove", "inv R"]) == (2, "error: token %s has no assigned matrix\n" % missing)
    assert _run(capsys, loaded + ["--gauge"]) == (0, _VERDICT_PASS)
    assert _run(capsys, loaded + ["--gauge", "--qmove", "inv S"]) == (0, _VERDICT_PASS)
    assert _run(capsys, ["inv", "playground", "--seed", "4", "--gauge", "--qmove", "inv S"]) == (0, _VERDICT_PASS)
    code, out = _run(capsys, loaded + ["--gauge", "--qmove", "conj S ab"])
    assert code == 2 and out.startswith("error: ")


def test_duplicate_backend_label_exits_2(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("p 101 d 1\ntok S2 2\ntok S2 3\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(path)])
    assert code == 2
    assert out == "error: %s: line 3: duplicate token label S2\n" % path


def test_presentation_instance_and_decomposition_errors_name_their_file(tmp_path, capsys):
    _write_instance(tmp_path)
    (tmp_path / "bad_p.txt").write_text("gens 2\nfoo bar\n", encoding="utf-8")
    (tmp_path / "bad_m.txt").write_text("inv R\nspin R\n", encoding="utf-8")
    (tmp_path / "bad_d.txt").write_text("factor wR=a\n", encoding="utf-8")
    (tmp_path / "i_bad.txt").write_text("K K.txt\nQ x\n", encoding="utf-8")
    (tmp_path / "i_bad_k.txt").write_text("K bad_p.txt\nL L.txt\nR R\nS S\ndecomp d.txt\n", encoding="utf-8")
    (tmp_path / "i_bad_d.txt").write_text("K K.txt\nL L.txt\nR R\nS S\ndecomp bad_d.txt\n", encoding="utf-8")
    cases = [
        (["pres", "--file", str(tmp_path / "bad_p.txt")], "bad_p.txt", 2),
        (["pres", "--file", str(tmp_path / "K.txt"), "--moves", str(tmp_path / "bad_m.txt")], "bad_m.txt", 2),
        (["crit", "verify", "--instance", str(tmp_path / "i_bad.txt")], "i_bad.txt", 2),
        (["crit", "verify", "--instance", str(tmp_path / "i_bad_k.txt")], "bad_p.txt", 2),
        (["smove", "build", "--type", "mer", "--instance", str(tmp_path / "i_bad_d.txt")], "bad_d.txt", 1),
    ]
    for argv, name, lineno in cases:
        code, out = _run(capsys, argv)
        assert code == 2
        assert out.startswith("error: %s: line %d: " % (tmp_path / name, lineno)), out


@pytest.mark.parametrize(
    "name, text, lineno, message",
    [
        ("p.txt", "gens 2\nrel R a0\n", 2, "bad word token '0' in 'a0'"),
        ("p.txt", "gens 2\nrel R ac\n", 2, "generator index 3 out of range (alphabet has 2)"),
        ("m.txt", "conj R 0\n", 1, "bad word token '0' in '0'"),
        ("m.txt", "inv R\nnielsen rmul a a\n", 2, "substitution needs two distinct generators"),
        ("d.txt", "factor wR=a0 R=R^+1 wS=1 S=S^+1\n", 1, "bad word token '0' in 'a0'"),
    ],
)
def test_an_error_inside_a_word_or_move_names_its_line(tmp_path, capsys, name, text, lineno, message):
    inst = _write_instance(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    argv = {
        "p.txt": ["pres", "--file", str(tmp_path / "p.txt")],
        "m.txt": ["pres", "--file", str(tmp_path / "K.txt"), "--moves", str(tmp_path / "m.txt")],
        "d.txt": ["crit", "verify", "--instance", inst],
    }[name]
    assert _run(capsys, argv) == (2, "error: %s: line %d: %s\n" % (tmp_path / name, lineno, message))


def test_a_negative_color_in_a_3j_table_exits_2(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("0,0,0,1\n-1,0,0,5\n", encoding="utf-8")
    (tmp_path / "theta.txt").write_text("v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n", encoding="utf-8")
    argv = ["inv", "statesum", "--graphs", str(tmp_path / "theta.txt"), "--table", str(tmp_path / "t.csv")]
    code, out = _run(capsys, argv)
    assert code == 2
    assert out.startswith("error: %s: line 2: " % (tmp_path / "t.csv")), out


def test_a_color_past_the_bound_in_a_3j_table_exits_2(tmp_path, capsys):
    """``state_sum`` builds k³ keys per vertex template, so one huge
    colour made a two-line table hang the command.  Colours run from 0
    to 31; 32 is the first past the bound."""
    from smovelab import statesum
    from smovelab.words import InputError

    table = tmp_path / "t.csv"
    table.write_text("0,0,0,1\n0,0,32,1\n", encoding="utf-8")
    (tmp_path / "theta.txt").write_text("v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n", encoding="utf-8")
    with pytest.raises(InputError, match="^line 2: color 32 out of range$"):
        statesum.parse_table(table.read_text(encoding="utf-8"))
    for argv in (
        ["inv", "statesum", "--graphs", str(tmp_path / "theta.txt"), "--table", str(table)],
        ["demo", "nonmult", "--table", str(table)],
    ):
        assert _run(capsys, argv) == (2, "error: %s: line 2: color 32 out of range\n" % table)
    assert statesum.parse_table("0,0,31,1\n").color_count == statesum.MAX_COLORS == 32


def _past_the_dense_limit(tmp_path):
    """A 60-vertex random cubic graph and a dense 3-colour table, written
    to ``big.g`` and ``t.csv``: the usual order reaches a merged scope of
    14 edges, so one step would loop over 3^14 keys and keep a third of
    them.  Returns the two paths and the error ``inv statesum`` should
    print, as a pattern."""
    from smovelab import statesum

    rng = random.Random(1)
    while True:
        stubs = [v for v in range(60) for _ in range(3)]
        rng.shuffle(stubs)
        if all(a != b for a, b in zip(stubs[0::2], stubs[1::2])):
            break
    graph = tmp_path / "big.g"
    lines = ["v %d\n" % v for v in range(60)] + ["e %d %d\n" % e for e in zip(stubs[0::2], stubs[1::2])]
    graph.write_text("".join(lines), encoding="utf-8")
    triples = combinations_with_replacement(range(3), 3)
    rows = ["%d,%d,%d,%d\n" % (*tr, (1, 2, 3, -1, -2)[i % 5]) for i, tr in enumerate(triples)]
    (tmp_path / "t.csv").write_text("".join(rows), encoding="utf-8")
    want = r"error: %s: elimination width (\d+) needs 3\^\1 dense entries, over the limit %d\n"
    return str(graph), str(tmp_path / "t.csv"), want % (re.escape(str(graph)), statesum.MAX_DENSE_ENTRIES)


def test_a_graph_past_the_dense_limit_exits_2_before_any_elimination(tmp_path, capsys, monkeypatch):
    """The plan sees the width from scopes alone, and the command exits 2
    naming the graph file, the width and the limit, before any factor is
    built."""
    from smovelab import statesum

    graph, table, want = _past_the_dense_limit(tmp_path)
    eliminated = []
    real = statesum._eliminate
    monkeypatch.setattr(statesum, "_eliminate", lambda e, fs: eliminated.append(e) or real(e, fs))
    code, out = _run(capsys, ["inv", "statesum", "--graphs", graph, "--table", table])
    assert code == 2 and "Traceback" not in out and eliminated == []
    width = int(re.fullmatch(want, out).group(1))
    assert 3**width > statesum.MAX_DENSE_ENTRIES


def test_a_move_or_relation_graph_past_the_dense_limit_names_its_file(tmp_path, capsys):
    """``invariant`` sums the graphs of ``--moves`` and ``--relations``
    itself; the error names the graph file there too, resolved against
    the directory of the file that lists it."""
    graph, table, want = _past_the_dense_limit(tmp_path)
    (tmp_path / "theta.g").write_text("v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n", encoding="utf-8")
    (tmp_path / "moves.txt").write_text("theta.g big.g\n", encoding="utf-8")
    (tmp_path / "same.txt").write_text("theta.g theta.g\n", encoding="utf-8")
    (tmp_path / "rels.txt").write_text("theta.g big.g = theta.g theta.g\n", encoding="utf-8")
    argv = ["inv", "statesum", "--graphs", str(tmp_path / "theta.g"), "--table", table, "--moves"]
    moves, same, rels = (str(tmp_path / f) for f in ("moves.txt", "same.txt", "rels.txt"))
    for extra in ([moves], [same, "--relations", rels]):
        code, out = _run(capsys, argv + extra)
        assert code == 2 and re.fullmatch(want, out), extra


_PEAK_ADDRESS_SPACE = """
import sys
from smovelab import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    peak = [line.split()[1] for line in fh if line.startswith("VmPeak:")][0]
print("peak_kb", peak, "exit", code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmPeak from /proc and caps RLIMIT_AS")
def test_a_sum_that_runs_out_of_memory_prints_one_error_line_and_no_traceback(tmp_path):
    """A 40-vertex random cubic graph of plan width 12 and a dense
    3-colour table: uncapped, ``inv statesum`` answers in well under a
    second, with about 20 MB more address space than a theta needs.
    With the child's address space capped 8 MB above what a theta needs,
    it exits 2 with one ``error:`` line naming the command and its
    stage, and no traceback."""
    import os
    import resource
    import subprocess

    from smovelab import statesum

    rng = random.Random(12)
    rows = ["%d,%d,%d,%d\n" % (*tr, 1 + sum(tr)) for tr in combinations_with_replacement(range(3), 3)]
    (tmp_path / "t.csv").write_text("".join(rows), encoding="utf-8")
    table = statesum.load_table(str(tmp_path / "t.csv"))
    while True:
        stubs = [v for v in range(40) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[0::2], stubs[1::2]))
        g = statesum.TrivalentGraph(tuple(range(40)), tuple(edges))
        if max(map(len, statesum.plan(g, table).scopes)) == 12:
            break
    lines = ["v %d\n" % v for v in range(40)] + ["e %d %d\n" % e for e in edges]
    (tmp_path / "big.g").write_text("".join(lines), encoding="utf-8")
    (tmp_path / "theta.g").write_text("v 0\nv 1\ne 0 1\ne 0 1\ne 0 1\n", encoding="utf-8")
    src = str(Path(statesum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(graph, cap=None):
        argv = ["inv", "statesum", "--graphs", str(tmp_path / graph), "--table", str(tmp_path / "t.csv")]
        limit = None if cap is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        return subprocess.run(
            [sys.executable, "-c", _PEAK_ADDRESS_SPACE, *argv], capture_output=True, text=True, env=env, preexec_fn=limit
        )

    small, big = run("theta.g"), run("big.g")
    assert small.returncode == big.returncode == 0 and small.stdout.startswith("state sum theta.g: 486\n")
    base, need = (int(p.stdout.split()[-3]) << 10 for p in (small, big))
    assert need - base > 16 << 20
    capped = run("big.g", base + (8 << 20))
    assert "Traceback" not in capped.stdout + capped.stderr, capped.stderr[-2000:]
    assert capped.stderr == ""
    want = r"error: inv statesum ran out of memory while computing its result\npeak_kb \d+ exit 2\n"
    assert re.fullmatch(want, capped.stdout), capped.stdout


# --- the parser: read directly, or argparse's whole tree ---------------------

# (argv, exit code, stdout, stderr) from the parser that built the whole
# tree on every call, at COLUMNS=80 with Python 3.11's argparse.
_PARSER_GOLDENS = [
    (
        ["-h"],
        0,
        (
            "usage: smovelab [-h] {word,pres,crit,slice,smove,inv,demo,test} ...\n"
            "\n"
            "Command-line front end. Every command prints a plain-text report followed by a\n"
            "machine-readable CSV block behind a ``---csv---`` line. Exit codes: 0\n"
            "pass/success, 1 fail/false, 2 input error, 3 obstructed. ``SMOVE_SEED``\n"
            "supplies the default seed.\n"
            "\n"
            "positional arguments:\n"
            "  {word,pres,crit,slice,smove,inv,demo,test}\n"
            "    word                free word operations\n"
            "    pres                load a presentation and apply a moves file\n"
            "    crit                criterion instance checks\n"
            "    slice               piece slicings\n"
            "    smove               abstract slice sequences\n"
            "    inv                 invariants\n"
            "    demo                executable demonstrations\n"
            "    test                multi-part test protocols\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        [],
        2,
        "",
        (
            "usage: smovelab [-h] {word,pres,crit,slice,smove,inv,demo,test} ...\n"
            "smovelab: error: the following arguments are required: cmd\n"
        ),
    ),
    (
        ["inv", "-h"],
        0,
        (
            "usage: smovelab inv [-h] {playground,statesum} ...\n"
            "\n"
            "positional arguments:\n"
            "  {playground,statesum}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["inv", "statesum", "-h"],
        0,
        (
            "usage: smovelab inv statesum [-h] --graphs GRAPHS [GRAPHS ...] --table TABLE\n"
            "                             [--moves MOVES] [--relations RELATIONS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --graphs GRAPHS [GRAPHS ...]\n"
            "  --table TABLE\n"
            "  --moves MOVES\n"
            "  --relations RELATIONS\n"
        ),
        "",
    ),
    (
        ["inv", "statsum"],
        2,
        "",
        (
            "usage: smovelab inv [-h] {playground,statesum} ...\n"
            "smovelab inv: error: argument what: invalid choice: "
            "'statsum' (choose from 'playground', 'statesum')\n"
        ),
    ),
    (
        ["inv", "statesum", "--graphs", "g.txt"],
        2,
        "",
        (
            "usage: smovelab inv statesum [-h] --graphs GRAPHS [GRAPHS ...] --table TABLE\n"
            "                             [--moves MOVES] [--relations RELATIONS]\n"
            "smovelab inv statesum: error: the following arguments are required: --table\n"
        ),
    ),
    (
        ["word", "frob", "x"],
        2,
        "",
        (
            "usage: smovelab word [-h] {reduce,invert,multiply,comm} words [words ...]\n"
            "smovelab word: error: argument op: invalid choice: 'frob' "
            "(choose from 'reduce', 'invert', 'multiply', 'comm')\n"
        ),
    ),
    (
        ["word", "reduce", "ab", "--bogus"],
        2,
        "",
        (
            "usage: smovelab [-h] {word,pres,crit,slice,smove,inv,demo,test} ...\n"
            "smovelab: error: unrecognized arguments: --bogus\n"
        ),
    ),
    (
        ["test", "three-tests", "--pairs", "x"],
        2,
        "",
        (
            "usage: smovelab test three-tests [-h] [--pairs PAIRS]\n"
            "                                 [--combine {product,permsum}] [--seed SEED]\n"
            "                                 [--p P] [--d D] [--family {diagonal,poly}]\n"
            "                                 [--backend BACKEND]\n"
            "                                 [--dump-backend DUMP_BACKEND]\n"
            "smovelab test three-tests: error: argument --pairs: invalid int value: 'x'\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "argv,code,out,err", _PARSER_GOLDENS, ids=[" ".join(g[0]) or "<none>" for g in _PARSER_GOLDENS]
)
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("columns", ["50", "200"])
@pytest.mark.parametrize("argv", [["-h"], ["inv", "playground", "-h"]])
def test_help_wraps_as_with_argparses_default_formatter(monkeypatch, capsys, columns, argv):
    """The width is read once per parser build, as argparse reads it."""
    monkeypatch.setenv("COLUMNS", columns)
    reference = argparse.ArgumentParser(prog="smovelab", description=cli.__doc__)
    cli._add_commands(reference, cli.COMMANDS, "cmd", argparse.HelpFormatter)
    outputs = []
    for parse in (cli.main, reference.parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        assert exc.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    widest = max(map(len, outputs[0].out.splitlines()))
    assert (widest > 80) == (columns == "200")


_LEAF_ARGV = {
    ("word",): ["word", "multiply", "ab", "BA", "ab"],
    ("pres",): ["pres", "--file", "p.txt", "--moves", "m.txt"],
    ("crit",): ["crit", "residual", "--R", "ab", "--move", "mulr:b"],
    ("slice", "piece"): ["slice", "piece", "--type", "comm", "--R", "ab", "--S", "ba", "--dominant", "S", "--identify"],
    ("smove", "build"): ["smove", "build", "--type", "long", "--seed", "5"],
    ("inv", "playground"): ["inv", "playground", "--seed", "4", "--qmove", "inv R", "--p", "103", "--gauge"],
    ("inv", "statesum"): ["inv", "statesum", "--graphs", "a.txt", "b.txt", "--table", "t.csv", "--moves", "m.txt"],
    ("demo", "nonmult"): ["demo", "nonmult", "--table", "t.csv"],
    ("demo", "stabilization"): ["demo", "stabilization", "--v", "2", "--p", "100003"],
    ("test", "three-tests"): ["test", "three-tests", "--pairs", "2", "--combine", "permsum", "--family", "poly"],
}


def _leaves(table, prefix=()):
    """(path, Leaf) for every leaf of the command tree."""
    for name, (_, child) in table.items():
        if isinstance(child, dict):
            yield from _leaves(child, prefix + (name,))
        else:
            yield prefix + (name,), child


_LEAVES = dict(_leaves(cli.COMMANDS))


@functools.lru_cache(maxsize=None)
def _whole_tree():
    return cli.build_parser()


def test_every_leaf_argv_parses_directly_as_argparse_parses_it():
    assert sorted(_LEAVES) == sorted(_LEAF_ARGV)
    for path, argv in _LEAF_ARGV.items():
        args = cli._parse_direct(argv)
        assert args is not None, argv
        assert args == _whole_tree().parse_args(argv)
    for argv in ([], ["-h"], ["inv"], ["inv", "-h", "statesum"], ["inv", "statsum"], ["words", "reduce"]):
        assert cli._parse_direct(argv) is None
    # The direct parse reads only these keywords of the declarations.
    for leaf in _LEAVES.values():
        for kw in leaf.args.values():
            assert set(kw) <= {"type", "choices", "default", "required", "nargs", "action", "help"}
            assert kw.get("nargs", "+") == "+" and kw.get("action", "store_true") == "store_true"


def _texts(kw):
    """Candidate values for one argument: valid ones and near misses."""
    if "choices" in kw:
        return list(kw["choices"]) + ["frob", ""]
    if kw.get("type") is int:
        return ["0", "7", "12", "+5", " 7", "1_0", "-3", "", "x", "3.5"]
    return ["ab", "BA", "g3", "x.txt", "inv R", "", "-", "-x y"]


_OPTIONS = sorted({name for leaf in _LEAVES.values() for name in leaf.args if name.startswith("-")})
_SPELLINGS = sorted(
    set(_OPTIONS)
    | {name[:k] for name in _OPTIONS for k in range(2, len(name))}  # "--", "--f", "--fam", ...
    | {name + "=" + value for name in _OPTIONS for value in ("1", "poly", "ab")}
    | {c for leaf in _LEAVES.values() for kw in leaf.args.values() for c in kw.get("choices", ())}
    | {name for path in _LEAVES for name in path}
    | {"-1", "-7", "+5", " 7", "1_0", "", "-", "--", "-h", "--help", "ab", "BA", "g3", "x.txt"}
)


@st.composite
def _argvs(draw):
    """A well-formed argv for a random leaf, in a random order, with up to
    three tokens inserted or replaced by other spellings."""
    path = draw(st.sampled_from(sorted(_LEAVES)))
    groups = []
    for name, kw in _LEAVES[path].args.items():
        if name.startswith("-") and not kw.get("required") and draw(st.booleans()):
            continue
        count = 0 if "action" in kw else draw(st.integers(1, 3)) if kw.get("nargs") == "+" else 1
        texts = [draw(st.sampled_from(_texts(kw))) for _ in range(count)]
        groups.append(([name] if name.startswith("-") else []) + texts)
    if groups and draw(st.booleans()):
        groups.append(draw(st.sampled_from(groups)))  # a repeat
    argv = list(path) + [t for g in draw(st.permutations(groups)) for t in g]
    for _ in range(draw(st.integers(0, 3))):
        token = draw(st.sampled_from(_SPELLINGS))
        at = draw(st.integers(0, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_argvs())
def test_a_direct_parse_is_the_parse_argparse_makes(argv):
    """Whenever the direct parse returns, argparse accepts the argv and
    returns an equal Namespace."""
    args = cli._parse_direct(argv)
    if args is not None:
        assert args == _whole_tree().parse_args(argv)


def test_main_builds_no_parser_for_a_well_formed_argv(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert _run(capsys, ["demo", "nonmult"])[0] == 0
    code, exact = _run(capsys, ["slice", "piece", "--type", "bag", "--R", "ab"])
    assert code == 0 and built == []
    # help, errors and abbreviations get the whole tree
    for argv in (["inv", "statsum"], ["inv", "statesum", "--graphs", "g.txt"], ["inv", "statesum", "-h"]):
        built.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert len(built) == 16, argv
    capsys.readouterr()
    built.clear()
    assert _run(capsys, ["slice", "piece", "--ty", "bag", "--R", "ab"]) == (0, exact)
    assert len(built) == 16


# Stdout (as a sha256 digest) and exit code of playground commands, captured
# before the inverses moved into the backend; d = 32 outputs run to 6 kB.
_PLAYGROUND_GOLDENS = [
    (
        ["inv", "playground", "--seed", "3", "--type", "long"],
        0,
        "27ab4a9ee3bad3886f19441a4e25a11684325b9eae6851edee49582f8e3f8087",
    ),
    (
        ["inv", "playground", "--seed", "3", "--type", "long", "--qmove", "conj R a"],
        0,
        "abf5ffc31959e2b91c34ecac21abbf17ed0b852ea762c1307ad3ab18bde69de6",
    ),
    (
        ["inv", "playground", "--seed", "3", "--type", "long", "--gauge"],
        0,
        "51ac6c12ae66647d181daea9c0e8550e1fac804b134f1e0fd5be2c850d4af4d0",
    ),
    (
        ["inv", "playground", "--seed", "3", "--type", "long", "--obstruction"],
        3,
        "74d368526c55158083d53782267d57d2f14bbf51cf445e99c7c536da04c79489",
    ),
    (
        ["inv", "playground", "--seed", "5", "--type", "mer", "--d", "32", "--family", "poly"],
        0,
        "5021aed5594f61f8585570bba0af90785d1154e586bab882a6d8494fd8246160",
    ),
    (
        ["inv", "playground", "--seed", "5", "--type", "mer", "--d", "32", "--family", "poly", "--qmove", "mulr S y1"],
        0,
        "29a030c162df056098db918f0bff49eacb8507af56213c13298d73c0d3ff3435",
    ),
    (
        ["inv", "playground", "--seed", "5", "--type", "mer", "--d", "32", "--family", "poly", "--gauge"],
        0,
        "51ac6c12ae66647d181daea9c0e8550e1fac804b134f1e0fd5be2c850d4af4d0",
    ),
    (
        ["inv", "playground", "--seed", "5", "--type", "mer", "--d", "32", "--family", "poly", "--obstruction"],
        3,
        "f5e05a50191d0196378c45f022975cc93004ee85fee2da19501fd42c645d609e",
    ),
    (
        ["test", "three-tests", "--pairs", "3", "--combine", "product", "--seed", "2"],
        1,
        "1c9898f945cdc6c90af2f403b7516ac56e1bdf270f5c09a87b603d3693227dd8",
    ),
    (
        ["test", "three-tests", "--pairs", "3", "--combine", "permsum", "--seed", "2"],
        1,
        "1c9898f945cdc6c90af2f403b7516ac56e1bdf270f5c09a87b603d3693227dd8",
    ),
    (
        ["demo", "stabilization", "--p", "100003", "--seed", "1"],
        3,
        "34293349ff9c1986edd367c6b09f0c7057e3e9b37e32be9911f19cff1d7bc9d3",
    ),
]


@pytest.mark.parametrize(
    "argv,code,digest", _PLAYGROUND_GOLDENS, ids=[" ".join(g[0][1:]) for g in _PLAYGROUND_GOLDENS]
)
def test_playground_outputs_are_unchanged(capsys, argv, code, digest):
    assert cli.main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dumped_d32_backend_reloads_to_the_same_outputs(tmp_path, capsys):
    path = str(tmp_path / "b.txt")
    argv = ["inv", "playground", "--seed", "4", "--d", "32", "--family", "poly", "--dump-backend", path]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.replace(path, "<dump>")
    assert hashlib.sha256(out.encode()).hexdigest() == "b9d71b8008663084a5b7ad475f501349f5b626a853a0ae54f97720beebd9e557"
    for extra, code, digest in (
        ([], 0, "db0c0e459c866366d880b6530126f9878e4b87e0afe2bb9650508fd907fdf119"),
        (["--obstruction"], 3, "8fc31439268baef5b73616cbd4d0e5c00dd79ad831e1584f65f55b25e6510473"),
    ):
        assert cli.main(["inv", "playground", "--seed", "4", "--backend", path] + extra) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _long_word(seed, n=256):
    rng = random.Random(seed)
    return "".join(rng.choice(("a", "b", "c", "d", "g27", "A", "B", "C", "D", "G27")) for _ in range(n))


_R256, _S256 = _long_word(1), _long_word(2)

# Exact stdout of `slice piece`: (argv after "slice piece", exit code, bytes, sha256).
_SLICE_GOLDENS = [
    (["--type", "bag", "--R", "abAcb"], 0, 743, "b9ad92b82393e4d7ff168bb45eac58a3402e0ca097efc77042336816b69dca93"),
    (["--type", "bag", "--R", "abAcb", "--identify"], 0, 836, "666f59556824431f5e801355ef0bf0c2e30a7c739c95aec10fe97bfdf63e2094"),
    (["--type", "bag", "--R", "1"], 0, 394, "42a845f2c20abe4bf2df2d41d7af1f5c8423dd288e82f877c14b1809a4d1241f"),
    (["--type", "invpair", "--R", "aBg27cG30"], 0, 1264, "eaeffb6a8a91cf06cc4f7a05ccf35e88d92af0ae691d4641a3f135548d267037"),
    (["--type", "comm", "--R", "abA", "--S", "bbc"], 0, 2072, "044672d2aa3291a82af0cb427ee647006f47089f1c0359b27dac658fe5766214"),
    (
        ["--type", "comm", "--R", "abA", "--S", "bbc", "--dominant", "S"],
        0,
        2072,
        "be307a804684025112b4d4dd5d34b548d123fcc36108f2194968a887d96a9254",
    ),
    (
        ["--type", "comm", "--R", "abA", "--S", "bbc", "--identify"],
        0,
        2416,
        "0cdde4dfd335b75b76f2b5e8e76088387101303f19d3fc09dd275b0dce54b4fa",
    ),
    (
        ["--type", "comm", "--R", "g27aB", "--S", "1", "--dominant", "S", "--identify"],
        0,
        1806,
        "d67465f85c1f8d55a63532806a94bbee9271d4dc98dc172cb0e1e8ae0d22120d",
    ),
    (["--type", "prod", "--R", "abA", "--S", "G30b"], 0, 788, "e641ff30391990142e477211b80866b9ad289c67a44b9303df267156a3093294"),
    (["--type", "prod", "--R", "1", "--S", "1"], 0, 442, "a3dc2bed6683bff0ec0ede1703ea87bdac63e46a10ed8faa2f80af5cab72bd45"),
    (["--type", "comm", "--R", "ab"], 2, 45, "00f32285fcd3549e24c4d003fabbb15bddc95b4ac7d71df3bf8ca2256aa2e3c2"),
    (
        ["--type", "comm", "--R", _R256, "--S", _S256, "--dominant", "S", "--identify"],
        0,
        802044,
        "510bd79f9df0d295ea6531b983e5b2f792dd6515c9d3f37c381c92a82f6fae50",
    ),
    (["--type", "prod", "--R", _R256, "--S", _S256], 0, 214927, "785ae819db3d164235fbfca749e05500eb3bcb7efe8b64266675f5339f7fcdd4"),
]


def _golden_id(argv):
    return " ".join(a if len(a) < 20 else "<%d chars>" % len(a) for a in argv)


@pytest.mark.parametrize("argv,code,size,digest", _SLICE_GOLDENS, ids=[_golden_id(g[0]) for g in _SLICE_GOLDENS])
def test_slice_piece_outputs_are_unchanged(capsys, argv, code, size, digest):
    assert cli.main(["slice", "piece"] + argv) == code
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def _count_readings(monkeypatch):
    """Count ``ConjugatedRelator.expand`` calls and ``words.commutator``
    calls, under every name a module binds it to."""
    from smovelab import words

    counts = {"expand": 0, "commutator": 0}
    real_expand, real_comm = criterion.ConjugatedRelator.expand, words.commutator

    def expand(self, p):
        counts["expand"] += 1
        return real_expand(self, p)

    def comm(u, v):
        counts["commutator"] += 1
        return real_comm(u, v)

    monkeypatch.setattr(criterion.ConjugatedRelator, "expand", expand)
    for mod in (words, criterion, slicing, smovelab.playground, cli):
        for name, obj in list(vars(mod).items()):
            if obj is real_comm:
                monkeypatch.setattr(mod, name, comm)
    return counts


# argv, at most (expand calls, commutator calls): an instance of n factors
# has 2n relators to expand and n commutators to form.
_READING_COUNTS = [
    (["inv", "playground", "--type", "long"], (4, 2)),
    (["inv", "playground", "--type", "mer", "--gauge"], (4, 2)),
    (["inv", "playground", "--type", "long", "--obstruction"], (4, 2)),
    (["inv", "playground", "--type", "mer", "--d", "32", "--family", "poly"], (4, 2)),
    (["inv", "playground", "--type", "long", "--qmove", "inv R"], (8, 4)),
    (["inv", "playground", "--type", "mer", "--qmove", "conj S B"], (8, 4)),
    (["inv", "playground", "--type", "long", "--qmove", "mulr S y1"], (8, 4)),
    (["test", "three-tests", "--pairs", "3", "--combine", "product"], (12, 6)),
    (["test", "three-tests", "--pairs", "3", "--combine", "permsum"], (12, 6)),
    (["smove", "build", "--type", "long", "--factors", "6"], (12, 6)),
    (["smove", "build", "--type", "mer", "--factors", "6"], (12, 6)),
    (["demo", "stabilization", "--p", "101"], (4, 2)),
]


@pytest.mark.parametrize("argv,most", _READING_COUNTS, ids=[" ".join(a) for a, _ in _READING_COUNTS])
def test_a_command_reads_each_instance_once(monkeypatch, capsys, argv, most):
    """Each criterion instance a command builds is expanded and its
    commutators formed once, however many sequences are read from it: the
    probe's reading goes to the built instance, and only a relator move's
    rider, a new instance, reads itself."""
    counts = _count_readings(monkeypatch)
    for seed in range(4):
        counts.update(expand=0, commutator=0)
        assert cli.main(argv + ["--seed", str(seed)]) in (0, 1, 3), (argv, seed)
        capsys.readouterr()
        assert counts["expand"] <= most[0] and counts["commutator"] <= most[1], (argv, seed, counts)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_digest_replays(monkeypatch):
    """Every command the crit_playground workload can draw gives the exit
    code and stdout digest ``bench/digests.json`` records for it, run in
    this process through ``cli.main`` as the benchmark runs it."""
    monkeypatch.syspath_prepend(str(BENCH))
    import oracles
    import workloads

    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    got = {}
    for _, argv in workloads.digest_pool():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        got[" ".join(argv)] = [code, oracles.digest(out.getvalue())]
    assert len(got) == len(recorded) == 1040
    assert {k: v for k, v in got.items() if recorded.get(k) != v} == {}
