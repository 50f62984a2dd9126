from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smovelab.playground  # noqa: F401  (binds build_abstract; loaded before counting)
from smovelab import cli, criterion, slicing
from smovelab.criterion import build_instance, format_decomposition
from smovelab.presentations import format_presentation

from helpers import mutate_conjugator


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


def test_crit_verify_corrupted_exit_1(tmp_path, capsys):
    path = _write_instance(tmp_path, seed=3, corrupt=True)
    code, out = _run(capsys, ["crit", "verify", "--instance", path])
    assert code == 1
    assert "verify: false" in out


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
        (["inv", "playground", "--seed", "4"], 3, 0),
        (["inv", "playground", "--seed", "4", "--gauge"], 3, 0),
        (["inv", "playground", "--seed", "4", "--obstruction"], 3, 0),
        (["inv", "playground", "--seed", "4", "--qmove", "inv R"], 4, 1),
        (["test", "three-tests", "--seed", "4", "--pairs", "3"], 12, 0),
    ],
)
def test_a_command_builds_each_abstract_sequence_once(monkeypatch, capsys, argv, sequences, transports):
    built = _count_calls(monkeypatch, slicing.build_abstract)
    moved = _count_calls(monkeypatch, criterion.transport_qmove)
    code, out = _run(capsys, argv)
    assert code in (0, 1, 3) and "---csv---" in out
    assert (len(built), len(moved)) == (sequences, transports)


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
