from __future__ import annotations

import pytest

from smovelab import cli
from smovelab.criterion import build_instance, format_decomposition
from smovelab.presentations import format_presentation


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _write_instance(tmp_path, seed=0, corrupt=False):
    inst = build_instance(seed)
    (tmp_path / "K.txt").write_text(format_presentation(inst.k), encoding="utf-8")
    (tmp_path / "L.txt").write_text(format_presentation(inst.l), encoding="utf-8")
    decomp = format_decomposition(inst.factors)
    if corrupt:
        from smovelab.criterion import mutate_conjugator

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


def test_three_tests_protocol(capsys):
    code, out = _run(capsys, ["test", "three-tests", "--seed", "2"])
    # the demo pits the two identification types against each other
    assert "I(K)=I(L): " in out
    if code == 1:
        assert "counterexample" in out
    else:
        assert code == 0


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
        assert out.startswith("error: line 1: ") and "d*(p-1)^2 < 2^63" in out


def test_inv_playground_large_dimension_below_the_bound_still_runs(capsys):
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--d", "32", "--p", "100003"])
    assert code == 0 and out.startswith("invariant: ")
    assert "p,100003" in out and "d,32" in out


def test_malformed_backend_value_exits_2(tmp_path, capsys):
    (tmp_path / "b.txt").write_text("p 101 d 1\ntok S2 x\n", encoding="utf-8")
    code, out = _run(capsys, ["inv", "playground", "--seed", "1", "--backend", str(tmp_path / "b.txt")])
    assert code == 2
    assert out.startswith("error: line 2: ")
