import json

import numpy as np
import pytest

import framekit as fk
import framekit.io as fio
from framekit import FramePair, GroupTable, OvfPair, PFramePair
from framekit.cli import run
from framekit.errors import BadGroupTable

import pairfiles
from conftest import mercedes_benz, random_frame, random_ovf


# --- file round trips ------------------------------------------------------------

def test_frame_pair_round_trip(tmp_path, rng):
    for field in ("real", "complex"):
        fp = random_frame(rng, 3, 5, field)
        path = tmp_path / f"{field}.frame"
        pairfiles.write_frame_pair(str(path), fp)
        back = pairfiles.read_frame_pair(str(path))
        assert back.field == field
        assert np.array_equal(back.X, fp.X)  # bit identical
        assert np.array_equal(back.T, fp.T)


def test_frame_pair_second_pass_is_stable(tmp_path, rng):
    fp = random_frame(rng, 2, 4)
    p1, p2 = tmp_path / "a.frame", tmp_path / "b.frame"
    pairfiles.write_frame_pair(str(p1), fp)
    pairfiles.write_frame_pair(str(p2), pairfiles.read_frame_pair(str(p1)))
    assert p1.read_text() == p2.read_text()


def test_ovf_round_trip(tmp_path, rng):
    op = random_ovf(rng, 3, 2, 3, "complex")
    path = tmp_path / "pair.ovf"
    pairfiles.write_ovf_pair(str(path), op)
    back = pairfiles.read_ovf_pair(str(path))
    for Aj, Bj in zip(op.A, back.A):
        assert np.array_equal(Aj, Bj)


def test_heterogeneous_ovf_round_trip(tmp_path):
    A1 = np.array([[1.0, 0.0]])
    op = fk.extend_tight_ovf(OvfPair((A1,), (A1,), "real"), 2.0)
    path = tmp_path / "mixed.ovf"
    pairfiles.write_ovf_pair(str(path), op)
    back = pairfiles.read_ovf_pair(str(path))
    assert back.codims == (1, 2)
    assert json.loads(path.read_text())["d"] == [1, 2]


def test_pframe_round_trip(tmp_path):
    pf = PFramePair(np.eye(2), np.diag([1.0, 2.0]), 3.0, "real")
    path = tmp_path / "pair.pframe"
    pairfiles.write_pframe_pair(str(path), pf)
    back = pairfiles.read_pframe_pair(str(path))
    assert back.p == 3.0
    assert np.array_equal(back.F, pf.F) and np.array_equal(back.T, pf.T)


def test_group_table_round_trip(tmp_path):
    g = GroupTable.cyclic(4)
    path = tmp_path / "z4.group"
    pairfiles.write_group_table(str(path), g)
    back = pairfiles.read_group_table(str(path))
    assert np.array_equal(back.mul, g.mul) and back.identity == 0


def test_detect_kind():
    fp = mercedes_benz()
    assert fio.detect_kind(fio.frame_pair_to_dict(fp)) == "frame"
    assert fio.detect_kind(fio.ovf_pair_to_dict(fk.ovf_bridge(fp))) == "ovf"
    pf = PFramePair(np.eye(2), np.eye(2), 2.0, "real")
    assert fio.detect_kind(fio.pframe_pair_to_dict(pf)) == "pframe"
    assert fio.detect_kind(pairfiles.group_table_to_dict(GroupTable.cyclic(2))) == "group"
    with pytest.raises(ValueError):
        fio.detect_kind({"bogus": 1})


def test_mismatched_dimensions_rejected(tmp_path):
    doc = fio.frame_pair_to_dict(mercedes_benz())
    doc["count"] = 7
    path = tmp_path / "bad.frame"
    fio.save(str(path), doc)
    with pytest.raises(ValueError):
        pairfiles.read_frame_pair(str(path))


def test_inconsistent_families_are_parse_failures(tmp_path, capsys):
    doc = fio.frame_pair_to_dict(mercedes_benz())
    doc["tau"] = doc["tau"][:2]  # drop a member from tau only
    path = tmp_path / "ragged.frame"
    fio.save(str(path), doc)
    code = run(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 1 and "parse_error" in out


# --- CLI ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_cli_construct_then_verify(tmp_path, capsys):
    out_file = tmp_path / "out.frame"
    code, text = run_cli(capsys, "construct", "circular", "--k", "3", "--l", "3",
                         "-o", str(out_file))
    assert code == 0
    assert "constant = 4.5" in text
    loaded = pairfiles.read_frame_pair(str(out_file))
    assert loaded.n == 9

    code, text = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    assert "is_frame = true" in text
    assert "lower_a = 4.5" in text
    assert "tight = true" in text


def test_cli_verify_mercedes_benz(tmp_path, capsys):
    path = tmp_path / "mb.frame"
    pairfiles.write_frame_pair(str(path), mercedes_benz())
    code, text = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "lower_a = 1.5" in text and "upper_b = 1.5" in text


def test_cli_parse_failure_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.frame"
    path.write_text("")
    code, text = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "parse_error" in text


def test_cli_missing_file_exit_1(capsys):
    code, text = run_cli(capsys, "verify", "/nonexistent/x.frame")
    assert code == 1


def test_cli_domain_error_exit_2(tmp_path, capsys):
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    path = tmp_path / "sing.frame"
    pairfiles.write_frame_pair(str(path), FramePair(X, X, "real"))
    code, text = run_cli(capsys, "dual", str(path))
    assert code == 2
    assert "NotAFrame" in text


def test_cli_unknown_flag_exit_1(capsys):
    code = run(["verify", "--bogus", "x"])
    assert code == 1


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "mb.frame"
    pairfiles.write_frame_pair(str(path), mercedes_benz())
    _, first = run_cli(capsys, "verify", str(path))
    _, second = run_cli(capsys, "verify", str(path))
    assert first == second
    _, third = run_cli(capsys, "analyze", "perturb", str(path), "--perturbed", str(path),
                       "--kind", "sampled-linear", "--seed", "7")
    _, fourth = run_cli(capsys, "analyze", "perturb", str(path), "--perturbed", str(path),
                        "--kind", "sampled-linear", "--seed", "7")
    assert third == fourth


def test_cli_dual_writes_pair(tmp_path, capsys):
    src = tmp_path / "mb.frame"
    dst = tmp_path / "dual.frame"
    pairfiles.write_frame_pair(str(src), mercedes_benz())
    code, text = run_cli(capsys, "dual", str(src), "-o", str(dst))
    assert code == 0
    dual = pairfiles.read_frame_pair(str(dst))
    assert fk.is_dual(mercedes_benz(), dual)


def test_cli_classify_and_formulas(tmp_path, capsys):
    path = tmp_path / "std.frame"
    pairfiles.write_frame_pair(str(path), FramePair(np.eye(2), np.eye(2), "real"))
    code, text = run_cli(capsys, "classify", str(path))
    assert code == 0 and "orthonormal_frame = true" in text
    code, text = run_cli(capsys, "analyze", "formulas", str(path))
    assert code == 0 and "dim_formula_ok = true" in text


def test_cli_analyze_reconstruct(tmp_path, capsys):
    path = tmp_path / "diag.frame"
    pairfiles.write_frame_pair(str(path), FramePair(np.eye(2), np.diag([1.0, 2.0]), "real"))
    code, text = run_cli(capsys, "analyze", "reconstruct", str(path),
                         "--target", "1,1", "--steps", "2")
    assert code == 0 and "step_1" in text


def test_cli_analyze_reconstruct_complex_target_on_a_real_pair(tmp_path, capsys):
    path = tmp_path / "std.frame"
    pairfiles.write_frame_pair(str(path), FramePair(np.eye(2), np.eye(2), "real"))
    code, text = run_cli(capsys, "analyze", "reconstruct", str(path),
                         "--target", "1+2i,0", "--steps", "1")
    assert code == 0
    assert "step_0 = [2.2360679775, 2.2360679775]\n" in text  # ||h|| = sqrt(5), not 1
    assert "step_1 = [0, 0]\n" in text


@pytest.mark.parametrize("argv", [
    ["analyze", "reconstruct", "FILE", "--target", "nan,1"],
    ["pframe", "fourlaws", "--x", "1,2", "--y", "1,inf"],
    ["analyze", "reconstruct", "FILE", "--target", "1,1", "--steps", "-2"],
    ["pframe", "fourlaws", "--x", "nan,1", "--y", "1,2"],
    ["construct", "group", "--table", "TABLE", "--x", "1,0,0", "--tau", "1,nan,0"],
], ids=["nan_target", "inf_fourlaws", "negative_steps", "nan_fourlaws", "nan_group_member"])
def test_cli_arguments_without_meaning_are_parse_errors(tmp_path, capsys, argv):
    frame, table = tmp_path / "std.frame", tmp_path / "z3.group"
    pairfiles.write_frame_pair(str(frame), FramePair(np.eye(2), np.eye(2), "real"))
    pairfiles.write_group_table(str(table), GroupTable.cyclic(3))
    argv = [{"FILE": str(frame), "TABLE": str(table)}.get(a, a) for a in argv]
    code, text = run_cli(capsys, *argv)
    assert (code, text.splitlines()[0]) == (1, "kind = parse_error")
    assert "error = ValueError\n" in text


def test_cli_infinite_target_is_rejected_as_non_finite(tmp_path, capsys):
    frame = tmp_path / "std.frame"
    pairfiles.write_frame_pair(str(frame), FramePair(np.eye(2), np.eye(2), "real"))
    code, text = run_cli(capsys, "analyze", "reconstruct", str(frame), "--target=1,inf")
    assert code == 1
    assert text == ("kind = parse_error\nerror = ValueError\n"
                    "message = vector entries must be finite, got '1,inf'\n")
    code, text = run_cli(capsys, "analyze", "reconstruct", str(frame), "--target=1,2i", "--steps", "1")
    assert code == 0 and "step_1 = [0, 0]\n" in text


def test_group_table_entries_must_be_integers_in_documents(tmp_path, capsys):
    doc = pairfiles.group_table_to_dict(GroupTable.cyclic(2))
    doc["mul"] = [[0.5, 1], [1, 0]]
    with pytest.raises(BadGroupTable, match="table entries must be element indices"):
        fio.group_table_from_dict(doc)
    path = tmp_path / "half.group"
    fio.save(str(path), doc)
    code, text = run_cli(capsys, "construct", "group", "--table", str(path), "--x", "1,0", "--tau", "1,0")
    assert code == 2
    assert text == ("kind = domain_error\nerror = BadGroupTable\n"
                    "message = table entries must be element indices\n")


def test_group_identity_is_read_unconverted(tmp_path, capsys):
    doc = pairfiles.group_table_to_dict(GroupTable.cyclic(3))
    doc["identity"] = 0.7
    with pytest.raises(BadGroupTable, match="identity must be an element index below the order 3"):
        fio.group_table_from_dict(doc)
    path = tmp_path / "fractional.group"
    fio.save(str(path), doc)
    code, text = run_cli(capsys, "construct", "group", "--table", str(path), "--x", "1,0", "--tau", "1,0")
    assert code == 2
    assert text == ("kind = domain_error\nerror = BadGroupTable\n"
                    "message = identity must be an element index below the order 3\n")
    doc["identity"] = 0.0
    assert fio.group_table_from_dict(doc).identity == 0


def test_group_order_must_match_the_table(tmp_path, capsys):
    doc = pairfiles.group_table_to_dict(GroupTable.cyclic(3))
    doc["order"] = 5
    with pytest.raises(ValueError, match="^mul does not match the declared order$"):
        fio.group_table_from_dict(doc)
    path = tmp_path / "order5.group"
    fio.save(str(path), doc)
    code, text = run_cli(capsys, "construct", "group", "--table", str(path), "--x", "1,0", "--tau", "1,0")
    assert code == 1  # the exit code of a frame document's dim/count mismatch
    assert text == ("kind = parse_error\nerror = ValueError\n"
                    "message = mul does not match the declared order\n")


def test_reconstruction_rejects_negative_steps():
    fp = FramePair(np.eye(2), np.eye(2), "real")
    with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
        fk.iterate_reconstruct(fp, [1.0, 1.0], -1)
    assert len(fk.iterate_reconstruct(fp, [1.0, 1.0], 0).iterates) == 1


def test_cli_analyze_extend_and_span(tmp_path, capsys):
    path = tmp_path / "std.frame"
    pairfiles.write_frame_pair(str(path), FramePair(np.eye(2), np.eye(2), "real"))
    code, text = run_cli(capsys, "analyze", "extend", str(path), "--lambda", "2.0")
    assert code == 0 and "tight = true" in text
    code, text = run_cli(capsys, "analyze", "span", str(path))
    assert code == 0 and "is_frame = true" in text


def test_cli_analyze_convert(tmp_path, capsys):
    path = tmp_path / "std.frame"
    pairfiles.write_frame_pair(str(path), FramePair(np.eye(2), np.eye(2), "real"))
    code, text = run_cli(capsys, "analyze", "convert", str(path), "--to-complex")
    assert code == 0 and "field = complex" in text


def test_cli_ovf_verbs(tmp_path, capsys):
    frame_path = tmp_path / "mb.frame"
    pairfiles.write_frame_pair(str(frame_path), mercedes_benz())
    ovf_path = tmp_path / "mb.ovf"
    code, _ = run_cli(capsys, "ovf", "bridge", str(frame_path), "-o", str(ovf_path))
    assert code == 0
    code, text = run_cli(capsys, "ovf", "verify", str(ovf_path))
    assert code == 0 and "tight = true" in text
    code, text = run_cli(capsys, "ovf", "dual", str(ovf_path))
    assert code == 0 and "is_frame = true" in text


def test_cli_pframe_verbs(tmp_path, capsys):
    path = tmp_path / "p.pframe"
    pairfiles.write_pframe_pair(str(path), PFramePair(np.eye(2), np.diag([1.0, 2.0]), 3.0, "real"))
    code, text = run_cli(capsys, "pframe", "verify", str(path))
    assert code == 0 and "resolvent_ok = true" in text
    code, text = run_cli(capsys, "pframe", "dual", str(path))
    assert code == 0 and "is_dual = true" in text
    base = tmp_path / "base.pframe"
    pairfiles.write_pframe_pair(str(base), PFramePair(np.eye(2), np.eye(2), 3.0, "real"))
    pert = tmp_path / "pert.pframe"
    pairfiles.write_pframe_pair(str(pert), PFramePair(np.eye(2), 0.7 * np.eye(2), 3.0, "real"))
    code, text = run_cli(capsys, "pframe", "paley-wiener", str(base), str(pert))
    assert code == 0 and "concluded = true" in text
    code, text = run_cli(capsys, "pframe", "fourlaws", "--x", "1,0", "--y", "0,1")
    assert code == 0 and "ineq4_ok = true" in text


def test_cli_construct_group(tmp_path, capsys):
    table_path = tmp_path / "z3.group"
    pairfiles.write_group_table(str(table_path), GroupTable.cyclic(3))
    code, text = run_cli(capsys, "construct", "group", "--table", str(table_path),
                         "--x", "1,0,0", "--tau", "1,0,0")
    assert code == 0
    assert "is_frame = true" in text
    assert "generator_bound_ok = true" in text


def test_cli_float_format_is_12_digits(tmp_path, capsys):
    X = np.array([[1.0 / 3.0]])
    path = tmp_path / "third.frame"
    pairfiles.write_frame_pair(str(path), FramePair(X, X, "real"))
    _, text = run_cli(capsys, "verify", str(path))
    assert "0.111111111111" in text  # bound 1/9 at 12 significant digits


def test_cli_numerical_failure_is_a_domain_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mb.frame"
    pairfiles.write_frame_pair(str(path), mercedes_benz())

    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    code, text = run_cli(capsys, "dual", str(path))
    assert code == 2
    assert "kind = domain_error" in text and "error = LinAlgError" in text
