import json
import re
from fractions import Fraction

import pytest

from toriq.cli import main
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import star_subdivision
from toriq.formats import emit_fan, emit_polytope
from conftest import hexagon, hirzebruch_fan, pn_fan

F = Fraction


@pytest.fixture()
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(emit_fan(pn_fan(2)))
    return str(path)


@pytest.fixture()
def e1_file(tmp_path):
    rows = {r.name: r for r in load_builtin_table()}
    fan, _ = reconstruct_fan(rows["E_1"])
    path = tmp_path / "e1fan.json"
    # in table ray order, which emit_fan would sort
    path.write_text(json.dumps({"rank": fan.rank, "rays": [list(r) for r in fan.rays],
                                "max_cones": [list(c) for c in fan.max_cones]}))
    return str(path)


@pytest.fixture()
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(emit_polytope(hexagon()))
    return str(path)


def test_validate(p2_file, capsys):
    assert main(["validate", p2_file]) == 0
    out = capsys.readouterr().out
    assert "smooth:      True" in out and "complete:    True" in out


def test_check_fano(p2_file, capsys):
    assert main(["check-fano", p2_file]) == 0
    assert "fano: True" in capsys.readouterr().out


@pytest.mark.parametrize("fan, out", [
    # F_2: smooth, so its witness is a primitive collection of degree 0
    (json.loads(emit_fan(hirzebruch_fan(2))),
     "fano: False (via primitive-collections)\n"
     "witness: PrimitiveCollection(members=(0, 3), sigma=(2,), coefficients=(Fraction(2, 1),), "
     "degree=Fraction(0, 1))\n"),
    # simplicial, not smooth: its witness is a wall with -K.C < 0
    ({"rank": 2, "rays": [[-2, -1], [0, -1], [1, -1], [0, 1]],
      "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]},
     "fano: False (via kleiman)\n"
     "witness: Wall(wall_rays=(1,), side_a=0, side_b=2, relation=(1, -3, 2, 0), "
     "multiplicity=1, scale=Fraction(1, 2))\n"),
])
def test_check_fano_prints_its_witnesses(fan, out, tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    assert main(["check-fano", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_ch2_prints_value(e1_file, capsys):
    # the witness surface of the first row of the E family
    assert main(["ch2", e1_file, "--surface", "1,2"]) == 0
    assert capsys.readouterr().out.strip() == "-2"


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_ch2_at_the_printed_witness(rank, p2_file, e1_file, tmp_path, capsys):
    # check-2fano prints its witness in the syntax that ch2 --surface reads
    if rank == 3:
        path = tmp_path / "bl.json"
        path.write_text(emit_fan(star_subdivision(pn_fan(3), (1, 1, 0))))
    fan_file = {2: p2_file, 3: str(tmp_path / "bl.json"), 4: e1_file}[rank]
    assert main(["check-2fano", fan_file]) == 0
    minimum, witness = re.search(r"minimum: (\S+) at surface (\S*)", capsys.readouterr().out).groups()
    assert len(witness.split(",")) == rank - 2 if witness else rank == 2
    assert main(["ch2", fan_file, "--surface", witness]) == 0
    assert capsys.readouterr().out.strip() == minimum


def test_ch2_rejects_a_wrong_length(p2_file, capsys):
    # on a surface the only surface is the zero cone
    assert main(["ch2", p2_file, "--surface", "0,1"]) == 2
    assert "(0, 1) is not a codimension-2 cone" in capsys.readouterr().err


def test_ch2_rejects_a_repeated_index(e1_file, capsys):
    assert main(["ch2", e1_file, "--surface", "1,1"]) == 2
    assert "error: (1, 1) is not a cone of the fan" in capsys.readouterr().err


def test_ch2_rejects_a_maximal_cone_as_surface(tmp_path, capsys):
    # the ray 3 is a maximal cone of its own: an input error, not a traceback
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                                "max_cones": [[0, 1, 2], [3]]}))
    assert main(["ch2", str(path), "--surface", "3"]) == 2
    assert "error: the surface V(3,) is not complete" in capsys.readouterr().err


def test_ch2_rejects_a_non_simplicial_fan(tmp_path, capsys):
    # the face fan of the cube [-1, 1]^3 has six square cones
    rays = [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7]]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"rank": 3, "rays": rays, "max_cones": cones}))
    assert main(["ch2", str(path), "--surface", "0"]) == 2
    assert "error: walls are only computed for simplicial fans" in capsys.readouterr().err


def test_check_2fano_with_report(e1_file, tmp_path, capsys):
    report = tmp_path / "scan.csv"
    assert main(["check-2fano", e1_file, "--report", str(report)]) == 0
    assert "2-fano: False" in capsys.readouterr().out
    assert report.read_text().startswith("surface,value")


def test_run_mmp_generality_exit(hexagon_file, capsys):
    assert main(["run-mmp", hexagon_file]) == 2
    assert "generality" in capsys.readouterr().err


def test_run_mmp_forced(hexagon_file, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["run-mmp", hexagon_file, "--force", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "non-general input" in out
    assert "mori-fiber-space" in out
    assert "lambda=1" in trace.read_text()


def test_run_mmp_trace1(tmp_path, capsys):
    from conftest import blowup_polytope

    P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
    path = tmp_path / "bl.json"
    path.write_text(emit_polytope(P))
    assert main(["run-mmp", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lambda = 1/2: divisorial" in out
    assert "lambda = 1: mori-fiber-space" in out


def test_adjoint(hexagon_file, capsys):
    assert main(["adjoint", hexagon_file, "--s", "1/2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constants"] == ["1/2"] * 6


def test_thresholds(hexagon_file, capsys):
    assert main(["thresholds", hexagon_file]) == 0
    out = capsys.readouterr().out
    assert "nef: 1" in out and "effective: 1" in out


def test_detect_cayley_absent(hexagon_file, capsys):
    assert main(["detect-cayley", hexagon_file]) == 0
    assert capsys.readouterr().out.strip() == "absent"


def test_detect_cayley_square(tmp_path, capsys):
    from conftest import unit_square

    path = tmp_path / "square.json"
    path.write_text(emit_polytope(unit_square()))
    assert main(["detect-cayley", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cayley sum of 2 bases" in out
    assert "s = 1" in out


def test_verify_table_exit_code(tmp_path, capsys):
    # builtin run carries the known H_2 data defect, so the exit code is 1;
    # a clean subset exits 0
    report = tmp_path / "report.csv"
    code = main(["verify-table", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    assert "H_2: MISMATCH" in out
    assert report.read_text().count("MISMATCH") == 0  # csv uses yes/NO
    subset = tmp_path / "subset.csv"
    lines = ["name,rays,collections,surface,expected,note"]
    from importlib import resources

    text = resources.files("toriq.data").joinpath("fano4.csv").read_text()
    for rec in text.strip().splitlines()[1:]:
        if rec.startswith(("E_1,", "K_1,", "P4,")):
            lines.append(rec)
    subset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-table", str(subset)]) == 0


@pytest.mark.parametrize("surface,expected,field", [
    ("1 x", "-2", "surface"),
    ("1 2", "1/0", "expected"),
    ("", "-2", "surface"),   # a row with rays needs its witness surface
    ("1 2", "", "expected"),  # and its reference value
])
def test_verify_table_bad_cell_exits_2(tmp_path, capsys, surface, expected, field):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,rays,collections,surface,expected,note\n"
                   f"X,1 0;0 1;-1 -1,,{surface},{expected},\n")
    assert main(["verify-table", str(bad)]) == 2
    assert f"(field {field!r}) (line 2)" in capsys.readouterr().err


def test_plot(hexagon_file, tmp_path, capsys):
    svg = tmp_path / "hex.svg"
    assert main(["plot", hexagon_file, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_missing_file():
    assert main(["validate", "/nonexistent/fan.json"]) == 2


@pytest.mark.parametrize("command", ["validate", "thresholds"])
@pytest.mark.parametrize("text", ["3", "null"])
def test_non_object_json_exits_2(command, text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


TRIANGLE = '"normals": [[1, 0], [0, 1], [-1, -1]]'


@pytest.mark.parametrize("command, text, field", [
    ("thresholds", '{"dim": 2, %s, "constants": "003"}' % TRIANGLE, "constants"),
    ("thresholds", '{"dim": 2, %s, "constants": 5}' % TRIANGLE, "constants"),
    ("thresholds", '{"dim": 2.0, %s, "constants": [0, 0, 3]}' % TRIANGLE, "dim"),
    ("thresholds", '{"dim": -1, "normals": [], "constants": []}', "dim"),
    ("validate", '{"rank": 1, "rays": [[1], [-1]], "max_cones": 5}', "max_cones"),
    ("validate", '{"rank": -1, "rays": [], "max_cones": []}', "rank"),
])
def test_ill_typed_field_exits_2(command, text, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert f"(field {field!r})" in capsys.readouterr().err


def test_bad_surface_flag(p2_file):
    assert main(["ch2", p2_file, "--surface", "x,y"]) == 2


def test_plot_propagates_kernel_bug(hexagon_file, tmp_path, monkeypatch):
    from toriq import mmp

    def broken(*args, **kwargs):
        raise TypeError("kernel bug")

    monkeypatch.setattr(mmp, "run_mmp_scaling", broken)
    with pytest.raises(TypeError):
        main(["plot", hexagon_file, "--svg", str(tmp_path / "hex.svg")])


def test_plot_reports_failed_self_check(hexagon_file, tmp_path, monkeypatch, capsys):
    from toriq import mmp
    from toriq.fans import MalformedFanError

    def failed(*args, **kwargs):
        raise MalformedFanError("adjoint cross-validation failed: {}")

    monkeypatch.setattr(mmp, "run_mmp_scaling", failed)
    svg = tmp_path / "hex.svg"
    assert main(["plot", hexagon_file, "--svg", str(svg)]) == 2
    assert "adjoint cross-validation failed" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_falls_back_on_step_budget(hexagon_file, tmp_path, monkeypatch):
    from toriq import mmp

    def exhausted(*args, **kwargs):
        raise mmp.StepBudgetError("runaway")

    monkeypatch.setattr(mmp, "run_mmp_scaling", exhausted)
    svg = tmp_path / "hex.svg"
    assert main(["plot", hexagon_file, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_validate_prints_problems(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text('{"rank": 2, "rays": [[1, 0], [-1, 0]], "max_cones": [[0, 1]]}')
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "well_formed: False" in out
    assert "problem: cone (0, 1) is not strongly convex" in out


def test_check_2fano_notes_a_zero_minimum(tmp_path, capsys):
    # P^1 x P^1: every D_i^2 is 0, so its one surface pairs to exactly 0
    path = tmp_path / "p1p1.json"
    path.write_text(emit_fan(hirzebruch_fan(0)))
    assert main(["check-2fano", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2-fano: False" in out
    assert "note: minimum is exactly zero (nef, not positive)" in out


# P^2's triangle with the redundant inequality x + y >= -5
@pytest.fixture()
def redundant_file(tmp_path):
    path = tmp_path / "redundant.json"
    path.write_text('{"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1], [1, 1]], '
                    '"constants": [0, 0, 1, 5]}')
    return str(path)


def test_run_mmp_reports_removed_inequalities(redundant_file, capsys):
    assert main(["run-mmp", redundant_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("removed redundant inequalities at indices [3]\n")
    assert "mori-fiber-space" in out


def test_run_mmp_refuses_a_point(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text('{"dim": 0, "normals": [], "constants": []}')
    assert main(["run-mmp", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimension" in err
    assert "Traceback" not in err


def test_run_mmp_reports_step_budget(hexagon_file, monkeypatch, capsys):
    from toriq import mmp

    def exhausted(*args, **kwargs):
        raise mmp.StepBudgetError("step budget exhausted; runaway program")

    monkeypatch.setattr(mmp, "run_mmp_scaling", exhausted)
    assert main(["run-mmp", hexagon_file]) == 2
    assert capsys.readouterr().err == "error: step budget exhausted; runaway program\n"


@pytest.mark.parametrize("s", ["1/0", "x"])
def test_adjoint_rejects_a_malformed_s(hexagon_file, s, capsys):
    assert main(["adjoint", hexagon_file, "--s", s]) == 2
    assert "--s expects a rational" in capsys.readouterr().err


def test_adjoint_refuses_redundant_input(redundant_file, capsys):
    assert main(["adjoint", redundant_file, "--s", "1/4"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "inequalities [3] are redundant" in captured.err


def test_adjoint_allow_redundant_shifts_the_full_list(redundant_file, capsys):
    assert main(["adjoint", redundant_file, "--s", "1/4", "--allow-redundant"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["constants"]) == ["-1/4", "-1/4", "19/4", "3/4"]
