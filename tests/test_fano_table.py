from fractions import Fraction

import pytest

from toriq.fano_table import (
    NEF_CH2_NAMES,
    load_builtin_table,
    reconstruct_fan,
    verify_row,
    verify_table,
)
from toriq.fans import ReconstructionError, face_fan
from toriq.formats import ParseError

F = Fraction


@pytest.fixture(scope="module")
def table():
    return load_builtin_table()


@pytest.fixture(scope="module")
def by_name(table):
    return {r.name: r for r in table}


@pytest.fixture(scope="module")
def report(table):
    return verify_table(table)


class TestLoad:
    def test_row_count_is_the_full_classification(self, table):
        assert len(table) == 124

    def test_explicit_row_count(self, table):
        assert sum(1 for r in table if r.explicit) == 67  # 66 rows + 1 control

    def test_sample_rows(self, by_name):
        e1 = by_name["E_1"]
        assert e1.rays == (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (2, -1, -1, -1), (1, 1, 0, 0), (-1, 0, 0, 0),
        )
        assert e1.surface == (1, 2) and e1.expected == -2
        assert by_name["117"].expected == -5
        assert by_name["124"].expected == -4
        assert by_name["K_1"].expected == -3

    def test_theory_rows_tagged(self, by_name):
        for name in ("B_1", "D_19", "L_13", "H_8", "119"):
            row = by_name[name]
            assert not row.explicit and row.note == "product-or-bundle"

    def test_rays_primitive(self, table):
        from toriq.linalg import is_primitive

        for row in table:
            if row.explicit:
                assert all(is_primitive(r) for r in row.rays)


class TestReconstruction:
    def test_prefers_collections(self, by_name):
        _, method = reconstruct_fan(by_name["E_1"])
        assert method == "collections"

    def test_hull_fallback_without_collections(self, by_name):
        _, method = reconstruct_fan(by_name["M_5"])
        assert method == "hull"

    def test_collections_and_hull_agree(self, table):
        rows = [r for r in table if r.explicit and r.collections]
        assert len(rows) == 66  # every explicit row but the control M_5
        for row in rows:
            fan, method = reconstruct_fan(row)
            assert method == "collections" and fan == face_fan(list(row.rays)), row.name

    def test_bad_collections_are_reported_not_replaced(self, by_name):
        # in range, but no fan: the hull used to stand in and the row passed
        row = by_name["E_1"]._replace(collections=((0, 1), (2, 3)))
        with pytest.raises(ReconstructionError, match=r"^row E_1: collections \(\(0, 1\), "
                           r"\(2, 3\)\) do not rebuild a fan: maximal cones"):
            reconstruct_fan(row)
        res = verify_row(row)
        assert (res.status, res.method, res.collections_roundtrip) == ("error", "", None)
        assert res.reason.startswith(
            "ReconstructionError: row E_1: collections ((0, 1), (2, 3)) do not rebuild a fan")


class TestVerification:
    def test_every_explicit_row_validates_fano(self, report):
        for r in report.rows:
            if r.status == "ok":
                assert r.smooth and r.complete and r.fano

    def test_no_row_errors(self, report):
        assert report.errors == 0

    def test_known_spot_values(self, report):
        got = {r.name: r.computed for r in report.rows if r.status == "ok"}
        assert got["E_1"] == -2
        assert got["K_1"] == -3
        assert got["117"] == -5
        assert got["124"] == -4
        assert got["P4"] == F(5, 2)

    def test_single_known_data_defect(self, report):
        """Every explicit row reproduces its recorded value except H_2,
        whose recorded -1 is unattainable: both reconstructions give the
        same fan and its full surface scan never takes the value -1 (the
        siblings H_1, H_3..H_10 share the computed -3/2); the README
        records the analysis."""
        mismatched = [r.name for r in report.rows if r.status == "ok" and not r.match]
        assert mismatched == ["H_2"]
        h2 = next(r for r in report.rows if r.name == "H_2")
        assert h2.computed == F(-3, 2) and h2.expected == -1

    def test_h2_never_attains_recorded_value(self, by_name):
        from toriq.intersection import is_2fano

        fan, _ = reconstruct_fan(by_name["H_2"])
        scan = is_2fano(fan)
        assert all(v != -1 for _, v in scan.values)

    def test_scan_minimum_bounded_by_reference(self, report):
        for r in report.rows:
            if r.status == "ok" and r.expected is not None and r.match:
                assert r.global_min <= r.expected

    def test_control_row_positive(self, report):
        p4 = next(r for r in report.rows if r.name == "P4")
        assert p4.two_fano

    def test_nonpositive_witness_found_everywhere_else(self, report):
        for r in report.rows:
            if r.status == "ok" and r.name != "P4":
                assert r.global_min <= 0

    def test_collections_roundtrip(self, report):
        checked = [r for r in report.rows if r.collections_roundtrip is not None]
        assert len(checked) >= 60
        assert all(r.collections_roundtrip for r in checked)

    def test_skipped_rows_have_reasons(self, report):
        for r in report.rows:
            if r.status == "skipped":
                assert r.reason

    def test_nef_checks(self, report):
        by = {e.name: e for e in report.nef_checks}
        # reconstructible nef rows: the control row only
        assert by["P4"].status == "ok" and by["P4"].global_min == F(5, 2)
        for name in ("C_4", "D_1"):
            assert by[name].status == "skipped"
            assert "no ray data" in by[name].reason

    def test_nef_names_subset_of_table(self, by_name):
        assert NEF_CH2_NAMES <= set(by_name)


def test_positive_scan_exceeds_nonpositive_reference():
    # the P4 control row with a reference of -1: its scan minimum is 5/2
    from toriq.fano_table import parse_dataset, verify_row

    (row,) = parse_dataset("name,rays,collections,surface,expected,note\n"
                           "P4,1 0 0 0;0 1 0 0;0 0 1 0;0 0 0 1;-1 -1 -1 -1,0 1 2 3 4,0 1,-1,\n")
    res = verify_row(row)
    assert (res.status, res.reason) == ("error", "scan minimum exceeds the reference value")
    assert res.global_min == F(5, 2)


@pytest.mark.parametrize("missing", ["surface", "expected"])
def test_explicit_row_needs_surface_and_reference(by_name, missing):
    with pytest.raises(ValueError, match=repr(missing)):
        by_name["P4"]._replace(**{missing: None})


@pytest.mark.parametrize("collections", [((0, 6), (0, 7)), ((0, 6), (-1, 2)), ((3,),)])
def test_collection_outside_the_rays_or_too_small_is_rejected(by_name, collections):
    # E_1 has rays 0..6
    with pytest.raises(ParseError) as err:
        by_name["E_1"]._replace(collections=collections)
    assert err.value.field == "collections"


def test_kernel_bug_propagates_out_of_verify_row(by_name, monkeypatch):
    # only the package's ValueError family becomes a row "error"
    from toriq import fano_table

    def broken(fan):
        raise TypeError("kernel bug")

    monkeypatch.setattr(fano_table, "is_2fano", broken)
    with pytest.raises(TypeError):
        fano_table.verify_row(by_name["E_1"])


def test_package_error_becomes_row_error(by_name, monkeypatch):
    from toriq import fano_table
    from toriq.fans import UnsupportedFanError

    def unsupported(fan):
        raise UnsupportedFanError("not here")

    monkeypatch.setattr(fano_table, "is_2fano", unsupported)
    res = fano_table.verify_row(by_name["E_1"])
    assert res.status == "error" and "UnsupportedFanError" in res.reason


@pytest.mark.parametrize("surface, reason", [
    ((6, 0), "ValueError: (0, 6) is not a cone of the fan"),  # a primitive collection
    ((1,), "ValueError: (1,) is not a codimension-2 cone"),
    ((1, 2, 3), "ValueError: (1, 2, 3) is not a codimension-2 cone"),
])
def test_doctored_surface_is_a_row_error(by_name, surface, reason):
    from toriq.fano_table import verify_row

    good = verify_row(by_name["E_1"])
    res = verify_row(by_name["E_1"]._replace(surface=surface))
    # everything before the witness value as in the good row, nothing after
    assert res == good._replace(
        status="error", reason=reason, computed=None, match=None,
        global_min=None, min_witness=None, two_fano=None)


def test_one_surface_pass_per_row(by_name, monkeypatch):
    # the witness value is read off the scan, not computed again
    from toriq import fano_table, intersection

    calls = []
    scan = intersection._surface_values
    monkeypatch.setattr(intersection, "_surface_values",
                        lambda *args: calls.append(args) or scan(*args))
    res = fano_table.verify_row(by_name["E_1"])
    assert (res.status, res.computed, len(calls)) == ("ok", F(-2), 1)


def test_row_that_is_not_smooth_is_an_error():
    from toriq.fano_table import TableRow

    # the face fan over the triangle (1, 0), (0, 1), (-1, -2): cone (0, 2) has index 2
    row = TableRow("X", ((1, 0), (0, 1), (-1, -2)), None, (0, 1), F(-1))
    res = verify_row(row)
    assert (res.status, res.reason) == ("error", "fan failed smooth/complete validation")
    assert (res.method, res.smooth, res.complete, res.fano) == ("hull", False, True, False)


def test_row_that_is_not_fano_is_an_error():
    from toriq.fano_table import TableRow

    # the Hirzebruch surface F_2, whose curve (0, 3) has -K.C = 0
    row = TableRow("F_2", ((1, 0), (0, 1), (-1, 2), (0, -1)), ((0, 2), (1, 3)), (0, 1), F(-1))
    res = verify_row(row)
    assert res.status == "error" and res.reason.startswith("fan is not Fano (witnesses ")
    assert (res.smooth, res.complete, res.fano, res.computed) == (True, True, False, None)


def test_positive_reference_needs_a_positive_scan(by_name):
    res = verify_row(by_name["E_1"]._replace(expected=F(1)))
    assert (res.status, res.reason) == ("error", "expected a positive scan")
    assert (res.computed, res.match, res.two_fano) == (F(-2), False, False)


def test_nef_check_skips_a_row_in_error(by_name):
    # P4 with a reference below its scan minimum is a row error
    report = verify_table([by_name["P4"]._replace(expected=F(-1))])
    assert [r.status for r in report.rows] == ["error"]
    (entry,) = report.nef_checks
    assert (entry.name, entry.status, entry.reason) == (
        "P4", "skipped", "nef check skipped: row status error")


def test_dataset_row_needs_a_name():
    from toriq.fano_table import parse_dataset

    with pytest.raises(ParseError) as err:
        parse_dataset("name,rays,collections,surface,expected,note\n"
                      " ,1 0;0 1;-1 -1,,0 1,-1,\n")
    assert (err.value.field, err.value.line) == ("name", 2)


def test_dataset_row_name_must_be_new():
    # verify_table would report both rows, and its nef check read the later one
    from toriq.fano_table import parse_dataset

    with pytest.raises(ParseError) as err:
        parse_dataset("name,rays,collections,surface,expected,note\n"
                      "P4,,,,,\nB_1,,,,,\nP4,1 0;0 1;-1 -1,,0 1,-1,\n")
    assert (err.value.message, err.value.field, err.value.line) == (
        "repeated row name 'P4'", "name", 4)


def test_row_without_rays_has_no_fan(table):
    row = next(r for r in table if r.rays is None)
    with pytest.raises(ReconstructionError, match=f"row {row.name} has no ray data"):
        reconstruct_fan(row)


def test_verify_table_defaults_to_the_builtin_table(report):
    default = verify_table()
    assert (default.rows, default.nef_checks) == (report.rows, report.nef_checks)
