import hashlib
from fractions import Fraction

import pytest

from toriq.fano_table import parse_dataset
from toriq.formats import (
    ParseError,
    SvgError,
    canonical_fan,
    emit_fan,
    emit_polytope,
    emit_report,
    emit_svg,
    parse_fan,
    parse_polytope,
)
from toriq.polytopes import FacetPresentation
from conftest import hexagon
from helpers import count_lps

F = Fraction

P2_TEXT = """
{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
"""


class TestFanFiles:
    def test_parse_p2(self, p2):
        assert parse_fan(P2_TEXT) == p2

    def test_roundtrip_is_canonical(self, p2):
        text = emit_fan(p2)
        assert emit_fan(parse_fan(text)) == text
        assert parse_fan(text) == canonical_fan(p2)

    def test_nonprimitive_strict(self):
        bad = '{"rank": 2, "rays": [[2, 4], [0, 1], [-1, -1]], "max_cones": [[0, 1]]}'
        with pytest.raises(ParseError, match="non-primitive"):
            parse_fan(bad)

    def test_nonprimitive_lenient(self):
        bad = '{"rank": 2, "rays": [[2, 4], [0, 1], [-1, -2]], "max_cones": [[0, 1], [1, 2], [0, 2]]}'
        with pytest.warns(UserWarning, match="primitivized"):
            fan = parse_fan(bad, lenient=True)
        assert fan.rays[0] == (1, 2)

    def test_missing_key(self):
        with pytest.raises(ParseError, match="rank"):
            parse_fan('{"rays": [], "max_cones": []}')

    def test_zero_ray(self):
        with pytest.raises(ParseError) as err:
            parse_fan('{"rank": 2, "rays": [[1, 0], [0, 0]], "max_cones": [[0]]}', lenient=True)
        assert (err.value.message, err.value.field) == ("zero ray (0, 0)", "rays")

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError):
            parse_fan("{not json")

    @pytest.mark.parametrize("text", ["3", "null", "[]", '"fan"'])
    def test_non_object_rejected(self, text):
        with pytest.raises(ParseError, match="expected a JSON object"):
            parse_fan(text)

    @pytest.mark.parametrize("text, field", [
        ('{"rank": -1, "rays": [], "max_cones": []}', "rank"),
        ('{"rank": true, "rays": [[1], [-1]], "max_cones": [[0], [1]]}', "rank"),
        ('{"rank": 1, "rays": [[1], [-1]], "max_cones": 5}', "max_cones"),
        ('{"rank": 1, "rays": [[true], [-1]], "max_cones": [[0], [1]]}', "rays"),
        ('{"rank": 2, "rays": [[1, 0], [1, 0]], "max_cones": []}', "rays"),
        ('{"rank": 2, "rays": [[1, 0], [1]], "max_cones": [[0], [1]]}', "rays"),
        ('{"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [2]]}', "max_cones"),
    ])
    def test_ill_typed_field_rejected(self, text, field):
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert err.value.field == field


class TestPolytopeFiles:
    def test_roundtrip(self):
        P = FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, F(5, 2)))
        text = emit_polytope(P)
        Q = parse_polytope(text)
        assert set(zip(Q.normals, Q.constants)) == set(zip(P.normals, P.constants))
        assert emit_polytope(Q) == text

    def test_rationals_as_strings(self):
        P = FacetPresentation(1, ((1,), (-1,)), (F(1, 3), 1))
        assert '"1/3"' in emit_polytope(P)

    @pytest.mark.parametrize("text", ["3", "null", "[]", '"polytope"'])
    def test_non_object_rejected(self, text):
        with pytest.raises(ParseError, match="expected a JSON object"):
            parse_polytope(text)

    def test_missing_key(self):
        with pytest.raises(ParseError) as err:
            parse_polytope('{"dim": 1, "normals": [[1], [-1]]}')
        assert (err.value.message, err.value.field) == ("missing key", "constants")

    def test_bad_rational(self):
        with pytest.raises(ParseError, match="constants"):
            parse_polytope('{"dim": 1, "normals": [[1]], "constants": ["x/y"]}')

    @pytest.mark.parametrize("text, field", [
        ('{"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]], "constants": "003"}', "constants"),
        ('{"dim": 1, "normals": [[1]], "constants": 5}', "constants"),
        ('{"dim": 2.0, "normals": [[1, 0], [0, 1], [-1, -1]], "constants": [0, 0, 3]}', "dim"),
        ('{"dim": -1, "normals": [], "constants": []}', "dim"),
        ('{"dim": false, "normals": [], "constants": []}', "dim"),
        ('{"dim": 1, "normals": [[1], [-1]], "constants": [true, 2]}', "constants"),
    ])
    def test_ill_typed_field_rejected(self, text, field):
        with pytest.raises(ParseError) as err:
            parse_polytope(text)
        assert err.value.field == field

    @pytest.mark.parametrize("text, message, field", [
        ('{"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]], "constants": ["1", "1"]}',
         "normals and constants differ in length", "constants"),
        ('{"dim": 2, "normals": [[1, 0], [0, 1], [-1]], "constants": [1, 1, 1]}',
         "normal (-1,) does not have length 2", "normals"),
        ('{"dim": 2, "normals": [[1, 0], [0, 2]], "constants": [1, 1]}',
         "normal (0, 2) is not primitive", "normals"),
        ('{"dim": 1, "normals": [[1], [1]], "constants": [1, 2]}',
         "duplicate normal (1,)", "normals"),
    ])
    def test_presentation_error_names_its_field(self, text, message, field):
        with pytest.raises(ParseError) as err:
            parse_polytope(text)
        assert (err.value.message, err.value.field) == (message, field)


class TestDataset:
    def test_roundtrip_row(self):
        text = (
            "name,rays,collections,surface,expected,note\n"
            "E_1,1 0 0 0;0 1 0 0;0 0 1 0;0 0 0 1;2 -1 -1 -1;1 1 0 0;-1 0 0 0,"
            "0 6;0 1,1 2,-2,\n"
        )
        (row,) = parse_dataset(text)
        assert row.name == "E_1"
        assert row.rays[4] == (2, -1, -1, -1)
        assert row.collections == ((0, 6), (0, 1))
        assert row.surface == (1, 2)
        assert row.expected == -2

    def test_theory_row(self):
        text = "name,rays,collections,surface,expected,note\nB_1,,,,,product-or-bundle\n"
        (row,) = parse_dataset(text)
        assert not row.explicit and row.note == "product-or-bundle"

    def test_bad_surface(self):
        text = "name,rays,collections,surface,expected,note\nX,1 0,,7,1,\n"
        with pytest.raises(ParseError, match="surface"):
            parse_dataset(text)

    @pytest.mark.parametrize("surface,expected,field", [
        ("1 x", "1", "surface"),
        ("1 2", "1/0", "expected"),
        ("1 2", "one", "expected"),
    ])
    def test_bad_cell_names_field_and_line(self, surface, expected, field):
        text = ("name,rays,collections,surface,expected,note\n"
                f"E_1,1 0,,1 2,1,\nX,1 0,,{surface},{expected},\n")
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert (err.value.field, err.value.line) == (field, 3)

    @pytest.mark.parametrize("collections,message", [
        ("0 7", "collection (0, 7) names a ray outside the rays"),
        ("0 -1", "collection (0, -1) names a ray outside the rays"),
        ("1 2;2", "collection (2,) has fewer than two members"),
        ("1 1", "collection (1, 1) has fewer than two members"),
    ])
    def test_bad_collection_names_field_and_line(self, collections, message):
        text = ("name,rays,collections,surface,expected,note\n"
                f"E_1,1 0,,1 2,1,\nX,1 0;0 1;-1 -1,{collections},0 1,1,\n")
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert (err.value.message, err.value.field, err.value.line) == (message, "collections", 3)


class TestReport:
    def test_emit_csv(self):
        from toriq.fano_table import RowResult, VerificationReport

        rep = VerificationReport()
        rep.rows.append(RowResult(
            "E_1", "ok", computed=F(-2), expected=F(-2), match=True,
            global_min=F(-2), min_witness=(1, 2),
        ))
        text = emit_report(rep)
        lines = text.strip().splitlines()
        assert lines[0].startswith("name,status")
        assert lines[1] == "E_1,ok,-2,-2,yes,-2,1 2"


class TestSvg:
    def test_hexagon_drawing(self):
        svg = emit_svg(hexagon())
        assert svg.startswith("<svg")
        assert svg.count("<polygon") >= 4
        # the shrunken family collapses to its center point at the end
        assert "<circle" in svg
        assert "s = 1" in svg

    def test_exact_decimal_coordinates(self):
        from toriq.formats import _svg_num

        assert _svg_num(F(1, 3)) == "0.333"
        assert _svg_num(F(-7, 2)) == "-3.500"
        assert _svg_num(F(120)) == "120.000"

    def test_empty_rejected(self):
        P = FacetPresentation(2, ((1, 0), (-1, 0), (0, 1)), (0, -1, 0))
        with pytest.raises(SvgError, match="nothing to draw"):
            emit_svg(P)

    def test_non_2d_rejected(self):
        P = FacetPresentation(1, ((1,), (-1,)), (0, 1))
        with pytest.raises(SvgError):
            emit_svg(P)


HEXAGON_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="180.000" height="180.000" viewBox="0 0 180.000 180.000">
<polygon points="150.000,90.000 90.000,30.000 30.000,30.000 30.000,90.000 90.000,150.000 150.000,150.000" fill="none" stroke="#404040" stroke-width="1"/>
<polygon points="140.000,90.000 90.000,40.000 40.000,40.000 40.000,90.000 90.000,140.000 140.000,140.000" fill="none" stroke="#404040" stroke-width="1"/>
<polygon points="130.000,90.000 90.000,50.000 50.000,50.000 50.000,90.000 90.000,130.000 130.000,130.000" fill="none" stroke="#404040" stroke-width="1"/>
<polygon points="120.000,90.000 90.000,60.000 60.000,60.000 60.000,90.000 90.000,120.000 120.000,120.000" fill="none" stroke="#404040" stroke-width="1"/>
<polygon points="110.000,90.000 90.000,70.000 70.000,70.000 70.000,90.000 90.000,110.000 110.000,110.000" fill="none" stroke="#404040" stroke-width="1"/>
<polygon points="100.000,90.000 90.000,80.000 80.000,80.000 80.000,90.000 90.000,100.000 100.000,100.000" fill="none" stroke="#404040" stroke-width="1"/>
<circle cx="90.000" cy="90.000" r="3" fill="#c02020"/>
<text x="90.000" y="90.000" font-size="10">s = 1</text>
</svg>
"""


# The hexagon's forced run has critical values (1, 1), and s = 2 lies past
# its effective threshold 1, where P^(2) is empty and is not drawn.
@pytest.mark.parametrize("critical", [None, [F(1), F(1)], [2]])
def test_hexagon_drawing_text(critical):
    assert emit_svg(hexagon(), critical) == HEXAGON_SVG


# Two polygons of perfbench's adjoint-family pool, d2-8 (its core is a
# segment) and d2-11 (a point), drawn with their forced runs' critical values.
@pytest.mark.parametrize("normals, constants, critical, digest", [
    (((1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (-1, 1), (1, -1)),
     (F(10, 3), 3, 7, 11, 9, F(7, 2), 11),
     (F(1, 3), F(10, 3), F(23, 6), F(31, 6)),
     "436ef54ef833f59b41bcb76347c9e08dd23a548b9cbef98569ff8fd0493bf7bd"),
    (((1, 0), (0, -1), (-1, 1), (-2, -1), (1, 1)),
     (F(8, 3), 2, 11, F(5, 2), 12),
     (F(13, 6), F(35, 12), F(43, 10)),
     "19400f6f2bc7f266e773940aeddd9f14d0c33ad449af443eab681a23c3a09cbf"),
])
def test_pool_drawing_digest(normals, constants, critical, digest):
    P = FacetPresentation(2, normals, constants, irredundant=True)
    svg = emit_svg(P, critical)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_empty_flagged_polytope_rejected():
    P = FacetPresentation(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, -1, 0, 1),
                          irredundant=True)
    with pytest.raises(SvgError, match="nothing to draw"):
        emit_svg(P)


def test_hexagon_drawing_lp_count(monkeypatch):
    # one effective threshold; boundedness and emptiness are read off the
    # vertex enumeration (a boundedness LP for the normals was the second)
    from toriq import polytopes

    for cached in (polytopes.vertices, polytopes.effective_threshold):
        cached.cache_clear()
    calls = count_lps(monkeypatch)
    emit_svg(hexagon())
    assert len(calls) == 1
