"""The records' value semantics: equality and hash, immutability,
validation on construction and on copy, and repr."""

import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from toriq import fans, intersection, mmp, polytopes
from toriq.fano_table import (RowResult, TableRow, VerificationReport, load_builtin_table,
                               verify_row)
from toriq.fans import Fan, MalformedFanError, primitive_collections, walls
from toriq.formats import ParseError
from toriq.intersection import TorusDivisor, anticanonical, is_2fano, is_fano
from toriq.polytopes import FacetPresentation, normal_fan, vertices
from conftest import blowup_polytope, hexagon, unit_square
from helpers import certificates, cold_caches

F = Fraction


def copy_with(record, **changes):
    """The record's own copy with changes: ``_replace``, or
    ``dataclasses.replace`` for a dataclass."""
    if dataclasses.is_dataclass(record):
        return dataclasses.replace(record, **changes)
    return record._replace(**changes)


@pytest.fixture(scope="module")
def frozen_records():
    """One instance of each record that refuses assignment."""
    P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
    fan = normal_fan(P)
    trace = mmp.run_mmp_scaling(P)
    fiber = next(s.fiber_data for s in trace.steps if s.fiber_data is not None)
    wall = walls(fan)[0]
    return {
        "Fan": fan,
        "Wall": wall,
        "PrimitiveCollection": primitive_collections(fan)[0],
        "MoriFiberData": fiber,
        "FacetPresentation": P,
        "VertexSet": vertices(P),
        "Thresholds": polytopes.thresholds(P),
        "CoreProjection": polytopes.core_and_projection(P),
        "CayleyMoriDecomposition": polytopes.cayley_mori_detect(unit_square()),
        "TorusDivisor": anticanonical(fan),
        "FanoVerdict": is_fano(fan),
        "TwoFanoVerdict": is_2fano(fan),
        "ContractionResult": mmp.contract(fan, wall),
        "_Certificate": next(c for c in certificates(trace) if c is not None),
        "TableRow": load_builtin_table()[0],
    }


@pytest.mark.parametrize("cls", [
    Fan, FacetPresentation, polytopes.VertexSet, TorusDivisor, TableRow, fans.ValidationReport,
    mmp.MMPTrace, RowResult, VerificationReport])
def test_fields_are_the_constructor_parameters(cls):
    # a slot record's constructor fills its fields in this order
    fields = cls._fields if hasattr(cls, "_fields") else [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == list(fields)


def test_irredundant_is_not_part_of_identity():
    P = hexagon()
    Q = FacetPresentation(P.dim, P.normals, P.constants, irredundant=not P.irredundant)
    assert P == Q and hash(P) == hash(Q) and P.irredundant != Q.irredundant
    cold_caches()
    assert vertices(P) is vertices(Q)
    assert polytopes.vertices.cache_info().currsize == 1


@pytest.mark.parametrize("name", [
    "Fan", "Wall", "PrimitiveCollection", "MoriFiberData", "FacetPresentation", "VertexSet",
    "Thresholds", "CoreProjection", "CayleyMoriDecomposition", "TorusDivisor", "FanoVerdict",
    "TwoFanoVerdict", "ContractionResult", "_Certificate", "TableRow"])
def test_frozen_records_refuse_assignment(frozen_records, name):
    record = frozen_records[name]
    assert type(record).__name__ == name
    field = record._fields[0] if hasattr(record, "_fields") else dataclasses.fields(record)[0].name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == copy_with(record) == pickle.loads(pickle.dumps(record))
    if name != "_Certificate":  # its tight sets are a set
        assert hash(record) == hash(copy_with(record))


def test_mutable_records_are_unhashable():
    P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
    row = next(r for r in load_builtin_table() if r.explicit)
    records = [fans.validate(normal_fan(P)), mmp.run_mmp_scaling(P), verify_row(row),
               VerificationReport()]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)
    # a default list or dict is each instance's own
    first = (fans.ValidationReport(True, True, True, True), VerificationReport())
    second = (fans.ValidationReport(True, True, True, True), VerificationReport())
    assert first[0].problems is not second[0].problems
    assert first[1].rows is not second[1].rows
    assert first[1].nef_checks is not second[1].nef_checks
    trace = records[1]
    assert copy_with(trace, validation={}).validation is not trace.validation


@pytest.mark.parametrize("bad", [
    {"rank": -1}, {"rays": ((2, 0), (0, 1))}, {"rays": ((1, 0), (1, 0))},
    {"max_cones": ((0, 2),)}, {"rays": ((1, 0, 0), (0, 1))}])
def test_fan_validates_on_construction_and_copy(bad):
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(MalformedFanError):
        Fan(**{"rank": 2, "rays": fan.rays, "max_cones": fan.max_cones, **bad})
    with pytest.raises(MalformedFanError):
        copy_with(fan, **bad)


@pytest.mark.parametrize("bad", [
    {"dim": -1}, {"normals": ((2, 0), (0, 1))}, {"normals": ((1, 0), (1, 0))},
    {"constants": (1,)}, {"normals": ((1, 0, 0), (0, 1))}])
def test_facet_presentation_validates_on_construction_and_copy(bad):
    P = FacetPresentation(2, ((1, 0), (0, 1)), (1, 1))
    with pytest.raises(ValueError):
        FacetPresentation(**{"dim": 2, "normals": P.normals, "constants": P.constants, **bad})
    with pytest.raises(ValueError):
        copy_with(P, **bad)


def test_torus_divisor_validates_on_construction_and_copy():
    D = anticanonical(Fan(2, ((1, 0), (0, 1)), ((0, 1),)))
    with pytest.raises(ValueError, match="coefficient count"):
        TorusDivisor(D.fan, (1,))
    with pytest.raises(ValueError, match="coefficient count"):
        copy_with(D, coeffs=(1, 2, 3))
    assert copy_with(D, coeffs=(1, "1/2")).coeffs == (1, F(1, 2))


@pytest.mark.parametrize("bad", [
    {"surface": None}, {"expected": None}, {"collections": ((0,),)},
    {"collections": ((0, 99),)}])
def test_table_row_validates_on_construction_and_copy(bad):
    row = next(r for r in load_builtin_table() if r.explicit)
    fields = {"name": row.name, "rays": row.rays, "collections": row.collections,
              "surface": row.surface, "expected": row.expected, "note": row.note}
    with pytest.raises(ParseError):
        type(row)(**{**fields, **bad})
    with pytest.raises(ParseError):
        copy_with(row, **bad)


def test_reprs():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    assert repr(fan) == "Fan(rank=2, rays=3, max_cones=3)"
    assert repr(FacetPresentation(1, ((1,), (-1,)), (0, 1))) == (
        "FacetPresentation(dim=1, normals=((1,), (-1,)), "
        "constants=(Fraction(0, 1), Fraction(1, 1)), irredundant=False)")
    assert repr(walls(fan)[0]) == (
        "Wall(wall_rays=(0,), side_a=0, side_b=1, relation=(1, 1, 1), "
        "multiplicity=1, scale=Fraction(1, 1))")
    assert repr(intersection.anticanonical(fan)) == (
        "TorusDivisor(fan=Fan(rank=2, rays=3, max_cones=3), "
        "coeffs=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))")
    assert repr(fans.validate(fan)) == (
        "ValidationReport(well_formed=True, simplicial=True, smooth=True, "
        "complete=True, problems=[])")
    assert repr(polytopes.thresholds(hexagon())) == (
        "Thresholds(nef=Fraction(1, 1), effective=Fraction(1, 1))")
    assert repr(VerificationReport()) == "VerificationReport(rows=[], nef_checks=[])"
    assert repr(RowResult("x", "ok", computed=F(1, 2))) == (
        "RowResult(name='x', status='ok', method='', reason='', smooth=False, complete=False, "
        "fano=False, computed=Fraction(1, 2), expected=None, match=None, global_min=None, "
        "min_witness=None, two_fano=None, collections_roundtrip=None)")
