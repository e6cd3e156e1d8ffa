"""The records' value semantics: equality and hash, immutability,
validation on construction and on copy, and repr."""

import dataclasses
import inspect
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from toriq import fans, intersection, mmp, polytopes
from toriq.fano_table import (RowResult, TableRow, VerificationReport, load_builtin_table,
                               verify_row)
from toriq.fans import Fan, MalformedFanError, primitive_collections, walls
from toriq.formats import ParseError
from toriq.intersection import TorusDivisor, anticanonical, is_2fano, is_fano
from toriq.linalg import _FrozenRecord
from toriq.polytopes import FacetPresentation, normal_fan, vertices
from conftest import blowup_polytope, hexagon, unit_square
from helpers import certificates, cold_caches
from test_circuit_replacement import _workloads, fourfold_polytopes

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


@pytest.mark.parametrize("cones, message", [
    (((0, 1), (1, 0)), "maximal cones are not pairwise distinct"),
    (((0, 2),), "cone (0, 2) has out-of-range ray indices"),
    (((-1, 0),), "cone (-1, 0) has out-of-range ray indices")])
def test_fan_on_checked_rays_still_checks_its_cones(cones, message):
    rays = ((1, 0), (0, 1))
    for build in (Fan, Fan._on_rays):
        with pytest.raises(MalformedFanError) as err:
            build(2, rays, cones)
        assert str(err.value) == message
    assert Fan._on_rays(2, rays, ((1, 0, 1),)) == Fan(2, rays, ((0, 1),))


def test_derived_presentation_coerces_and_counts_its_constants():
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    for constants, keep in (((0, 0), None), ((0, 0, 1), (0, 2))):
        with pytest.raises(ValueError, match="normals and constants differ in length"):
            P._derived(constants, keep)
    Q = P._derived(("1/2", 1), (2, 0), irredundant=True)
    assert Q == FacetPresentation(2, ((-1, -1), (1, 0)), (F(1, 2), 1)) and Q.irredundant
    assert Q.normals[0] is P.normals[2] and P._derived(P.constants).normals is P.normals


def _runs(workloads) -> dict:
    """From cold caches, the encoded forced run of every row of the 4-fold
    sweep and the encoded seed-1 adjoint-family item of every pool entry;
    a run that raises is encoded as its error."""
    cold_caches()
    runs = [(name, lambda P=P: workloads.encode_trace(mmp.run_mmp_scaling(P, force=True)))
            for name, P in fourfold_polytopes(workloads).items()]
    runs += [(key, lambda P=P: workloads.run_adjoint_item(P)[1])
             for key, P in workloads.adjoint_items(1)]
    encoded = {}
    for key, run in runs:
        try:
            encoded[key] = run()
        except ValueError as exc:
            encoded[key] = (type(exc).__name__, str(exc))
    return encoded


def test_derived_records_match_the_public_constructors(monkeypatch):
    # oracle: building every derived fan and presentation through its
    # public constructor raises nowhere and changes no result
    workloads = _workloads()
    expected = _runs(workloads)
    built, raised = Counter(), []

    def checked(build, *args):
        built[build.__name__] += 1
        try:
            return build(*args)
        except ValueError as exc:
            raised.append(exc)
            raise

    def derived(P, constants, keep=None, irredundant=False):
        normals = P.normals if keep is None else tuple(P.normals[i] for i in keep)
        return checked(FacetPresentation, P.dim, normals, constants, irredundant)

    monkeypatch.setattr(FacetPresentation, "_derived", derived)
    monkeypatch.setattr(Fan, "_on_rays", staticmethod(lambda *args: checked(Fan, *args)))
    assert _runs(workloads) == expected
    assert not raised and built["FacetPresentation"] and built["Fan"]


@pytest.mark.parametrize("name, expected", [
    ("adjoint-family", {"FacetPresentation": 161, "Fan": 173}),
    ("mmp-4fold", {"FacetPresentation": 40, "Fan": 20})])
def test_full_constructor_runs_only_on_new_rays_and_normals(monkeypatch, name, expected):
    # a seed-1 pass from cold caches; while every derived record ran the
    # full checks too, adjoint-family ran 769 and 378, and mmp-4fold 72 and 68
    workloads = _workloads()
    make_items, run_item, _ = workloads.WORKLOADS[name]
    items = make_items(1)
    built = Counter()
    for cls in (FacetPresentation, Fan):
        def counted(self, *args, init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    cold_caches()
    for _, item in items:
        try:
            run_item(item)
        except ValueError:  # the pinned failures
            pass
    assert built == expected


def test_frozen_records_hash_their_key_once(frozen_records):
    records = [r for r in frozen_records.values() if isinstance(r, _FrozenRecord)]
    assert sorted(type(r).__name__ for r in records) == [
        "FacetPresentation", "Fan", "TableRow", "TorusDivisor", "VertexSet"]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert len(record.__reduce__()[1]) == len(record._fields)
        assert "_hash" not in record._fields and "_hash" not in repr(record)
        assert not hasattr(copy, "_hash")
        assert hash(record) == hash(record._key(record)) == hash(copy) == copy._hash
        object.__setattr__(copy, "_hash", hash(record) + 1)
        assert copy == record and repr(copy) == repr(record)


def test_a_second_hash_of_a_presentation_hashes_no_fraction(monkeypatch):
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, F(5, 2)))
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(x):
        hashed.append(x)
        return fraction_hash(x)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    first = hash(P)
    assert hashed == list(P.constants)
    hashed.clear()
    assert hash(P) == first and not hashed


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
