"""The scaled program reads the core's and the last interval's vertices off
its interval certificates and finds each critical value in integers.  On
the forced seed-1 sweep of the 67 rows and on all 240 pool entries the
certified vertex sets equal the enumerated ones, every critical value
that the runs read off their slack rows equals the curve-number oracle,
and the equalities, facets and dimensions read off the tight sets of every
vertex set and section face agree with the affine ranks of their
coordinates; every fibration's projection is the integer kernel of its
fiber basis; with no certificate the run enumerates and records what it
did before; a certified point moved by one unit of its denominator fails
the comparison."""

from fractions import Fraction

import pytest

import intersection_oracle as oracle
import linalg_oracle
import polytope_oracle
from helpers import certificates, prime_divisor, run_divisor, scan, with_walls
from test_adjoint_certificate import FIRST, doctored, pool_polytope, sweep_polytopes, unvalidated
from toriq import fans, intersection, mmp, polytopes
from toriq.fans import Fan, MalformedFanError, walls
from toriq.intersection import TorusDivisor
from toriq.linalg import _lowest_terms, matrix_rank
from toriq.polytopes import (
    DegenerateError,
    FacetPresentation,
    VertexSet,
    core_and_projection,
    normal_fan,
    vertices,
)

F = Fraction
POOL_KEYS = tuple(f"d{dim}-{i}" for dim in (2, 3) for i in range(120))


def core_presentation(trace) -> FacetPresentation:
    P, sigma = trace.initial_polytope, trace.effective_threshold
    return FacetPresentation(P.dim, P.normals, tuple(a - sigma for a in P.constants))


def record(monkeypatch) -> dict:
    """Record, from here on, each trace the cross-validation receives, each
    critical value search's (slack rows, fan, s0), each tail's (P^(mid),
    vertex set) that the Cayley check reads and its fiber data, each
    presentation asked of ``vertices`` and each point set asked of
    ``hull_facets``."""
    seen = dict(traces=[], searches=[], tails=[], fibers=[], asked=[], hulls=[])
    validate, search = mmp._adjoint_cross_validation, mmp._critical_value
    decompose, enumerate_ = polytopes._decompose_along_fiber, polytopes.vertices
    hull = polytopes.hull_facets

    def validating(trace, certs):
        seen["traces"].append(trace)
        validate(trace, certs)

    def searching(slacks, fan, s0):
        seen["searches"].append((slacks, fan, s0))
        return search(slacks, fan, s0)

    def decomposing(P, pvs, data):
        seen["tails"].append((P, pvs))
        seen["fibers"].append(data)
        return decompose(P, pvs, data)

    def asking(P, allow_lower_dim=False):
        seen["asked"].append((P, allow_lower_dim))
        return enumerate_(P, allow_lower_dim)

    def hulling(points):
        seen["hulls"].append(points)
        return hull(points)

    monkeypatch.setattr(mmp, "_adjoint_cross_validation", validating)
    monkeypatch.setattr(mmp, "_critical_value", searching)
    monkeypatch.setattr(polytopes, "_decompose_along_fiber", decomposing)
    monkeypatch.setattr(polytopes, "vertices", asking)
    monkeypatch.setattr(polytopes, "hull_facets", hulling)
    return seen


@pytest.fixture
def recorder(monkeypatch):
    return record(monkeypatch)


@pytest.fixture(scope="module")
def runs():
    """What ``recorder`` sees over the forced runs of the sweep and the pool,
    and the runs that raise."""
    polys = list(sweep_polytopes().items()) + [(key, pool_polytope(key)) for key in POOL_KEYS]
    with pytest.MonkeyPatch.context() as mp:
        seen = record(mp)
        seen["failed"] = []
        for name, P in polys:
            try:
                mmp.run_mmp_scaling(P, force=True)
            except MalformedFanError:  # the known failures, pinned elsewhere
                seen["failed"].append(name)
    return seen


def test_certified_core_and_tail_equal_the_enumerated(runs):
    assert runs["failed"] == ["G_1", "G_4", "J_1", "Z_1", "d3-76"]
    assert len(runs["traces"]) == 67 + 240
    point_cores = 0
    for trace in runs["traces"]:
        cp, P = trace.core_projection, trace.initial_polytope
        assert cp.core_vertices == vertices(core_presentation(trace), allow_lower_dim=True).vertices
        expected = core_and_projection(P)
        assert cp == expected and cp.Q.normals == expected.Q.normals and cp.Q.irredundant
        if not cp.kernel_basis:
            point_cores += 1
            assert mmp._point_core_fan(P, cp.Q) == normal_fan(cp.Q)
    assert point_cores == 10 + 53  # the sweep's POINT_CORE_ROWS and 53 pool entries
    # every tail the runs check is certified, none of the ones they skip is
    assert len(runs["tails"]) == 67 + 240 - 2
    for reduced, pvs in runs["tails"]:
        assert pvs == vertices(reduced)
    # no run asked for its core's or its tail's enumeration
    tails = {reduced for reduced, _ in runs["tails"]}
    assert not [P for P, lower in runs["asked"] if lower or P in tails]


def test_projection_is_the_fiber_basis_integer_kernel(runs, monkeypatch):
    # the projection rows of the one Smith form are a basis of the forms
    # that vanish on the fiber, as the Smith form of the fiber basis gives
    # them, and on every fibration of the runs and of their polytopes'
    # Cayley searches the same ordered basis.  That is not an identity:
    # 470 of 19,609 random sets of k <= n columns in Z^n, n <= 6 and
    # entries in [-4, 4], give another ordered basis of the same lattice
    found = [step.fiber_data for trace in runs["traces"] for step in trace.steps
             if step.fiber_data]
    fiber_data = fans.mori_fiber_data

    def recording(fan, wall):
        found.append(fiber_data(fan, wall))
        return found[-1]

    monkeypatch.setattr(fans, "mori_fiber_data", recording)
    for trace in runs["traces"]:
        polytopes.cayley_mori_detect(trace.initial_polytope)
    assert all(data.projection == tuple(linalg_oracle.integer_kernel_basis(data.fiber_basis))
               for data in found)
    assert len(found) == 601


def section_faces(pvs, data):
    """The vertex sets of the section faces that ``_decompose_along_fiber``
    reads, one per maximal cone of the fiber fan."""
    for fcone in data.fiber_fan.max_cones:
        on = {data.fiber_ray_origin[i] for i in fcone}
        face = [(x, t) for x, t in zip(pvs.points, pvs.tight) if on <= set(t)]
        if face:
            yield VertexSet(*zip(*face))


def test_faces_and_dimensions_agree_with_oracle_rank(runs):
    # every vertex set the runs enumerate or certify, every core (all
    # lower-dimensional) and every section face of a tail
    asked = {P for P, _ in runs["asked"]}
    cores = {core_presentation(trace) for trace in runs["traces"]}
    faces = [(P, vertices(P, allow_lower_dim=True)) for P in asked | cores] + runs["tails"]
    for (P, pvs), data in zip(runs["tails"], runs["fibers"]):
        faces += [(P, face) for face in section_faces(pvs, data)]
    low = 0
    for P, face in faces:
        equalities, facets = polytopes._faces(face.tight)
        assert (sorted(equalities), facets) == polytope_oracle.faces(P, face.vertices)
        rank = linalg_oracle.affine_rank(face.vertices)
        # the rule of _decompose_along_fiber
        assert P.dim - matrix_rank([P.normals[j] for j in equalities]) == rank
        low += rank < P.dim
    # the rule of vertices: full-dimensional exactly when the rank is full
    for P in asked | cores:
        if linalg_oracle.affine_rank(vertices(P, allow_lower_dim=True).vertices) < P.dim:
            with pytest.raises(DegenerateError, match="^polytope is not full-dimensional$"):
                vertices(P)
        else:
            assert vertices(P) == vertices(P, allow_lower_dim=True)
    # the rule of hull_facets: every point set it was given spans
    assert all(linalg_oracle.affine_rank(pts) == len(pts[0]) for pts in runs["hulls"])
    assert (len(asked), len(cores), len(faces), low, len(runs["hulls"])) == (
        511, 307, 1891, 1075, 244)


def outcome(search, *args):
    """lambda and the attained walls, or the error's type and message."""
    try:
        return search(*args)
    except ValueError as err:
        return type(err), str(err)


def test_integer_threshold_equals_oracle_on_every_visited_search(runs):
    # each search the forced runs make (an unforced run makes the same ones
    # up to its first tie), then the same L past its threshold (not nef)
    # and a prime divisor at 0 (not ample on most fans); the scan of the
    # slack rows and the curve numbers give equal walls, and the public
    # nef_threshold the same lambda at 0
    searches = []
    for slacks, fan, s0 in runs["searches"]:
        L = run_divisor(slacks, fan)
        lam, attained = with_walls(fan, *mmp._critical_value(slacks, fan, s0))
        assert (lam, attained) == oracle.nef_threshold_from(fan, L, s0)
        searches += [(fan, L, s0), (fan, L, lam + F(1, 7)), (fan, prime_divisor(fan, 0), F(0))]
    kinds = {"tie": 0, "past_zero": 0, "not nef": 0, "not ample": 0}
    for fan, L, s0 in searches:
        got = outcome(scan, fan, L, s0)
        assert got == outcome(oracle.nef_threshold_from, fan, L, s0)
        if not s0:
            assert outcome(intersection.nef_threshold, fan, L) == (
                got if got[0] is ValueError else got[0])
        if got[0] is ValueError:
            kinds["not nef" if "not nef" in got[1] else "not ample"] += 1
        else:
            kinds["tie"] += len(got[1]) > 1
            kinds["past_zero"] += s0 > 0
    assert kinds == {"tie": 662, "past_zero": 412, "not nef": 719, "not ample": 657}


# two cones meeting in one wall, whose curve has -K.C = 2 - a (2 - a - b
# in rank 3): the scan does not rely on completeness, and where no wall
# meets K negatively it says so rather than take a root of a slack that
# does not decrease
CHARTS = [Fan(2, ((1, 0), (0, 1), (-1, a)), ((0, 1), (1, 2))) for a in range(4)] + [
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (a, b, -1)), ((0, 1, 2), (0, 1, 3)))
    for a, b in ((-1, -1), (0, 0), (1, 0), (1, 1), (2, 1))]


@pytest.mark.parametrize("fan", CHARTS, ids=lambda fan: str(fan.rays[-1]))
def test_scan_equals_the_curve_numbers_on_incomplete_fans(fan):
    n = len(fan.rays)
    outcomes = []
    for coeffs in ((1,) * n, (1,) + (0,) * (n - 2) + (1,), (0,) * (n - 1) + (2,)):
        L = TorusDivisor(fan, coeffs)
        for s0 in (F(0), F(1, 3)):
            got = outcome(scan, fan, L, s0)
            assert got == outcome(oracle.nef_threshold_from, fan, L, s0)
            outcomes.append(got[1] if got[0] is ValueError else "lambda")
    kc = sum(walls(fan)[0].relation)
    assert ("no wall meets the canonical divisor negatively" in outcomes) is (kc <= 0)


def validated(trace, monkeypatch, **patches):
    """A copy of the trace, its core cleared, after the cross-validation
    run with ``mmp``'s names patched."""
    trace = trace._replace(
        steps=[s._replace() for s in trace.steps],
        core_projection=None, validation={})
    with monkeypatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(mmp, name, value)
        try:
            mmp._adjoint_cross_validation(trace, certificates(trace))
        except MalformedFanError:
            pass
    return trace


@pytest.mark.parametrize("name", ["FIRST", "117", "H_4"])
def test_no_last_certificate_enumerates_the_core(name, monkeypatch):
    # the blow-up's, a 4-fold row's and a point core's run, its last
    # interval refused: that interval records only its fan note, as False,
    # and the core is the enumerated one
    P = FIRST if name == "FIRST" else sweep_polytopes()[name]
    run = unvalidated(P)
    certified = validated(run, monkeypatch).validation
    certify = mmp._certify
    trace = validated(run, monkeypatch, _certify=lambda slacks, fan, lo, lam: (
        None if fan == run.steps[-1].fan_before else certify(slacks, fan, lo, lam)))
    last = f"interval_{len(trace.steps) - 1}_"
    kept = list(certified.items())
    kept = kept[:next(i for i, (key, _) in enumerate(kept) if key.startswith(last))]
    assert list(trace.validation.items()) == kept + [(last + "fan_matches", False)]
    assert trace.core_projection == core_and_projection(P)
    if name == "FIRST":
        assert list(trace.validation.items()) == [
            ("interval_0_facets", 5), ("interval_0_fan_matches", True),
            ("interval_0_simple", True), ("step_0_facet_drop_one", True),
            ("step_0_simple_at_value", True), ("interval_1_fan_matches", False)]


def test_zero_length_last_interval_enumerates_the_tail(recorder, monkeypatch):
    # the Mori step moved onto the divisorial value 1/2 < sigma_P = 1: the
    # tail P^(1/2) has no certificate of its own and no certificate ends at
    # sigma_P, so both the tail and the core are enumerated
    bad = doctored(unvalidated(FIRST), 1, lam=F(1, 2))
    for seen in recorder.values():
        seen.clear()
    trace = validated(bad, monkeypatch)
    assert list(trace.validation.items()) == [
        ("interval_0_facets", 5), ("interval_0_fan_matches", True), ("interval_0_simple", True),
        ("step_0_facet_drop_one", True), ("step_0_simple_at_value", True),
        ("interval_1_facets", 4), ("interval_1_fan_matches", False), ("interval_1_simple", True),
        ("tail_is_cayley", True), ("fiber_polytope_matches", True)]
    assert trace.core_projection == core_and_projection(FIRST)
    [(reduced, pvs)] = recorder["tails"]
    assert reduced.constants == (F(3, 2), F(1, 2), F(3, 2), F(1, 2))
    assert pvs == vertices(reduced)
    assert (reduced, False) in recorder["asked"]
    assert (core_presentation(trace), True) in recorder["asked"]


CERTIFIED_POINTS = mmp._Certificate.points


def moved_points(self, s):
    """``_Certificate.points`` with the first cone's point moved by
    1 / (q*d*L) in its first coordinate, for s = p / q: one more in the
    first of its integer numerators over q*d*L."""
    points = CERTIFIED_POINTS(self, s)
    ((y, den), cone), d = points[0], self.cones[0][3]
    D = s.denominator * d * self.L
    numerators = [a * (D // den) for a in y]
    numerators[0] += 1
    return [(_lowest_terms(numerators, D), cone)] + points[1:]


@pytest.mark.parametrize("name", ["FIRST", "117", "H_4"])
def test_moved_certified_point_fails_the_comparison(name, recorder, monkeypatch):
    P = FIRST if name == "FIRST" else sweep_polytopes()[name]
    trace = validated(unvalidated(P), monkeypatch, _Certificate=type(
        "Moved", (mmp._Certificate,), {"points": moved_points}))
    assert trace.core_projection.core_vertices != vertices(
        core_presentation(trace), allow_lower_dim=True).vertices
    [(reduced, pvs)] = recorder["tails"]
    assert pvs != vertices(reduced)
