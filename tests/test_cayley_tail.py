"""The scaled program checks its last adjoint polytope as a Cayley sum along
the run's own Mori fiber.  The decomposition reads each base off P's tight
sets and agrees exactly with the hull-based one kept in ``polytope_oracle``
on every split fibration with a Picard-rank-one fiber; its verdict on a
run's tail agrees with the wall search of ``cayley_mori_detect`` except
where the run's own fiber is not of Picard rank one; and doctored fiber
data fails the tail check.  The search sign-tests each wall from its cone's
adjugate and finds what the search over ``fans.walls`` kept in
``polytope_oracle`` finds, with the work of a benchmark pass pinned."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import mmp_oracle
import polytope_oracle as oracle
from conftest import blowup_polytope, hexagon, simplex_polytope, unit_square
from helpers import certificates, cold_caches, count_calls, decomposition
from linalg_oracle import integer_kernel_basis
from test_adjoint_certificate import (
    MMP_ROWS, cross_validation, outcome, pool_polytope, sweep_polytopes, unvalidated)
from test_certified_run import POOL_KEYS
from test_circuit_replacement import _workloads
from toriq import fans, linalg, mmp, polytopes
from toriq.fans import Fan, MalformedFanError, wall_classification, walls
from toriq.polytopes import (
    FacetPresentation,
    cayley_mori_build,
    cayley_mori_detect,
    facet_presentation_from_vertices,
    normal_fan,
    vertices,
)

F = Fraction


def segment(lo, hi) -> FacetPresentation:
    return FacetPresentation(1, ((1,), (-1,)), (-lo, hi), irredundant=True)


def cayley_inputs() -> list[FacetPresentation]:
    """The Cayley sums and non-sums the tests detect on: the square and the
    hexagon, sums of segments over k = 1 and 2 (one with a singular simplex),
    a sum of two hexagons, and two simplices, sums of points."""
    big = FacetPresentation(2, hexagon().normals, tuple(2 * a for a in hexagon().constants),
                            irredundant=True)
    return [
        unit_square(),
        hexagon(),
        cayley_mori_build([segment(0, 2), segment(-1, 4)], [(1,)]),
        cayley_mori_build([segment(0, 1), segment(0, 3)], [(2,)]),
        cayley_mori_build([segment(0, 1), segment(0, 2), segment(0, 2)], [(0, 1), (-2, 1)]),
        cayley_mori_build([hexagon(), big], [(1,)]),
        simplex_polytope(2, 2),
        simplex_polytope(3, 5),
    ]


def fibrations(P):
    """The fiber data of every fibering class of P's normal fan that the
    wall search of ``cayley_mori_detect`` decomposes along."""
    fan = normal_fan(P)
    tried = set()
    for wall in walls(fan):
        if wall_classification(fan, wall)[0] != 0 or wall.relation in tried:
            continue
        tried.add(wall.relation)
        try:
            data = mmp.mori_fiber_data(fan, wall)
        except MalformedFanError:
            continue
        if data.split and data.fiber_rho_one:
            yield data


def encoded(dec):
    if dec is None:
        return None
    return repr(([(b, b.irredundant) for b in dec.bases], dec.w, dec.fiber_projection,
                 dec.base_faces, dec.simplex_vertices))


def assert_matches_oracle(P, data):
    pvs = vertices(P)
    got = encoded(decomposition(P, pvs, data))
    assert got == encoded(oracle.decompose_along_fiber(P, pvs, data)), (P, data)
    return got


def tail_polytope(trace) -> FacetPresentation:
    """P^(mid) on the last interval, as the cross-validation builds it."""
    P, step = trace.initial_polytope, trace.steps[-1]
    lo = trace.critical_values[-2] if len(trace.steps) > 1 else F(0)
    mid = (lo + step.lam) / 2
    rays = step.fan_before.rays
    return FacetPresentation(P.dim, rays, tuple(
        a - mid for v, a in zip(P.normals, P.constants) if v in rays), irredundant=True)


def validated(P):
    """The forced run's trace, its cross-validation notes recorded even
    where a general run would raise."""
    trace = unvalidated(P)
    try:
        mmp._adjoint_cross_validation(trace, certificates(trace))
    except MalformedFanError:
        pass
    return trace


@pytest.fixture(scope="module")
def runs():
    """Forced traces of the Cayley inputs, the 4-fold benchmark rows and the
    adjoint-family benchmark pool."""
    polys = [P for P in cayley_inputs() if P.dim <= 3]
    polys += [sweep_polytopes()[name] for name in MMP_ROWS]
    polys += [pool_polytope(key) for key in _workloads().ADJOINT_KEYS]
    return [validated(P) for P in polys]


def test_tight_set_bases_match_hull_oracle(runs):
    found = []
    tails = [tail_polytope(t) for t in runs if "tail_is_cayley" in t.validation]
    for P in cayley_inputs() + [t.initial_polytope for t in runs] + tails:
        for data in fibrations(P):
            found.append(assert_matches_oracle(P, data))
            # the wrong section faces: each fiber ray moved to the next ray of P
            n = P.nfacets
            moved = data._replace(
                fiber_ray_origin=tuple((i + 1) % n for i in data.fiber_ray_origin))
            found.append(assert_matches_oracle(P, moved))
    assert len(tails) == len(runs) - 1  # d2-23's Mori interval has zero length
    decomposed = sum(dec is not None for dec in found)
    assert decomposed >= len(runs) and len(found) - decomposed >= len(runs)


def test_no_hull_in_detection(monkeypatch):
    inputs = cayley_inputs()  # built as hulls, before the hull is patched out
    hulls = []
    monkeypatch.setattr(polytopes, "hull_facets", lambda pts: hulls.append(pts))
    found = [cayley_mori_detect(P) for P in inputs]
    assert hulls == [] and [dec is None for dec in found] == [False, True] + [False] * 6


def test_own_fiber_verdict_matches_wall_search(runs):
    for trace in runs:
        if "tail_is_cayley" in trace.validation:
            searched = cayley_mori_detect(tail_polytope(trace)) is not None
            assert trace.validation["tail_is_cayley"] is searched


def test_sign_tested_search_matches_the_wall_search(runs, corpus_polytopes):
    # the benchmark's 40 items, the pool they are drawn from, the corpus,
    # the Cayley inputs and the tails of their forced runs
    workloads = _workloads()
    polys = [workloads.adjoint_polytope(key) for key in workloads.ADJOINT_KEYS]
    polys += [pool_polytope(key) for key in POOL_KEYS] + corpus_polytopes + cayley_inputs()
    polys += [tail_polytope(t) for t in runs if "tail_is_cayley" in t.validation]
    found = [encoded(cayley_mori_detect(P)) for P in polys]
    assert found == [encoded(oracle.cayley_mori_detect(P)) for P in polys]
    assert (len(polys), sum(dec is not None for dec in found)) == (352, 169)


def test_work_of_an_adjoint_family_pass(monkeypatch):
    # from cold caches, a seed-1 pass of adjoint-family: 1562 _pivot steps,
    # 605 walls, 111 mori_fiber_data and 39 walls lists when every double
    # description started from an elimination and cayley_mori_detect built
    # every wall of the normal fan, and 561 _pivot steps while each fiber
    # ray's coordinates took a solve_linear (the Smith form's rows give them)
    make_items, run_item, _ = _workloads().WORKLOADS["adjoint-family"]
    items = make_items(1)
    pivots = count_calls(monkeypatch, "_pivot", linalg)
    built = count_calls(monkeypatch, "_wall", fans, mmp)
    fibers = count_calls(monkeypatch, "mori_fiber_data", fans, mmp)
    cold_caches()
    for _, P in items:
        try:
            run_item(P)
        except MalformedFanError:  # d3-76, pinned in the benchmark's reference
            pass
    work = (len(pivots), len(built), len(fibers), fans.walls.cache_info().misses)
    assert work == (333, 314, 98, 0)


def test_search_reads_each_relation_once(monkeypatch):
    # over the pool, from cold caches, the search reads each wall's relation
    # once and builds the wall from it: 1727 reads, 2280 when the wall read
    # its relation again
    polys = [pool_polytope(key) for key in POOL_KEYS]
    relations = count_calls(monkeypatch, "_relation", fans)
    cold_caches()
    for P in polys:
        cayley_mori_detect(P)
    assert len(relations) == 1727


def test_tail_with_a_fiber_of_picard_rank_two():
    # three classes vanish at 7/2 and the forced run contracts to a fiber
    # of Picard rank two; another fibration makes the tail a Cayley sum,
    # but not the run's own
    P = FacetPresentation(
        3, ((0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (1, 1, 1), (0, -1, -1)),
        (3, 3, 4, 4, 5, F(9, 2)), irredundant=True)
    trace = validated(P)
    assert trace.generality_flag and not trace.steps[-1].fiber_data.fiber_rho_one
    assert trace.validation["tail_is_cayley"] is False
    assert cayley_mori_detect(tail_polytope(trace)) is not None


# a square tail fibred over y: divisorial at 1/2, fibering at 1
FIRST = blowup_polytope((2, 1, 2, 1, F(5, 2)))


@pytest.mark.parametrize("change", [
    {"fiber_basis": ((1, 0),)},            # the projection of the other ruling
    {"fiber_ray_origin": (2, 0)},          # the sections x = 0 and x = 1
    {"split": False},
])
def test_doctored_fiber_data_fails_the_tail(change):
    trace = unvalidated(FIRST)
    step = trace.steps[-1]
    assert (step.fiber_data.fiber_basis, step.fiber_data.fiber_ray_origin) == (((0, 1),), (1, 3))
    bad = trace._replace(steps=trace.steps[:-1] + [
        step._replace(fiber_data=step.fiber_data._replace(**change))])
    for check in (cross_validation, mmp_oracle._adjoint_cross_validation):
        assert dict(outcome(check, trace)[0])["tail_is_cayley"] is True
        assert dict(outcome(check, bad)[0])["tail_is_cayley"] is False


def test_vertices_off_the_sections_give_none():
    # the hexagon's edges y = -1 and y = 1 each map to one point under y,
    # but two vertices lie at y = 0, off the simplex's vertices
    P = hexagon()
    data = SimpleNamespace(split=True, fiber_rho_one=True, fiber_basis=((0, 1),),
                           projection=((1, 0),),
                           fiber_fan=Fan(1, ((1,), (-1,)), ((0,), (1,))),
                           fiber_ray_origin=(P.normals.index((0, 1)), P.normals.index((0, -1))))
    assert assert_matches_oracle(P, data) is None


def test_sections_on_a_smaller_flat_give_none():
    # the unit cube's vertices on one facet x_a = 0 only: along each
    # fibration the two section faces are then parallel edges, whose tight
    # sets give the same fan, but they lie on lines, not on planes spanning
    # the kernel
    P = FacetPresentation(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
                              (0, 0, -1)), (0, 0, 0, 1, 1, 1), irredundant=True)
    pvs = vertices(P)
    found = 0
    for data in fibrations(P):
        c = next(i for i, x in enumerate(data.fiber_basis[0]) if x)
        a = min({0, 1, 2} - {c})
        edges = polytopes.VertexSet(*zip(*[((y, d), t) for (y, d), t in zip(pvs.points, pvs.tight)
                                           if y[a] == 0]))
        assert polytopes._decompose_along_fiber(P, edges, data) is None
        assert oracle.decompose_along_fiber(P, edges, data) is None
        found += 1
    assert found == 3


def cut_cube(size, cut) -> tuple:
    """The vertices of [0, size]^3 cut by x + y + z >= cut."""
    P = FacetPresentation(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
                              (0, 0, -1), (1, 1, 1)), (0, 0, 0, size, size, size, -cut))
    return vertices(P).vertices


@pytest.mark.parametrize("top, same_fan", [((4, 2), True), ((2, 3), False)])
def test_bases_with_different_fans_give_none(top, same_fan):
    # conv(B0 x 0, B1 x 1) for the cube [0, 2]^3 cut at a corner (B0) and a
    # dilate of it, or the same cube cut in a hexagon: the same seven base
    # normals, and a different normal fan in the second case
    bottom = [v + (0,) for v in cut_cube(2, 1)]
    upper = [v + (1,) for v in cut_cube(*top)]
    P = facet_presentation_from_vertices(bottom + upper)
    basis = ((0, 0, 0, 1),)
    data = SimpleNamespace(
        split=True, fiber_rho_one=True, projection=tuple(integer_kernel_basis(basis)),
        fiber_fan=Fan(1, ((1,), (-1,)), ((0,), (1,))), fiber_basis=basis,
        fiber_ray_origin=(P.normals.index((0, 0, 0, 1)), P.normals.index((0, 0, 0, -1))))
    dec = assert_matches_oracle(P, data)
    assert (dec is not None) is same_fan
