"""Vertex sets hold integer points: numerators over one positive denominator
per vertex, in lowest terms.  Enumeration, the core's projection, the hull
and the Cayley decomposition run on those integers, and agree exactly with
the ``Fraction`` bodies they replaced (kept in ``polytope_oracle`` and
``linalg_oracle``): on everything the forced seed-1 sweep of the 67 rows
and all 240 pool entries ask, in dimension 0, and on Hypothesis
presentations that are non-simple (here) or lower-dimensional, empty or
unbounded (those of ``test_redundancy``), errors included.  The
``Fraction``s a benchmark pass builds, and the wall lists it computes, are
pinned as work counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
import polytope_oracle as oracle
from helpers import cold_caches, count_calls, count_fractions, decomposition
from test_adjoint_certificate import pool_polytope
from test_certified_run import POOL_KEYS, runs  # noqa: F401 (the fixture)
from test_circuit_replacement import _workloads
from test_redundancy import assert_vertices_match
from toriq import fans, polytopes
from toriq.fans import MalformedFanError
from toriq.linalg import hull_facets, primitive_part
from toriq.polytopes import FacetPresentation, VertexSet, effective_threshold, vertices

F = Fraction


def test_vertex_sets_equal_the_fraction_oracle(runs):
    for P, _ in set(runs["asked"]):
        assert_vertices_match(P)
    # the certified vertex sets of the runs' tails too
    for P, pvs in runs["tails"]:
        assert (pvs.vertices, pvs.tight) == oracle.vertices_over_fractions(P)


def test_cores_equal_the_fraction_oracle(runs):
    for trace in runs["traces"]:
        P, cp = trace.initial_polytope, trace.core_projection
        expected = oracle.core_over_fractions(P, trace.effective_threshold, None)
        assert cp == expected and cp.Q.normals == expected.Q.normals


def test_hulls_equal_the_fraction_oracle(runs):
    # each hull is Q's, on P's projected vertices over their common denominator
    for points in runs["hulls"]:
        assert all(type(x) is int for p in points for x in p)
        assert hull_facets(points) == linalg_oracle.hull_facets_over_fractions(points)


def test_decompositions_equal_the_fraction_oracle(runs, monkeypatch):
    # the runs' tails, and every fibration cayley_mori_detect tries on the pool
    calls = count_calls(monkeypatch, "_decompose_along_fiber", polytopes)
    for key in POOL_KEYS:
        polytopes.cayley_mori_detect(pool_polytope(key))
    asked = calls[:]
    tails = [(P, pvs, data) for (P, pvs), data in zip(runs["tails"], runs["fibers"])]
    found = 0
    for P, pvs, data in tails + asked:
        got = decomposition(P, pvs, data)
        assert got == oracle.decompose_over_fractions(P, pvs, data)
        found += got is not None
    # 289 asked when every fibering class reached the decomposition; 71
    # of them had a fiber of Picard rank above one, which gives None at once
    assert (len(tails), len(asked), found) == (305, 218, 391)


@st.composite
def non_simple(draw):
    """A box in dimension 2 or 3 with rational bounds, cut through one or
    two of its corners by the sum of two or more box normals tight there, in
    any order of the inequalities: the corner is then a vertex on more than
    dim inequalities, reached by several n-subsets."""
    dim = draw(st.integers(2, 3))
    rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    width = st.builds(Fraction, st.integers(1, 3), st.sampled_from((1, 2)))
    lo = [draw(rational) for _ in range(dim)]
    hi = [a + draw(width) for a in lo]
    ineqs = {}
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        ineqs[e], ineqs[tuple(-x for x in e)] = -lo[i], hi[i]
    for _ in range(draw(st.integers(1, 2))):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
        corner = [a if s > 0 else b for s, a, b in zip(signs, lo, hi)]
        chosen = draw(st.sets(st.integers(0, dim - 1), min_size=2))
        w = primitive_part(tuple(s if i in chosen else 0 for i, s in enumerate(signs)))
        ineqs.setdefault(w, -sum(a * c for a, c in zip(w, corner)))
    order = draw(st.permutations(list(ineqs)))
    return FacetPresentation(dim, tuple(order), tuple(ineqs[v] for v in order))


@given(non_simple())
@settings(max_examples=200, deadline=None)
def test_non_simple_vertices_match_oracle(P):
    assert any(len(t) > P.dim for t in vertices(P).tight)
    assert_vertices_match(P)
    assert polytopes._core_and_projection(P, effective_threshold(P), None) == (
        oracle.core_over_fractions(P, effective_threshold(P), None))


def test_vertex_sets_sort_and_compare_by_value():
    # one point in lowest terms however it was found, sorted by value, which
    # is not the order of the (numerators, denominator) pairs
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (F(1, 2), F(1), F(1, 3)))
    vs = vertices(P)
    assert vs.points == (((-1, -2), 2), ((-3, 5), 6), ((4, -3), 3))
    assert sorted(vs.points) != list(vs.points)
    assert vs.vertices == ((F(-1, 2), F(-1)), (F(-1, 2), F(5, 6)), (F(4, 3), F(-1)))
    assert vs == polytopes._vertex_set(dict(reversed(list(zip(vs.points, vs.tight)))))
    assert vertices(FacetPresentation(0, (), ())) == VertexSet((((), 1),), ((),))
    assert_vertices_match(FacetPresentation(0, (), ()))


def test_fraction_work_of_a_benchmark_pass(monkeypatch):
    # from cold caches, a seed-1 pass of mmp-4fold and one of adjoint-family;
    # with a Fraction per vertex coordinate they built 10613 and 26445, with
    # a Fraction per LP tableau entry 2215 and 13239 (linalg 1214 and 9709),
    # and with a boundedness LP per normal list and Fraction points in the
    # tail's decomposition 1239 and 4869 (linalg 238 and 1339, polytopes 877
    # and 2924)
    workloads = _workloads()
    counts = count_fractions(monkeypatch)
    passes, work = [], []
    for name in ("mmp-4fold", "adjoint-family"):
        make_items, run_item, _ = workloads.WORKLOADS[name]
        items = make_items(1)
        cold_caches()
        counts.clear()
        for _, item in items:
            try:
                run_item(item)
            except MalformedFanError:  # the pinned failures
                pass
        passes.append(dict(counts))
        work.append(fans.walls.cache_info().misses)
    # with each critical value from the wall ratio of every wall, not the
    # slack rows, intersection 38, polytopes 365 and mmp 86 on mmp-4fold,
    # and fans 212, intersection 125, polytopes 2176 and mmp 269 on
    # adjoint-family (3877 in all); the slack-row scan lives in polytopes.
    # linalg built 1095 on adjoint-family when its 40 LPs ran the simplex,
    # and builds each optimum's value and point only now.  linalg 633 and
    # fans 168 on adjoint-family when ``cayley_mori_detect`` built every
    # wall and ran ``mori_fiber_data`` on every fibering class; linalg 110
    # and 507 when each fiber ray's coordinates took a ``solve_linear``;
    # fans 70 on adjoint-family when a wall of a non-smooth fan with scale 1
    # built its own Fraction instead of sharing ``ONE``; polytopes 2301 on
    # adjoint-family when each run's first critical value scan repeated the
    # nef threshold's, one Fraction for each of the 40 items
    assert passes == [
        {"toriq.linalg": 26, "toriq.polytopes": 403, "toriq.mmp": 86},
        {"toriq.linalg": 279, "toriq.fans": 38, "toriq.polytopes": 2261, "toriq.mmp": 269},
    ]
    # walls lists computed: no critical value search computes them, and
    # ``cayley_mori_detect`` sign-tests each wall from its cone's adjugate
    # (0 and 39 when it searched ``fans.walls``, 38 and 75 when each run
    # step searched them too)
    assert work == [0, 0]
