"""The fraction-free elimination behind ``toriq.linalg`` agrees exactly with
the ``Fraction`` Gauss-Jordan oracle in ``linalg_oracle``, the hull read off
the polar agrees with the oracle's brute-force hull, and the hull, vertex,
face-fan and redundancy code run the elimination only where it is needed."""

from fractions import Fraction
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from toriq import linalg
from toriq.linalg import (
    _eliminate,
    adjugate,
    hull_facets,
    kernel_basis,
    matrix_rank,
    solve_linear,
)
from toriq.fans import face_fan
from toriq.polytopes import FacetPresentation, remove_redundant, vertices

F = Fraction
entries = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def matrices(draw, entry):
    """Rectangular matrices, some of whose rows are integer combinations of
    earlier ones, so rank-deficient inputs are common."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return rows


def same(got, expect):
    """Equal values and equal types, entry by entry."""
    assert got == expect
    if isinstance(expect, (tuple, list)):
        for g, e in zip(got, expect):
            same(g, e)
    else:
        assert type(got) is type(expect)


@given(st.one_of(matrices(entries), matrices(rationals)), st.data())
@settings(max_examples=400)
def test_matches_fraction_oracle(M, data):
    same(matrix_rank(M), oracle.matrix_rank(M))
    same(kernel_basis(M), oracle.kernel_basis(M))
    n = len(M[0])
    x = data.draw(st.lists(rationals, min_size=n, max_size=n))
    consistent = [sum(a * b for a, b in zip(row, x)) for row in M]
    arbitrary = data.draw(st.lists(rationals, min_size=len(M), max_size=len(M)))
    for b in (consistent, arbitrary):
        same(solve_linear(M, b), oracle.solve_linear(M, b))


@given(st.integers(1, 5).flatmap(lambda n: matrices(entries).filter(
    lambda M: len(M) == len(M[0]))))
@settings(max_examples=300)
def test_adjugate_matches_bareiss_oracle(M):
    same(adjugate(M), oracle.adjugate(M))


@given(matrices(entries))
@settings(max_examples=300)
def test_rows_are_d_times_rref(M):
    rows = [list(row) for row in M]
    pivots, d, sign = _eliminate(rows, len(M[0]))
    ref = [[F(x) for x in row] for row in M]
    assert pivots == oracle._rref(ref, len(M[0]))
    assert sign in (1, -1) and d != 0
    assert all(type(x) is int for row in rows for x in row)
    for i in range(len(pivots)):
        assert rows[i] == [d * x for x in ref[i]]
    assert all(not any(row) for row in rows[len(pivots):])


@st.composite
def hull_inputs(draw):
    """Point sets spanning R^d, d = 1..4, with duplicates, interior points
    (the centroid, midpoints) and points on a ray from the centroid mixed
    in, in any order."""
    d = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    assume(oracle.affine_rank(pts) == d)
    c = tuple(sum(col) / len(pts) for col in zip(*pts))
    index = st.integers(0, len(pts) - 1)
    for kind, i, j, t in draw(st.lists(st.tuples(
            st.sampled_from(("duplicate", "centroid", "midpoint", "ray")), index, index,
            st.sampled_from((F(1, 2), F(3, 2), F(2)))), max_size=3)):
        p, q = pts[i], pts[j]
        if kind == "duplicate":
            pts.append(p)
        elif kind == "centroid":
            pts.append(c)
        elif kind == "midpoint":
            pts.append(tuple((a + b) / 2 for a, b in zip(p, q)))
        else:
            pts.append(tuple(ci + t * (pi - ci) for ci, pi in zip(c, p)))
    return draw(st.permutations(pts))


@given(hull_inputs())
@settings(max_examples=300, deadline=None)
def test_hull_matches_reference(pts):
    assert hull_facets(pts) == oracle.hull_facets(pts)


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(linalg, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def cube_vertices(n):
    return [tuple(int(c) for c in f"{k:0{n}b}") for k in range(2**n)]


def test_hull_runs_one_rank(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_rank")
    assert len(hull_facets(cube_vertices(3))) == 6
    assert len(calls) == 1  # the full-dimensionality check, none per subset


def test_remove_redundant_runs_one_rank(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_rank")
    # the unit square, with x + y >= 0 and 2x + y >= 0 both tight at the
    # origin only, and x - y >= -5 tight nowhere
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 1), (1, -1)),
                          (0, 0, 1, 1, 0, 0, 5))
    Q, removed = remove_redundant(P)
    assert removed == (4, 5, 6) and Q.nfacets == 4
    assert len(calls) == 1


def test_hull_work_is_one_adjugate_per_subset(monkeypatch):
    adjugates = count_calls(monkeypatch, "adjugate")
    kernels = count_calls(monkeypatch, "kernel_basis")
    lps = count_calls(monkeypatch, "lp_standard")
    assert len(hull_facets(cube_vertices(4))) == 8
    assert (len(adjugates), len(kernels), len(lps)) == (comb(16, 4), 0, 0)


def test_vertices_work_is_one_adjugate_per_subset(monkeypatch):
    adjugates = count_calls(monkeypatch, "adjugate")
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    cube = FacetPresentation(4, tuple(units) + tuple(tuple(-x for x in u) for u in units),
                             (0,) * 4 + (1,) * 4)
    vertices.cache_clear()
    assert len(vertices(cube).vertices) == 16
    assert len(adjugates) == comb(8, 4)


def test_face_fan_work_is_one_adjugate_per_subset(monkeypatch):
    adjugates = count_calls(monkeypatch, "adjugate")
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    fan = face_fan(units + [tuple(-x for x in u) for u in units])
    assert len(fan.max_cones) == 16
    assert len(adjugates) == comb(8, 4)
