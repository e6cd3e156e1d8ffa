"""The fraction-free elimination behind ``toriq.linalg`` agrees exactly with
the ``Fraction`` Gauss-Jordan oracle in ``linalg_oracle``, and the hull and
redundancy code run the elimination only where it is needed."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from toriq import linalg
from toriq.linalg import (
    _eliminate,
    adjugate,
    dot,
    hull_facets,
    kernel_basis,
    matrix_rank,
    scale_to_primitive,
    solve_linear,
    vec_sub,
)
from toriq.polytopes import FacetPresentation, remove_redundant

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


def reference_hull(pts):
    """The d-subset hull with the rank test before each kernel, over the
    oracle's elimination."""
    d = len(pts[0])
    found = set()
    for subset in combinations(range(len(pts)), d):
        base = pts[subset[0]]
        diffs = [vec_sub(pts[i], base) for i in subset[1:]]
        if oracle.matrix_rank(diffs) != d - 1:
            continue
        normal = scale_to_primitive(oracle.kernel_basis(diffs)[0])
        level = dot(normal, base)
        vals = [dot(normal, p) for p in pts]
        if all(v >= level for v in vals):
            found.add((normal, -level))
        elif all(v <= level for v in vals):
            found.add((tuple(-x for x in normal), level))
    return sorted(found)


@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))] * d),
    min_size=d + 1, max_size=d + 4, unique=True)))
@settings(max_examples=150)
def test_hull_matches_reference(pts):
    if oracle.matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == len(pts[0]):
        assert hull_facets(pts) == reference_hull(pts)


def count_ranks(monkeypatch):
    calls = []
    rank = linalg.matrix_rank

    def counted(M):
        calls.append(M)
        return rank(M)

    monkeypatch.setattr(linalg, "matrix_rank", counted)
    return calls


def test_hull_runs_one_rank(monkeypatch):
    calls = count_ranks(monkeypatch)
    cube = [tuple(int(c) for c in f"{k:03b}") for k in range(8)]
    assert len(hull_facets(cube)) == 6
    assert len(calls) == 1  # the full-dimensionality check, none per subset


def test_remove_redundant_runs_one_rank(monkeypatch):
    calls = count_ranks(monkeypatch)
    # the unit square, with x + y >= 0 and 2x + y >= 0 both tight at the
    # origin only, and x - y >= -5 tight nowhere
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 1), (1, -1)),
                          (0, 0, 1, 1, 0, 0, 5))
    Q, removed = remove_redundant(P)
    assert removed == (4, 5, 6) and Q.nfacets == 4
    assert len(calls) == 1
