"""The LPs of ``toriq.linalg``, read off the extreme rays of a homogenized
cone, agree in status and value with the ``Fraction`` simplex and its
standard-form encodings in ``linalg_oracle``, and return points that certify
their values; boundedness, read off the extreme rays of the homogenized cone
without an LP, agrees with the 2n-LP test in ``polytope_oracle``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle
import polytope_oracle
from toriq import linalg, polytopes
from toriq.linalg import dot, lp_min, lp_standard, matrix_rank, nonneg_solve, primitive_part
from toriq.polytopes import FacetPresentation, UnboundedError
from conftest import hexagon
from helpers import count_lps

entries = st.one_of(st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4))))


@st.composite
def programs(draw):
    """(c, A, b) with m = 0-5 rows over n = 1-6 columns.  Some rows are
    integer combinations of earlier ones, and b is either A times a
    nonnegative point (consistent) or drawn freely, so dependent rows with
    inconsistent and negative right-hand sides are common."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    A = []
    for _ in range(m):
        if A and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(A), max_size=len(A)))
            A.append([sum(k * row[j] for k, row in zip(coeffs, A)) for j in range(n)])
        else:
            A.append(draw(st.lists(entries, min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        b = [sum(a * t for a, t in zip(row, y)) for row in A]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return draw(st.lists(entries, min_size=n, max_size=n)), A, b


@st.composite
def spanless_programs(draw):
    """(c, A, b) whose rows have rank below n = 1-4, so ``lp_min``'s normals
    do not span: m = 0-5 integer combinations of r < n drawn vectors, so
    no rows at all is common, and c either such a combination (orthogonal
    to the kernel, so ``lp_min`` can have a finite optimum) or drawn
    freely."""
    n = draw(st.integers(1, 4))
    basis = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n - 1))

    def combination():
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        return [sum((k * v[j] for k, v in zip(coeffs, basis)), Fraction(0)) for j in range(n)]

    A = [combination() for _ in range(draw(st.integers(0, 5)))]
    b = draw(st.lists(entries, min_size=len(A), max_size=len(A)))
    c = combination() if draw(st.booleans()) else draw(st.lists(entries, min_size=n, max_size=n))
    return c, A, b


def same(got, expect):
    """Equal values and equal types, entry by entry."""
    assert got == expect
    if isinstance(expect, (tuple, list)):
        for g, e in zip(got, expect):
            same(g, e)
    else:
        assert type(got) is type(expect)


def exact(point) -> bool:
    return type(point) is tuple and all(type(x) is Fraction for x in point)


@given(st.one_of(programs(), spanless_programs()))
@example(([1], [], []))
@example(([0, 0], [[1, 0], [-1, 0]], [-1, 0]))
# a degenerate phase 1 whose ratio test ties: the oracle's Bland's rule and
# the extreme rays may reach different points of the same optimal value
@example(([0] * 5, [[0, 2, 1, -1, 0], [0, 0, 1, 2, 0], [2, 1, 2, 2, -1]], [0, 2, 0]))
@settings(max_examples=400, deadline=None)
def test_lp_matches_fraction_oracle(program):
    # status and value are exact; an optimal point certifies the value:
    # it satisfies every constraint exactly and attains the value
    c, A, b = program
    res, expect = lp_standard(c, A, b), linalg_oracle.lp_standard(c, A, b)
    same((res.status, res.value), (expect.status, expect.value))
    if res.status == "optimal":
        y = res.point
        assert exact(y) and all(x >= 0 for x in y)
        assert all(dot(row, y) == bi for row, bi in zip(A, b)) and dot(c, y) == res.value
    res, expect = lp_min(c, A, b), linalg_oracle.lp_min(c, A, b)
    same((res.status, res.value), (expect.status, expect.value))
    if res.status == "optimal":
        x = res.point
        assert exact(x) and all(dot(row, x) >= -bi for row, bi in zip(A, b))
        assert dot(c, x) == res.value
    columns = [[row[j] for row in A] for j in range(len(c))]
    got, expect = nonneg_solve(columns, b), linalg_oracle.nonneg_solve(columns, b)
    assert (got is None) is (expect is None)
    if got is not None:
        assert exact(got) and all(x >= 0 for x in got)
        assert all(sum(x * col[i] for x, col in zip(got, columns)) == bi for i, bi in enumerate(b))


vectors = st.integers(1, 4).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any).map(tuple),
        max_size=7)))


@st.composite
def normal_lists(draw):
    """Normals that positively span (a list closed by minus its sum), that
    lie in a closed half-space, that lie in a proper subspace, or any."""
    dim, vs = draw(vectors)
    kind = draw(st.sampled_from(("spanning", "half-space", "rank-deficient", "any")))
    minus_sum = tuple(-sum(col) for col in zip(*vs))
    if kind == "spanning" and any(minus_sum):
        vs = vs + [minus_sum]
    elif kind == "half-space":
        u = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        vs = [v if linalg.dot(u, v) >= 0 else tuple(-x for x in v) for v in vs]
    elif kind == "rank-deficient" and vs:
        k = draw(st.integers(0, dim - 1))
        vs = [tuple(x if j < k else 0 for j, x in enumerate(v)) for v in vs]
        vs = [v for v in vs if any(v)]
    return dim, tuple(vs)


@given(normal_lists())
@settings(max_examples=300, deadline=None)
def test_positively_spanning_matches_per_direction_oracle(case):
    # with every constant 1 the origin is interior, so P is bounded exactly
    # when its normals positively span
    dim, normals = case
    normals = tuple(dict.fromkeys(map(primitive_part, normals)))
    try:
        bounded = bool(polytopes.vertices.__wrapped__(
            FacetPresentation(dim, normals, (1,) * len(normals))))
    except UnboundedError:
        bounded = False
    assert bounded is polytope_oracle._positively_spanning(dim, normals)


def test_cold_boundedness_check_solves_no_lp(monkeypatch):
    # bounded or not, normals that span decide it from the extreme rays
    # (one rank and one LP per normal list before)
    P = hexagon()
    calls = count_lps(monkeypatch)
    polytopes.vertices.cache_clear()
    assert len(polytopes.vertices(P).points) == 6
    with pytest.raises(UnboundedError):
        polytopes.vertices(FacetPresentation(2, P.normals[:3], P.constants[:3]))
    assert len(calls) == 0


def test_double_description_pivots_only_integer_rows(monkeypatch):
    # rank and LP share the pivot step, and every step, like the adjugate
    # that seeds the double description, sees all-integer rows: no Fraction
    # inside a pivot
    seen = []
    step, seed = linalg._pivot, linalg.adjugate

    def counted(rows, r, col, prev):
        seen.append(("pivot", all(type(x) is int for row in rows for x in row)))
        return step(rows, r, col, prev)

    def seeded(M):
        seen.append(("adjugate", all(type(x) is int for row in M for x in row)))
        return seed(M)

    monkeypatch.setattr(linalg, "_pivot", counted)
    monkeypatch.setattr(linalg, "adjugate", seeded)
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert seen == [("pivot", True)] * 2
    seen.clear()
    # x >= -1/2 and 2x >= -1 scale to the rows (2, 0, 1) and (4, 0, 2): the
    # leading 3 rows are dependent, so the 3 x 3 cofactor adjugate finds
    # them singular and the elimination of the transposed rows runs
    res = lp_min([1, 1], [(1, 0), (2, 0), (0, 1), (-1, -1)], [Fraction(1, 2), 1, 0, 3])
    assert (res.status, res.value, res.point) == (
        "optimal", Fraction(-1, 2), (Fraction(-1, 2), Fraction(0)))
    assert seen == [("adjugate", True)] + [("pivot", True)] * 3
