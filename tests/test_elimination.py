"""The fraction-free elimination behind ``toriq.linalg`` agrees exactly with
the ``Fraction`` Gauss-Jordan oracle in ``linalg_oracle``, the hull read off
the polar agrees with the oracle's brute-force hull and with the polar hull
it ran over ``Fraction``s before it scaled the points once, the double
description's extreme rays agree with a brute-force search and, in order,
with its elimination-only start in the oracle, and vertices,
hull facets and face fans agree with the walk over the n-subsets of the
rows kept in the oracles, which itself agrees with one adjugate per subset
and finds the brute-force extreme rays;
the hull, vertex, face-fan and redundancy code run the elimination only
where it is needed."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
import polytope_oracle
from helpers import cold_caches, count_calls, count_lps, mat_mul
from test_adjoint_certificate import sweep_polytopes
from test_circuit_replacement import _workloads
from test_integer_points import non_simple
from test_redundancy import presentations, vertex_outcome
from toriq import linalg, mmp, polytopes
from toriq.fano_table import load_builtin_table
from toriq.linalg import (
    DimensionError,
    _eliminate,
    adjugate,
    hull_facets,
    kernel_basis,
    matrix_rank,
    primitive_part,
    solve_linear,
)
from toriq.fans import MalformedFanError, face_fan
from toriq.mmp import run_mmp_scaling
from toriq.polytopes import FacetPresentation, remove_redundant, vertices

F = Fraction
entries = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def matrices(draw, entry, square=False):
    """Rectangular matrices (n x n ones, n = 1..6, when ``square``), some of
    whose rows are integer combinations of earlier ones, so rank-deficient
    inputs are common."""
    if square:
        m = n = draw(st.integers(1, 6))
    else:
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


# n = 1..6 falls on both sides of the switch from cofactors (n <= 4) to
# elimination; entries up to 2^64 in size
@given(st.sampled_from((entries, st.integers(-2 ** 64, 2 ** 64))).flatmap(
    lambda entry: matrices(entry, square=True)))
@settings(max_examples=600)
def test_adjugate_matches_bareiss_oracle(M):
    same(adjugate(M), oracle.adjugate(M))


@pytest.mark.parametrize("n", range(6))
def test_adjugate_edge_cases(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    same(adjugate(identity), (tuple(map(tuple, identity)), 1))
    if n > 1:
        same(adjugate([[(i + 1) * (j + 2) for j in range(n)] for i in range(n)]), (None, 0))
    if n:
        same(adjugate([row[:-1] + [0] for row in identity]), (None, 0))
        with pytest.raises(DimensionError):
            adjugate(identity[:-1] + [identity[-1] + [0]])
        with pytest.raises(DimensionError):
            adjugate([row + [0] for row in identity])
        with pytest.raises(TypeError):
            adjugate(identity[:-1] + [identity[-1][:-1] + [1.0]])
    else:
        assert adjugate([]) == ((), 1)
    with pytest.raises(DimensionError):
        adjugate(identity + [[0] * n])


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
    assert hull_facets(pts) == oracle.hull_facets(pts) == oracle.hull_facets_over_fractions(pts)


@st.composite
def flat_point_sets(draw):
    """Point sets in R^d, d = 1..4, that lie on a proper flat three times in
    five: repeats of two points, points on the line through two, or points
    whose last coordinate is an affine function of the others."""
    d = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3))
    kind = draw(st.sampled_from(("any", "any", "repeated", "line", "hyperplane")))
    if kind == "repeated":
        pts = draw(st.lists(st.sampled_from(pts[:2]), min_size=1, max_size=d + 3))
    elif kind == "line":
        p, q = pts[0], pts[-1]
        pts = [tuple(a + t * (b - a) for a, b in zip(p, q))
               for t in draw(st.lists(coord, min_size=1, max_size=d + 3))]
    elif kind == "hyperplane":
        c = draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
        b = draw(coord)
        pts = [p[:-1] + (sum(ci * x for ci, x in zip(c, p)) + b,) for p in pts]
    return pts


def hull_outcome(hull, pts):
    try:
        return hull(pts)
    except ValueError as err:
        return str(err)


@given(flat_point_sets())
@settings(max_examples=300, deadline=None)
def test_hull_refuses_exactly_when_oracle_rank_is_low(pts):
    got = hull_outcome(hull_facets, pts)
    assert got == hull_outcome(oracle.hull_facets, pts)
    assert got == hull_outcome(oracle.hull_facets_over_fractions, pts)
    spans = oracle.affine_rank(pts) == len(pts[0])
    assert (got == "points do not span the ambient space") is not spans


def cube_vertices(n):
    return [tuple(int(c) for c in f"{k:0{n}b}") for k in range(2**n)]


def test_hull_runs_no_rank(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_rank", linalg)
    assert len(hull_facets(cube_vertices(3))) == 6
    assert len(calls) == 0  # the points span because the polar has a vertex


def test_remove_redundant_runs_no_rank(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_rank", linalg)
    # the unit square, with x + y >= 0 and 2x + y >= 0 both tight at the
    # origin only, and x - y >= -5 tight nowhere
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 1), (1, -1)),
                          (0, 0, 1, 1, 0, 0, 5))
    Q, removed = remove_redundant(P)
    assert removed == (4, 5, 6) and Q.nfacets == 4
    assert len(calls) == 0  # full-dimensional because no inequality is tight everywhere


def cube_facets(n):
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return units + [tuple(-x for x in u) for u in units]


# The double description starts from the adjugate of the leading k rows,
# one call of ``adjugate`` (for k = 5, here, the elimination of [B | I], 5
# _pivot steps); only when those rows are dependent does it run one
# elimination of the transposed rows next to I, which picks k independent
# rows and inverts them.  Every further row costs dot products and bitmask
# tests, and no _pivot step.

def test_hull_work_is_one_shared_elimination(monkeypatch):
    pivots = count_calls(monkeypatch, "_pivot", linalg)
    adjugates = count_calls(monkeypatch, "adjugate", linalg)
    kernels = count_calls(monkeypatch, "kernel_basis", linalg)
    lps = count_lps(monkeypatch)
    cold_caches()
    assert len(hull_facets(cube_vertices(4))) == 8
    # the leading rows are the first five vertices, four of them on the
    # face x_1 = x_2 = 0, so dependent: 4 for the adjugate that finds them
    # singular and 5 for the transposed rows (5 and no adjugate when the
    # start was always the elimination, 1390 for the walk over the 16 rows
    # of the polar)
    assert (len(pivots), len(adjugates), len(kernels), len(lps)) == (9, 1, 0, 0)


def test_vertices_work_is_one_shared_elimination(monkeypatch):
    pivots = count_calls(monkeypatch, "_pivot", linalg)
    adjugates = count_calls(monkeypatch, "adjugate", linalg)
    lps = count_lps(monkeypatch)
    cube = FacetPresentation(4, tuple(cube_facets(4)), (0,) * 4 + (1,) * 4)
    cold_caches()
    assert len(vertices(cube).vertices) == 16
    # 5 for the adjugate of the leading rows and no boundedness LP (5 and
    # no adjugate for the transposed rows before the start was seeded; 62:
    # 8 for a rank and an LP, 54 for the walk over the 8 facets)
    assert (len(pivots), len(adjugates), len(lps)) == (5, 1, 0)


def test_face_fan_work_is_one_shared_elimination(monkeypatch):
    pivots = count_calls(monkeypatch, "_pivot", linalg)
    adjugates = count_calls(monkeypatch, "adjugate", linalg)
    cold_caches()
    fan = face_fan(cube_facets(4))
    assert len(fan.max_cones) == 16
    # 5 for the adjugate that seeds the double description (5 and no
    # adjugate for the transposed rows before); the 16 cones' adjugates that
    # validate reads through its own import are 4 x 4 cofactors, with no
    # _pivot step (69 when they took 4 each, 118 with 54 for the walk)
    assert (len(pivots), len(adjugates)) == (5, 1)


def test_no_fraction_row_is_reintegerised(monkeypatch):
    # from cold caches, over the forced seed-1 sweep of the 67 explicit rows
    # and over the 40 adjoint-family items: every row that reaches
    # _integer_row is already integral (2027 and 1666 rational rows were
    # re-integerised when dimensions were the affine rank of the vertices)
    rows = count_calls(monkeypatch, "_integer_row", linalg)
    workloads = _workloads()
    passes = [[lambda P=P: run_mmp_scaling(P, force=True) for P in sweep_polytopes().values()],
              [lambda key=key: workloads.run_adjoint_item(workloads.adjoint_polytope(key))
               for key in workloads.ADJOINT_KEYS]]
    counts = []
    for runs in passes:
        cold_caches()
        rows.clear()
        for run in runs:
            try:
                run()
            except MalformedFanError:  # the known failures, pinned elsewhere
                pass
        counts.append(sum(not all(type(x) is int for x in row) for row, in rows))
    assert counts == [0, 0]


@st.composite
def systems(draw):
    """Integer systems rows·y >= rhs with n <= 4 unknowns and m <= 9 rows.
    Rows repeat, negate or combine earlier ones, so prefixes are often
    dependent; many rows are tight at a drawn point x, so vertices are often
    degenerate, and a row tight at x next to its negation makes the feasible
    set lower-dimensional."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("new", "repeat", "negate", "combine"))) if rows else "new"
        if kind == "new":
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
        elif kind == "combine":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)))
        else:
            r = draw(st.sampled_from(rows))
            rows.append(r if kind == "repeat" else tuple(-a for a in r))
    x = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    slack = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, -1)), min_size=m, max_size=m))
    return rows, [sum(a * b for a, b in zip(r, x)) - s for r, s in zip(rows, slack)]


def vertex_solutions(rows, rhs):
    """The walk oracle's solutions on a walk of its own over the rows."""
    return oracle.basis_solutions(rows, rhs, oracle.bases(rows))


def solutions(kernel, rows, rhs):
    """The kernel's (y, d, slack) as a multiset; both kernels give d = |det|
    of the subset, so equal vertices come with equal integers."""
    return Counter((tuple(y), d, tuple(slack)) for y, d, slack in kernel(rows, rhs))


@given(systems())
@settings(max_examples=500, deadline=None)
def test_vertex_solutions_match_adjugate_oracle(system):
    assert solutions(vertex_solutions, *system) == solutions(oracle._vertex_solutions, *system)


@given(systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_table_solutions_match_the_tree_walk(system, data):
    # one list of bases serves two right-hand sides, each with the sequence
    # of the walk over [rows | rhs]
    rows, rhs = system
    other = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    bases = list(oracle.bases(rows))
    for b in (rhs, other):
        assert list(oracle.basis_solutions(rows, b, bases)) == list(
            oracle.tree_vertex_solutions(rows, b))


@given(systems())
@settings(max_examples=300, deadline=None)
def test_bases_are_the_invertible_subsets_with_their_inverses(system):
    # exactly the invertible n-subsets, in lexicographic order, each with
    # B inverse = d I for B = [rows[j] for j in order] and d = |det B|
    rows, n = system[0], len(system[0][0])
    bases = list(oracle.bases(rows))
    assert [tuple(sorted(order)) for order, _, _ in bases] == [
        S for S in combinations(range(len(rows)), n) if oracle.adjugate([rows[i] for i in S])[1]]
    for order, d, inverse in bases:
        B = [rows[j] for j in order]
        assert d == abs(oracle.adjugate(B)[1])
        assert mat_mul(B, inverse) == [[d * (i == j) for j in range(n)] for i in range(n)]


def test_pruned_prefix_and_unordered_pivots(monkeypatch):
    # rows 0 and 1 are dependent, so the pair is pruned; the vertex (1, 1)
    # is read off the leaf (2, 3), which pivots on column 1 before column 0
    pivots = count_calls(monkeypatch, "bareiss_step", oracle)
    rows, rhs = [(1, 2), (2, 4), (0, 1), (1, 0), (-1, -1)], [0, 0, 1, 1, -5]
    got = solutions(vertex_solutions, rows, rhs)
    assert got == solutions(oracle._vertex_solutions, rows, rhs)
    assert ((1, 1), 1, (3, 6, 0, 0, 3)) in got
    assert len(pivots) == 4 + 9  # the one-row prefixes and 9 of the 10 pairs


@given(systems())
@settings(max_examples=300, deadline=None)
def test_walk_oracle_finds_the_extreme_rays(system):
    # the walk that ``walk_hull_facets``, ``walk_face_fan`` and the polytope
    # oracles run on, against the brute-force extreme rays of the
    # homogenized cone {(y, t) : rows·y >= rhs·t, t >= 0}: each basis, in
    # lexicographic order of its rows, holds d B^-1 for d = |det B| > 0,
    # and the feasible solutions are exactly the rays with t > 0, each with
    # the rows tight there; no basis exactly when the rows do not have rank n
    rows, rhs = system
    n = len(rows[0])
    bases = list(oracle.bases(rows))
    subsets = [tuple(sorted(order)) for order, _, _ in bases]
    assert subsets == sorted(set(subsets))
    for order, d, inverse in bases:
        B = [rows[j] for j in order]
        assert d > 0 and mat_mul(B, inverse) == [[d * (i == j) for j in range(n)] for i in range(n)]
    found = {}
    for y, d, slack in oracle.basis_solutions(rows, rhs, bases):
        mask = sum(1 << i for i, s in enumerate(slack) if s == 0)
        assert found.setdefault(primitive_part((*y, d)), mask) == mask
    rays = oracle.extreme_rays([(*r, -b) for r, b in zip(rows, rhs)] + [(0,) * n + (1,)])
    assert (rays is None) is (not bases)
    assert found == {z: mask for z, mask in rays or () if z[n]}


@given(systems())
@settings(max_examples=300, deadline=None)
def test_extreme_rays_are_the_rays_of_the_cone(system):
    # the homogenized rows (r, -b) of rows·y >= rhs, with and without the
    # row t >= 0: the lineality is k - rank primitive, independent vectors
    # on which every row vanishes; each ray satisfies every row, its mask is
    # exactly the rows that vanish on it, those have rank one below the
    # rows', and the rays are the brute-force oracle's for the rows and
    # ±lineality, masked to the rows
    rows, rhs = system
    cone = [(*r, -b) for r, b in zip(rows, rhs)]
    for M in (cone, cone + [(0,) * len(rows[0]) + (1,)]):
        k, rank = len(M[0]), oracle.matrix_rank(M)
        rays, lineality = linalg._extreme_rays(M)
        assert len(lineality) == k - rank == oracle.matrix_rank(lineality)
        for e in lineality:
            assert linalg.is_primitive(e) and not any(linalg.dot(row, e) for row in M)
        for z, mask in rays:
            values = [linalg.dot(row, z) for row in M]
            assert min(values) >= 0 and linalg.is_primitive(z)
            assert mask == sum(1 << i for i, s in enumerate(values) if s == 0)
            assert oracle.matrix_rank([row for i, row in enumerate(M) if mask >> i & 1]) == rank - 1
        pointed = M + [tuple(s * x for x in e) for e in lineality for s in (1, -1)]
        expect = {(z, mask & (1 << len(M)) - 1) for z, mask in oracle.extreme_rays(pointed)}
        assert len(rays) == len(set(rays)) and set(rays) == expect


@st.composite
def cone_rows(draw):
    """Integer rows of length k = 2-6, one to nine of them, entries -3..3;
    after the first, a row may repeat, negate or combine earlier ones, so
    the leading k rows are often dependent and the rows often of rank
    below k."""
    k, m = draw(st.integers(2, 6)), draw(st.integers(1, 9))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("new", "new", "repeat", "negate", "combine"))) if rows else "new"
        if kind == "new":
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))))
        elif kind == "combine":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(k)))
        else:
            r = draw(st.sampled_from(rows))
            rows.append(r if kind == "repeat" else tuple(-a for a in r))
    return rows


@given(cone_rows())
@settings(max_examples=500, deadline=None)
def test_seeded_start_matches_the_elimination(rows):
    # the adjugate of independent leading rows starts from the rays and
    # masks that the elimination of [rows^T | I] picks, in the same order,
    # so the whole ordered result is the same
    assert linalg._extreme_rays(rows) == oracle.extreme_rays_by_elimination(rows)


@pytest.mark.parametrize("rows, nlineality", [
    ([(1, 2), (2, 4), (0, 1), (-1, -1)], 0),                   # pivots on rows 0 and 2
    ([(1, 0, 1), (2, 0, 2), (0, 1, 0), (-1, -1, 3), (0, 0, 1)], 0),
    ([(1, 1, 0), (-1, 2, 0), (0, -1, 0), (1, 0, 0)], 1),     # the line through e_2
    ([(1, 2, 3), (0, 1, -1)], 1),                              # m < k
    ([(0, 0, 0, 1), (1, 0, 0, 0)], 2),
])
def test_dependent_leading_rows_run_the_elimination(rows, nlineality, monkeypatch):
    k = len(rows[0])
    assert len(rows) < k or not linalg.adjugate(rows[:k])[1]
    pivots = count_calls(monkeypatch, "_pivot", linalg)
    rays, lineality = linalg._extreme_rays(rows)
    assert pivots and len(lineality) == nlineality
    assert (rays, lineality) == oracle.extreme_rays_by_elimination(rows)


@st.composite
def spanless_presentations(draw):
    """Presentations in dimension 1-3 that are unbounded or empty: normals
    in the half-space u_0 >= 0, which leaves P the direction e_0 when it is
    not empty, or in the hyperplane u_last = 0, which puts a line inside P
    or leaves it empty, so that P has no vertex."""
    dim = draw(st.integers(1, 3))
    hyperplane = draw(st.booleans())
    const = st.builds(Fraction, st.integers(-2, 3), st.sampled_from((1, 2)))
    ineqs = {}
    for v in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=5)):
        v = v[:-1] + (0,) if hyperplane else v if v[0] >= 0 else tuple(-x for x in v)
        if any(v):
            ineqs.setdefault(primitive_part(v), draw(const))
    return FacetPresentation(dim, tuple(ineqs), tuple(ineqs.values()))


@given(st.one_of(presentations(), non_simple(), spanless_presentations()))
@settings(max_examples=400, deadline=None)
def test_vertices_match_the_walk(P):
    # non-simple, lower-dimensional, empty, unbounded and lineality inputs,
    # errors by type and message
    for lower in (False, True):
        assert vertex_outcome(vertices, P, lower) == vertex_outcome(
            polytope_oracle.walk_vertices, P, lower)


def fan_outcome(build, rays):
    try:
        return build(rays)
    except ValueError as err:
        return type(err), str(err)


@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(primitive_part),
    min_size=1, max_size=7, unique=True)))
@settings(max_examples=300, deadline=None)
def test_face_fan_matches_the_walk(rays):
    # origins inside, on the boundary of and outside the hull, and rays
    # that do not span
    assert fan_outcome(face_fan, rays) == fan_outcome(oracle.walk_face_fan, rays)


def enumerate_certified(trace):
    """Enumerate what the run reads off its interval certificates instead:
    the core, the last interval's polytope P^(mid) and a point core's Q."""
    P, steps = trace.initial_polytope, trace.steps
    sigma = trace.effective_threshold
    polytopes.vertices(FacetPresentation(P.dim, P.normals, tuple(a - sigma for a in P.constants)),
             allow_lower_dim=True)
    lo = steps[-2].lam if len(steps) > 1 else F(0)
    if lo < steps[-1].lam:
        mid, rays = (lo + steps[-1].lam) / 2, steps[-1].fan_before.rays
        polytopes.vertices(FacetPresentation(P.dim, rays, tuple(
            a - mid for v, a in zip(P.normals, P.constants) if v in rays)))
    if not trace.core_projection.kernel_basis:
        polytopes.vertices(trace.core_projection.Q)


def test_enumerations_of_the_benchmark_inputs_match_oracle(monkeypatch):
    """Every presentation asked of ``vertices`` and every point set asked of
    ``hull_facets`` in the forced seed-1 sweep of the 67 explicit 4-fold
    rows and in the 40 adjoint-family items, with the cores, tails and
    point cores' Q that the runs read off their certificates, and the face
    fans of the 67 rows, each against the walk oracle."""
    asked, hulls = {}, {}
    enumerate_, hull = polytopes.vertices, polytopes.hull_facets

    def asking(P, allow_lower_dim=False):
        asked[P, allow_lower_dim] = None
        return enumerate_(P, allow_lower_dim)

    def hulling(points):
        hulls[tuple(map(tuple, points))] = None
        return hull(points)

    monkeypatch.setattr(polytopes, "vertices", asking)
    monkeypatch.setattr(polytopes, "hull_facets", hulling)
    traces = []
    validate = mmp._adjoint_cross_validation

    def recorded_validation(trace, slacks):
        traces.append(trace)
        validate(trace, slacks)

    monkeypatch.setattr(mmp, "_adjoint_cross_validation", recorded_validation)
    cold_caches()
    workloads = _workloads()
    runs = [(name, lambda P=P: run_mmp_scaling(P, force=True))
            for name, P in sweep_polytopes().items()]
    runs += [(key, lambda key=key: workloads.run_adjoint_item(workloads.adjoint_polytope(key)))
             for key in workloads.ADJOINT_KEYS]
    failed = []
    for name, run in runs:
        try:
            run()
        except MalformedFanError:  # the known failures, pinned elsewhere
            failed.append(name)
    for trace in traces:
        enumerate_certified(trace)
    monkeypatch.undo()
    assert failed == ["G_1", "G_4", "J_1", "Z_1", "d3-76"]
    rows = [row for row in load_builtin_table() if row.explicit]
    assert (len(asked), len(hulls), len(rows)) == (621, 89, 67)
    for P, lower in asked:
        assert vertex_outcome(vertices, P, lower) == vertex_outcome(
            polytope_oracle.walk_vertices, P, lower)
    for points in hulls:
        assert hull_facets(points) == oracle.walk_hull_facets(points)
    for row in rows:
        assert face_fan(list(row.rays)) == oracle.walk_face_fan(list(row.rays))
