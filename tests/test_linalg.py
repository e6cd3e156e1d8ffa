from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from conftest import pn_fan
from toriq.fans import Fan, MalformedFanError, cone_multiplicity, star_subdivision
from toriq.linalg import (
    DimensionError,
    _scaled,
    adjugate,
    det,
    dot,
    frac,
    hull_facets,
    int_vec,
    kernel_basis,
    lp_min,
    lp_standard,
    matrix_rank,
    nonneg_solve,
    primitive_part,
    saturation_and_projection,
    smith_normal_form,
    solve_linear,
)
from toriq.polytopes import FacetPresentation, cayley_mori_build

F = Fraction


class TestSolveLinear:
    def test_identity(self):
        assert solve_linear([[1, 0], [0, 1]], [F(3, 2), F(-1)]) == (F(3, 2), F(-1))

    def test_inconsistent_rank_one(self):
        assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None

    def test_diagonal(self):
        # hand elimination: 2x = 1, 3y = 1
        assert solve_linear([[2, 0], [0, 3]], [1, 1]) == (F(1, 2), F(1, 3))

    def test_underdetermined_zero_free_vars(self):
        x = solve_linear([[1, 1]], [5])
        assert x == (F(5), F(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dot((1, 2), (1, 2, 3))

    def test_right_hand_side_length_checked(self):
        with pytest.raises(DimensionError, match="2 rows but 1 right-hand entries"):
            solve_linear([[1, 0], [0, 1]], [1])

    def test_no_rows(self):
        assert solve_linear([], []) == ()

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_solution_reevaluates(self, M, b):
        x = solve_linear(M, b)
        if x is not None:
            assert all(dot(row, x) == bi for row, bi in zip(M, b))


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = (-1) ** inversions
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


class TestAdjugate:
    def test_two_by_two(self):
        # adj [[a, b], [c, d]] = [[d, -b], [-c, a]]
        assert adjugate([[2, 1], [7, 4]]) == (((4, -1), (-7, 2)), 1)

    def test_needs_row_swap(self):
        assert adjugate([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)

    def test_singular(self):
        assert adjugate([[1, 2], [2, 4]]) == (None, 0)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_adj_times_matrix_is_det(self, M):
        adj, d = adjugate(M)
        assert d == leibniz_det(M) == det(M)
        if d:
            n = len(M)
            for i in range(n):
                for j in range(n):
                    assert sum(adj[i][k] * M[k][j] for k in range(n)) == (d if i == j else 0)
        else:
            assert adj is None


class TestSmithNormalForm:
    def test_identity(self):
        _, D, _ = smith_normal_form([[1, 0], [0, 1]])
        assert D == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("M", [[], [[]]], ids=["no-rows", "no-columns"])
    def test_empty_refused(self, M):
        with pytest.raises(ValueError, match="Smith normal form of an empty matrix"):
            smith_normal_form(M)

    def test_two_by_two(self):
        # row/column reduction by hand: invariant factors 2, 4
        _, D, _ = smith_normal_form([[2, 4], [6, 8]])
        assert [D[0][0], D[1][1]] == [2, 4]

    def test_gcd_row(self):
        _, D, _ = smith_normal_form([[1, 2]])
        assert D == [[1, 0]]

    # the exact (U, D, V) of inputs that reach each step of the reduction
    @pytest.mark.parametrize("M, U, D, V", [
        # the pivot 1 sits at (1, 1): a row swap and a column swap
        ([[3, 5], [7, 1]], [[0, 1], [-1, 5]], [[1, 0], [0, 32]], [[0, 1], [1, -7]]),
        # 3 // 2 leaves 1 in the pivot's row, then its column: restarts
        ([[2, 3]], [[1]], [[1, 0]], [[-1, 3], [1, -2]]),
        ([[2], [3]], [[-1, 1], [3, -2]], [[1], [0]], [[1]]),
        # 2 does not divide 3: row 1 is folded into row 0
        ([[2, 0], [0, 3]], [[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
        # a negative pivot has its row negated
        ([[-2, 0], [0, 4]], [[-1, 0], [0, 1]], [[2, 0], [0, 4]], [[1, 0], [0, 1]]),
        # zero rows and columns: the search finds no pivot and stops
        ([[0, 0, 0], [0, 2, 0]], [[0, 1], [1, 0]], [[2, 0, 0], [0, 0, 0]],
         [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ([[0], [0]], [[1, 0], [0, 1]], [[0], [0]], [[1]]),
    ])
    def test_pinned_forms(self, M, U, D, V):
        from helpers import mat_mul

        assert smith_normal_form(M) == (U, D, V)
        assert mat_mul(mat_mul(U, M), V) == D

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
                    min_size=2, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=150)
    def test_unimodular_and_divisibility(self, M):
        from helpers import mat_mul
        from toriq.linalg import det

        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


@st.composite
def column_sets(draw, max_n=7):
    """(n, k columns in Z^n), k <= n + 1, each column a small combination of
    at most n generators, so that dependent columns are common."""
    n = draw(st.integers(1, max_n))
    vectors = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    gens = draw(st.lists(vectors, min_size=1, max_size=n))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)),
                           max_size=n + 1))
    return n, [tuple(sum(c * g[i] for c, g in zip(combo, gens)) for i in range(n))
               for combo in combos]


def mat_vec(rows, v) -> tuple:
    return tuple(dot(row, v) for row in rows)


class TestSaturationAndProjection:
    @given(column_sets(), st.lists(st.integers(-9, 9), min_size=7, max_size=7))
    @example((6, [(2, 0, 0, 0, 0, 4), (0, 3, 0, 0, 6, 0), (1, 1, 1, 1, 1, 1)]), [1] * 7)
    @settings(max_examples=200)
    def test_one_smith_form_gives_basis_coordinates_and_annihilator(self, cols, c):
        # n >= 5 runs the Bareiss branch of adjugate(U)
        n, columns = cols
        basis, coords, proj = saturation_and_projection(columns, n)
        r = oracle.matrix_rank(columns) if columns else 0
        assert (len(basis), len(coords), len(proj)) == (r, r, n - r)
        assert [mat_vec(coords, b) for b in basis] == [
            tuple(int(i == j) for i in range(r)) for j in range(r)]
        assert all(mat_vec(proj, v) == (0,) * (n - r) for v in basis + columns)
        # both lattices saturated: the kernel of proj is exactly the span of
        # the basis, which holds every column
        assert oracle.snf_multiplicity(basis) == 1
        assert not proj or oracle.snf_multiplicity(proj) == 1
        # the vector of the saturation with coordinates c is basis . c
        x = [sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(n)]
        assert mat_vec(coords, x) == tuple(c[:r])


class TestConeMultiplicity:
    @pytest.mark.parametrize("rays, index", [
        (((1, 1), (1, -1)), 2),
        (((1, 0, 0), (0, 1, 0), (1, 1, 0)), 0),   # dependent
        (((1, 0), (0, 1), (1, 1)), 0),             # more rays than the rank
        (((1, 0, 0), (1, 0, 2)), 2),
        ((), 1),
    ])
    def test_hand_cones(self, rays, index):
        fan = Fan(len(rays[0]) if rays else 2, rays, (tuple(range(len(rays))),))
        assert cone_multiplicity(fan, tuple(range(len(rays)))) == index

    @given(column_sets(max_n=6))
    @settings(max_examples=200)
    def test_gcd_of_minors_is_the_invariant_factor_product(self, cols):
        n, columns = cols
        rays = list(dict.fromkeys(primitive_part(v) for v in columns if any(v)))
        fan = Fan(n, tuple(rays), (tuple(range(len(rays))),))
        assert cone_multiplicity(fan, tuple(range(len(rays)))) == oracle.snf_multiplicity(rays)


class TestPrimitivePart:
    def test_gcd_division(self):
        assert primitive_part((2, 4, 6)) == (1, 2, 3)

    def test_sign_preserved(self):
        assert primitive_part((-3, 0)) == (-1, 0)

    def test_already_primitive(self):
        assert primitive_part((5, 7)) == (5, 7)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            primitive_part((0, 0))


scalars = st.one_of(st.just(0), st.integers(-60, 60),
                    st.builds(F, st.integers(-60, 60), st.integers(1, 36)))


class TestScaled:
    @given(st.lists(scalars, max_size=6))
    @example([])
    @example([F(1, 2), F(-1, 3), 0, 5])
    @settings(max_examples=300)
    def test_matches_the_hand_scaling(self, xs):
        L, ints = _scaled(xs)
        assert (L, ints) == oracle.lcm_scaled(xs)
        assert all(type(a) is int for a in [L] + ints)


def brute_force_in_cone(generators, x):
    """Independent membership oracle: by Caratheodory, x lies in the cone
    iff some linearly independent subset of size <= dim carries it with
    nonnegative coordinates."""
    if all(a == 0 for a in x):
        return True
    n = len(x)
    for k in range(1, n + 1):
        for sub in combinations(generators, k):
            if matrix_rank(list(sub)) != k:
                continue
            cols = [[g[i] for g in sub] for i in range(n)]
            sol = solve_linear(cols, x)
            if sol is None:
                continue
            if all(dot([g[i] for g in sub], sol) == x[i] for i in range(n)):
                if all(c >= 0 for c in sol):
                    return True
    return False


class TestNonnegSolve:
    def test_no_generators(self):
        assert nonneg_solve([], (0, 0)) == ()
        assert nonneg_solve([], (1,)) is None

    def test_coordinate_cone(self):
        assert nonneg_solve([(1, 0), (0, 1)], (2, 3)) == (F(2), F(3))

    def test_outside_cone(self):
        assert nonneg_solve([(1, 0), (0, 1)], (-1, 0)) is None

    def test_generator_length_checked(self):
        with pytest.raises(DimensionError, match="generator length differs from target length"):
            nonneg_solve([(1, 0), (0, 1, 0)], (1, 1))

    def test_rotated_cone(self):
        # 2x2 solve oracle: (2,0) = 1*(1,1) + 1*(1,-1)
        assert nonneg_solve([(1, 1), (1, -1)], (2, 0)) == (F(1), F(1))

    def test_recomposition(self):
        gens = [(1, 2, 0), (0, 1, 1), (1, 0, 1), (2, 1, 1)]
        x = (3, 3, 2)
        c = nonneg_solve(gens, x)
        assert c is not None and all(ci >= 0 for ci in c)
        for i in range(3):
            assert sum(ci * g[i] for ci, g in zip(c, gens)) == x[i]

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                    min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), min_size=2, max_size=2))
    @settings(max_examples=120)
    def test_against_caratheodory_oracle(self, gens, x):
        gens = [tuple(g) for g in gens]
        got = nonneg_solve(gens, tuple(x))
        expect = brute_force_in_cone(gens, tuple(x))
        assert (got is not None) == expect
        if got is not None:
            for i in range(2):
                assert sum(c * g[i] for c, g in zip(got, gens)) == x[i]
            assert all(c >= 0 for c in got)


class TestLP:
    # the empty and all-zero normal lists, whose kernel is everything, as
    # the simplex solved them
    @pytest.mark.parametrize("program, outcome", [
        (([1], [], []), ("unbounded", None, None)),
        (([0, 0], [], []), ("optimal", 0, (0, 0))),
        (([0], [(0,)], [1]), ("optimal", 0, (0,))),
        (([0], [(0,)], [-1]), ("infeasible", None, None)),
    ])
    def test_no_normals(self, program, outcome):
        res = lp_min(*program)
        assert (res.status, res.value, res.point) == outcome

    def test_standard_form_without_constraints(self):
        res = lp_standard([1], [], [])
        assert (res.status, res.value, res.point) == ("optimal", 0, (F(0),))

    def test_min_on_square(self):
        res = lp_min([1, 1], [(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1])
        assert res.status == "optimal" and res.value == 0 and res.point == (F(0), F(0))

    def test_unbounded(self):
        res = lp_min([-1, 0], [(1, 0), (0, 1)], [0, 0])
        assert res.status == "unbounded"

    def test_infeasible(self):
        res = lp_min([1], [(1,), (-1,)], [0, -1])
        assert res.status == "infeasible"

    def test_rational_optimum(self):
        # minimize x over {2x >= 1} scaled: normals primitive, constants rational
        res = lp_min([1, 0], [(1, 0), (0, 1), (-1, -1)], [F(-1, 2), 0, 2])
        assert res.status == "optimal" and res.value == F(1, 2)

    def test_normal_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_min([1], [(1, 0)], [0])

    def test_constants_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_min([1], [(1,)], [0, 5])

    def test_standard_form_shape_mismatch(self):
        with pytest.raises(DimensionError):
            lp_standard([1, 1], [[1]], [1])
        with pytest.raises(DimensionError):
            lp_standard([1], [[1]], [1, 2])


dot_entries = st.one_of(st.integers(-10**12, 10**12),
                        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    *[st.lists(dot_entries, min_size=n, max_size=n)] * 2)))
@settings(max_examples=300)
def test_dot_matches_generator_form(uv):
    u, v = uv
    expected = sum(a * b for a, b in zip(u, v))
    got = dot(u, v)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((), (F(1),)), ((F(1, 2),), ())])
def test_dot_length_mismatch(u, v):
    with pytest.raises(DimensionError, match=f"^dot of length {len(u)} against {len(v)}$"):
        dot(u, v)


@pytest.mark.parametrize("call", [
    lambda: det([[1, 2, 3], [4, 5, 6]]),
    lambda: adjugate([[1, 2], [3]]),
    lambda: matrix_rank([[1], [3, 4]]),
    lambda: matrix_rank([[1, 2], [3]]),
    lambda: solve_linear([[1], [0, 1]], [1, 5]),
    lambda: solve_linear([[1, 0], [0]], [1, 5]),
    lambda: kernel_basis([[1, 2, 3], [1]]),
    lambda: smith_normal_form([[2], [6, 4]]),
    lambda: smith_normal_form([[2, 4], [6]]),
    lambda: saturation_and_projection([(1, 0), (1,)], 2),
    lambda: saturation_and_projection([(1, 0, 5), (0, 1, 7)], 2),
    lambda: hull_facets([(0, 0), (1,), (0, 1)]),
    lambda: hull_facets([(0, 0), (1, 0, 4), (0, 1)]),
], ids=["det-not-square", "adjugate-ragged", "rank-long-row", "rank-short-row",
        "solve-long-row", "solve-short-row", "kernel-short-row", "snf-long-row",
        "snf-short-row", "saturation-short-column", "saturation-long-column",
        "hull-short-point", "hull-long-point"])
def test_ragged_or_non_square_matrix_rejected(call):
    with pytest.raises(DimensionError, match="^row lengths .* are not all"):
        call()


class TestHullFacets:
    def test_square(self):
        fs = hull_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert set(fs) == {
            ((1, 0), F(0)), ((0, 1), F(0)), ((-1, 0), F(1)), ((0, -1), F(1)),
        }

    def test_interior_point_ignored(self):
        fs = hull_facets([(0, 0), (2, 0), (0, 2), (1, 1)])
        assert len(fs) == 3

    def test_segment(self):
        fs = hull_facets([(F(-1, 2),), (3,)])
        assert set(fs) == {((1,), F(1, 2)), ((-1,), F(3))}

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hull_facets([(0, 0), (1, 1), (2, 2)])

    def test_no_points_refused(self):
        with pytest.raises(ValueError, match="no points"):
            hull_facets([])

    def test_zero_dimensional_points(self):
        assert hull_facets([(), ()]) == []


SEGMENT = FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True)
NON_INTEGER_ENTRY_POINTS = {
    "Fan": (MalformedFanError, lambda x: Fan(2, ((x, 0), (0, 1)), ((0, 1),))),
    "FacetPresentation": (
        ValueError, lambda x: FacetPresentation(2, ((x, 1), (0, 1), (-1, -1)), (0, 0, 1))),
    "cayley_mori_build": (ValueError, lambda x: cayley_mori_build([SEGMENT, SEGMENT], [(x,)])),
    "star_subdivision": (ValueError, lambda x: star_subdivision(pn_fan(2), (x, 1))),
    "smith_normal_form": (ValueError, lambda x: smith_normal_form([[x, 0], [0, 1]])),
}


@pytest.mark.parametrize("x", [1.5, F(3, 2)], ids=["float", "fraction"])
@pytest.mark.parametrize("entry", sorted(NON_INTEGER_ENTRY_POINTS))
def test_non_integer_entry_rejected(entry, x):
    error, build = NON_INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(error, match="is not an integer"):
        build(x)


def test_kernel_of_no_equations():
    assert kernel_basis([]) == []


def test_frac_refuses_a_float():
    with pytest.raises(TypeError, match="cannot interpret 1.5 as an exact rational"):
        frac(1.5)


def test_records_of_different_classes_are_unequal():
    # Fan.__eq__ and FacetPresentation.__eq__ both decline the comparison
    fan = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    assert fan.__eq__(SEGMENT) is NotImplemented
    assert fan != SEGMENT and not fan == SEGMENT


def test_integral_fractions_accepted():
    assert int_vec((F(4, 2), -3)) == (2, -3)
    assert smith_normal_form([[F(2), 0], [0, F(-1)]])[1] == [[1, 0], [0, 2]]
