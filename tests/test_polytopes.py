import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytope_oracle as oracle
from toriq.fans import validate
from toriq.polytopes import (
    CayleyMoriDecomposition,
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    RedundantPresentationError,
    UnboundedError,
    adjoint,
    cayley_mori_build,
    cayley_mori_detect,
    core_and_projection,
    effective_threshold,
    facet_presentation_from_vertices,
    is_cayley_s,
    is_simple,
    normal_fan,
    polytope_of_divisor,
    remove_redundant,
    thresholds,
    vertices,
)
from conftest import hexagon, simplex_polytope, unit_square
from helpers import fans_equal_up_to_ray_order

F = Fraction


def skew_triangle(extra=False):
    normals = [(501, -1000), (-1000, 501), (0, 1)]
    constants = [1000, 499, -1]
    if extra:
        normals.append((0, -1))
        constants.append(2)
    return FacetPresentation(2, tuple(normals), tuple(constants),
                             irredundant=not extra)


class TestVertices:
    def test_unit_square(self):
        vs = vertices(unit_square())
        assert len(vs.vertices) == 4

    def test_twice_standard_simplex(self):
        vs = vertices(simplex_polytope(2, 2))
        assert set(vs.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(0), F(2))}

    def test_hexagon(self):
        vs = vertices(hexagon())
        assert len(vs.vertices) == 6

    def test_every_facet_tight_somewhere(self):
        P = hexagon()
        vs = vertices(P)
        touched = set()
        for t in vs.tight:
            touched.update(t)
        assert touched == set(range(P.nfacets))

    def test_all_vertices_inside(self):
        P = skew_triangle()
        for v in vertices(P).vertices:
            assert P.contains(v)

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            vertices(FacetPresentation(2, ((1, 0), (0, 1)), (0, 0)))

    def test_empty(self):
        with pytest.raises(EmptyPolytopeError):
            vertices(FacetPresentation(1, ((1,), (-1,)), (0, -1)))

    @pytest.mark.parametrize("P", [
        FacetPresentation(2, ((1, 0), (-1, 0)), (0, 1)),                  # strip
        FacetPresentation(2, ((1, 0), (-1, 0)), (-1, 0)),                 # empty strip
        FacetPresentation(3, ((0, 1, 0), (0, -1, 0)), (F(-1, 2), 0)),     # empty slab
        FacetPresentation(2, ((1, 0),), (3,)),                            # half-plane
        FacetPresentation(2, (), ()),                                     # the plane
    ])
    def test_normals_that_do_not_span(self, P):
        # the cone's lineality space: empty exactly when the emptiness LP
        # on the Fraction simplex says so, otherwise unbounded
        error = EmptyPolytopeError if oracle.is_empty(P) else UnboundedError
        with pytest.raises(error):
            vertices.__wrapped__(P)

    def test_dimension_zero(self):
        # no normal is possible, and R^0 is the single vertex ()
        P = FacetPresentation(0, (), ())
        assert not oracle.is_empty(P)
        vs = vertices.__wrapped__(P)
        assert (vs.points, vs.tight) == ((((), 1),), ((),))


class TestNormalFan:
    def test_simplex_gives_p2(self, p2):
        assert normal_fan(simplex_polytope(2, 2)) == p2

    def test_trapezoid_is_hirzebruch_type(self):
        T = facet_presentation_from_vertices([(0, 0), (3, 0), (0, 1), (1, 1)])
        fan = normal_fan(T)
        assert len(fan.rays) == 4
        rep = validate(fan)
        assert rep.complete and rep.simplicial

    def test_hexagon_six_rays(self):
        fan = normal_fan(hexagon())
        assert len(fan.rays) == 6
        assert validate(fan).smooth

    def test_redundant_rejected(self):
        P = skew_triangle(extra=True)
        with pytest.raises(RedundantPresentationError):
            normal_fan(P)

    def test_weakly_redundant_inequality_rejected_under_the_flag(self):
        # x + y >= -2 is tight only at the vertex (-1, -1): a face, no facet
        P = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)), (1, 1, 1, 1, 2),
                              irredundant=True)
        with pytest.raises(RedundantPresentationError, match="an inequality defines no facet"):
            normal_fan(P)
        reduced, removed = remove_redundant(P)
        assert tuple(removed) == (4,)
        assert len(normal_fan(reduced).rays) == 4


class TestPolytopeOfDivisor:
    def test_p2_twice_hyperplane(self, p2):
        P = polytope_of_divisor(p2, (2, 0, 0))
        vs = vertices(P, allow_lower_dim=True)
        ref = vertices(simplex_polytope(2, 2)).vertices
        # translation by (-2, -2)... the two vertex sets agree up to translation
        diffs = {tuple(a - b for a, b in zip(v, ref[0])) for v in vs.vertices}
        shift = sorted(vs.vertices)[0]
        base = sorted(ref)[0]
        delta = tuple(a - b for a, b in zip(shift, base))
        assert {tuple(a - d for a, d in zip(v, delta)) for v in vs.vertices} == set(ref)

    def test_empty_flagged(self, p2):
        P = polytope_of_divisor(p2, (-1, 0, 0))
        assert oracle.is_empty(P)

    def test_character_twist_translates(self, p2):
        # adding div(chi^m) to the divisor translates the polytope by -m
        from toriq.intersection import TorusDivisor, div_char

        D = TorusDivisor(p2, (2, 1, 1))
        m = (1, -1)
        Dm = D + div_char(p2, m)
        P = polytope_of_divisor(p2, D.coeffs)
        Pm = polytope_of_divisor(p2, Dm.coeffs)
        vs = {tuple(x - mi for x, mi in zip(v, m)) for v in vertices(P).vertices}
        assert vs == set(vertices(Pm).vertices)

    def test_coefficient_count_checked(self, p2):
        with pytest.raises(ValueError, match="coefficient count differs from ray count"):
            polytope_of_divisor(p2, (1, 1))


class TestAdjoint:
    def test_triangle_stays_triangle(self):
        P = skew_triangle()
        Q = adjoint(P, F(2, 5))
        reduced, removed = remove_redundant(Q)
        assert reduced.nfacets == 3 and not removed
        assert is_simple(reduced)

    def test_redundant_presentation_changes_family(self):
        P4 = skew_triangle(extra=True)
        _, removed = remove_redundant(P4)
        assert removed == (3,)
        Q = adjoint(P4, F(2, 5), allow_redundant=True)
        reduced, removed_after = remove_redundant(Q)
        assert reduced.nfacets == 4 and not removed_after

    def test_redundant_needs_override(self):
        with pytest.raises(RedundantPresentationError):
            adjoint(skew_triangle(extra=True), F(1, 10))

    def test_composition_law(self):
        rng = random.Random(7)
        P = skew_triangle()
        sigma = effective_threshold(P)
        for _ in range(20):
            s = sigma * F(rng.randint(0, 10), 20)
            t = sigma * F(rng.randint(0, 10), 20)
            if s + t > sigma:
                continue
            one = adjoint(adjoint(P, s), t, allow_redundant=True)
            two = adjoint(P, s + t)
            assert one.constants == two.constants and one.normals == two.normals

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adjoint(unit_square(), F(-1, 2))


class TestFacetPresentation:
    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="negative dimension"):
            FacetPresentation(-1, (), ())

    def test_dimension_zero_allowed(self):
        assert FacetPresentation(0, (), ()).nfacets == 0


class TestThresholds:
    def test_hexagon(self):
        th = thresholds(hexagon())
        assert th.nef == 1 and th.effective == 1

    @pytest.mark.parametrize("n,a", [(2, 2), (2, 7), (3, 5), (4, 3)])
    def test_scaled_simplex(self, n, a):
        th = thresholds(simplex_polytope(n, a))
        assert th.nef == F(a, n + 1)
        assert th.effective == F(a, n + 1)

    def test_blowup_polytope(self):
        from conftest import blowup_polytope

        P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
        assert thresholds(P).nef == F(1, 2)

    def test_dimension_drops_at_sigma(self):
        P = unit_square()
        sigma = effective_threshold(P)
        core = adjoint(P, sigma, allow_redundant=True)
        vs = vertices(core, allow_lower_dim=True)
        from linalg_oracle import affine_rank

        assert affine_rank(vs.vertices) < P.dim
        mid = adjoint(P, sigma / 2)
        assert vertices(mid).vertices  # still full-dimensional

    def test_unbounded_refused(self):
        # x >= 0 and y >= 0: normals that do not positively span
        with pytest.raises(UnboundedError, match="presentation is unbounded"):
            effective_threshold(FacetPresentation(2, ((1, 0), (0, 1)), (0, 0)))

    def test_empty_refused(self):
        # x >= 1 and x <= -1: sigma = -1
        with pytest.raises(EmptyPolytopeError, match="polytope is empty"):
            effective_threshold(FacetPresentation(1, ((1,), (-1,)), (-1, -1)))


class TestCoreAndProjection:
    def test_hexagon_core_point(self):
        cp = core_and_projection(hexagon())
        assert len(cp.core_vertices) == 1
        assert cp.Q.nfacets == 6  # quotient by nothing: the hexagon itself

    def test_trapezoid_core_segment(self):
        T = facet_presentation_from_vertices([(0, 0), (2, 0), (0, 1), (1, 1)])
        cp = core_and_projection(T)
        assert len(cp.core_vertices) == 2
        assert cp.Q.dim == 1
        qv = vertices(cp.Q).vertices
        assert max(q[0] for q in qv) - min(q[0] for q in qv) == 1

    def test_simplex_core_point(self):
        cp = core_and_projection(simplex_polytope(3, 5))
        assert len(cp.core_vertices) == 1
        assert cp.Q.dim == 3 and cp.Q.nfacets == 4


class TestCayleyMori:
    def test_unit_square_from_segments(self):
        seg = FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True)
        P = cayley_mori_build([seg, seg], [(1,)])
        assert set(vertices(P).vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
        }

    def test_trapezoid_from_unequal_segments(self):
        a = FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True)
        b = FacetPresentation(1, ((1,), (-1,)), (0, 5), irredundant=True)
        P = cayley_mori_build([a, b], [(1,)])
        assert set(vertices(P).vertices) == {
            (F(0), F(0)), (F(2), F(0)), (F(0), F(1)), (F(5), F(1)),
        }

    def test_singular_fiber_space_polytope(self, singular_fan):
        segs = [
            FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
        ]
        P = cayley_mori_build(segs, [(0, 1), (-2, 1)])
        assert set(vertices(P).vertices) == {
            (F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)),
            (F(2), F(0), F(1)), (F(0), F(-2), F(1)), (F(2), F(-2), F(1)),
        }
        assert fans_equal_up_to_ray_order(normal_fan(P), singular_fan)

    def test_mismatched_bases_rejected(self):
        seg = FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True)
        tri = simplex_polytope(2, 1)
        with pytest.raises(ValueError):
            cayley_mori_build([seg, tri], [(1,)])

    def test_detect_square(self):
        dec = cayley_mori_detect(unit_square())
        assert dec is not None and len(dec.bases) == 2
        assert all(b.dim == 1 for b in dec.bases)

    def test_detect_hexagon_absent(self):
        assert cayley_mori_detect(hexagon()) is None

    def test_detect_lets_a_kernel_error_through(self, monkeypatch):
        # only "no fibration here" is skipped; a kernel's error is a bug
        from toriq import fans
        from toriq.linalg import DimensionError

        def broken(fan, wall):
            raise DimensionError("kernel bug")

        monkeypatch.setattr(fans, "mori_fiber_data", broken)
        with pytest.raises(DimensionError):
            cayley_mori_detect(unit_square())

    def test_build_detect_roundtrip(self):
        a = FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True)
        b = FacetPresentation(1, ((1,), (-1,)), (1, 4), irredundant=True)
        P = cayley_mori_build([a, b], [(1,)])
        dec = cayley_mori_detect(P)
        assert dec is not None and len(dec.bases) == 2
        assert normal_fan(dec.bases[0]) == normal_fan(dec.bases[1])
        lengths = sorted(
            max(v[0] for v in vertices(x).vertices) - min(v[0] for v in vertices(x).vertices)
            for x in dec.bases
        )
        assert lengths == [2, 5]  # segment lengths of [0,2] and [-1,4]

    def test_is_cayley_s(self):
        assert is_cayley_s(unit_square()) == 1
        a = FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True)
        b = FacetPresentation(1, ((1,), (-1,)), (0, 3), irredundant=True)
        assert is_cayley_s(cayley_mori_build([a, b], [(2,)])) == 2

    def test_singular_simplex_not_standard(self):
        segs = [
            FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
        ]
        P = cayley_mori_build(segs, [(0, 1), (-2, 1)])
        # direction matrix has invariant factors 1, 2: not s * identity
        assert is_cayley_s(P) is None

    def test_no_cayley_structure(self):
        assert is_cayley_s(hexagon()) is None

    def test_non_integer_directions(self):
        dec = CayleyMoriDecomposition(bases=(), w=((F(1, 2),),), fiber_projection=(),
                                      base_faces=(), simplex_vertices=())
        assert is_cayley_s(None, dec) is None


@st.composite
def direction_matrices(draw):
    """A k x k integer matrix, k = 1..3, times a small scale, so that equal
    invariant factors s > 1 come up as well."""
    k = draw(st.integers(1, 3))
    M = draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                      min_size=k, max_size=k))
    c = draw(st.integers(1, 3))
    return [[c * x for x in row] for row in M]


@given(direction_matrices())
@settings(max_examples=400, deadline=None)
def test_is_cayley_s_matches_smith_form(W):
    dec = CayleyMoriDecomposition(bases=(), w=tuple(tuple(r) for r in W),
                                  fiber_projection=(), base_faces=(), simplex_vertices=())
    assert is_cayley_s(None, dec) == oracle.is_cayley_s(W)


def random_simple_polytope(rng, dim):
    pool2 = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1),
             (-1, 1), (2, 1), (1, 2), (-2, -1), (-1, 2)]
    pool3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
             (0, 0, -1), (1, 1, 1), (-1, -1, -1), (1, 1, 0), (0, -1, -1),
             (-1, 0, 1)]
    pool = pool2 if dim == 2 else pool3
    base = pool[: 2 * dim]
    extra = rng.sample(pool[2 * dim:], rng.randint(1, 3))
    normals = base + extra
    constants = [F(rng.randint(2, 12), rng.choice([1, 1, 2, 3])) for _ in normals]
    P = FacetPresentation(dim, tuple(normals), tuple(constants))
    try:
        reduced, _ = remove_redundant(P)
    except (DegenerateError, EmptyPolytopeError):
        return None
    if not is_simple(reduced):
        return None
    return reduced


def test_adjoint_composition_on_random_corpus():
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        dim = 2 if checked % 2 == 0 else 3
        P = random_simple_polytope(rng, dim)
        if P is None:
            continue
        sigma = effective_threshold(P)
        s = sigma * F(rng.randint(0, 6), 13)
        t = sigma * F(rng.randint(0, 6), 13)
        if s + t > sigma:
            t = sigma - s
        one = adjoint(adjoint(P, s, allow_redundant=True), t, allow_redundant=True)
        two = adjoint(P, s + t, allow_redundant=True)
        assert one.normals == two.normals
        assert one.constants == two.constants
        assert one.irredundant == two.irredundant
        checked += 1
    assert checked == 100
