import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

import intersection_oracle as oracle
from toriq import fans as fans_module
from toriq.fans import (
    Fan,
    MalformedFanError,
    ReconstructionError,
    UnsupportedFanError,
    face_fan,
    fan_from_primitive_data,
    primitive_collections,
    star_quotient,
    star_subdivision,
    validate,
    wall_classification,
    walls,
)
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.linalg import primitive_part
from toriq.mmp import run_mmp_scaling
from conftest import blowup_polytope, hexagon, hirzebruch_fan
from helpers import cone_contains, fans_equal_up_to_ray_order

F = Fraction


def overlapping_pairs(fan):
    """The exact pairwise LP test over every two maximal cones, which
    ``validate`` runs only on the simplicial fans it does not certify."""
    return [(c1, c2) for c1, c2 in combinations(fan.max_cones, 2)
            if fans_module._pair_overlaps(fan, c1, c2)]


class TestValidate:
    def test_p2(self, p2):
        rep = validate(p2)
        assert rep.well_formed and rep.simplicial and rep.smooth and rep.complete

    def test_singular_example_fan(self, singular_fan):
        rep = validate(singular_fan)
        assert rep.simplicial and rep.complete
        assert not rep.smooth

    def test_flags_nest(self, corpus_fans):
        # complete => simplicial => well_formed (see ValidationReport), over the
        # corpus, the 67 explicit table fans, random rank 2-3 face fans and each
        # of those with a cone dropped, a cone with a line and the cube's face fan
        fans = list(corpus_fans) + [
            reconstruct_fan(row)[0] for row in load_builtin_table() if row.explicit]
        rng = random.Random(3)
        while len(fans) < 6 + 67 + 80:
            rank = rng.choice((2, 3))
            rays = {primitive_part(v) for v in (tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rank + rng.randint(1, 4))) if any(v)}
            try:
                fan = face_fan(sorted(rays))
            except ReconstructionError:
                continue
            fans += [fan, Fan(rank, fan.rays, fan.max_cones[1:])]
        cube = sorted(product((1, -1), repeat=3))
        faces = tuple(tuple(i for i, v in enumerate(cube) if v[k] == s)
                      for k in range(3) for s in (1, -1))
        fans += [Fan(2, ((1, 0), (-1, 0)), ((0, 1),)), Fan(3, tuple(cube), faces)]
        flags = {(rep.complete, rep.simplicial, rep.well_formed) for rep in map(validate, fans)}
        assert flags == {(True, True, True), (False, True, True),
                         (False, False, True), (False, False, False)}

    @pytest.mark.parametrize("rays, simplicial, smooth", [
        # the cone over a square: four rays in rank 3, multiplicity 0
        (((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), False, False),
        # three coplanar rays in rank 3: determinant 0
        (((1, 0, 0), (0, 1, 0), (1, 1, 0)), False, False),
        # two rays in rank 3, of index 2 and 1 in their saturation
        (((1, 0, 0), (1, 0, 2)), True, False),
        (((1, 0, 0), (0, 1, 0)), True, True),
    ])
    def test_one_cone_multiplicity_decides(self, rays, simplicial, smooth):
        rep = validate(Fan(3, rays, (tuple(range(len(rays))),)))
        assert (rep.well_formed, rep.simplicial, rep.smooth) == (True, simplicial, smooth)

    def test_single_cone_not_complete(self):
        f = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        rep = validate(f)
        assert rep.well_formed and not rep.complete

    def test_overlap_raises_naming_pair(self):
        f = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
        with pytest.raises(MalformedFanError, match=r"\(0, 1\).*\(0, 2\)"):
            validate(f)

    def test_overlap_of_incomplete_fan_raises(self):
        # the two cones share the directions between about 96 and 99 degrees;
        # neither cone's ray sum lies in the other, so only an exact pairwise
        # test of the (incomplete) fan finds the overlap
        f = Fan(2, ((1, 0), (-1, 6), (-1, 10), (-6, 1)), ((0, 1), (2, 3)))
        with pytest.raises(MalformedFanError, match=r"\(0, 1\).*\(2, 3\)"):
            validate(f)

    def test_double_cover_raises(self):
        # five cones of under 180 degrees each winding twice round the
        # origin: every ray lies in two cones and every crossing is proper,
        # so only the generic point sees the second sheet
        f = Fan(
            2,
            ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),
            ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
        )
        with pytest.raises(MalformedFanError, match="overlap"):
            validate(f)

    def test_fold_raises(self):
        # every ray lies in two cones, but across the ray (1, 0) the cones
        # (0, 1) and (0, 2) both lie above it
        f = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(MalformedFanError, match="same side"):
            validate(f)

    def test_fold_in_rank_three_raises(self):
        # the cones of P3 over e1, e2, -e3 and (-1, -1, -1): every facet lies
        # in two cones, but both rays opposite the wall (0, 1) lie below it
        rays = ((1, 0, 0), (0, 1, 0), (0, 0, -1), (-1, -1, -1))
        f = Fan(3, rays, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        with pytest.raises(MalformedFanError, match="same side"):
            validate(f)

    def test_deep_pair_check(self, p2):
        assert validate(p2).well_formed and overlapping_pairs(p2) == []

    def test_nonprimitive_ray_rejected(self):
        with pytest.raises(MalformedFanError):
            Fan(2, ((2, 0), (0, 1)), ((0, 1),))

    def test_duplicate_ray_rejected(self):
        with pytest.raises(MalformedFanError):
            Fan(2, ((1, 0), (1, 0)), ((0, 1),))

    def test_negative_rank_rejected(self):
        with pytest.raises(MalformedFanError, match="negative rank"):
            Fan(-1, (), ((),))

    def test_rank_zero_is_well_formed(self):
        # the cone () has multiplicity det([]) = 1, no facet and no wall: the
        # point is a complete fan, and the empty fan is not
        for cones, complete in ((((),), True), ((), False)):
            rep = validate(Fan(0, (), cones))
            assert (rep.well_formed, rep.simplicial, rep.smooth, rep.complete, rep.problems) == (
                True, True, True, complete, [])

    def test_duplicate_cone_rejected(self):
        with pytest.raises(MalformedFanError):
            Fan(2, ((1, 0), (0, 1)), ((0, 1), (1, 0)))


class TestWalls:
    def test_p2_wall_relation(self, p2):
        ws = {w.wall_rays: w for w in walls(p2)}
        # relation across the wall spanned by the first ray: all coefficients 1
        assert ws[(0,)].relation == (F(1), F(1), F(1))
        assert len(ws) == 3

    def test_p1p1_opposite_rays(self, p1p1):
        ws = {w.wall_rays: w for w in walls(p1p1)}
        assert ws[(0,)].relation == (F(0), F(1), F(0), F(1))

    def test_hirzebruch_relation(self):
        fa = hirzebruch_fan(3)
        ws = {w.wall_rays: w for w in walls(fa)}
        # e1 + (-e1 + 3 e2) - 3 e2 = 0 across the wall spanned by e2
        assert ws[(1,)].relation == (F(1), F(-3), F(1), F(0))

    def test_relation_invariants(self, corpus_fans):
        for fan in corpus_fans:
            for w in walls(fan):
                vec = [F(0)] * fan.rank
                for i, c in enumerate(w.relation):
                    for k in range(fan.rank):
                        vec[k] += c * fan.rays[i][k]
                assert all(x == 0 for x in vec)
                outside = [
                    (i, c) for i, c in enumerate(w.relation)
                    if c != 0 and i not in w.wall_rays
                ]
                assert len(outside) == 2
                assert all(c > 0 for _, c in outside)

    def test_nonsimplicial_rejected(self):
        f = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1, 2), (0, 2, 3)))
        with pytest.raises(UnsupportedFanError):
            walls(f)


class TestWallClassification:
    def test_p2_fibering(self, p2):
        for w in walls(p2):
            assert wall_classification(p2, w) == (0, 0)

    def test_f1_fibration_wall(self):
        f1 = hirzebruch_fan(1)
        ws = {w.wall_rays: w for w in walls(f1)}
        # fiber wall spanned by e1: e2 + (-e2) = 0, zero coefficient on e1
        assert wall_classification(f1, ws[(0,)]) == (0, 1)
        # wall spanned by e2 carries e1 + (-e1+e2) - e2 = 0: a blow-down
        assert wall_classification(f1, ws[(1,)]) == (1, 1)

    def test_blowdown_wall(self, bl_p1p1):
        ws = {w.wall_rays: w for w in walls(bl_p1p1)}
        alpha, beta = wall_classification(bl_p1p1, ws[(4,)])
        assert alpha == 1

    def test_class_key_groups_rulings(self, p1p1):
        keys = {}
        for w in walls(p1p1):
            keys.setdefault(oracle.wall_class_key(w), []).append(w.wall_rays)
        assert sorted(keys.values()) == [[(0,), (2,)], [(1,), (3,)]]


class TestPrimitiveCollections:
    def test_p1p1(self, p1p1):
        cs = primitive_collections(p1p1)
        assert {c.members for c in cs} == {(0, 2), (1, 3)}
        assert all(c.degree == 2 for c in cs)

    def test_p2(self, p2):
        (c,) = primitive_collections(p2)
        assert c.members == (0, 1, 2)
        assert c.degree == 3
        assert c.sigma == ()

    def test_members_are_minimal_nonfaces(self, corpus_fans):
        from itertools import combinations

        for fan in corpus_fans:
            faces = set()
            for cone in fan.max_cones:
                for k in range(len(cone) + 1):
                    faces.update(frozenset(s) for s in combinations(cone, k))
            for c in primitive_collections(fan):
                assert frozenset(c.members) not in faces
                for sub in combinations(c.members, len(c.members) - 1):
                    assert frozenset(sub) in faces

    def test_smooth_coefficients_integral(self, corpus_fans):
        for fan in corpus_fans:
            if not validate(fan).smooth:
                continue
            for c in primitive_collections(fan):
                assert all(x.denominator == 1 and x > 0 for x in c.coefficients)

    def test_relation_exact(self, bl_p1p1):
        for c in primitive_collections(bl_p1p1):
            total = [sum(bl_p1p1.rays[i][k] for i in c.members) for k in range(2)]
            back = [
                sum(x * bl_p1p1.rays[i][k] for i, x in zip(c.sigma, c.coefficients))
                for k in range(2)
            ]
            assert total == back


class TestFanFromPrimitiveData:
    def test_p2_roundtrip(self, p2):
        fan = fan_from_primitive_data(list(p2.rays), [(0, 1, 2)])
        assert fan == p2

    def test_eight_ray_worked_example(self):
        # reconstruction from relations: a basis cone plus derived vectors
        rays = [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (2, 0, -1, -1), (-1, -1, 0, 0), (0, -1, 0, 0), (1, 1, 0, 0),
        ]
        colls = [(0, 1), (6, 7), (0, 5), (1, 6), (5, 7), (2, 3, 4)]
        fan = fan_from_primitive_data(rays, colls)
        rep = validate(fan)
        assert rep.smooth and rep.complete and rep.simplicial
        assert {c.members for c in primitive_collections(fan)} == set(colls)

    def test_bad_data_raises(self):
        with pytest.raises(ReconstructionError):
            fan_from_primitive_data([(1, 0), (0, 1), (-1, -1)], [(0, 1)])

    def test_no_rays_raises(self):
        with pytest.raises(ReconstructionError, match="no rays"):
            fan_from_primitive_data([], [])

    @pytest.mark.parametrize("bad", [(0, 7), (-1, 2), (3, 0, 1)])
    def test_collection_outside_the_rays_raises(self, bad):
        with pytest.raises(ReconstructionError, match=re.escape(f"collection {bad} names a ray")):
            fan_from_primitive_data([(1, 0), (0, 1), (-1, -1)], [bad])


class TestFaceFan:
    def test_p2(self, p2):
        assert face_fan([(1, 0), (0, 1), (-1, -1)]) == p2

    def test_origin_not_interior(self):
        with pytest.raises(ReconstructionError):
            face_fan([(1, 0), (0, 1), (1, 1)])

    def test_no_rays_raises(self):
        with pytest.raises(ReconstructionError, match="no rays"):
            face_fan([])


class TestStarSubdivision:
    def test_blowup_point_p2(self, p2):
        bl = star_subdivision(p2, (1, 1))
        assert len(bl.rays) == 4
        rep = validate(bl)
        assert rep.smooth and rep.complete

    def test_codim2_center_p3(self, p3):
        bl = star_subdivision(p3, (1, 1, 0))
        assert len(bl.rays) == 5
        rep = validate(bl)
        assert rep.smooth and rep.complete

    def test_existing_ray_is_noop(self, p2):
        assert star_subdivision(p2, (1, 0)) == p2

    def test_outside_support(self):
        half = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(ValueError):
            star_subdivision(half, (-1, -1))

    def test_zero_rejected(self, p2):
        with pytest.raises(ValueError):
            star_subdivision(p2, (0, 0))

    def test_non_primitive_rejected(self, p2):
        with pytest.raises(ValueError, match=r"\(2, 2\) is not primitive"):
            star_subdivision(p2, (2, 2))

    def test_non_simplicial_rejected(self):
        # the cone over a square: four rays in rank three
        square = Fan(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((0, 1, 2, 3),))
        with pytest.raises(UnsupportedFanError, match="implemented for simplicial fans"):
            star_subdivision(square, (0, 0, 1))

    def test_lower_dimensional_maximal_cone(self):
        # the octant and a quadrant of the plane z = 0 outside it: the
        # quadrant's coordinates come from ``solve_linear`` on its two rays
        fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)),
                  ((0, 1, 2), (3, 4)))
        assert validate(fan).simplicial and not validate(fan).complete
        assert fans_module._cone_coords(fan, (3, 4), (1, 1, 1)) is None
        assert fans_module._cone_coords(fan, (3, 4), (-1, -2, 0)) == (1, 2)
        # v off the quadrant's span keeps it; v in its relative interior splits it
        inside = star_subdivision(fan, (1, 1, 1))
        assert inside.max_cones == ((0, 1, 5), (0, 2, 5), (1, 2, 5), (3, 4))
        split = star_subdivision(fan, (-1, -1, 0))
        assert split.max_cones == ((0, 1, 2), (3, 5), (4, 5))
        with pytest.raises(ValueError, match="outside the fan support"):
            star_subdivision(fan, (1, -1, 0))

    def test_empty_cone_coordinates(self):
        # the fan of the origin alone: the empty cone holds 0 and nothing else
        origin = Fan(2, (), ((),))
        assert fans_module._cone_coords(origin, (), (0, 0)) == ()
        assert fans_module._cone_coords(origin, (), (1, 0)) is None
        with pytest.raises(ValueError, match="outside the fan support"):
            star_subdivision(origin, (1, 0))

    def test_support_preserved(self, p3):
        bl = star_subdivision(p3, (1, 1, 1))
        samples = list(p3.rays) + [(1, 1, 1), (1, 2, 3), (-1, -2, 1), (0, 1, -1)]
        for x in samples:
            before = any(cone_contains(p3, c, x) for c in p3.max_cones)
            after = any(cone_contains(bl, c, x) for c in bl.max_cones)
            assert before == after


class TestStarQuotient:
    def test_p3_ray_gives_p2(self, p3, p2):
        q, proj = star_quotient(p3, (0,))
        assert fans_equal_up_to_ray_order(q, p2)
        assert len(proj) == 2

    def test_p1p1_ray_gives_p1(self, p1p1):
        q, _ = star_quotient(p1p1, (0,))
        assert q.rank == 1 and set(q.rays) == {(1,), (-1,)}

    def test_maximal_cone_gives_point(self, p2):
        q, _ = star_quotient(p2, (0, 1))
        assert q.rank == 0 and q.max_cones == ((),)

    def test_not_a_cone(self, p2):
        with pytest.raises(ValueError):
            star_quotient(p2, (0, 1, 2))


def test_ray_count_minus_rank_is_picard_bookkeeping(corpus_fans):
    for fan in corpus_fans:
        if validate(fan).complete:
            assert len(fan.rays) - fan.rank >= 1


def test_certificate_agrees_with_pairwise_check(corpus_fans):
    fans = list(corpus_fans)
    fans += [reconstruct_fan(row)[0] for row in load_builtin_table() if row.explicit]
    for P in (hexagon(), blowup_polytope((6, 5, 6, 5, 2))):
        for step in run_mmp_scaling(P, force=True).steps:
            fans += [step.fan_before, step.fan_after]
    assert len(set(fans)) > 67 + len(corpus_fans)
    for fan in set(fans):
        rep = validate(fan)
        if rep.simplicial and fan.rank:
            assert overlapping_pairs(fan) == [], fan


@pytest.mark.parametrize("inner, outer", [((0,), (0, 1)), ((2,), (0, 2))])
def test_maximal_cone_inside_another_rejected(inner, outer):
    # the pairwise overlap test passes a cone lying in another; the surface
    # pass then leaked a KeyError or returned a value for ()
    from toriq.intersection import ch2_dot_surface

    f = Fan(2, ((1, 0), (0, 1), (-1, -1)), (inner, (0, 1), (1, 2), (0, 2)))
    message = f"maximal cone {inner} lies in maximal cone {outer}"
    with pytest.raises(MalformedFanError, match=re.escape(message)):
        validate(f)
    with pytest.raises(MalformedFanError, match="lies in maximal cone"):
        ch2_dot_surface(f, ())
