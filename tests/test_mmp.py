from fractions import Fraction

import pytest

from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import (
    Fan,
    MalformedFanError,
    validate,
    wall_classification,
    walls,
    weakly_split,
)
from toriq.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    GeneralityError,
    contract,
    flip,
    mori_fiber_data,
    run_mmp_scaling,
)
from toriq.polytopes import (
    FacetPresentation,
    cayley_mori_build,
    normal_fan,
    remove_redundant,
    vertices,
)
from conftest import blowup_polytope, hexagon, hirzebruch_fan
from helpers import cold_caches, cone_contains, fans_equal_up_to_ray_order

F = Fraction


def wall_by_rays(fan, rays):
    return next(w for w in walls(fan) if w.wall_rays == rays)


class TestContract:
    def test_blowdown_to_p1p1(self, bl_p1p1, p1p1):
        res = contract(bl_p1p1, wall_by_rays(bl_p1p1, (4,)))
        assert res.kind == DIVISORIAL and res.dropped_ray == 4
        assert fans_equal_up_to_ray_order(res.fan, p1p1)

    def test_p1p1_ruling_fibers_to_p1(self, p1p1):
        res = contract(p1p1, wall_by_rays(p1p1, (0,)))
        assert res.kind == MORI_FIBER
        base = res.fiber_data.base_fan
        assert base.rank == 1 and set(base.rays) == {(1,), (-1,)}

    def test_f1_blowdown_to_p2(self):
        f1 = hirzebruch_fan(1)
        res = contract(f1, wall_by_rays(f1, (1,)))
        assert res.kind == DIVISORIAL
        # three smooth complete rays summing to zero: the projective plane
        assert len(res.fan.rays) == 3
        assert tuple(map(sum, zip(*res.fan.rays))) == (0, 0)
        rep = validate(res.fan)
        assert rep.smooth and rep.complete

    def test_flipping_wall_gives_no_fan(self):
        res = contract(FLIP_FAN, wall_by_rays(FLIP_FAN, (0, 1)))
        assert (res.kind, res.fan, res.fiber_data, res.dropped_ray) == (FLIP, None, None, None)


FLIP_FAN = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)),
               ((0, 1, 2), (0, 1, 3)))


class TestFlip:
    def test_retriangulates_across_wall(self):
        out = flip(FLIP_FAN, wall_by_rays(FLIP_FAN, (0, 1)))
        assert out.max_cones == ((0, 2, 3), (1, 2, 3))

    def test_ray_set_unchanged(self):
        out = flip(FLIP_FAN, wall_by_rays(FLIP_FAN, (0, 1)))
        assert out.rays == FLIP_FAN.rays

    def test_involution(self):
        out = flip(FLIP_FAN, wall_by_rays(FLIP_FAN, (0, 1)))
        back = flip(out, wall_by_rays(out, (2, 3)))
        assert back == FLIP_FAN

    def test_support_preserved(self):
        out = flip(FLIP_FAN, wall_by_rays(FLIP_FAN, (0, 1)))
        samples = list(FLIP_FAN.rays) + [
            (1, 1, 0), (2, 1, 1), (1, 2, -1), (1, 1, 1), (3, 1, -1), (0, 1, 1),
        ]
        for x in samples:
            before = any(cone_contains(FLIP_FAN, c, x) for c in FLIP_FAN.max_cones)
            after = any(cone_contains(out, c, x) for c in out.max_cones)
            assert before == after

    def test_wrong_type_rejected(self, p1p1):
        with pytest.raises(ValueError):
            flip(p1p1, wall_by_rays(p1p1, (0,)))


class TestWeaklySplit:
    def test_product_split(self, p1p1):
        assert weakly_split(p1p1, [(1, 0)])

    def test_p2_not_split(self, p2):
        assert not weakly_split(p2, [(1, 0)])

    def test_built_cayley_sum_is_split(self):
        seg = FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True)
        seg2 = FacetPresentation(1, ((1,), (-1,)), (1, 4), irredundant=True)
        P = cayley_mori_build([seg, seg2], [(1,)])
        fan = normal_fan(P)
        # project along the fiber coordinates onto the base lattice
        assert weakly_split(fan, [(1, 0)])


class TestMoriFiberData:
    def test_p1p1_ruling(self, p1p1):
        data = mori_fiber_data(p1p1, wall_by_rays(p1p1, (0,)))
        assert data.fiber_fan.rank == 1 and data.fiber_rho_one and data.split

    def test_three_segment_fiber(self):
        segs = [FacetPresentation(1, ((1,), (-1,)), (0, a), irredundant=True)
                for a in (2, 3, 4)]
        P = cayley_mori_build(segs, [(1, 0), (0, 1)])
        fan = normal_fan(P)
        w = next(
            w for w in walls(fan)
            if all(c >= 0 for c in w.relation)
        )
        data = mori_fiber_data(fan, w)
        assert data.base_fan.rank == 1
        assert data.fiber_fan.rank == 2
        assert len(data.fiber_fan.rays) == data.fiber_fan.rank + 1  # Picard rank one

    def test_singular_example(self, singular_fan):

        w = next(
            w for w in walls(singular_fan)
            if wall_classification(singular_fan, w)[0] == 0
        )
        data = mori_fiber_data(singular_fan, w)
        assert data.base_fan.rank == 1
        assert data.fiber_fan.rank == 2 and len(data.fiber_fan.rays) == 3
        assert not validate(data.fiber_fan).smooth
        # the fiber fan is the normal fan of the projected simplex
        pi = [tuple(b) for b in data.fiber_basis]
        from toriq.linalg import dot
        from toriq.polytopes import facet_presentation_from_vertices

        segs = [
            FacetPresentation(1, ((1,), (-1,)), (0, 1), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
            FacetPresentation(1, ((1,), (-1,)), (0, 2), irredundant=True),
        ]
        P = cayley_mori_build(segs, [(0, 1), (-2, 1)])
        imgs = sorted({tuple(dot(r, v) for r in pi) for v in vertices(P).vertices})
        S = facet_presentation_from_vertices(imgs)
        assert fans_equal_up_to_ray_order(normal_fan(S), data.fiber_fan)

    def test_fiber_rays_are_the_basis_at_their_coordinates(self, corpus_fans, corpus_polytopes):
        # each fiber ray's coordinates, read off the Smith form's rows,
        # give back its ray of the fan in the fiber's saturated basis
        fibrations = 0
        for fan in corpus_fans + [normal_fan(P) for P in corpus_polytopes]:
            for wall in {w.relation: w for w in walls(fan)}.values():
                if wall_classification(fan, wall)[0] != 0:
                    continue
                try:
                    data = mori_fiber_data(fan, wall)
                except MalformedFanError:
                    continue
                for c, i in zip(data.fiber_fan.rays, data.fiber_ray_origin):
                    ray = [sum(x * b[r] for x, b in zip(c, data.fiber_basis))
                           for r in range(fan.rank)]
                    assert tuple(ray) == fan.rays[i]
                fibrations += 1
        assert fibrations == 19

    def test_wrong_wall_rejected(self, bl_p1p1):
        with pytest.raises(ValueError):
            mori_fiber_data(bl_p1p1, wall_by_rays(bl_p1p1, (4,)))

    def test_wall_that_does_not_fibre_is_refused(self):
        # G_1's wall (1, 3, 4) has alpha = 0, but the image of the fan's
        # cones has a maximal cone inside another: the refusal names the
        # wall, and the image fan's own error is its cause
        rows = {r.name: r for r in load_builtin_table()}
        fan, _ = reconstruct_fan(rows["G_1"])
        wall = wall_by_rays(fan, (1, 3, 4))
        assert wall.relation == (1, 0, 0, 0, 0, 0, 1) and wall_classification(fan, wall)[0] == 0
        with pytest.raises(MalformedFanError,
                           match=r"^wall \(1, 3, 4\) does not induce a fibration$") as err:
            mori_fiber_data(fan, wall)
        assert isinstance(err.value.__cause__, MalformedFanError)
        assert "lies in maximal cone" in str(err.value.__cause__)

    @pytest.mark.parametrize("verdicts, part", [([False], "base"), ([True, False], "fiber")])
    def test_incomplete_image_is_refused(self, p1p1, monkeypatch, verdicts, part):
        # an image fan that validates as incomplete, not as malformed
        from toriq import fans

        verdict, wall = iter(verdicts), wall_by_rays(p1p1, (0,))
        monkeypatch.setattr(fans, "validate", lambda fan: fans.ValidationReport(
            True, True, True, next(verdict)))
        cold_caches()  # so the fibration is computed, not read off an earlier call
        with pytest.raises(MalformedFanError, match="does not induce a fibration") as err:
            mori_fiber_data(p1p1, wall)
        assert str(err.value.__cause__) == f"the {part} fan is not complete and simplicial"


class TestRunMMP:
    def test_point_is_refused(self):
        with pytest.raises(ValueError, match="dimension >= 1, not 0"):
            run_mmp_scaling(FacetPresentation(0, (), ()))

    def test_first_bundled_trace(self, p1p1):
        P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
        trace = run_mmp_scaling(P)
        assert trace.critical_values == (F(1, 2), F(1))
        assert trace.kinds == (DIVISORIAL, MORI_FIBER)
        assert fans_equal_up_to_ray_order(trace.steps[0].fan_after, p1p1)
        assert trace.steps[1].fan_after.rank == 1
        assert not trace.generality_flag
        assert all(v for v in trace.validation.values() if isinstance(v, bool))

    def test_second_bundled_trace_chain(self, p2):
        # the printed coefficients; chain matches the recorded one but the
        # critical values come out (1, 3, 13/3); the README records why
        P = blowup_polytope((6, 5, 6, 5, 2))
        trace = run_mmp_scaling(P)
        assert trace.kinds == (DIVISORIAL, DIVISORIAL, MORI_FIBER)
        assert trace.critical_values == (F(1), F(3), F(13, 3))
        assert fans_equal_up_to_ray_order(trace.steps[1].fan_after, p2)
        assert trace.steps[2].fan_after.rank == 0

    def test_coefficients_achieving_recorded_values(self, p2):
        # an ample divisor on the same surface whose program runs through
        # the same chain at critical values 1/2, 3/2, 5/2
        P = blowup_polytope((2, 5, 5, 1, F(1, 2)))
        trace = run_mmp_scaling(P)
        assert trace.critical_values == (F(1, 2), F(3, 2), F(5, 2))
        assert trace.kinds == (DIVISORIAL, DIVISORIAL, MORI_FIBER)
        assert fans_equal_up_to_ray_order(trace.steps[1].fan_after, p2)

    def test_hexagon_needs_force(self):
        with pytest.raises(GeneralityError) as err:
            run_mmp_scaling(hexagon())
        assert err.value.critical_value == 1
        assert len(err.value.wall_sets) == 6
        # six classes of one wall each, their walls in sorted order
        fan = normal_fan(hexagon())
        assert err.value.wall_sets == tuple(sorted(w.wall_rays for w in walls(fan)))

    def test_hexagon_forced(self):
        trace = run_mmp_scaling(hexagon(), force=True)
        assert trace.generality_flag
        assert trace.steps[-1].kind == MORI_FIBER
        assert trace.steps[-1].lam == 1 == trace.effective_threshold

    def test_simplex_single_fibering_step(self):
        from conftest import simplex_polytope

        trace = run_mmp_scaling(simplex_polytope(2, 2))
        assert trace.critical_values == (F(2, 3),)
        assert trace.kinds == (MORI_FIBER,)
        assert trace.steps[0].fan_after.rank == 0

    def test_final_value_is_effective_threshold(self, corpus_polytopes):
        for P in corpus_polytopes:
            try:
                trace = run_mmp_scaling(P)
            except GeneralityError:
                continue
            assert trace.steps[-1].lam == trace.effective_threshold

    def test_lost_face_dims_recorded(self):
        P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
        trace = run_mmp_scaling(P)
        assert trace.steps[0].lost_face_dim == 1   # contracted divisor class
        assert trace.steps[1].lost_face_dim == 2   # the whole surface

    def test_divisorial_drops_one_ray(self, corpus_polytopes):
        for P in corpus_polytopes:
            try:
                trace = run_mmp_scaling(P)
            except GeneralityError:
                continue
            for step in trace.steps:
                if step.kind == DIVISORIAL:
                    assert len(step.fan_before.rays) - len(step.fan_after.rays) == 1
                elif step.kind == FLIP:
                    assert step.fan_before.rays == step.fan_after.rays
                else:
                    assert step.fan_after.rank < step.fan_before.rank


class TestFlipInsideProgram:
    """A rank-3 fan with a canonical-negative flipping wall: the relation
    e1 + e2 = 2*e3 + (1,1,-2) has two negative wall coefficients and
    positive anticanonical degree."""

    RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2),
            (-1, 0, 0), (0, -1, 0), (0, 0, -1))

    def _fan(self):
        from toriq.fans import face_fan

        return face_fan(list(self.RAYS))

    def test_fan_has_flipping_wall(self):

        fan = self._fan()
        w = wall_by_rays(fan, (0, 1))
        assert wall_classification(fan, w) == (2, 2)
        from toriq.intersection import anticanonical, curve_number

        assert curve_number(fan, anticanonical(fan), (0, 1)) > 0

    def test_program_passes_through_flips(self):
        fan = self._fan()
        from toriq.polytopes import polytope_of_divisor

        P, _ = remove_redundant(polytope_of_divisor(fan, (3, 5, 3, 5, 5, 8, 6)))
        trace = run_mmp_scaling(P)
        assert trace.kinds == (FLIP, FLIP, DIVISORIAL, MORI_FIBER)
        assert trace.critical_values == (F(2), F(3), F(11, 3), F(4))
        for step in trace.steps:
            if step.kind == FLIP:
                assert step.fan_before.rays == step.fan_after.rays
                assert trace.validation[f"step_{trace.steps.index(step)}_facet_count_constant"]
                assert trace.validation[f"step_{trace.steps.index(step)}_not_simple_at_value"]

    def test_single_flip_then_fibration(self):
        fan = self._fan()
        from toriq.polytopes import polytope_of_divisor

        P, _ = remove_redundant(polytope_of_divisor(fan, (2, 3, 2, 8, 4, 7, 7)))
        trace = run_mmp_scaling(P)
        assert trace.kinds == (FLIP, MORI_FIBER)
        assert trace.critical_values == (F(1), F(3))
