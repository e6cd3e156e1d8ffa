import random
from fractions import Fraction

import pytest

from toriq import intersection, mmp, polytopes
from toriq.fans import Fan, UnsupportedFanError, star_subdivision, validate, walls
from toriq.intersection import (
    TorusDivisor,
    anticanonical,
    ch2_dot_surface,
    curve_number,
    div_char,
    is_2fano,
    is_ample,
    is_fano,
    nef_threshold,
)
from intersection_oracle import intersect_once, move_divisor, quotient_index
from conftest import hexagon, hirzebruch_fan, pn_fan
from helpers import count_calls, faces_of_dim, prime_divisor

F = Fraction


class TestDivChar:
    def test_p2(self, p2):
        assert div_char(p2, (1, 0)).coeffs == (F(1), F(0), F(-1))

    def test_zero(self, p2):
        assert div_char(p2, (0, 0)).coeffs == (F(0),) * 3

    def test_p1p1(self, p1p1):
        assert div_char(p1p1, (2, 3)).coeffs == (F(2), F(3), F(-2), F(-3))

    def test_wrong_length(self, p2):
        with pytest.raises(ValueError, match="character exponent has wrong length"):
            div_char(p2, (1, 0, 0))


class TestTorusDivisor:
    def test_sum_and_difference(self, p2):
        D, E = TorusDivisor(p2, (1, 0, F(1, 2))), TorusDivisor(p2, (0, 2, 1))
        assert (D + E).coeffs == (F(1), F(2), F(3, 2))
        assert (D - E).coeffs == (F(1), F(-2), F(-1, 2))

    @pytest.mark.parametrize("op", ["__add__", "__sub__"])
    def test_fans_must_agree(self, p2, p1p1, op):
        D, E = TorusDivisor(p2, (1, 0, 0)), TorusDivisor(p1p1, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="divisors live on different fans"):
            getattr(D, op)(E)

    def test_coefficient_count(self, p2):
        with pytest.raises(ValueError, match="coefficient count differs from ray count"):
            TorusDivisor(p2, (1, 0))


class TestDivisorOnAnotherFan:
    # B has P^2's ray count, so a coefficient-wise pairing would not notice
    # that L lives on P^2: it read nef_threshold(B, L) = 5/4, curve_number 5/2
    B = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))

    def test_values_on_each_fan(self, p2):
        L, M = TorusDivisor(p2, (2, 1, 1)), TorusDivisor(self.B, (2, 1, 1))
        assert (nef_threshold(p2, L), curve_number(p2, L, (0,)), is_ample(p2, L)) == (F(4, 3), 4, True)
        assert (nef_threshold(self.B, M), curve_number(self.B, M, (0,))) == (F(5, 4), F(5, 2))

    @pytest.mark.parametrize("call", [
        lambda fan, D: curve_number(fan, D, (0,)),
        lambda fan, D: intersection.wall_curve_number(fan, D, walls(fan)[0]),
        is_ample,
        nef_threshold,
    ], ids=["curve_number", "wall_curve_number", "is_ample", "nef_threshold"])
    def test_refused(self, p2, p1p1, call):
        for fan, D in ((p1p1, anticanonical(p2)), (self.B, TorusDivisor(p2, (2, 1, 1)))):
            with pytest.raises(ValueError, match="the divisor lives on another fan"):
                call(fan, D)


class TestMoveDivisor:
    def test_p1p1(self, p1p1):
        moved = move_divisor(p1p1, 0, (0, 1))
        assert moved.coeffs == (F(0), F(0), F(1), F(0))

    def test_p2(self, p2):
        moved = move_divisor(p2, 0, (0, 1))
        assert moved.coeffs == (F(0), F(0), F(1))

    def test_singular_rational_character(self, singular_fan):
        # rays 3, 4 span a singular cone; the solved character is rational
        moved = move_divisor(singular_fan, 3, (3, 4))
        assert moved.coeffs[3] == 0 and moved.coeffs[4] == 0
        assert any(c.denominator > 1 for c in moved.coeffs)

    def test_singular_character_relation(self, singular_fan):
        # D_{ray3} + div(chi^(0,-1,0)) = D_{ray4} on the singular fan
        d = div_char(singular_fan, (0, -1, 0))
        lhs = prime_divisor(singular_fan, 3) + d
        assert lhs.coeffs == prime_divisor(singular_fan, 4).coeffs

    def test_ray_not_in_cone(self, p2):
        with pytest.raises(ValueError):
            move_divisor(p2, 2, (0, 1))


class TestIntersectOnce:
    def test_smooth_coefficient_one(self, p2):
        c = intersect_once(p2, prime_divisor(p2, 0), (1,))
        assert dict(c.terms) == {(0, 1): F(1)}

    def test_quotient_index_two(self):
        fan = Fan(2, ((1, 2), (1, 0)), ((0, 1),))
        assert quotient_index(fan, (0,), (0, 1), 1) == 2

    def test_singular_anticanonical_curve(self, singular_fan):
        assert curve_number(singular_fan, anticanonical(singular_fan), (3, 4)) == 1


class TestCurveNumber:
    def test_p2_anticanonical_line(self, p2):
        assert curve_number(p2, anticanonical(p2), (0,)) == 3

    def test_p1p1_fiber_self_intersection(self, p1p1):
        D = prime_divisor(p1p1, 0)
        assert curve_number(p1p1, D, (0,)) == 0

    def test_f1_minus_one_curve(self):
        f1 = hirzebruch_fan(1)
        assert curve_number(f1, anticanonical(f1), (1,)) == 1

    def test_matches_relation_pairing_on_smooth(self, corpus_fans):
        rng = random.Random(5)
        for fan in corpus_fans:
            if not validate(fan).smooth:
                continue
            coeffs = tuple(F(rng.randint(-4, 9)) for _ in fan.rays)
            D = TorusDivisor(fan, coeffs)
            for w in walls(fan):
                pairing = sum(c * r for c, r in zip(coeffs, w.relation))
                assert curve_number(fan, D, w.wall_rays) == pairing


class TestPrincipalTriviality:
    def test_all_corpus_fans(self, corpus_fans):
        for fan in corpus_fans:
            for k in range(fan.rank):
                m = tuple(1 if j == k else 0 for j in range(fan.rank))
                D = div_char(fan, m)
                for w in walls(fan):
                    assert curve_number(fan, D, w.wall_rays) == 0


class TestCh2:
    def test_p4_euler_value(self, p4):
        # Euler-sequence value (n+1)/2 on every invariant surface
        for sigma in faces_of_dim(p4, 2):
            assert ch2_dot_surface(p4, sigma) == F(5, 2)

    def test_surface_case_is_total_square(self, p2):
        total = sum(
            curve_number(p2, prime_divisor(p2, i), (i,)) for i in range(3)
        )
        assert ch2_dot_surface(p2, ()) == total / 2 == F(3, 2)

    def test_singular_example_value(self, singular_fan):
        assert ch2_dot_surface(singular_fan, (4,)) == F(1, 4)

    def test_character_twist_invariance(self, bl_p1p1):
        # replacing D_i by D_i - div(chi^m) before squaring changes nothing;
        # rerun the squared pairing with one prime divisor twisted by hand
        rng = random.Random(11)
        fan = bl_p1p1
        sigma = ()
        base = ch2_dot_surface(fan, sigma)
        for _ in range(5):
            m = (rng.randint(-2, 2), rng.randint(-2, 2))
            i = rng.randrange(len(fan.rays))
            Di = prime_divisor(fan, i) - div_char(fan, m)
            total = F(0)
            for j in range(len(fan.rays)):
                D = Di if j == i else prime_divisor(fan, j)
                once = intersect_once(fan, D, sigma)
                total += sum(
                    (b * intersect_once(fan, D, tau).total() for tau, b in once.terms),
                    F(0),
                )
            assert total / 2 == base

    def test_wrong_dimension_rejected(self, p4):
        with pytest.raises(ValueError):
            ch2_dot_surface(p4, (0,))


class TestIsFano:
    def test_p2(self, p2):
        v = is_fano(p2)
        assert v.is_fano and v.method == "primitive-collections"

    def test_f2_not_fano(self):
        f2 = hirzebruch_fan(2)
        v = is_fano(f2)
        assert not v.is_fano and v.witnesses

    def test_singular_fano_via_kleiman(self, singular_fan):
        v = is_fano(singular_fan)
        assert v.method == "kleiman"
        assert v.is_fano

    def test_degree_equals_anticanonical_pairing(self, bl_p1p1):
        from toriq.fans import primitive_collections

        mk = anticanonical(bl_p1p1)
        wall_sets = {w.wall_rays for w in walls(bl_p1p1)}
        for c in primitive_collections(bl_p1p1):
            if c.members in wall_sets:
                assert c.degree == curve_number(bl_p1p1, mk, c.members)

    def test_incomplete_refused(self):
        quadrant = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(UnsupportedFanError, match="Fano test needs a complete simplicial fan"):
            is_fano(quadrant)


class TestIs2Fano:
    def test_p4(self, p4):
        scan = is_2fano(p4)
        assert scan.is_two_fano and scan.minimum == F(5, 2)

    def test_blowup_of_p3_along_line(self, p3):
        bl = star_subdivision(p3, (1, 1, 0))
        scan = is_2fano(bl)
        assert not scan.is_two_fano and scan.minimum < 0

    def test_blowup_of_p4_codim2(self, p4):
        bl = star_subdivision(p4, (1, 1, 0, 0))
        scan = is_2fano(bl)
        assert not scan.is_two_fano and scan.minimum < 0

    def test_surface_case(self, p2):
        scan = is_2fano(p2)
        assert scan.is_two_fano and scan.witness == ()

    def test_incomplete_refused(self):
        quadrant = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
        with pytest.raises(UnsupportedFanError, match="2-Fano scan needs a complete simplicial"):
            is_2fano(quadrant)

    def test_p1_refused(self):
        with pytest.raises(ValueError, match=r"2-Fano scan needs rank >= 2"):
            is_2fano(pn_fan(1))

    def test_one_wall_pass_per_scan(self, monkeypatch):
        # all 18 surfaces of a 4-fold row come from one star index, built
        # from one relation per wall and no Wall record
        from toriq import fans
        from toriq.fano_table import load_builtin_table, reconstruct_fan

        row = next(r for r in load_builtin_table() if r.name == "E_1")
        fan, _ = reconstruct_fan(row)
        n_walls = len(walls.__wrapped__(fan))
        calls = count_calls(monkeypatch, "walls", intersection, polytopes, mmp)
        relations = count_calls(monkeypatch, "_relation", fans, intersection)
        scan = is_2fano(fan)
        assert len(scan.values) == 18 and len(calls) == 0
        assert len(relations) == n_walls == 22

    def test_fibering_walls_positive_anticanonical(self, corpus_fans):
        from toriq.fans import wall_classification

        for fan in corpus_fans:
            mk = anticanonical(fan)
            for w in walls(fan):
                alpha, _ = wall_classification(fan, w)
                if alpha == 0:
                    assert curve_number(fan, mk, w.wall_rays) > 0


class TestReductionToFiberSurfaces:
    def test_pullback_surface_pairing_equals_intrinsic(self):
        """For a threefold fibered in lines over a surface, pairing the
        squared-divisor sum with the preimage of an invariant base curve
        equals the same computation run intrinsically on the quotient fan
        of that surface."""
        from toriq.fans import star_quotient
        from toriq.polytopes import (
            FacetPresentation,
            cayley_mori_build,
            normal_fan,
        )

        tri = FacetPresentation(
            2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 2), irredundant=True
        )
        tri2 = FacetPresentation(
            2, ((1, 0), (0, 1), (-1, -1)), (0, 1, 3), irredundant=True
        )
        X = normal_fan(cayley_mori_build([tri, tri2], [(1,)]))
        # preimage of the base curve V(v): the divisor of the lifted ray
        lifted = [i for i, r in enumerate(X.rays) if any(r[:2])]
        assert len(lifted) == 3
        for i in lifted:
            surf = ch2_dot_surface(X, (i,))
            qfan, _ = star_quotient(X, (i,))
            assert ch2_dot_surface(qfan, ()) == surf


class TestNefThreshold:
    def test_p2_twice_hyperplane(self, p2):
        L = TorusDivisor(p2, (2, 0, 0))
        assert nef_threshold(p2, L) == F(2, 3)

    def test_blowup_first_example(self, bl_p1p1):
        L = TorusDivisor(bl_p1p1, (2, 1, 2, 1, F(5, 2)))
        assert nef_threshold(bl_p1p1, L) == F(1, 2)

    def test_blowup_second_example_actual_value(self, bl_p1p1):
        # the bundled second example: its printed coefficients yield 1
        # (the recorded 1/2 is inconsistent with them; see the README)
        L = TorusDivisor(bl_p1p1, (6, 5, 6, 5, 2))
        assert is_ample(bl_p1p1, L)
        assert nef_threshold(bl_p1p1, L) == 1

    def test_not_ample_rejected(self, p2):
        with pytest.raises(ValueError):
            nef_threshold(p2, TorusDivisor(p2, (-1, 0, 0)))

    def test_nef_but_not_ample_rejected(self, p1p1):
        # D_0 meets the two curves of its own ruling in 0: nef, not ample
        with pytest.raises(ValueError, match="not ample"):
            nef_threshold(p1p1, TorusDivisor(p1p1, (1, 0, 0, 0)))

    def test_one_wall_pass(self, monkeypatch):
        # one pass over the hexagon's walls, read off the slack rows of P: no
        # wall list, no curve number and no ampleness pass
        from toriq.polytopes import thresholds

        curve_numbers = count_calls(monkeypatch, "wall_curve_number",
                                    intersection, polytopes, mmp)
        walls_ = count_calls(monkeypatch, "walls", intersection, polytopes, mmp)
        scans = count_calls(monkeypatch, "_critical_value", polytopes, mmp)
        thresholds(hexagon())
        assert curve_numbers == walls_ == [] and len(scans) == 1

    def test_mmp_run_makes_no_ampleness_pass(self, monkeypatch):
        from toriq.mmp import run_mmp_scaling

        calls = count_calls(monkeypatch, "is_ample", intersection, polytopes, mmp)
        run_mmp_scaling(hexagon(), force=True)
        assert calls == []

    def test_matches_polyhedral_thresholds(self, corpus_polytopes):
        from toriq.polytopes import normal_fan, thresholds

        for P in corpus_polytopes:
            fan = normal_fan(P)
            L = TorusDivisor(fan, P.constants)
            assert nef_threshold(fan, L) == thresholds(P).nef
