"""Intersection numbers read off the wall relations agree exactly with the
moving-divisor oracle in ``intersection_oracle``."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import intersection_oracle as oracle
from conftest import blowup_polytope, hexagon, hirzebruch_fan, pn_fan
from helpers import faces_of_dim
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import Fan, star_subdivision, validate, walls
from toriq.intersection import TorusDivisor, anticanonical, ch2_dot_surface, curve_number
from toriq.mmp import run_mmp_scaling

F = Fraction


def weighted_p1123() -> Fan:
    """Weighted projective space P(1,1,2,3): v0 + v1 + 2 v2 + 3 v3 = 0."""
    rays = ((-1, -2, -3), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    return Fan(3, rays, tuple(combinations(range(4), 3)))


def surfaces(fan):
    return faces_of_dim(fan, fan.rank - 2) if fan.rank > 2 else [()]


def random_divisor(fan, rng):
    return TorusDivisor(
        fan, tuple(F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in fan.rays)
    )


def assert_matches_oracle(fan, rng):
    if fan.rank >= 2:
        for sigma in surfaces(fan):
            assert ch2_dot_surface(fan, sigma) == oracle.ch2_dot_surface(fan, sigma)
    for w in walls(fan):
        for D in [anticanonical(fan)] + [random_divisor(fan, rng) for _ in range(3)]:
            assert curve_number(fan, D, w.wall_rays) == oracle.curve_number(fan, D, w.wall_rays)


@pytest.fixture(scope="module")
def extra_fans(p3):
    return [
        pn_fan(1),
        pn_fan(4),
        hirzebruch_fan(2),
        weighted_p1123(),
        star_subdivision(p3, (1, 1, 0)),
        star_subdivision(p3, (1, 1, 2)),
    ]


def test_corpus_fans_match_oracle(corpus_fans, extra_fans):
    rng = random.Random(2024)
    for fan in corpus_fans + extra_fans:
        assert_matches_oracle(fan, rng)


def test_corpus_includes_singular_scales(singular_fan, p3):
    # the cross-check above covers walls whose scale is not 1
    for fan in (singular_fan, weighted_p1123(), star_subdivision(p3, (1, 1, 2))):
        assert not validate(fan).smooth
        assert any(w.scale != 1 for w in walls(fan))


def test_every_table_surface_matches_oracle():
    rows = [r for r in load_builtin_table() if r.explicit]
    assert len(rows) == 67
    count = 0
    for row in rows:
        fan, _ = reconstruct_fan(row)
        for sigma in surfaces(fan):
            assert ch2_dot_surface(fan, sigma) == oracle.ch2_dot_surface(fan, sigma)
            count += 1
    assert count == 1730


@pytest.mark.parametrize(
    "P", [hexagon(), blowup_polytope((6, 5, 6, 5, 2))], ids=["hexagon", "blowup-65652"]
)
def test_mmp_visited_fans_match_oracle(P):
    trace = run_mmp_scaling(P, force=True)
    fans = []
    for step in trace.steps:
        for fan in (step.fan_before, step.fan_after):
            if fan not in fans:
                fans.append(fan)
    assert len(fans) >= 2
    rng = random.Random(7)
    for fan in fans:
        assert_matches_oracle(fan, rng)


def test_curve_number_rejects_non_walls(p2, p3):
    with pytest.raises(ValueError):
        curve_number(p2, anticanonical(p2), (0, 1))
    with pytest.raises(ValueError):
        curve_number(p3, anticanonical(p3), (0,))


def test_incomplete_surface_rejected():
    # the quadrant: V(()) is the affine plane, not a complete surface
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError):
        ch2_dot_surface(fan, ())
