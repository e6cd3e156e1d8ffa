"""Fan projections from one routine: ``image_fan`` and ``restricted_cones``
behind ``star_quotient``, ``mori_fiber_data`` and ``weakly_split`` give
exactly what the per-construction loops in ``projection_oracle`` give."""

import random
from collections import Counter
from itertools import combinations

import pytest

import projection_oracle as oracle
from helpers import cold_caches
from test_redundancy import acceptance_corpus
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import (
    Fan,
    MalformedFanError,
    image_fan,
    restricted_cones,
    star_quotient,
    wall_classification,
    walls,
    weakly_split,
)
from toriq.linalg import matrix_rank
from toriq.mmp import GeneralityError, mori_fiber_data, run_mmp_scaling
from toriq.polytopes import FacetPresentation, cayley_mori_build, normal_fan


def seg(lo, hi):
    return FacetPresentation(1, ((1,), (-1,)), (lo, hi), irredundant=True)


def tri(a, b, c):
    return FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (a, b, c), irredundant=True)


def cayley_sums():
    return [
        cayley_mori_build([seg(0, 2), seg(1, 4)], [(1,)]),
        cayley_mori_build([seg(0, 2), seg(0, 3), seg(0, 4)], [(1, 0), (0, 1)]),
        cayley_mori_build([seg(0, 1), seg(0, 2), seg(0, 2)], [(0, 1), (-2, 1)]),
        cayley_mori_build([tri(0, 0, 2), tri(0, 1, 3)], [(1,)]),
    ]


@pytest.fixture(scope="module")
def mmp_fans(corpus_fans, corpus_polytopes):
    """Every fan a run of the scaled program meets on the corpora, with the
    corpus fans themselves and every sixth explicit row of the 4-fold table."""
    polys = corpus_polytopes + acceptance_corpus(40) + cayley_sums()
    rows = [row for row in load_builtin_table() if row.explicit][::6]
    fans = list(corpus_fans) + [reconstruct_fan(row)[0] for row in rows]
    for P in polys:
        try:
            trace = run_mmp_scaling(P, force=True)
        except (GeneralityError, MalformedFanError):
            fans.append(normal_fan(P))
            continue
        fans.extend(step.fan_before for step in trace.steps)
    return list(dict.fromkeys(fans))


def fibering_walls(fan):
    return [w for w in walls(fan) if wall_classification(fan, w)[0] == 0]


def outcome(build, *args):
    try:
        return build(*args)
    except MalformedFanError as err:
        return type(err)


def test_mori_fiber_data_matches_oracle(mmp_fans):
    built = 0
    for fan in mmp_fans:
        for wall in fibering_walls(fan):
            got = outcome(mori_fiber_data, fan, wall)
            assert got == outcome(oracle.mori_fiber_data, fan, wall)
            built += got is not MalformedFanError
    assert built >= 40, built


def test_one_image_fan_per_fiber_data(mmp_fans, monkeypatch):
    # the base fan serves both the fibration test and weak splitting
    from toriq import fans

    calls, image_fan = [], fans._image_fan
    monkeypatch.setattr(fans, "_image_fan", lambda *args: calls.append(args) or image_fan(*args))
    built = 0
    for fan in mmp_fans:
        for wall in fibering_walls(fan):
            before = len(calls)
            cold_caches()  # so each fibration is computed, not read off an earlier call
            built += outcome(mori_fiber_data, fan, wall) is not MalformedFanError
            assert len(calls) == before + 1
    assert built >= 40, built


def random_projection(rng, k, n):
    while True:
        rows = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(k)]
        if matrix_rank(rows) == k:
            return rows


def test_weakly_split_matches_oracle(mmp_fans):
    """The ray counts decide weak splitting exactly as one rank test per
    maximal cone does, on every projection the program meets and on random
    surjections N -> Z^k."""
    rng = random.Random(60317)
    pairs = []
    for fan in mmp_fans:
        for wall in fibering_walls(fan):
            try:
                data = mori_fiber_data(fan, wall)
            except MalformedFanError:
                continue
            assert data.split == oracle.weakly_split(fan, data.projection, data.base_fan)
            pairs.append((fan, data.projection))
        for k in range(1, fan.rank):
            coordinates = [tuple(int(i == j) for i in range(fan.rank)) for j in range(k)]
            pairs.append((fan, coordinates))
            pairs += [(fan, random_projection(rng, k, fan.rank)) for _ in range(3)]
    seen = Counter()
    for fan, proj in pairs:
        got = weakly_split(fan, proj)
        assert got == oracle.weakly_split(fan, proj), (fan, proj)
        seen[got] += 1
    assert min(seen[True], seen[False]) >= 20, seen


@pytest.mark.parametrize("rays,cones,proj", [
    # two blade rays with one image: the image cone has too few rays
    (((1, 0, 0), (1, 0, 1), (0, 0, 1)), ((0, 1, 2),), [(1, 0, 0), (0, 1, 0)]),
    # blade images (1, 0) and (-1, 0): the image cone is not simplicial
    (((1, 0, 0), (-1, 0, 1)), ((0, 1),), [(1, 0, 0), (0, 1, 0)]),
    # a blade of two rays over an image ray
    (((1, 0), (1, 1)), ((0, 1),), [(1, 0)]),
    # two blades over one image cone
    (((1, 0), (1, 1), (0, 1), (0, -1)), ((0, 3), (1, 2)), [(1, 0)]),
])
def test_weakly_split_needs_every_count(rays, cones, proj):
    # off complete fans each check decides on its own
    fan = Fan(len(rays[0]), rays, cones)
    assert not weakly_split(fan, proj) and not oracle.weakly_split(fan, proj)


def test_star_quotient_matches_oracle(mmp_fans):
    checked = 0
    for fan in mmp_fans:
        faces = {sub for cone in fan.max_cones
                 for k in range(len(cone) + 1) for sub in combinations(cone, k)}
        for sigma in sorted(faces):
            q, proj = star_quotient(fan, sigma)
            assert (q, proj) == oracle.star_quotient(fan, sigma)
            checked += 1
    assert checked >= 500, checked


def test_image_fan_numbers_rays_by_first_appearance():
    fan = Fan(2, ((0, 1), (2, 1), (-1, 0), (0, -1)), ((0, 1), (0, 2), (1, 3), (2, 3)))
    q = image_fan(fan, [(1, 0)], fan.max_cones)
    # (0, 1) and (0, -1) map to zero; (2, 1) maps to (2,), primitive (1,)
    assert q == Fan(1, ((1,), (-1,)), ((0,), (1,)))
    assert image_fan(fan, [(1, 0)], [(2, 3)]).rays == ((-1,),)


def test_restricted_cones_keep_only_maximal_faces(p2, p3):
    assert restricted_cones(p2, (0, 1)) == [(0, 1)]
    assert restricted_cones(p3, (0, 1)) == [(0, 1)]
    assert restricted_cones(p3, (0,)) == [(0,)]
    assert restricted_cones(p3, ()) == [()]
