"""The surface scan and the integer wall self-checks agree exactly with the
earlier per-surface scan and the ``Fraction`` self-checks kept in
``intersection_oracle``: equal values, equal types, equal errors.  Each
primitive integer relation, times its scale, is the oracle's relation times
its scale, and equal relations are exactly the oracle's equal class keys.
The nef threshold and the Kleiman test read off the integer relations agree
with the oracle's curve numbers.  The cone adjugates, cached by each cone's
rays and shared by the fans of a run, equal the per-fan ones of
``linalg_oracle``."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import intersection_oracle as oracle
import linalg_oracle
from conftest import pn_fan, singular_mfs_fan
from helpers import cold_caches, count_calls, faces_of_dim, run_divisor, scan
from test_circuit_replacement import _workloads, fourfold_polytopes
from toriq import fans, intersection, mmp
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import Fan, MalformedFanError, UnsupportedFanError, star_subdivision, walls
from toriq.intersection import ZERO, TorusDivisor, ch2_dot_surface, is_2fano, is_fano
from toriq.mmp import class_walls, run_mmp_scaling


def weighted_projective(weights) -> Fan:
    """P(w_0, ..., w_n) for w_0 = 1: rays e_1..e_n and -(w_1, ..., w_n)."""
    n = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return Fan(n, tuple(rays), tuple(combinations(range(n + 1), n)))


def singular_fans() -> list[Fan]:
    p3 = pn_fan(3)
    p1123 = weighted_projective((1, 1, 2, 3))
    return [
        weighted_projective((1, 1, 2)),
        weighted_projective((1, 2, 3)),
        p1123,
        weighted_projective((1, 2, 3, 5)),
        weighted_projective((1, 2, 2, 3)),
        weighted_projective((1, 1, 2, 2, 2)),
        singular_mfs_fan(),
        # subdivisions at points that are not the sum of their cone's rays
        star_subdivision(p3, (1, 1, 2)),
        star_subdivision(p3, (1, 2, 3)),
        star_subdivision(pn_fan(2), (1, 2)),
        star_subdivision(p1123, (1, 1, 1)),
    ]


@pytest.fixture(scope="module")
def table_fans():
    rows = [r for r in load_builtin_table() if r.explicit]
    assert len(rows) == 67
    return {row.name: reconstruct_fan(row)[0] for row in rows}


def surfaces(fan):
    return faces_of_dim(fan, fan.rank - 2) if fan.rank > 2 else [()]


def assert_walls_match_oracle(fan):
    """Equal wall cones, sides and multiplicities, equal scale * relation
    entry by entry, and a primitive integer relation with an exact scale."""
    got, want = walls(fan), oracle.walls_fraction(fan)
    assert len(got) == len(want)
    for w, o in zip(got, want):
        assert (w.wall_rays, w.side_a, w.side_b, w.multiplicity) == (
            o.wall_rays, o.side_a, o.side_b, o.multiplicity)
        assert [w.scale * r for r in w.relation] == [o.scale * r for r in o.relation]
        assert all(type(r) is int for r in w.relation) and gcd(*w.relation) == 1
        assert type(w.scale) is Fraction


def assert_scan_matches_oracle(fan):
    assert_walls_match_oracle(fan)
    expected = tuple((s, oracle.ch2_dot_surface_scan(fan, s)) for s in surfaces(fan))
    scan = is_2fano(fan).values
    assert repr(scan) == repr(expected)
    for sigma, value in expected:
        assert repr(ch2_dot_surface(fan, sigma)) == repr(value)
    return len(expected)


def test_every_table_surface_matches_scan_oracle(table_fans):
    assert sum(assert_scan_matches_oracle(fan) for fan in table_fans.values()) == 1730


def test_a_surface_reads_only_the_walls_over_it(table_fans, monkeypatch):
    # the scan reads each wall's relation once; one surface reads the walls
    # over it, one per cone over it (63,148 when it read every wall's)
    relations = count_calls(monkeypatch, "_relation", fans, intersection)
    for fan in table_fans.values():
        is_2fano(fan)
    assert len(relations) == 2346
    relations.clear()
    asked = [(fan, sigma) for fan in table_fans.values() for sigma in surfaces(fan)]
    for fan, sigma in asked:
        ch2_dot_surface(fan, sigma)
    assert (len(asked), len(relations)) == (1730, 7038)


def test_a_fan_finds_its_walls_once(table_fans, monkeypatch):
    # validate keeps the sorted walls on its cached report, and every
    # single-surface call reads them there
    facets = count_calls(monkeypatch, "_facets", fans)
    cold_caches()
    for _ in range(2):
        for fan in table_fans.values():
            for sigma in surfaces(fan):
                ch2_dot_surface(fan, sigma)
    assert len(facets) == len(set(table_fans.values())) == 67


def test_singular_fans_match_scan_oracle():
    for fan in singular_fans():
        assert not fans.validate(fan).smooth and fans.validate(fan).complete
        assert_scan_matches_oracle(fan)
    # the weights scale / mult(wall) and mult(sigma) all leave 1 somewhere
    found = [w for fan in singular_fans() for w in walls(fan)]
    assert {w.scale for w in found} > {1} and {w.multiplicity for w in found} > {1}
    assert any(fans.cone_multiplicity(fan, sigma) > 1
               for fan in singular_fans() for sigma in surfaces(fan))


@pytest.fixture(scope="module")
def fourfold_run_fans():
    """Every fan whose walls the forced seed-1 runs on the 67 rows search
    (the benchmark's 4-fold rows among them), the runs that fail their
    cross-validation included, with the (L, s0) of each search on it."""
    workloads = _workloads()
    seen = {}
    search = mmp._critical_value

    def recording(slacks, fan, s0):
        seen.setdefault(fan, []).append((run_divisor(slacks, fan), s0))
        return search(slacks, fan, s0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmp, "_critical_value", recording)
        for P in fourfold_polytopes(workloads).values():
            try:
                run_mmp_scaling(P, force=True)
            except MalformedFanError:
                pass
    return seen


def all_wall_fans(table_fans, fourfold_run_fans):
    return list(table_fans.values()) + singular_fans() + list(fourfold_run_fans)


def test_cone_inverses_match_per_fan_oracle(table_fans, fourfold_run_fans):
    # each cone's adjugate is cached by its rays, whichever fan met it first
    found = all_wall_fans(table_fans, fourfold_run_fans)
    assert len(found) == 67 + 11 + 212
    for fan in found:
        assert fans._inverses(fan) == linalg_oracle.cone_inverses(fan)


def test_class_walls_partition_matches_oracle_keys(table_fans, fourfold_run_fans):
    for fan in all_wall_fans(table_fans, fourfold_run_fans):
        key = {w.wall_rays: oracle.wall_class_key(w) for w in oracle.walls_fraction(fan)}
        for w in walls(fan):
            expected = [v.wall_rays for v in walls(fan) if key[v.wall_rays] == key[w.wall_rays]]
            assert [v.wall_rays for v in class_walls(fan, w)] == expected


def test_relation_is_the_walls_relation(table_fans, fourfold_run_fans):
    # the scan's relations, on the support rays only, are those of the
    # Wall records, entry by entry, wall by wall in ``walls`` order; the
    # relation is the one positive on both opposite rays, so read with the
    # wall's two sides swapped it is the same
    count = 0
    for fan in all_wall_fans(table_fans, fourfold_run_fans):
        inverses = fans._inverses(fan)
        two_sided = [(f, s) for f, s in sorted(fans._facets(fan).items()) if len(s) == 2]
        assert len(two_sided) == len(walls(fan))
        for w, (facet, sides) in zip(walls(fan), two_sided):
            assert facet == w.wall_rays
            for order in (sides, sides[::-1]):
                side, _, _, op, rel = fans._relation(fan, inverses, facet, order)
                on = dict(zip(fan.max_cones[side] + (op,), rel))
                assert tuple(on.get(i, 0) for i in range(len(fan.rays))) == w.relation
            count += 1
    assert count == 8576


def test_relations_are_primitive_integers(table_fans, fourfold_run_fans):
    found = [(fan, w) for fan in all_wall_fans(table_fans, fourfold_run_fans)
             for w in walls(fan)]
    # 2,346 walls of the rows, 74 of the singular fans and 6,156 of the 212
    # run fans, 208 of them on the 12 singular ones
    assert len(found) == 8576
    assert sum(not fans.validate(fan).smooth for fan in fourfold_run_fans) == 12
    for fan, w in found:
        assert all(type(r) is int for r in w.relation) and gcd(*w.relation) == 1
        assert all(w.relation[i] > 0 for i in w.opposite_rays(fan))


def threshold_outcome(search, fan, L, s0):
    """lambda and the attained walls, or the error message."""
    try:
        lam, attained = search(fan, L, s0)
    except ValueError as err:
        return str(err)
    return repr(lam), [w.wall_rays for w in attained]


def test_nef_threshold_matches_curve_number_oracle(table_fans, fourfold_run_fans):
    # -K, a perturbation of it and one prime divisor, at s0 = 0 and 1/3, on
    # the rows and the singular fans; each run's own (L, s0) on its fans
    searches = [(fan, L, s0) for fan, calls in fourfold_run_fans.items() for L, s0 in calls]
    for fan in list(table_fans.values()) + singular_fans():
        n = len(fan.rays)
        for coeffs in ((1,) * n, tuple(1 + Fraction(i % 3, 5) for i in range(n)),
                       (1,) + (0,) * (n - 1)):
            searches += [(fan, TorusDivisor(fan, coeffs), s0) for s0 in (ZERO, Fraction(1, 3))]
    seen = Counter()
    for fan, L, s0 in searches:
        got = threshold_outcome(scan, fan, L, s0)
        assert got == threshold_outcome(oracle.nef_threshold_from, fan, L, s0)
        seen[type(got)] += 1
    assert min(seen[tuple], seen[str]) >= 100, seen


def test_kleiman_walls_match_curve_number_oracle(fourfold_run_fans):
    found = [fan for fan in singular_fans() + list(fourfold_run_fans)
             if not fans.validate(fan).smooth]
    assert len(found) == 23
    for fan in found:
        verdict = is_fano(fan)
        assert verdict.method == "kleiman"
        assert verdict.witnesses == oracle.kleiman_walls(fan)


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


# the ray 3 is a maximal cone of its own, so no wall holds (3,)
LONE_RAY_FAN = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), ((0, 1, 2), (3,)))


@pytest.mark.parametrize("fan,sigma", [
    (Fan(2, ((1, 0), (0, 1)), ((0, 1),)), ()),                       # affine plane
    (Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),)), (0,)),  # incomplete
    (pn_fan(3), (5,)),                                                # not a cone
    (pn_fan(3), (0, 1)),                                              # a curve
    (pn_fan(4), (0,)),                                                # a curve
    (star_subdivision(pn_fan(3), (1, 1, 0)), (1,)),                   # a value
    (LONE_RAY_FAN, (3,)),                                             # a lone ray
], ids=["affine-plane", "octant", "out-of-range", "threefold-curve", "fourfold-curve",
        "value", "lone-ray"])
def test_errors_match_scan_oracle(fan, sigma):
    # the package and the moving oracle each against the scan oracle
    for fn in (ch2_dot_surface, oracle.ch2_dot_surface):
        try:
            expected = oracle.ch2_dot_surface_scan(fan, sigma)
        except ValueError:
            assert raised(fn, fan, sigma) == raised(oracle.ch2_dot_surface_scan, fan, sigma)
        else:
            assert repr(fn(fan, sigma)) == repr(expected)


@pytest.mark.parametrize("sigma", [(0, 0), (0, 9), (-1, 0), (2, 2)])
def test_tuples_that_are_no_cone(table_fans, sigma):
    # a repeated, out-of-range or negative index names no cone of P4
    fan = table_fans["P4"]
    assert raised(ch2_dot_surface, fan, sigma) == (
        ValueError, f"{tuple(sorted(sigma))} is not a cone of the fan")


def test_a_maximal_cone_is_no_complete_surface():
    # (3,) is a maximal cone with no inverse and no ray to move along, so
    # each routine must name the surface incomplete before it reads either
    for fn in (ch2_dot_surface, oracle.ch2_dot_surface_scan, oracle.ch2_dot_surface):
        assert raised(fn, LONE_RAY_FAN, (3,)) == (
            UnsupportedFanError, "the surface V(3,) is not complete")


def test_repeated_index_was_read_as_an_incomplete_surface(table_fans):
    # the per-surface scan took (0, 0) for the ray 0 and blamed the surface
    assert raised(oracle.ch2_dot_surface_scan, table_fans["P4"], (0, 0)) == (
        UnsupportedFanError, "the surface V(0, 0) is not complete")


def corrupted_inverses(fan, mode):
    """``fans._inverses`` with one adjugate row changed, in the cone that
    holds the lower opposite ray of the first wall: its own row negated
    ("nonconvex") or another row shifted along the higher ray ("vanish")."""
    wall = walls(fan)[0]
    lo, hi = sorted(wall.opposite_rays(fan))
    cone = next(c for c in (fan.max_cones[wall.side_a], fan.max_cones[wall.side_b]) if lo in c)
    table = dict(fans._inverses(fan))
    adj, d = table[cone]
    rows = [list(row) for row in adj]
    if mode == "nonconvex":
        rows[cone.index(lo)] = [-x for x in rows[cone.index(lo)]]
    else:
        p = next(p for p, i in enumerate(cone) if i != lo)
        k = next(k for k, x in enumerate(fan.rays[hi]) if x)
        rows[p][k] += 1
    table[cone] = (tuple(tuple(row) for row in rows), d)
    intact = fans._inverses
    return lambda f: table if f == fan else intact(f)


@pytest.mark.parametrize("mode,message", [
    ("nonconvex", "has a nonconvex crossing"), ("vanish", "does not vanish"),
])
@pytest.mark.parametrize("name", ["E_1", "117"])
def test_corrupted_adjugate_raises_like_oracle(table_fans, monkeypatch, name, mode, message):
    fan = table_fans[name]
    fans.validate(fan)  # cached from the intact adjugates
    # a surface of the corrupted wall (the first), whose star reads it
    sigma = walls(fan)[0].wall_rays[1:]
    broken = corrupted_inverses(fan, mode)
    monkeypatch.setattr(fans, "_inverses", broken)
    monkeypatch.setattr(intersection, "_inverses", broken)
    monkeypatch.setattr(oracle, "_inverses", broken)
    with pytest.raises(MalformedFanError, match=message) as got:
        walls.__wrapped__(fan)
    with pytest.raises(MalformedFanError) as want:
        oracle.walls_fraction.__wrapped__(fan)
    assert str(got.value) == str(want.value)
    # the scan runs the same checks on the same wall first
    for fn, args in ((is_2fano, (fan,)), (ch2_dot_surface, (fan, sigma))):
        with pytest.raises(MalformedFanError) as scanned:
            fn(*args)
        assert str(scanned.value) == str(got.value)


# the face fan of the cube [-1, 1]^3: six square cones, none simplicial
CUBE_FAN = Fan(
    3, ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)),
    ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)))


def test_non_simplicial_fan_has_no_surface_scan():
    # the scan oracle asks for the walls first; the moving oracle instead
    # names the surface incomplete, so it is not compared here
    assert not fans.validate(CUBE_FAN).simplicial
    assert all(len(cone) == 4 for cone in CUBE_FAN.max_cones)
    for fn in (ch2_dot_surface, oracle.ch2_dot_surface_scan):
        assert raised(fn, CUBE_FAN, (0,)) == (
            UnsupportedFanError, "walls are only computed for simplicial fans")
