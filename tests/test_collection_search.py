"""Primitive collections are found as the minimal non-faces, grown from the
faces over cone bitmasks, and agree exactly with the earlier search over
every ray subset kept in ``intersection_oracle``: the same collections,
cones, coefficients and degrees in the same order, errors included.  They
are compared on the fans of the 67 explicit table rows (rebuilt from their
collections and as hulls), the singular fans of ``test_surface_scan``,
every fan that the forced seed-1 sweep and the 240 pool runs search, the
normal fans of the 40 adjoint-family polytopes of the benchmark, a few edge
cases, and Hypothesis star subdivisions of simplex fans, which are not
smooth.  The ``Fraction``s a seed-1 table-verify pass builds are pinned as
work counts."""

from collections import Counter
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import intersection_oracle as oracle
from conftest import pn_fan
from helpers import cold_caches, count_fractions
from test_certified_run import runs  # noqa: F401 (the fixture)
from test_circuit_replacement import _workloads
from test_surface_scan import assert_scan_matches_oracle, singular_fans, weighted_projective
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import (
    Fan,
    UnsupportedFanError,
    face_fan,
    primitive_collections,
    star_subdivision,
    validate,
)
from toriq.linalg import primitive_part
from toriq.polytopes import normal_fan


def outcome(search, fan):
    try:
        return search(fan)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_collections_match(fan):
    got = outcome(primitive_collections, fan)
    assert got == outcome(oracle.primitive_collections_over_subsets, fan)
    return got


def test_table_fans_match_oracle():
    rows = [row for row in load_builtin_table() if row.explicit]
    found = [assert_collections_match(fan) for row in rows
             for fan in (reconstruct_fan(row)[0], face_fan(list(row.rays)))]
    assert (len(rows), sum(map(len, found))) == (67, 2 * 514)


def test_singular_fans_match_oracle():
    found = [assert_collections_match(fan) for fan in singular_fans()]
    assert any(c.coefficients and max(x.denominator for x in c.coefficients) > 1
               for cs in found for c in cs)


def test_run_fans_match_oracle(runs):  # noqa: F811
    found = list(dict.fromkeys(fan for _, fan, _ in runs["searches"]))
    assert len(found) == 512
    assert sum(not validate(fan).smooth for fan in found) > 0
    for fan in found:
        assert_collections_match(fan)


def test_adjoint_family_fans_match_oracle():
    # the normal fans of the adjoint-family pool: singular, some with
    # collections of more than two rays
    workloads = _workloads()
    normal_fans = [normal_fan(workloads.adjoint_polytope(key)) for key in workloads.ADJOINT_KEYS]
    found = [assert_collections_match(fan) for fan in normal_fans]
    assert sum(not validate(fan).smooth for fan in normal_fans) == 15
    sizes = Counter(len(c.members) for cs in found for c in cs)
    assert sizes == {2: 200, 3: 15}


def test_edge_cases_match_oracle():
    octant = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    corners = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    cube = Fan(3, tuple(corners), tuple(tuple(i for i, v in enumerate(corners) if v[k] == s)
                                        for k in range(3) for s in (1, -1)))
    unused = Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
    point = Fan(0, (), ((),))
    for fan in (octant, cube):  # incomplete, not simplicial
        assert assert_collections_match(fan)[0] is UnsupportedFanError
    assert [c.members for c in assert_collections_match(unused)] == [(0, 1, 2)]
    assert assert_collections_match(point) == ()
    assert assert_collections_match(pn_fan(1))[0].degree == 2


@st.composite
def subdivided_simplex_fans(draw):
    """A weighted projective fan P(1, w) of rank 2 to 4, w in 1..3 with
    gcd 1, star-subdivided at one to three primitive vectors with entries
    in -3..3."""
    rank = draw(st.integers(2, 4))
    weights = st.lists(st.integers(1, 3), min_size=rank, max_size=rank)
    fan = weighted_projective([1] + draw(weights.filter(lambda w: gcd(*w) == 1)))
    entries = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    for v in draw(st.lists(entries.filter(any), min_size=1, max_size=3)):
        fan = star_subdivision(fan, primitive_part(tuple(v)))
    return fan


@given(subdivided_simplex_fans())
@settings(max_examples=150, deadline=None)
def test_subdivided_simplex_fans_match_oracle(fan):
    assert_collections_match(fan)
    assert_scan_matches_oracle(fan)


def test_fraction_work_of_a_table_pass(monkeypatch):
    # from cold caches, verify_row on the 67 rows in seed-1 order and
    # emit_report; with Fraction coordinates for every cone tried and a
    # Fraction per wall and weight of each surface they built 3497 in fans
    # and 9266 in intersection, and with one Fraction per surface 1730 in
    # intersection; one per distinct value of a fan is 448 over the 67 rows
    make_items, run_item, finish_pass = _workloads().WORKLOADS["table-verify"]
    items = make_items(1)
    counts = count_fractions(monkeypatch)
    cold_caches()
    counts.clear()
    finish_pass([run_item(row)[0] for _, row in items])
    assert dict(counts) == {"toriq.fans": 969, "toriq.intersection": 448}
