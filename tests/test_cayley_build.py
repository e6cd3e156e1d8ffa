"""A Cayley sum conv(P_0 x 0, P_1 x w_1, ..., P_k x w_k) is built as the hull
of its placed bases: its vertices are exactly the placed base vertices and
it has one facet per facet of the bases and k + 1 over the simplex, on every
Cayley input of the suite and on strictly equivalent bases drawn at random
(a simple polytope, its translates by integer characters and its positive
integer dilates) over random independent directions.  Each build takes one
hull and no redundancy removal.  Each input condition refuses with its own
message."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blowup_polytope, hexagon, simplex_polytope, unit_square
from helpers import count_calls
from toriq import linalg, polytopes
from toriq.linalg import det, dot
from toriq.polytopes import FacetPresentation, cayley_mori_build, vertices

F = Fraction


def segment(lo, hi) -> FacetPresentation:
    return FacetPresentation(1, ((1,), (-1,)), (-lo, hi), irredundant=True)


def triangle(a, b, c) -> FacetPresentation:
    return FacetPresentation(2, ((1, 0), (0, 1), (-1, -1)), (a, b, c), irredundant=True)


def doubled(P: FacetPresentation) -> FacetPresentation:
    return FacetPresentation(P.dim, P.normals, tuple(2 * a for a in P.constants), irredundant=True)


# the (bases, w) that the suite's tests build, and shapes of its seeded
# random ones: rational shifts of a 2D base, segments over s times I for k = 3
SUITE_INPUTS = [
    ([segment(0, 1), segment(0, 1)], [(1,)]),
    ([segment(0, 2), segment(0, 5)], [(1,)]),
    ([segment(0, 2), segment(-1, 4)], [(1,)]),
    ([segment(0, 1), segment(0, 3)], [(2,)]),
    ([segment(0, 2), segment(0, 3), segment(0, 4)], [(1, 0), (0, 1)]),
    ([segment(0, 1), segment(0, 2), segment(0, 2)], [(0, 1), (-2, 1)]),
    ([hexagon(), doubled(hexagon())], [(1,)]),
    ([triangle(0, 0, 2), triangle(0, 1, 3)], [(1,)]),
    ([blowup_polytope((0, 0, 2, 2, 3)), blowup_polytope((F(1, 4), 0, 2, F(5, 2), 3))], [(1,)]),
    ([segment(0, 1), segment(-1, 2), segment(0, 3), segment(-2, 3)],
     [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
]

SIMPLE = [
    segment(0, 1),
    simplex_polytope(2, 1),
    triangle(F(1, 2), 0, 2),
    unit_square(),
    blowup_polytope((0, 0, 2, 2, 3)),
    hexagon(),
]


@st.composite
def strictly_equivalent_inputs(draw):
    """k + 1 dilates and integer translates of one simple polytope, k = 1, 2,
    and k independent integer directions."""
    P = draw(st.sampled_from(SIMPLE))
    k = draw(st.integers(1, 2))
    bases = []
    for _ in range(k + 1):
        c = draw(st.integers(1, 3))
        u = draw(st.lists(st.integers(-3, 3), min_size=P.dim, max_size=P.dim))
        bases.append(FacetPresentation(P.dim, P.normals, tuple(
            c * a - dot(v, u) for v, a in zip(P.normals, P.constants)), irredundant=True))
    rows = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    w = draw(st.lists(rows, min_size=k, max_size=k).filter(lambda W: det(W) != 0))
    return bases, w


def assert_is_placed_hull(bases, w):
    Q = cayley_mori_build(bases, w)
    k = len(w)
    placed = [(*x, *map(F, wi)) for B, wi in zip(bases, [(0,) * k, *w])
              for x in vertices(B).vertices]
    assert sorted(vertices(Q).vertices) == sorted(placed)
    assert Q.nfacets == bases[0].nfacets + k + 1
    assert Q.irredundant


def test_suite_inputs_are_hulls_of_placed_bases():
    for bases, w in SUITE_INPUTS:
        assert_is_placed_hull(bases, w)


@given(strictly_equivalent_inputs())
@example(([segment(0, 1), segment(2, 4), segment(-1, 2)], [(1, -1), (1, 1)]))
@example(([unit_square(), doubled(unit_square())], [(-3,)]))
@settings(max_examples=80, deadline=None)
def test_random_inputs_are_hulls_of_placed_bases(inputs):
    assert_is_placed_hull(*inputs)


def test_one_hull_and_no_redundancy_removal(monkeypatch):
    hulls = count_calls(monkeypatch, "hull_facets", linalg, polytopes)
    removals = count_calls(monkeypatch, "remove_redundant", polytopes)
    for i, (bases, w) in enumerate(SUITE_INPUTS, 1):
        cayley_mori_build(bases, w)
        assert (len(hulls), len(removals)) == (i, 0)


PENTAGON = blowup_polytope((0, 0, 2, 2, 3))


@pytest.mark.parametrize("bases,w,message", [
    ([PENTAGON], [], "need at least two base polytopes"),
    # the square [0, 2]^2 on the pentagon's normals: x + y <= 4 only meets a corner
    ([PENTAGON, blowup_polytope((0, 0, 2, 2, 4))], [(1,)],
     "base polytopes are not strictly combinatorially equivalent"),
    ([PENTAGON, PENTAGON], [(1, 0)], "need 1 direction vectors of length 1"),
    ([PENTAGON, PENTAGON, PENTAGON], [(1, 2), (2, 4)], "direction vectors are linearly dependent"),
], ids=["one-base", "not-equivalent", "wrong-shape", "dependent"])
def test_bad_inputs_rejected(bases, w, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cayley_mori_build(bases, w)
