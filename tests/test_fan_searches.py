"""The fan searches of a table row keep their results while they test fewer
candidates.  The reconstruction from primitive collections, which grows its
cones from prefixes, keeps exactly the cones of the subset search in
``linalg_oracle``, with the same error type, on Hypothesis data of ranks 2
to 4 with at most 9 rays and collections that are empty, single-member,
repeat a member or list it out of order.  The cover certificate of
``validate``, which reads each cone up to its first negative sign, passes or
raises as the one that read every sign (``linalg_oracle.certify_cover_all_signs``)
on the table fans, the fans the forced sweep and pool runs search, the
singular fans of ``test_surface_scan``, their mutants and double covers of
ranks 2 to 4.  It may try fewer points than the oracle, so on a double
cover it can name another pair of overlapping cones."""

import re
from ast import literal_eval
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from test_certified_run import runs  # noqa: F401 (the fixture)
from test_collection_search import subdivided_simplex_fans
from test_surface_scan import singular_fans
from toriq import fans
from toriq.fano_table import load_builtin_table, reconstruct_fan
from toriq.fans import (
    Fan,
    MalformedFanError,
    ReconstructionError,
    fan_from_primitive_data,
    primitive_collections,
    validate,
)
from toriq.linalg import is_primitive


def rebuilt(rays, collections):
    """The maximal cones ``fan_from_primitive_data`` keeps, or the type of
    its error."""
    try:
        return fan_from_primitive_data(rays, collections).max_cones
    except ValueError as exc:
        return type(exc)


def rebuilt_over_subsets(rays, collections):
    """The same from the oracle's subset search: its cones when they make a
    complete simplicial fan, else ``ReconstructionError``."""
    fan = Fan(len(rays[0]), tuple(rays), tuple(oracle.primitive_data_cones(rays, collections)))
    try:
        rep = validate(fan)
    except MalformedFanError:
        return ReconstructionError
    if rep.well_formed and rep.simplicial and rep.complete:
        return fan.max_cones
    return ReconstructionError


@st.composite
def primitive_data(draw):
    """The rays and primitive collections of a star-subdivided simplex fan
    (``test_collection_search``), maybe with one more ray: the collections
    shuffled, each listed in any order and maybe with its first member
    repeated, one maybe dropped, and up to two arbitrary ones of at most
    three members added, empty ones included."""
    fan = draw(subdivided_simplex_fans())
    rays = list(fan.rays)
    extra = tuple(draw(st.lists(st.integers(-2, 2), min_size=fan.rank, max_size=fan.rank)))
    if any(extra) and is_primitive(extra) and extra not in rays and draw(st.booleans()):
        rays.append(extra)
    collections = []
    for members in draw(st.permutations([c.members for c in primitive_collections(fan)])):
        members = draw(st.permutations(members))
        collections.append(members + members[:draw(st.integers(0, 1))])
    if collections and draw(st.integers(0, 3)) == 0:
        del collections[draw(st.integers(0, len(collections) - 1))]
    members = st.lists(st.integers(0, len(rays) - 1), max_size=3)
    return rays, collections + draw(st.lists(members, max_size=2))


@given(primitive_data())
@settings(max_examples=200, deadline=None)
def test_reconstruction_matches_subset_search(data):
    rays, collections = data
    assert len(rays) <= 9
    assert rebuilt(rays, collections) == rebuilt_over_subsets(rays, collections)


@pytest.mark.parametrize("collections", [[()], [(0, 1, 2), ()], [[], (1,)]])
def test_empty_collection_raises_reconstruction_error(p2, collections):
    assert rebuilt(list(p2.rays), collections) is ReconstructionError
    assert rebuilt_over_subsets(list(p2.rays), collections) is ReconstructionError


def certified(fan) -> bool:
    """Whether ``validate`` hands the fan to the cover certificate: every
    maximal cone has ``rank`` independent rays and every facet lies in two."""
    inverses = fans._inverses(fan)
    return (fan.rank > 0 and len(inverses) == len(fan.max_cones) > 0
            and all(d for _, d in inverses.values())
            and all(len(sides) == 2 for sides in fans._facets(fan).values()))


def cover_outcome(certify, fan):
    try:
        certify(fan, fans._inverses(fan), fans._facets(fan))
    except MalformedFanError as exc:
        return str(exc)
    return None


def assert_cover_matches_oracle(fan):
    """The certificate passes or raises as the oracle does, with the same
    message, except that an overlap found from another trial point may name
    another pair of cones: that pair must overlap too (the exact pairwise
    LP test)."""
    got = cover_outcome(fans._certify_cover, fan)
    want = cover_outcome(oracle.certify_cover_all_signs, fan)
    if got and want and "overlap" in got and got != want:
        assert "overlap" in want
        assert fans._pair_overlaps(fan, *map(literal_eval, re.findall(r"\([\d, ]+\)", got)))
    else:
        assert got == want
    return got


def mutants(fan):
    """The fan with one ray negated, and with two neighbouring rays swapped
    (which swaps the cones through them), for each ray in turn: the facets
    keep their two cones each."""
    rays = list(fan.rays)
    for k, v in enumerate(rays):
        if (neg := tuple(-x for x in v)) not in rays:
            yield Fan(fan.rank, tuple(rays[:k] + [neg] + rays[k + 1:]), fan.max_cones)
        swapped = list(rays)
        j = (k + 1) % len(rays)
        swapped[k], swapped[j] = rays[j], rays[k]
        yield Fan(fan.rank, tuple(swapped), fan.max_cones)


# five rays whose cones (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), each under 180
# degrees, wind twice round the origin (``test_fans.test_double_cover_raises``);
# in the second, the ray (-1, -2) puts the first trial point (1, 2) on a
# boundary line of the two cones through it, neither of which holds it
PLANE_DOUBLE_COVERS = [
    [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
    [(1, 0), (-4, 3), (1, -3), (1, 3), (-1, -2)],
]


def double_cover(plane, rank: int) -> Fan:
    """A plane double cover joined with the rays +-e_k of each further
    coordinate: 5 * 2^(rank - 2) cones."""
    rays, cones = plane, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    for k in range(2, rank):
        rays = [r + (0,) for r in rays] + [(0,) * k + (1,), (0,) * k + (-1,)]
        cones = [c + (len(rays) - s,) for c in cones for s in (1, 2)]
    return Fan(rank, tuple(rays), tuple(cones))


def test_double_cover_of_rank_three_raises():
    fan = double_cover(PLANE_DOUBLE_COVERS[0], 3)
    assert len(fan.max_cones) == 10 and certified(fan)
    with pytest.raises(MalformedFanError, match="overlap"):
        validate(fan)
    assert "overlap" in assert_cover_matches_oracle(fan)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("plane", PLANE_DOUBLE_COVERS)
def test_double_covers_and_their_mutants_match_oracle(plane, rank):
    fan = double_cover(plane, rank)
    assert "overlap" in assert_cover_matches_oracle(fan)
    # only the second cover puts (1, 2, ...) on a boundary line of a cone
    # that does not hold it: the oracle tries further points there
    trial = (1, 2, 4, 8)[:rank]
    on_line = [c for c in fan.max_cones if 0 in fans._cone_coords(fan, c, trial)]
    assert bool(on_line) == (plane is PLANE_DOUBLE_COVERS[1])
    for mutant in mutants(fan):
        if certified(mutant):
            assert_cover_matches_oracle(mutant)


def test_table_and_singular_fans_and_their_mutants_match_oracle():
    rows = [row for row in load_builtin_table() if row.explicit]
    kinds = Counter()
    for fan in [reconstruct_fan(row)[0] for row in rows] + singular_fans():
        assert assert_cover_matches_oracle(fan) is None
        for mutant in mutants(fan):
            if certified(mutant):
                got = assert_cover_matches_oracle(mutant)
                kinds["passes" if got is None else got.split(" ")[-1]] += 1
    # no mutant here is a double cover: each one that fails has a fold
    assert set(kinds) == {"passes", "wall"}, kinds


def test_run_fans_and_their_mutants_match_oracle(runs):  # noqa: F811
    found = list(dict.fromkeys(fan for _, fan, _ in runs["searches"]))
    assert len(found) == 512
    for fan in found:
        assert assert_cover_matches_oracle(fan) is None
        for mutant in mutants(fan):
            if certified(mutant):
                assert_cover_matches_oracle(mutant)
