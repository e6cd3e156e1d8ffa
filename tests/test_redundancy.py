"""Redundancy removal read off the vertex-facet incidences agrees exactly with
the LP oracle in ``polytope_oracle``, and the adjoint path runs no LP.  The
nef threshold read off the walls agrees with the oracle's vertex tracking,
and the hull of a polytope's vertices gives back its irredundant
presentation.  The equalities and facets read off the tight sets agree with
the vertices' coordinates, and a presentation is refused as
lower-dimensional exactly when its vertices' affine rank is low.  On the
same presentations the integer vertex sets equal the ``Fraction``
enumeration kept in ``polytope_oracle``, errors included."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
import polytope_oracle as oracle
from conftest import BLOWUP_RAYS, blowup_polytope, hexagon, simplex_polytope
from helpers import count_calls, count_enumerations, count_lps
from test_acceptance import random_simple_polytope
from test_adjoint_certificate import sweep_polytopes
from toriq import polytopes
from toriq.fans import face_fan
from toriq.linalg import dot, primitive_part
from toriq.mmp import run_mmp_scaling
from toriq.polytopes import (
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    RedundantPresentationError,
    UnboundedError,
    adjoint,
    effective_threshold,
    facet_presentation_from_vertices,
    polytope_of_divisor,
    remove_redundant,
    vertices,
)

FLIP_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2),
             (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def outcome(reduce, P):
    """The (Q, removed) result, or the class of the error raised."""
    try:
        return reduce(P)
    except ValueError as err:
        return type(err)


def assert_matches_oracle(P):
    got = outcome(remove_redundant, P)
    assert got == outcome(oracle.remove_redundant, P), P
    return got


def random_presentation(rng, dim):
    """Random primitive normals with small constants: often empty, unbounded
    or lower-dimensional, sometimes a bounded full-dimensional polytope.  A
    quarter of them also get the opposite of one normal with the opposite
    constant, which flattens the polytope into that hyperplane."""
    normals = []
    for _ in range(rng.randint(dim + 1, dim + 5)):
        v = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(v):
            v = primitive_part(v)
            if v not in normals:
                normals.append(v)
    constants = [Fraction(rng.randint(-2, 3), rng.choice((1, 2))) for _ in normals]
    if normals and rng.random() < 0.25:
        k = rng.randrange(len(normals))
        flat = tuple(-a for a in normals[k])
        if flat not in normals:
            normals.append(flat)
            constants.append(-constants[k])
    return FacetPresentation(dim, tuple(normals), tuple(constants))


def with_supporting_inequality(rng, P):
    """P plus a redundant inequality through one vertex whose normal is the
    sum of some of the normals tight there, so it touches P in a vertex, an
    edge or a facet; None when no new normal comes out."""
    vs = vertices(P)
    k = rng.randrange(len(vs.vertices))
    x, tight = vs.vertices[k], vs.tight[k]
    chosen = rng.sample(tight, rng.randint(2, len(tight)))
    w = primitive_part(tuple(sum(P.normals[i][c] for i in chosen) for c in range(P.dim)))
    if w in P.normals:
        return None
    normals = list(P.normals)
    constants = list(P.constants)
    at = rng.randint(0, len(normals))
    normals.insert(at, w)
    constants.insert(at, -dot(w, x))
    return FacetPresentation(P.dim, tuple(normals), tuple(constants))


def test_random_presentations_match_oracle():
    rng = random.Random(20121)
    seen = {EmptyPolytopeError: 0, UnboundedError: 0, DegenerateError: 0}
    reduced = touching = 0
    for trial in range(600):
        P = random_presentation(rng, trial % 3 + 1)
        got = assert_matches_oracle(P)
        if isinstance(got, type):
            seen[got] += 1
            continue
        reduced += bool(got[1])
        Q = with_supporting_inequality(rng, got[0]) if P.dim > 1 else None
        if Q is not None:
            _, removed = assert_matches_oracle(Q)
            touching += bool(removed)
    # the corpus reaches every outcome
    assert min(seen.values()) >= 40 and reduced >= 20 and touching >= 40, (
        seen, reduced, touching)


@st.composite
def presentations(draw):
    """Presentations in dimension 1-3: the box x_i >= -a_i, x_i <= b_i, with
    b_i = -a_i (flat along x_i) a quarter of the time, and up to three more
    primitive normals, each with its opposite at the opposite constant a
    quarter of the time, so lower-dimensional polytopes, points among them,
    are common."""
    flat = st.sampled_from((True, False, False, False))
    dim = draw(st.integers(1, 3))
    const = st.builds(Fraction, st.integers(-2, 3), st.sampled_from((1, 2)))
    ineqs = {}
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        ineqs[e] = a = draw(const)
        ineqs[tuple(-x for x in e)] = -a if draw(flat) else draw(const)
    for v in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=3)):
        if any(v) and primitive_part(v) not in ineqs:
            v = primitive_part(v)
            ineqs[v] = a = draw(const)
            w = tuple(-x for x in v)
            if w not in ineqs and draw(flat):
                ineqs[w] = -a
    return FacetPresentation(dim, tuple(ineqs), tuple(ineqs.values()))


def vertex_outcome(enumerate_, P, allow_lower_dim):
    """The vertices and tight sets, or the error's type and message."""
    try:
        vs = enumerate_(P, allow_lower_dim)
    except ValueError as err:
        return type(err), str(err)
    return (vs.vertices, vs.tight) if isinstance(vs, polytopes.VertexSet) else vs


def assert_vertices_match(P):
    # the integer points equal the Fraction body's vertices, errors included
    for lower in (False, True):
        assert vertex_outcome(vertices, P, lower) == vertex_outcome(
            oracle.vertices_over_fractions, P, lower)


@given(presentations())
@settings(max_examples=400, deadline=None)
def test_degenerate_exactly_when_oracle_rank_is_low(P):
    assert_vertices_match(P)
    try:
        vs = vertices(P, allow_lower_dim=True)
    except (EmptyPolytopeError, UnboundedError) as err:
        with pytest.raises(type(err)):
            vertices(P)
        return
    equalities, facets = polytopes._faces(vs.tight)
    assert (sorted(equalities), facets) == oracle.faces(P, vs.vertices)
    if linalg_oracle.affine_rank(vs.vertices) < P.dim:
        with pytest.raises(DegenerateError, match="^polytope is not full-dimensional$"):
            vertices(P)
    else:
        assert vertices(P) == vs


def acceptance_corpus(count):
    rng = random.Random(73911)
    corpus = []
    while len(corpus) < count:
        P = random_simple_polytope(rng, 2 if len(corpus) % 2 else 3)
        if P is not None:
            corpus.append(P)
    return corpus


def test_adjoint_family_matches_oracle():
    for P in acceptance_corpus(24):
        sigma = effective_threshold(P)
        for j in range(9):
            A = adjoint(P, sigma * Fraction(j, 8))
            got = assert_matches_oracle(A)
            assert A.irredundant == (not isinstance(got, type) and not got[1])


@pytest.mark.parametrize("P", [
    hexagon(),
    blowup_polytope((6, 5, 6, 5, 2)),
    polytope_of_divisor(face_fan(list(FLIP_RAYS)), (3, 5, 3, 5, 5, 8, 6)),
], ids=["hexagon", "blowup-65652", "flips"])
def test_critical_values_match_oracle(P):
    P, _ = remove_redundant(P)
    trace = run_mmp_scaling(P, force=True)
    for lam in trace.critical_values:
        assert_matches_oracle(adjoint(P, lam, allow_redundant=True))


def test_adjoint_path_runs_no_lp(monkeypatch):
    P = acceptance_corpus(1)[0]
    sigma = effective_threshold(P)
    calls = count_lps(monkeypatch)

    def adjoint_path_lps():
        polytopes.vertices.cache_clear()
        calls.clear()
        remove_redundant(adjoint(P, sigma / 2))
        return len(calls)

    # normals that do not span leave the cone a lineality space, and the
    # rays of its pointed part tell an empty strip from a full one without
    # an LP; sigma(P) from a cold cache is one LP, so the count is live
    with pytest.raises(UnboundedError):
        vertices(FacetPresentation(2, ((1, 0), (-1, 0)), (0, 1)))
    with pytest.raises(EmptyPolytopeError):
        vertices(FacetPresentation(2, ((1, 0), (-1, 0)), (-1, 0)))
    assert len(calls) == 0
    effective_threshold.cache_clear()
    assert effective_threshold(P) == sigma and len(calls) == 1
    assert adjoint_path_lps() == 0


def test_effective_threshold_one_lp_per_polytope(monkeypatch):
    # thresholds and the core ask for sigma(P); the MMP run proves it from
    # its own certificates and solves no LP
    P = acceptance_corpus(1)[0]

    def run():
        polytopes.thresholds(P)
        polytopes.core_and_projection(P)
        run_mmp_scaling(P)

    run()  # warms every other cache, boundedness included
    calls = count_lps(monkeypatch)
    polytopes.vertices.cache_clear()
    polytopes.effective_threshold.cache_clear()
    run()
    assert len(calls) == 1


def test_hull_of_vertices_round_trips(corpus_polytopes):
    for P in corpus_polytopes:
        Q, _ = remove_redundant(P)
        H = facet_presentation_from_vertices(vertices(P).vertices)
        assert list(zip(H.normals, H.constants)) == sorted(zip(Q.normals, Q.constants))


def test_nef_threshold_matches_vertex_tracking(corpus_polytopes):
    simplices = [simplex_polytope(n, a) for n, a in ((2, 2), (2, 7), (3, 5), (4, 3))]
    for P in corpus_polytopes + acceptance_corpus(100) + simplices:
        assert polytopes.thresholds(P).nef == oracle.nef_threshold_tracking(P)


@pytest.mark.parametrize("irredundant", [True, False])
def test_nef_threshold_needs_simple_irredundant(irredundant):
    octahedron = FacetPresentation(
        3, tuple((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)),
        (1,) * 8, irredundant=irredundant,
    )
    for threshold in (polytopes.nef_threshold_tracking, oracle.nef_threshold_tracking):
        with pytest.raises(RedundantPresentationError):
            threshold(octahedron)


def test_irredundance_flag_is_not_identity():
    flagged = hexagon()
    plain = FacetPresentation(flagged.dim, flagged.normals, flagged.constants)
    assert flagged.irredundant and not plain.irredundant
    assert flagged == plain and hash(flagged) == hash(plain)


def test_reduced_presentation_shares_its_vertex_set(monkeypatch):
    calls = count_enumerations(monkeypatch)
    Q, removed = remove_redundant(FacetPresentation(2, BLOWUP_RAYS, (6, 5, 6, 5, 2)))
    assert removed == () and Q.irredundant
    polytopes.normal_fan(Q)
    assert polytopes.is_simple(Q)
    assert len(calls) == 1


def test_forced_run_enumerates_each_presentation_once(monkeypatch):
    # P only: the intervals are certified without enumeration, the core and
    # the Mori interval's polytope are read off the certificates, and the
    # point core's Q is P sorted, its fan read off P's vertex set, no hull
    calls = count_enumerations(monkeypatch)
    hulls = []
    monkeypatch.setattr(polytopes, "hull_facets", lambda pts: hulls.append(pts))
    run_mmp_scaling(blowup_polytope((6, 5, 6, 5, 2)), force=True)
    assert len(calls) == 1
    assert hulls == []


def test_forced_fourfold_run_enumerates_P_and_Q(monkeypatch):
    # row 117 (seed-1 perturbation), whose core is not a point: P, and Q
    # from its one hull; the core and the tail come from the certificates
    calls = count_enumerations(monkeypatch)
    hulls = count_calls(monkeypatch, "hull_facets", polytopes)
    P = sweep_polytopes()["117"]
    Q = run_mmp_scaling(P, force=True).core_projection.Q
    assert Q.dim < P.dim
    assert [tuple(v[:-1] for v in rows[:-1]) for rows, in calls] == [P.normals, Q.normals]
    assert len(hulls) == 1


def test_forced_run_takes_one_hull(monkeypatch):
    # the 2 x 1 rectangle's core is a segment: Q is a hull, and the Cayley
    # bases of its tail are read off P's tight sets
    hulls = []
    hull = polytopes.hull_facets
    monkeypatch.setattr(polytopes, "hull_facets", lambda pts: hulls.append(pts) or hull(pts))
    rectangle = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, 2, 1),
                                  irredundant=True)
    trace = run_mmp_scaling(rectangle, force=True)
    assert trace.core_projection.kernel_basis and trace.validation["tail_is_cayley"]
    assert len(hulls) == 1


def test_lower_dimensional_presentation_rejected():
    # the unit square cut down to its bottom edge by y <= 0
    flat = FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, 1, 0))
    with pytest.raises(DegenerateError, match="^polytope is not full-dimensional$"):
        remove_redundant(flat)
