"""The exact interval certificate of the adjoint cross-validation agrees with
the sampled check kept in ``mmp_oracle`` on every pinned trace, rejects
doctored traces, and a point core's Q read off P agrees with the hull."""

import random
from fractions import Fraction

import pytest

import mmp_oracle as oracle
from conftest import blowup_polytope, hexagon
from helpers import certificates
from test_acceptance import random_simple_polytope
from toriq import mmp, polytopes
from toriq.fano_table import load_builtin_table
from toriq.fans import Fan, MalformedFanError, face_fan, walls
from toriq.polytopes import (
    FacetPresentation,
    core_and_projection,
    effective_threshold,
    facet_presentation_from_vertices,
    polytope_of_divisor,
    remove_redundant,
    vertices,
)

F = Fraction

FLIP_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2),
             (-1, 0, 0), (0, -1, 0), (0, 0, -1))
# the ten rows of the 4-fold benchmark workload
MMP_ROWS = ("117", "G_5", "H_6", "G_4", "M_1", "Q_1", "Q_5", "H_4", "I_8", "U_2")
# the rows of the seed-1 sweep whose core is a point
POINT_CORE_ROWS = ("P4", "E_2", "E_3", "G_2", "H_4", "I_3", "I_6", "I_8", "I_15", "Q_14")


def sweep_polytopes() -> dict:
    """P_L for L = -K + sum (k_i/10000) D_i on every explicit 4-fold row, with
    k_i drawn in table order from seed 1 (the 4-fold sweep)."""
    rows = [r for r in load_builtin_table() if r.explicit]
    rng = random.Random(1)
    ks = {r.name: tuple(rng.randint(1, 99) for _ in r.rays) for r in rows}
    return {
        r.name: FacetPresentation(len(r.rays[0]), r.rays,
                                  tuple(1 + F(k, 10000) for k in ks[r.name]), irredundant=True)
        for r in rows
    }


def pool_polytope(key: str) -> FacetPresentation:
    """Entry ``d<dim>-<i>`` of the adjoint-family pool: the first simple
    polytope drawn from its own generator."""
    rng = random.Random(f"adjoint-family/{key}")
    while True:
        P = random_simple_polytope(rng, int(key[1]))
        if P is not None:
            return P


def flip_polytope(coeffs) -> FacetPresentation:
    return remove_redundant(polytope_of_divisor(face_fan(list(FLIP_RAYS)), coeffs))[0]


def unvalidated(P) -> mmp.MMPTrace:
    """The forced run's trace before its cross-validation, with the core
    and projection that ``core_and_projection`` enumerates (the
    cross-validation sets its own)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmp, "_adjoint_cross_validation", lambda trace, certs: None)
        trace = mmp.run_mmp_scaling(P, force=True)
    trace.core_projection = core_and_projection(P)
    return trace


def cross_validation(trace):
    """The package's check, on the certificates the run builds for P."""
    mmp._adjoint_cross_validation(trace, certificates(trace))


def outcome(check, trace):
    """The notes (in order) and the error message of one cross-validation,
    run on a fresh copy of the trace."""
    trace = trace._replace(validation={})
    try:
        check(trace)
        error = None
    except MalformedFanError as exc:
        error = str(exc)
    return list(trace.validation.items()), error


def sampling_fails(*args, **kwargs):
    raise AssertionError("the cross-validation sampled an adjoint polytope")


def forbid_sampling(mp, P):
    """Patch ``adjoint``, and ``remove_redundant`` on anything but P itself
    (a point core's Q is P's irredundant part), to fail."""
    remove = polytopes.remove_redundant
    mp.setattr(polytopes, "adjoint", sampling_fails)
    mp.setattr(polytopes, "remove_redundant",
               lambda Q: remove(Q) if Q == P else sampling_fails())


def zero_length_intervals(trace) -> list[int]:
    lams = (F(0),) + trace.critical_values
    return [k for k in range(len(trace.steps)) if lams[k] == lams[k + 1]]


def assert_matches_oracle(P):
    """The package check, run with the sampling routines patched to fail,
    has the oracle's outcome; every zero-length interval fails its fan note
    in both."""
    trace = unvalidated(P)
    with pytest.MonkeyPatch.context() as mp:
        forbid_sampling(mp, P)
        got = outcome(cross_validation, trace)
    expected = outcome(oracle._adjoint_cross_validation, trace)
    assert got == expected
    for notes, _ in (got, expected):
        assert all(dict(notes)[f"interval_{k}_fan_matches"] is False
                   for k in zero_length_intervals(trace))
    return got


def test_forced_hexagon_and_blowup_match_oracle():
    for P in (hexagon(), blowup_polytope((6, 5, 6, 5, 2))):
        assert_matches_oracle(P)


def test_acceptance_corpora_match_oracle(corpus_polytopes):
    polys = list(corpus_polytopes) + [
        flip_polytope((3, 5, 3, 5, 5, 8, 6)),
        flip_polytope((2, 3, 2, 8, 4, 7, 7)),
    ]
    rng = random.Random(73911)
    while len(polys) < 30:
        P = random_simple_polytope(rng, rng.choice([2, 3]))
        if P is not None:
            polys.append(P)
    for P in polys:
        assert_matches_oracle(P)


def test_four_fold_rows_match_oracle():
    polys = sweep_polytopes()
    failed = []
    for name in MMP_ROWS:
        _, error = assert_matches_oracle(polys[name])
        if error is not None:
            failed.append(name)
    # G_4's fiber-polytope check is a known failure, in both versions
    assert failed == ["G_4"]


def test_zero_length_interval_matches_oracle():
    P = pool_polytope("d3-48")
    lams = unvalidated(P).critical_values
    assert any(a == b for a, b in zip(lams, lams[1:]))
    assert_matches_oracle(P)


def test_zero_length_intervals_need_no_sample():
    # d3-48 and d3-78 carry P^(lam) from the interval before; d2-23 and
    # d2-43 end on a zero-length Mori step at sigma_P, with no data
    for key, zero in (("d2-23", [1]), ("d2-43", [1]), ("d3-48", [4]), ("d3-78", [1])):
        P = pool_polytope(key)
        assert zero_length_intervals(unvalidated(P)) == zero
        notes, _ = assert_matches_oracle(P)
        k = zero[0]
        assert [n for n, _ in notes if n.startswith(f"interval_{k}_")] == (
            [f"interval_{k}_fan_matches"] if key.startswith("d2") else
            [f"interval_{k}_facets", f"interval_{k}_fan_matches", f"interval_{k}_simple"])


def doctored(trace, k, **changes):
    """A copy of the trace whose step k has the given fields replaced."""
    steps = [s._replace(**changes) if i == k else s
             for i, s in enumerate(trace.steps)]
    return trace._replace(steps=steps)


def false_notes(check, trace):
    notes, _ = outcome(check, trace)
    return [key for key, value in notes if not value]


FIRST = blowup_polytope((2, 1, 2, 1, F(5, 2)))   # divisorial at 1/2, fibering at 1


def test_lambda_too_large_rejected():
    bad = doctored(unvalidated(FIRST), 0, lam=F(3, 4))
    # a slack turns negative inside (0, 3/4): the certificate fails
    assert "interval_0_fan_matches" in false_notes(cross_validation, bad)
    # the oracle samples 3/8, where the fan is still right
    assert false_notes(oracle._adjoint_cross_validation, bad) == []


def test_failed_certificate_records_only_the_fan_note():
    bad = doctored(unvalidated(FIRST), 0, lam=F(3, 4))
    with pytest.MonkeyPatch.context() as mp:
        forbid_sampling(mp, bad.initial_polytope)
        notes, _ = outcome(cross_validation, bad)
    assert [(key, value) for key, value in notes if "_0_" in key] == [
        ("interval_0_fan_matches", False)]


def test_lambda_too_small_rejected():
    bad = doctored(unvalidated(FIRST), 0, lam=F(1, 4))
    # no further slack vanishes at 1/4, so no facet drops there
    assert "step_0_facet_drop_one" in false_notes(cross_validation, bad)


def test_flip_lambda_too_small_rejected():
    trace = unvalidated(flip_polytope((3, 5, 3, 5, 5, 8, 6)))
    assert trace.kinds[0] == mmp.FLIP
    bad = doctored(trace, 0, lam=trace.steps[0].lam - F(1, 10))
    assert "step_0_not_simple_at_value" in false_notes(cross_validation, bad)


def flip_one_circuit(fan, wall):
    """The fan with the triangulation over the wall's own circuit replaced."""
    circuit = set(wall.wall_rays) | set(wall.opposite_rays(fan))
    cones = set(fan.max_cones)
    for j in circuit:
        cone = tuple(sorted(circuit - {j}))
        if wall.relation[j] > 0:
            cones.remove(cone)
        elif wall.relation[j] < 0:
            cones.add(cone)
    return Fan(fan.rank, fan.rays, tuple(cones))


def test_flipped_circuit_rejected():
    trace = unvalidated(flip_polytope((3, 5, 3, 5, 5, 8, 6)))
    fan = trace.steps[0].fan_before
    wall = next(w for w in walls(fan) if w.wall_rays == trace.steps[0].wall_rays)
    bad = doctored(trace, 0, fan_before=flip_one_circuit(fan, wall))
    assert bad.steps[0].fan_before != fan
    assert "interval_0_fan_matches" in false_notes(cross_validation, bad)


def test_reentering_contracted_inequality_rejected():
    # Ray 4, contracted at 1/2, gets constant 19/8 instead of 5/2: its slack
    # on the square's corner (2 - s, 1 - s) is s - 5/8, negative on
    # (1/2, 5/8) and positive at the interval's midpoint 3/4.
    trace = unvalidated(FIRST)
    bad = trace._replace(initial_polytope=blowup_polytope((2, 1, 2, 1, F(19, 8))))
    assert "interval_1_fan_matches" in false_notes(cross_validation, bad)
    # The oracle's midpoint sample accepts the interval, so the certificate
    # is the stronger check here.
    assert "interval_1_fan_matches" not in false_notes(oracle._adjoint_cross_validation, bad)


def is_point_core(P) -> bool:
    sigma = effective_threshold(P)
    core = FacetPresentation(P.dim, P.normals, tuple(a - sigma for a in P.constants))
    return len(vertices(core, allow_lower_dim=True).vertices) == 1


def hull_Q(P) -> FacetPresentation:
    return facet_presentation_from_vertices(sorted(vertices(P).vertices))


def assert_point_core_Q_matches_hull(P, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(polytopes, "hull_facets", lambda pts: pytest.fail("hull run"))
        cp = core_and_projection(P)
    assert cp.kernel_basis == ()
    expected = hull_Q(P)
    assert cp.Q.normals == expected.normals and cp.Q.constants == expected.constants
    assert cp.Q == expected and cp.Q.irredundant


def test_point_core_rows_skip_the_hull(monkeypatch):
    polys = sweep_polytopes()
    assert tuple(name for name, P in polys.items() if is_point_core(P)) == POINT_CORE_ROWS
    for name in POINT_CORE_ROWS:
        assert_point_core_Q_matches_hull(polys[name], monkeypatch)


def test_point_core_of_redundant_presentation(monkeypatch):
    # the triangle x, y >= 0, x + y <= 2 with the redundant x <= 5
    P = FacetPresentation(2, ((1, 0), (0, 1), (-1, -1), (-1, 0)), (0, 0, 2, 5))
    assert remove_redundant(P)[1] == (3,)
    assert_point_core_Q_matches_hull(P, monkeypatch)
    assert core_and_projection(P).Q.nfacets == 3
