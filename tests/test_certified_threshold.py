"""The scaled program takes the effective threshold sigma_P from its own
duality certificate, not from an LP, and builds each cone's slack rows once
per run, each checked on its own cone.  On the forced seed-1 sweep of the
67 rows and on all 240 pool entries the certified sigma_P equals the LP's
and the runs solve no LP; every interval certificate equals the one of
``mmp_oracle``, which recomputes each cone's slacks per interval; a
doctored relation, constant or certificate falls back to the LP; a fan
that cannot be certified is refused; a corrupted adjugate fails its slack
row; and bad inputs raise what they did when the LP came first."""

import re
from fractions import Fraction

import pytest

import mmp_oracle as oracle
from helpers import cold_caches, count_calls
from test_adjoint_certificate import FIRST, pool_polytope, sweep_polytopes, unvalidated
from test_certified_run import POOL_KEYS
from toriq import fans, linalg, mmp, polytopes
from toriq.fans import Fan, MalformedFanError
from toriq.linalg import dot
from toriq.polytopes import (
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    RedundantPresentationError,
    UnboundedError,
    effective_threshold,
)

F = Fraction


@pytest.fixture(scope="module")
def runs():
    """From cold caches, the forced runs of the sweep and the pool: each
    run's trace (failed runs too), slack rows and certificates built, and
    the LPs solved."""
    polys = list(sweep_polytopes().items()) + [(key, pool_polytope(key)) for key in POOL_KEYS]
    seen = dict(traces={}, builds={}, certified={}, failed=[])
    validate, certify = mmp._adjoint_cross_validation, mmp._certify
    name = None

    class Counted(polytopes._SlackRows):
        def __missing__(self, key):
            seen["builds"][name].append(key)
            return super().__missing__(key)

    def validating(trace, certs):
        seen["traces"][name] = trace
        validate(trace, certs)

    def certifying(slacks, fan, lo, lam):
        seen["certified"][name].append((fan, lo, lam))
        return certify(slacks, fan, lo, lam)

    with pytest.MonkeyPatch.context() as mp:
        cold_caches()
        lps = count_calls(mp, "lp_min", linalg, polytopes)
        bounded = count_calls(mp, "nonneg_solve", linalg, polytopes)
        mp.setattr(polytopes, "_SlackRows", Counted)
        mp.setattr(mmp, "_adjoint_cross_validation", validating)
        mp.setattr(mmp, "_certify", certifying)
        for name, P in polys:
            seen["builds"][name], seen["certified"][name] = [], []
            try:
                mmp.run_mmp_scaling(P, force=True)
            except MalformedFanError:  # the known failures, pinned elsewhere
                seen["failed"].append(name)
        seen["lps"], seen["bounded"] = len(lps), len(bounded)
        cold_caches()  # keep no counted rows for later tests
    return seen


def test_certified_threshold_equals_the_lp_and_no_lp_is_solved(runs):
    assert runs["failed"] == ["G_1", "G_4", "J_1", "Z_1", "d3-76"]
    assert len(runs["traces"]) == 67 + 240
    # boundedness is read off the vertex enumerations' extreme rays (246
    # boundedness LPs, one per normal list, before)
    assert (runs["lps"], runs["bounded"]) == (0, 0)
    for trace in runs["traces"].values():
        P = trace.initial_polytope
        assert trace.effective_threshold == trace.critical_values[-1] == effective_threshold(P)
        assert mmp._certified_threshold(*certified(mmp._SlackRows(P), trace.steps)) == (
            effective_threshold(P))


def test_certificates_equal_the_oracle_on_every_interval(runs):
    # each certified interval of every run, its first half, and the
    # interval run on past its end, which every certificate refuses
    compared = refused = 0
    for name, certified in runs["certified"].items():
        P = runs["traces"][name].initial_polytope
        slacks = mmp._SlackRows(P)
        for fan, lo, lam in certified:
            for end in (lam, (lo + lam) / 2, lam + F(1, 7)):
                got = mmp._certify(slacks, fan, lo, end)
                expected = oracle.certified_limits(P, fan, lo, end)
                if expected is None:
                    assert got is None
                    refused += 1
                else:
                    assert (got.limits, got.L, got.cones) == (
                        expected.limits, expected.L, expected.cones)
                compared += 1
    assert (compared, refused) == (3 * 715, 715)


def test_one_slack_row_per_distinct_cone(runs):
    pairs, rows = {}, {}
    for name, builds in runs["builds"].items():
        certified, trace = runs["certified"][name], runs["traces"][name]
        lams = (F(0),) + trace.critical_values
        # each interval once: the one that gives sigma_P is the
        # cross-validation's last
        assert sorted((lo, lam) for _, lo, lam in certified) == [
            (lo, lam) for lo, lam in zip(lams, lams[1:]) if lo < lam]
        P = trace.initial_polytope
        where = {v: j for j, v in enumerate(P.normals)}
        met = {tuple(where[fan.rays[i]] for i in cone)
               for fan, _, _ in certified for cone in fan.max_cones}
        # each step's critical value search reads, across every wall, the
        # row of the wall's first cone: new rows only on the fans of
        # zero-length steps, which no interval certifies
        searched = {tuple(where[fan.rays[i]] for i in fan.max_cones[sides[0][0]])
                    for fan in (step.fan_before for step in trace.steps)
                    for sides in fans._facets(fan).values() if len(sides) == 2}
        assert sorted(builds) == sorted(met | searched)
        pairs[name] = sum(len(fan.max_cones) for fan, _, _ in certified)
        rows[name] = len(builds)
    sweep = sweep_polytopes()
    assert (sum(pairs[name] for name in sweep), sum(rows[name] for name in sweep),
            sum(pairs.values()), sum(rows.values())) == (3078, 1583, 6374, 3655)
    # 3651 rows when only the certificates built them


# ---------------------------------------------------------------------------
# doctored certificates fall back to the LP
# ---------------------------------------------------------------------------

def certified(slacks, steps):
    """The arguments of ``_certified_threshold``: the slack rows, the steps
    and the certificates the run builds from them."""
    return slacks, steps, mmp._interval_certificates(slacks, steps)


def last_steps():
    """FIRST's run: divisorial at 1/2, fibering at 1 = sigma_P."""
    steps = unvalidated(FIRST).steps
    assert [s.lam for s in steps] == [F(1, 2), 1]
    return steps


def with_relation(steps, relation):
    return steps[:-1] + [steps[-1]._replace(relation=relation)]


def negative_entry(P, steps):
    # the divisorial step's relation vanishes on its rays and its bound is
    # its own value 1/2, which only its negative entry refuses
    r, rays = steps[0].relation, steps[0].fan_before.rays
    assert min(r) < 0 < sum(r)
    assert not any(sum(c * v[i] for c, v in zip(r, rays)) for i in range(P.dim))
    return mmp._SlackRows(P), steps[:1]


def not_vanishing(P, steps):
    # one more ray with constant 1 = lam keeps the bound at lam
    last = steps[-1]
    k = next(k for k, v in enumerate(last.fan_before.rays) if P.constants[P.normals.index(v)] == 1)
    relation = tuple(c + (i == k) for i, c in enumerate(last.relation))
    return mmp._SlackRows(P), with_relation(steps, relation)


def moved_constant(P, steps):
    last = steps[-1]
    k = next(k for k, c in enumerate(last.relation) if c > 0)
    j = P.normals.index(last.fan_before.rays[k])
    constants = tuple(a + (i == j) for i, a in enumerate(P.constants))
    return mmp._SlackRows(FacetPresentation(P.dim, P.normals, constants, irredundant=True)), steps


def moved_limit_point(P, steps):
    # the first cone's point moved by one unit of its denominator in its
    # first coordinate, against one of its own inequalities
    slacks, fan = mmp._SlackRows(P), steps[-1].fan_before
    key = tuple(P.normals.index(fan.rays[i]) for i in fan.max_cones[0])
    t, w, d, alpha, _ = slacks[key]
    j = next(j for j in key if P.normals[j][0])
    w = [w[0] + (1 if P.normals[j][0] > 0 else -1)] + w[1:]
    slacks[key] = t, w, d, alpha, [dot(v, w) - d * A for v, A in zip(P.normals, slacks.A)]
    return slacks, steps


def refused(P, steps):
    # with ``_certify`` patched to refuse, as ``doctor`` does
    return mmp._SlackRows(P), steps


MUTATIONS = {"negative entry": negative_entry, "not vanishing": not_vanishing,
             "moved constant": moved_constant, "moved limit point": moved_limit_point,
             "refused": refused}


def doctor(mp, mutation, P, steps):
    """The arguments of ``_certified_threshold`` for the mutated run."""
    if mutation == "refused":
        mp.setattr(mmp, "_certify", lambda slacks, fan, lo, lam: None)
    return certified(*MUTATIONS[mutation](P, steps))


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_doctored_certificate_falls_back_to_the_lp(mutation, monkeypatch):
    steps, threshold = last_steps(), mmp._certified_threshold
    assert threshold(*certified(mmp._SlackRows(FIRST), steps)) == 1
    with monkeypatch.context() as mp:
        assert threshold(*doctor(mp, mutation, FIRST, steps)) is None
    # the run with its certificate doctored the same way solves the LP once
    # and carries the LP's value
    polytopes.effective_threshold.cache_clear()
    lps = count_calls(monkeypatch, "lp_min", linalg, polytopes)

    def doctored(slacks, run_steps, certs):
        # the run's certificates are rebuilt from the doctored rows
        with monkeypatch.context() as mp:
            return threshold(*doctor(mp, mutation, slacks.P, run_steps))

    monkeypatch.setattr(mmp, "_certified_threshold", doctored)
    trace = mmp.run_mmp_scaling(FIRST)
    assert (trace.effective_threshold, len(lps)) == (effective_threshold(FIRST), 1)
    assert trace.effective_threshold == 1 and all(trace.validation.values())


def test_doctored_final_value_still_raises(monkeypatch):
    # the Mori step's value moved from sigma_P = 1 to 4/3: the relation's
    # bound is 1, so the LP decides, and the general run raises as before
    search = mmp._critical_value

    def shifted(slacks, fan, s0):
        lam, attained = search(slacks, fan, s0)
        return (lam + F(1, 3) if lam == 1 else lam), attained

    monkeypatch.setattr(mmp, "_critical_value", shifted)
    with pytest.raises(MalformedFanError) as err:
        mmp.run_mmp_scaling(FIRST)
    assert str(err.value) == "final critical value 4/3 differs from effective threshold 1"


# the normals e1, e2, -e1 - e2 and (2, -1): the last inequality's constant
# a_4 = 2 a_1 - a_2 = 0 keeps it tight at x_sigma(s) on the cone (e1, e2)
# for every s, and 3 keeps it slack there
TRIANGLE = ((1, 0), (0, 1), (-1, -1), (2, -1))
P2_CONES = ((0, 1), (0, 2), (1, 2))
REFUSED_FANS = {
    "not a normal": Fan(2, ((1, 0), (0, 1), (-1, -2)), P2_CONES),
    "out of order": Fan(2, ((0, 1), (1, 0), (-1, -1)), P2_CONES),
    "in no cone": Fan(2, TRIANGLE, P2_CONES),
    "overlapping": Fan(2, TRIANGLE, P2_CONES + ((2, 3),)),
    "incomplete": Fan(2, TRIANGLE[:3], ((0, 1), (1, 2))),
}


@pytest.mark.parametrize("name", REFUSED_FANS)
def test_certify_refuses_fans_it_cannot_certify(name):
    slacks = mmp._SlackRows(FacetPresentation(2, TRIANGLE, (0, 0, 3, 3)))
    if name == "overlapping":
        with pytest.raises(MalformedFanError, match="overlap"):
            fans.validate(REFUSED_FANS[name])
    assert mmp._certify(slacks, REFUSED_FANS[name], F(0), F(1)) is None
    # the complete fan on the same three normals certifies
    assert mmp._certify(slacks, Fan(2, TRIANGLE[:3], P2_CONES), F(0), F(1)) is not None


def test_certify_refuses_an_inequality_tight_on_the_whole_interval():
    # the complete fan on all four normals: with the constant 0 the cones
    # (e1, e2) and (e1, (2, -1)) share their point on [0, 1], where every
    # other slack is >= 0, and (2, -1) is no ray of the first
    fan = Fan(2, TRIANGLE, ((0, 1), (1, 2), (2, 3), (0, 3)))
    tight = mmp._SlackRows(FacetPresentation(2, TRIANGLE, (0, 0, 3, 0)))
    assert mmp._certify(tight, fan, F(0), F(1)) is None
    slack = mmp._SlackRows(FacetPresentation(2, TRIANGLE, (0, 0, 3, 1)))
    assert mmp._certify(slack, fan, F(0), F(1, 3)) is not None


# ---------------------------------------------------------------------------
# with no LP up front, polarization is the run's only early gate
# ---------------------------------------------------------------------------

SQUARE = ((1, 0), (-1, 0), (0, 1), (0, -1))
OCTAHEDRON = tuple((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
BAD_INPUTS = {
    "empty": (FacetPresentation(2, SQUARE, (0, -1, 0, 1), irredundant=True),
              EmptyPolytopeError, "polytope is empty"),
    "unbounded": (FacetPresentation(2, ((1, 0), (0, 1)), (0, 0), irredundant=True),
                  UnboundedError, "presentation is unbounded"),
    "degenerate": (FacetPresentation(2, SQUARE, (0, 0, 0, 1), irredundant=True),
                   DegenerateError, "polytope is not full-dimensional"),
    "non-simple": (FacetPresentation(3, OCTAHEDRON, (1,) * 8, irredundant=True),
                   RedundantPresentationError, "polytope is not simple"),
    "unflagged": (FacetPresentation(2, SQUARE, (0, 1, 0, 1)),
                  RedundantPresentationError, "normal fan needs an irredundant presentation"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
@pytest.mark.parametrize("force", [False, True])
def test_bad_inputs_raise_as_before(name, force):
    P, error, message = BAD_INPUTS[name]
    with pytest.raises(error) as err:
        mmp.run_mmp_scaling(P, force=force)
    assert type(err.value) is error and str(err.value) == message


# ---------------------------------------------------------------------------
# a corrupted adjugate fails its own slack row
# ---------------------------------------------------------------------------

def corrupted_cone_inverse(rays, mode):
    """``fans._cone_inverse`` with one row of the given cone's adjugate
    changed: negated ("negated") or shifted by one in its first entry
    ("shifted")."""
    intact = fans._cone_inverse
    adj, d = intact(rays)
    rows = [list(row) for row in adj]
    if mode == "negated":
        rows[0] = [-x for x in rows[0]]
    else:
        rows[0][0] += 1
    broken = tuple(tuple(row) for row in rows), d
    return lambda key: broken if key == rays else intact(key)


@pytest.mark.parametrize("mode", ["negated", "shifted"])
@pytest.mark.parametrize("name", ["FIRST", "117"])
def test_corrupted_adjugate_fails_its_slack_row(name, mode, monkeypatch):
    # only the slack rows read the corrupted adjugate, so ``validate`` and
    # the walls' own checks pass; the row of the first cone of P's normal
    # fan, which the first critical value search reads, refuses it
    P = FIRST if name == "FIRST" else sweep_polytopes()[name]
    cone = polytopes.normal_fan(P).max_cones[0]
    rays = tuple(P.normals[j] for j in cone)
    cold_caches()  # no rows of P kept from an earlier run
    monkeypatch.setattr(polytopes, "_cone_inverse", corrupted_cone_inverse(rays, mode))
    message = f"cone {cone} of P's normals is not tight at its own point"
    with pytest.raises(MalformedFanError, match=f"^{re.escape(message)}$"):
        mmp.run_mmp_scaling(P, force=True)
