"""The minimal model program with scaling, as exact fan and polytope surgery.

Extremal walls are selected by the vanishing of (L + lambda*K) on wall
curves, read off the run's integer slack rows of P
(``polytopes._SlackRows``): each wall curve number is a positive multiple
of the slack of the wall's far ray at the near cone's point of P^(s), an
affine function of s, so each critical value is the least root of a
decreasing slack (``polytopes._critical_value``) and only the walls that
vanish there are built.  Contractions are classified by the sign pattern of
the wall relation (fibering / divisorial / flipping).  Every birational
step is one circuit replacement over the walls of the class: a flip is
exactly that, and a divisorial contraction also drops its one negative ray.
The run is cross-validated against the adjoint polytope family P^(s), from
the same slack rows.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import polytopes
from .fans import (
    Fan,
    MalformedFanError,
    MoriFiberData,
    Wall,
    _inverses,
    _relation,
    _wall,
    mori_fiber_data,
    restricted_cones,
    validate,
    wall_classification,
    walls,
)
from .linalg import Vec, _lowest_terms, _Record, dot, primitive_part
from .polytopes import FacetPresentation, _critical_value, _SlackRows

ZERO = Fraction(0)

# what the Cayley and fiber checks of the last interval may raise
POLYTOPE_ERRORS = (polytopes.DegenerateError, polytopes.EmptyPolytopeError,
                   polytopes.RedundantPresentationError)

DIVISORIAL = "divisorial"
FLIP = "flip"
MORI_FIBER = "mori-fiber-space"


class GeneralityError(RuntimeError):
    """Several distinct extremal classes vanish at one critical value."""

    def __init__(self, lam, wall_sets):
        self.critical_value = lam
        self.wall_sets = wall_sets
        super().__init__(
            f"non-general input: {len(wall_sets)} distinct extremal classes vanish at "
            f"lambda={lam} (walls {wall_sets}); rerun with force=True to tie-break"
        )


class StepBudgetError(RuntimeError):
    pass


class ContractionResult(NamedTuple):
    kind: str
    fan: Optional[Fan] = None             # divisorial result
    dropped_ray: Optional[int] = None
    fiber_data: Optional[MoriFiberData] = None


class MMPStep(NamedTuple):
    lam: Fraction
    kind: str
    wall_rays: tuple[int, ...]
    relation: Vec
    alpha: int
    beta: int
    fan_before: Fan
    fan_after: Fan
    lost_face_dim: int
    generality_flag: bool = False
    fiber_data: Optional[MoriFiberData] = None


class MMPTrace(_Record):
    """A run's steps and checks; the cross-validation sets ``core_projection``
    and ``validation``."""

    __slots__ = ("initial_polytope", "steps", "effective_threshold", "core_projection",
                 "generality_flag", "validation")

    def __init__(self, initial_polytope: FacetPresentation, steps: list[MMPStep],
                 effective_threshold: Fraction,
                 core_projection: Optional[polytopes.CoreProjection], generality_flag: bool,
                 validation: Optional[dict] = None):
        self._set(initial_polytope, steps, effective_threshold, core_projection,
                  generality_flag, {} if validation is None else validation)

    @property
    def critical_values(self) -> tuple[Fraction, ...]:
        return tuple(s.lam for s in self.steps)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.steps)


def class_walls(fan: Fan, wall: Wall) -> list[Wall]:
    """All walls numerically proportional to the given wall's curve class:
    those with the same primitive relation."""
    return [w for w in walls(fan) if w.relation == wall.relation]


def _replace_circuits(fan: Fan, cls: list[Wall]) -> set[tuple[int, ...]]:
    """The maximal cones after crossing every wall of one class, given as
    ``class_walls`` gives it.

    Over each circuit, the union of a wall's two cones, the cones that omit
    a ray with positive relation coefficient give way to the cones that omit
    one with negative coefficient (Reid 1983; Cox-Little-Schenck 15.3)."""
    # walls over one circuit have proportional relations, so any one serves
    circuits = {frozenset(fan.max_cones[w.side_a] + fan.max_cones[w.side_b]): w.relation
                for w in cls}
    cones = set(fan.max_cones)
    for circ, relation in circuits.items():
        for j in sorted(circ):
            c = tuple(sorted(circ - {j}))
            if relation[j] > 0:
                if c not in cones:
                    raise MalformedFanError(f"expected cone {c} missing at the wall crossing")
                cones.remove(c)
            elif relation[j] < 0:
                cones.add(c)
    return cones


def contract(fan: Fan, wall: Wall, cls: Optional[list[Wall]] = None) -> ContractionResult:
    """Contract the extremal class generated by the wall curve.

    alpha = 0 gives the fibering data (quotient base fan and fiber fan);
    alpha = 1 crosses the class's circuits, which leaves the exceptional
    ray (the wall's one negative wall-ray coefficient) in no cone, and
    drops that ray; alpha >= 2 is a flip signal (the image fan is not
    simplicial), use flip() for the birational modification instead.
    ``cls`` is the wall's class, ``class_walls(fan, wall)`` when not given.
    """
    alpha, _ = wall_classification(fan, wall)
    if alpha == 0:
        return ContractionResult(MORI_FIBER, fiber_data=mori_fiber_data(fan, wall))
    if alpha >= 2:
        return ContractionResult(FLIP)
    exc = next(i for i in wall.wall_rays if wall.relation[i] < 0)
    cones = _replace_circuits(fan, class_walls(fan, wall) if cls is None else cls)
    left = sorted(c for c in cones if exc in c)
    if left:
        raise MalformedFanError(f"cones {left} still hold the exceptional ray {exc}")
    rays = fan.rays[:exc] + fan.rays[exc + 1:]
    result = Fan._on_rays(fan.rank, rays, tuple(tuple(i - (i > exc) for i in c) for c in cones))
    if not validate(result).complete:
        raise MalformedFanError("divisorial contraction produced an invalid fan")
    return ContractionResult(DIVISORIAL, fan=result, dropped_ray=exc)


def flip(fan: Fan, wall: Wall, cls: Optional[list[Wall]] = None) -> Fan:
    """Cross the class's circuits of a flipping wall: over each circuit the
    triangulation is replaced by the opposite one, and the ray set is
    unchanged (isomorphism in codimension 1).  ``cls`` is the wall's class,
    ``class_walls(fan, wall)`` when not given."""
    alpha, _ = wall_classification(fan, wall)
    if alpha < 2:
        raise ValueError("flips need a wall of flipping type (alpha >= 2)")
    cones = _replace_circuits(fan, class_walls(fan, wall) if cls is None else cls)
    was_complete = validate(fan).complete
    result = Fan._on_rays(fan.rank, fan.rays, tuple(cones))
    rep = validate(result)
    if not (rep.simplicial and (rep.complete or not was_complete)):
        raise MalformedFanError("flip produced an invalid fan")
    return result


def run_mmp_scaling(P: FacetPresentation, force: bool = False) -> MMPTrace:
    """Run the scaled program on the polarized data of a simple polytope.

    At each critical value the vanishing extremal class is contracted or
    flipped and the polarization is pushed forward; the run terminates at a
    fibering contraction, whose critical value must equal the effective
    threshold sigma_P.  That holds by proof where the run's own duality
    certificate gives sigma_P (``_certified_threshold``); where one of its
    checks fails, sigma_P is the LP of ``effective_threshold`` and the
    equality is checked.  Non-general inputs (several classes vanishing at
    once) are rejected unless force=True, which tie-breaks by the
    lexicographically smallest wall and flags the trace.

    The rays of every fan of the run are normals of P, and the pushed-forward
    polarization gives each its constant in P, so each critical value is
    read off P's slack rows (``polytopes._critical_value``), which the
    interval certificates share and P's nef threshold may already have
    built (``polytopes._slack_rows``); only the walls that vanish there are
    built.
    """
    if P.dim == 0:
        raise ValueError("the scaled program needs a polytope of dimension >= 1, not 0")
    fan = polytopes.polarization(P)
    slacks = polytopes._slack_rows(P)
    steps: list[MMPStep] = []
    flagged = False
    lam_prev = ZERO
    budget = 10 * len(fan.rays)
    while True:
        if len(steps) >= budget:
            raise StepBudgetError("step budget exhausted; runaway program")
        lam, attained = _critical_value(slacks, fan, lam_prev)
        inverses = _inverses(fan)
        classes: dict[Vec, list[Wall]] = {}
        for facet, sides in attained:
            w = _wall(fan, inverses, facet, _relation(fan, inverses, facet, sides))
            classes.setdefault(w.relation, []).append(w)
        # walls arrive sorted, so each class's first wall is its least and
        # the first class holds the least wall of all
        if len(classes) > 1:
            wall_sets = tuple(ws[0].wall_rays for ws in classes.values())
            if not force:
                raise GeneralityError(lam, wall_sets)
            flagged = True
        chosen = next(iter(classes.values()))
        wall = chosen[0]
        alpha, beta = wall_classification(fan, wall)
        data = None
        if alpha == 0:
            data = mori_fiber_data(fan, wall)
            new_fan = data.base_fan
        elif alpha == 1:
            # walls of one class share their slack, so the chosen ones are the class
            new_fan = contract(fan, wall, chosen).fan
        else:
            new_fan = flip(fan, wall, chosen)
        steps.append(MMPStep(
            lam=lam, kind=(MORI_FIBER, DIVISORIAL, FLIP)[min(alpha, 2)],
            wall_rays=wall.wall_rays, relation=wall.relation, alpha=alpha, beta=beta,
            fan_before=fan, fan_after=new_fan, lost_face_dim=fan.rank - alpha,
            generality_flag=flagged, fiber_data=data,
        ))
        if data is not None:
            break
        fan = new_fan
        lam_prev = lam
    certs = _interval_certificates(slacks, steps)
    sigma_P = _certified_threshold(slacks, steps, certs)
    if sigma_P is None:
        sigma_P = polytopes.effective_threshold(P)
    trace = MMPTrace(
        initial_polytope=P,
        steps=steps,
        effective_threshold=sigma_P,
        core_projection=None,
        generality_flag=flagged,
    )
    if not flagged:
        final = steps[-1].lam
        if final != sigma_P:
            raise MalformedFanError(
                f"final critical value {final} differs from effective threshold {sigma_P}"
            )
        lams = [s.lam for s in steps]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise MalformedFanError("critical values are not strictly increasing")
    _adjoint_cross_validation(trace, certs)
    return trace


def _interval_certificates(slacks: _SlackRows,
                           steps: list[MMPStep]) -> list[Optional[_Certificate]]:
    """Per step, the certificate of its interval (lo, lam) on its fan
    (``_certify``), or None for a zero-length interval: each built once,
    for the threshold and the cross-validation to read."""
    lams = (ZERO,) + tuple(s.lam for s in steps)
    return [_certify(slacks, s.fan_before, lo, s.lam) if lo < s.lam else None
            for s, lo in zip(steps, lams)]


def _certified_threshold(slacks: _SlackRows, steps: list[MMPStep],
                         certs: list[Optional[_Certificate]]) -> Optional[Fraction]:
    """The effective threshold sigma_P, proved equal to the final critical
    value lam by LP duality from the run's own data, or None when a check
    fails (the caller then solves the LP).

    Upper bound: the last step's relation r over its fan's rays v_k, which
    are normals of P with constants a_k, has r >= 0, sum r > 0 and
    sum r_k v_k = 0.  Every x in P^(s) has <v_k, x> + a_k - s >= 0, and
    summing r_k times these gives s <= sum r_k a_k / sum r_k, which must
    be lam.  Lower bound: the certificate of the last interval of positive
    length ends at lam, and its limit points are feasible in P^(lam), so
    P^(lam) is not empty (Schrijver, *Theory of Linear and Integer
    Programming*, ch. 7)."""
    last = steps[-1]
    rays, r, lam = last.fan_before.rays, last.relation, last.lam
    at = [slacks.index.get(v) for v in rays]
    if None in at or min(r) < 0 or sum(r) <= 0 or any(dot(r, col) for col in zip(*rays)):
        return None
    # sum r_k a_k / sum r_k = lam, over the common denominator L of the a_k
    if dot(r, [slacks.A[j] for j in at]) * lam.denominator != lam.numerator * slacks.L * sum(r):
        return None
    lams = (ZERO,) + tuple(s.lam for s in steps)
    k = next((k for k in reversed(range(len(steps))) if lams[k] < lams[k + 1]), None)
    if k is None or lams[k + 1] != lam or certs[k] is None:
        return None
    return lam


def _adjoint_cross_validation(trace: MMPTrace, certs: list[Optional[_Certificate]]) -> None:
    """Check the run against the adjoint polytope family, and set the
    trace's core and projection.  ``certs`` holds the run's interval
    certificates, one per step (``_interval_certificates``).

    Between critical values the reduced adjoint polytope must be simple
    with the tracked normal fan; at a divisorial value the facet count
    drops by exactly one and the polytope stays simple; at a flip it is
    not simple with unchanged facet count; on the last interval it is a
    Cayley sum along the step's own fiber, its bases read off its tight
    sets; and the projected polytope agrees with the fiber fan.  Violations
    raise for general runs and are recorded otherwise.

    Each interval (lo, lam) with lo < lam is certified exactly, with no
    vertex enumeration (``_certify``).  Take the step's fan Sigma,
    complete and simplicial, whose rays are P's normals v_j in order.  Each
    maximal cone sigma gives the point x_sigma(s) tight on the inequalities
    of sigma, <v_j, x> = s - a_j, which is affine in s; so is the slack
    <v_j, x_sigma(s)> - s + a_j of every other inequality of P, contracted
    ones included.  If each such slack is >= 0 at both ends and not 0 at
    both, it is > 0 on the open interval, so for every s there each
    x_sigma(s) is a vertex of P^(s) whose inequalities tight there are
    exactly sigma's: its normal cone is sigma.  Those cones already cover
    the space, and the normal cone of any other vertex would be
    full-dimensional and meet their interiors; so P^(s) has no other
    vertex, is simple, has normal fan Sigma and one facet per ray.

    At lam the limit points x_sigma(lam) are feasible and tight on the n
    independent normals of sigma, so they are vertices of P^(lam).  There
    is no other vertex: a point y of P^(lam) lies in every P^(s) for s <
    lam in the interval, so y is a convex combination of the x_sigma(s),
    and a limit of those combinations writes y as one of the x_sigma(lam).
    A tight set contains a basis and so fixes its point: distinct tight
    sets are distinct vertices, and the tight sets give the facet count
    and simplicity by the rule of ``remove_redundant``.  P^(lam) is
    full-dimensional exactly when lam < sigma_P: a point of P^(sigma_P)
    has every slack >= sigma_P - lam > 0 in P^(lam), and a full-dimensional
    P^(lam) has an interior point, which lies in P^(lam + e) for small e.

    So the certificates also give sigma_P (``_certified_threshold``) and
    the vertices the run reads, with no LP and no enumeration: the tail's
    Cayley check takes P^(mid) of the last interval as the x_sigma(mid),
    each with tight set sigma, and the core P^(sigma_P) has as vertices the
    distinct x_sigma(sigma_P) of the certificate that ends at sigma_P, from
    which ``trace.core_projection`` is built.  Where there is no such
    certificate (a zero-length or failed last interval, or none ending at
    sigma_P) those vertices are enumerated.

    A zero-length interval k at lam (forced, tied runs) takes P^(lam)'s
    facet count and simplicity from the last certificate, which ends at
    lam.  Its fan note is False by proof: step k's wall curve C has
    (L_k + lam*K).C = 0 on ``fan_before``, where L_k + lam*K has P^(lam)'s
    constants; were that fan P^(lam)'s normal fan, the divisor would be
    ample on it and C.D > 0 (Cox-Little-Schenck 6.1.14, 6.4).  With no such
    data (lam >= sigma_P, or no certificate), and on an interval whose
    certificate fails, only the fan note is recorded, as False.
    """
    P, sigma_P = trace.initial_polytope, trace.effective_threshold
    notes = {}
    at_value = None  # (facet count, simple) of P^(lo), from the last certificate
    core_points = tail = None  # tail: the last interval's (step, lo, certificate)
    for idx, (step, lo) in enumerate(zip(trace.steps, (ZERO,) + trace.critical_values)):
        fan, lam = step.fan_before, step.lam
        cert = certs[idx]  # None at lo == lam
        if lo == lam and at_value is not None:
            facets, simple = at_value
        else:
            at_value = None
            if cert is None:
                notes[f"interval_{idx}_fan_matches"] = False
                continue
            facets, simple = len(fan.rays), True
            if lam < sigma_P:
                kept = polytopes._faces(cert.limits)[1]
                at_value = len(kept), all(sum(j in kept for j in t) == P.dim for t in cert.limits)
            elif lam == sigma_P:
                core_points = polytopes._sorted_points(x for x, _ in cert.points(lam))
        notes[f"interval_{idx}_facets"] = facets
        notes[f"interval_{idx}_fan_matches"] = lo < lam  # False by proof at lo == lam
        notes[f"interval_{idx}_simple"] = simple
        if step.kind == MORI_FIBER:
            tail = step, lo, cert
        elif at_value is None:
            notes[f"step_{idx}_polytope_at_value"] = False
        else:
            after, simple = at_value
            if step.kind == DIVISORIAL:
                notes[f"step_{idx}_facet_drop_one"] = facets - after == 1
                notes[f"step_{idx}_simple_at_value"] = simple
            else:
                notes[f"step_{idx}_facet_count_constant"] = after == facets
                notes[f"step_{idx}_not_simple_at_value"] = not simple
    trace.core_projection = polytopes._core_and_projection(P, sigma_P, core_points)
    if tail is not None:  # the last interval's polytope is a Cayley sum
        step, lo, cert = tail
        mid = (lo + step.lam) / 2
        rays = step.fan_before.rays
        keep = [i for i, v in enumerate(P.normals) if v in rays]
        reduced = P._derived(tuple(P.constants[i] - mid for i in keep), keep, irredundant=True)
        try:
            # the x_sigma(mid), each with tight set sigma
            pvs = (polytopes.vertices(reduced) if cert is None
                   else polytopes._vertex_set(dict(cert.points(mid))))
            notes["tail_is_cayley"] = polytopes._decompose_along_fiber(
                reduced, pvs, step.fiber_data) is not None
        except POLYTOPE_ERRORS:
            notes["tail_is_cayley"] = False
        try:
            notes["fiber_polytope_matches"] = _fiber_polytope_matches(trace)
        except POLYTOPE_ERRORS:
            notes["fiber_polytope_matches"] = False
    # one copy of each key for every trace that a caller keeps
    trace.validation = {sys.intern(key): ok for key, ok in notes.items()}
    # facet counts are positive, so only a failed check is falsy
    if not trace.generality_flag and not all(notes.values()):
        raise MalformedFanError(f"adjoint cross-validation failed: {notes}")


class _Certificate(NamedTuple):
    """An interval certificate of ``_certify``: the tight sets of
    the limit points x_sigma(lam), as indices into P, and per maximal cone
    sigma the integers (t, w, d), d > 0, with q*d*L*x_sigma(p/q) =
    p*L*t - q*w for the common denominator L of P's constants."""

    limits: set[tuple[int, ...]]
    L: int
    cones: list[tuple[tuple[int, ...], Vec, Vec, int]]

    def points(self, s: Fraction) -> list[tuple[polytopes.Point, tuple[int, ...]]]:
        """(x_sigma(s), sigma) for every maximal cone sigma, for s in [lo, lam],
        each point in lowest terms (``polytopes.Point``)."""
        pL, q = s.numerator * self.L, s.denominator
        return [(_lowest_terms([pL * tk - q * wk for tk, wk in zip(t, w)], q * d * self.L), cone)
                for cone, t, w, d in self.cones]


def _certify(slacks: _SlackRows, fan: Fan, lo: Fraction, lam: Fraction) -> Optional[_Certificate]:
    """The certificate of the fan's cones on (lo, lam), or None when it
    fails (see ``_adjoint_cross_validation``), for the P of ``slacks``: two
    integer products per cone and inequality of P, the scaled slacks at
    both ends, from the cone's shared row."""
    index = [slacks.index.get(r) for r in fan.rays]
    if None in index or index != sorted(index):
        return None
    if set().union(*fan.max_cones) != set(range(len(index))):
        return None
    try:
        rep = validate(fan)
    except MalformedFanError:
        return None
    if not rep.complete:
        return None
    (pL_lo, q_lo), (pL_hi, q_hi) = ((s.numerator * slacks.L, s.denominator) for s in (lo, lam))
    limits, cones = set(), []
    for cone in fan.max_cones:
        key = tuple(index[i] for i in cone)
        t, w, d, alpha, beta = slacks[key]
        tight = []
        for j, (a, b) in enumerate(zip(alpha, beta)):
            at_lo = pL_lo * a - q_lo * b
            at_hi = pL_hi * a - q_hi * b
            if at_lo < 0 or at_hi < 0:
                return None
            if at_hi == 0:
                if at_lo == 0 and j not in key:
                    return None
                tight.append(j)
        limits.add(tuple(tight))
        cones.append((cone, t, w, d))
    return _Certificate(limits, slacks.L, cones)


def _fiber_polytope_matches(trace: MMPTrace) -> bool:
    """Item check for the projected polytope Q: its normal fan, pulled back
    through the core projection, must be exactly the subfan of the original
    fan annihilating the core direction (the fan of the general fiber of
    the composite map)."""
    cp = trace.core_projection
    fanX = trace.steps[0].fan_before
    inside = [
        i for i, v in enumerate(fanX.rays)
        if all(dot(kb, v) == 0 for kb in cp.kernel_basis)
    ]
    sub_max = set(restricted_cones(fanX, inside))
    if cp.Q.dim == 0:
        return not inside and sub_max == {()}
    if cp.kernel_basis:
        fq = polytopes.normal_fan(cp.Q)
    else:
        fq = _point_core_fan(trace.initial_polytope, cp.Q)
    # pull the Q-fan rays back to the ambient lattice through the projection
    pulled = []
    for u in fq.rays:
        amb = tuple(sum(cp.projection[r][c] * u[r] for r in range(len(u))) for c in range(fanX.rank))
        pulled.append(primitive_part(amb))
    ray_of = {}
    for j, amb in enumerate(pulled):
        if amb not in fanX.rays:
            return False
        ray_of[j] = fanX.rays.index(amb)
    if sorted(ray_of.values()) != sorted(inside):
        return False
    mapped = {tuple(sorted(ray_of[j] for j in cone)) for cone in fq.max_cones}
    return mapped == sub_max


def _point_core_fan(P: FacetPresentation, Q: FacetPresentation) -> Fan:
    """The normal fan of a point core's Q, which is P's irredundant part
    with its facets sorted: read off P's cached vertex set, each tight set
    restricted to Q's facets and re-indexed into Q's order, where
    ``normal_fan(Q)`` would enumerate the same polytope again."""
    at = {v: i for i, v in enumerate(Q.normals)}
    return Fan._on_rays(Q.dim, Q.normals, tuple(
        tuple(at[P.normals[j]] for j in t if P.normals[j] in at)
        for t in polytopes.vertices(P).tight))
