"""Reference birational steps and adjoint cross-validation, for cross-checks.

``contract`` and ``flip`` are the two wall-crossing loops ``toriq.mmp`` had
before both moved onto one circuit replacement: ``contract`` deletes every
cone that holds a wall of the class, adds each circuit minus the exceptional
ray and renumbers the rays by hand; ``flip`` replaces the cones over each
circuit that omit a positive ray by those that omit a negative one.

``_adjoint_cross_validation`` is the sampled check ``toriq.mmp`` had before
it certified each interval exactly: one reduced adjoint polytope, with a
full vertex enumeration, at each interval's midpoint and at each critical
value.  Its Cayley tail check decomposes along the step's own fiber with
``polytope_oracle.decompose_along_fiber``, the hull-based decomposition.

``certified_limits`` is the interval certificate as ``toriq.mmp`` built it
before each cone's slack rows were shared across a run's intervals: every
interval recomputes each cone's point and the dot products of all of P's
normals with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

import polytope_oracle
from toriq import polytopes
from toriq.fans import Fan, MalformedFanError, Wall, _inverses, validate, wall_classification
from toriq.linalg import dot
from toriq.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    ZERO,
    ContractionResult,
    MMPTrace,
    _Certificate,
    _fiber_polytope_matches,
    class_walls,
    mori_fiber_data,
)
from toriq.polytopes import FacetPresentation


def contract(fan: Fan, wall: Wall) -> ContractionResult:
    """Contract the extremal class generated by the wall curve.

    alpha = 0 gives the fibering data (quotient base fan and fiber fan);
    alpha = 1 drops the exceptional ray and rebuilds the maximal cones;
    alpha >= 2 is a flip signal (the image fan is not simplicial), use
    flip() for the birational modification instead.
    """
    alpha, _ = wall_classification(fan, wall)
    if alpha == 0:
        return ContractionResult(MORI_FIBER, fiber_data=mori_fiber_data(fan, wall))
    if alpha >= 2:
        return ContractionResult(FLIP)
    rel_walls = class_walls(fan, wall)
    exceptional = {
        next(i for i in w.wall_rays if w.relation[i] < 0) for w in rel_walls
    }
    if len(exceptional) != 1:
        raise MalformedFanError(f"ambiguous exceptional ray among {exceptional}")
    exc = exceptional.pop()
    wall_sets = {w.wall_rays for w in rel_walls}
    new_cones = []
    for cone in fan.max_cones:
        if any(set(ws) <= set(cone) for ws in wall_sets):
            continue
        new_cones.append(cone)
    for w in rel_walls:
        circuit = set(w.wall_rays) | set(w.opposite_rays(fan))
        circuit.discard(exc)
        new_cones.append(tuple(sorted(circuit)))
    old_to_new = {}
    new_rays = []
    for i, r in enumerate(fan.rays):
        if i == exc:
            continue
        old_to_new[i] = len(new_rays)
        new_rays.append(r)
    remapped = {tuple(sorted(old_to_new[i] for i in cone)) for cone in new_cones}
    result = Fan(fan.rank, tuple(new_rays), tuple(sorted(remapped)))
    rep = validate(result)
    if not (rep.well_formed and rep.simplicial and rep.complete):
        raise MalformedFanError("divisorial contraction produced an invalid fan")
    return ContractionResult(DIVISORIAL, fan=result, dropped_ray=exc)


def flip(fan: Fan, wall: Wall) -> Fan:
    """Replace the triangulation over each wall circuit of the class by the
    opposite one; the ray set is unchanged (isomorphism in codimension 1)."""
    alpha, _ = wall_classification(fan, wall)
    if alpha < 2:
        raise ValueError("flips need a wall of flipping type (alpha >= 2)")
    rel_walls = class_walls(fan, wall)
    circuits: dict[frozenset, Wall] = {}
    for w in rel_walls:
        circ = frozenset(w.wall_rays) | frozenset(w.opposite_rays(fan))
        circuits.setdefault(circ, w)
    cones = set(fan.max_cones)
    for circ, w in circuits.items():
        pos = [i for i in sorted(circ) if w.relation[i] > 0]
        neg = [i for i in sorted(circ) if w.relation[i] < 0]
        for j in pos:
            c = tuple(sorted(circ - {j}))
            if c not in cones:
                raise MalformedFanError(f"expected cone {c} missing while flipping")
            cones.remove(c)
        for j in neg:
            cones.add(tuple(sorted(circ - {j})))
    was_complete = validate(fan).complete
    result = Fan(fan.rank, fan.rays, tuple(sorted(cones)))
    rep = validate(result)
    if not (rep.well_formed and rep.simplicial and (rep.complete or not was_complete)):
        raise MalformedFanError("flip produced an invalid fan")
    return result


def _adjoint_cross_validation(trace: MMPTrace) -> None:
    """Check the run against the adjoint polytope family.

    Between critical values the reduced adjoint polytope must be simple
    with the tracked normal fan; at a divisorial value the facet count
    drops by exactly one and the polytope stays simple; at a flip it is
    not simple with unchanged facet count; on the last interval it is a
    Cayley sum along the step's own fiber, with hulls for the bases; and
    the projected polytope agrees with the fiber fan.  Violations raise for
    general runs and are recorded otherwise.
    """
    P = trace.initial_polytope
    notes = {}
    ok = True

    def record(key, check):
        nonlocal ok
        try:
            value = check()
        except (polytopes.DegenerateError, polytopes.EmptyPolytopeError,
                polytopes.RedundantPresentationError):
            value = False
        notes[key] = value
        ok = ok and bool(value)

    def reduced_adjoint(s):
        try:
            return polytopes.remove_redundant(polytopes.adjoint(P, s))[0]
        except (polytopes.DegenerateError, polytopes.EmptyPolytopeError):
            return None

    for idx, (step, lo) in enumerate(zip(trace.steps, (ZERO,) + trace.critical_values)):
        reduced = reduced_adjoint((lo + step.lam) / 2)
        if reduced is None:
            record(f"interval_{idx}_fan_matches", lambda: False)
            continue
        notes[f"interval_{idx}_facets"] = reduced.nfacets
        record(f"interval_{idx}_fan_matches",
               lambda: polytopes.normal_fan(reduced) == step.fan_before)
        record(f"interval_{idx}_simple", lambda: polytopes.is_simple(reduced))
        if step.kind in (DIVISORIAL, FLIP):
            at = reduced_adjoint(step.lam)
            if at is None:
                record(f"step_{idx}_polytope_at_value", lambda: False)
                continue
            if step.kind == DIVISORIAL:
                record(f"step_{idx}_facet_drop_one",
                       lambda: reduced.nfacets - at.nfacets == 1)
                record(f"step_{idx}_simple_at_value", lambda: polytopes.is_simple(at))
            else:
                record(f"step_{idx}_facet_count_constant",
                       lambda: at.nfacets == reduced.nfacets)
                record(f"step_{idx}_not_simple_at_value",
                       lambda: not polytopes.is_simple(at))
        else:  # Mori fiber space: last interval polytope is a Cayley sum along its fiber
            data = step.fiber_data
            record("tail_is_cayley", lambda: data.split and data.fiber_rho_one and (
                polytope_oracle.decompose_along_fiber(
                    reduced, polytopes.vertices(reduced), data) is not None))
            record("fiber_polytope_matches",
                   lambda: _fiber_polytope_matches(trace))
    trace.validation = notes
    if not trace.generality_flag and not ok:
        raise MalformedFanError(f"adjoint cross-validation failed: {notes}")


def certified_limits(P: FacetPresentation, fan: Fan, lo: Fraction,
                     lam: Fraction) -> Optional[_Certificate]:
    """The certificate of the fan's cones on (lo, lam), or None when it
    fails (see ``toriq.mmp._adjoint_cross_validation``).

    Integers only: with the constants a_j = A_j / L, an end s = p / q and a
    cone's cached adjugate adj and determinant d > 0 (signs flipped
    together), q*d*L*x_sigma(s) = y = p*L*t - q*w for t = adj^T 1 and
    w = adj^T A_sigma, and q*d*L times the slack of inequality j is
    <v_j, y> - d*(p*L - q*A_j)."""
    where = {v: j for j, v in enumerate(P.normals)}
    index = [where.get(r) for r in fan.rays]
    if None in index or index != sorted(index):
        return None
    if set().union(*fan.max_cones) != set(range(len(index))):
        return None
    try:
        rep = validate(fan)
    except MalformedFanError:
        return None
    if not (rep.well_formed and rep.complete):
        return None
    L = lcm(*(a.denominator for a in P.constants))
    A = [a.numerator * (L // a.denominator) for a in P.constants]
    ends = [(s.numerator * L, s.denominator) for s in (lo, lam)]
    shifts = [[pL - q * Aj for Aj in A] for pL, q in ends]
    limits, cones = set(), []
    for cone, (adj, d) in _inverses(fan).items():
        rows = [index[i] for i in cone]
        sign = 1 if d > 0 else -1
        t = [sign * sum(col) for col in zip(*adj)]
        w = [sign * sum(A[j] * x for j, x in zip(rows, col)) for col in zip(*adj)]
        d *= sign
        y_lo, y_hi = ([pL * tk - q * wk for tk, wk in zip(t, w)] for pL, q in ends)
        tight = []
        for j, v in enumerate(P.normals):
            at_lo = dot(v, y_lo) - d * shifts[0][j]
            at_hi = dot(v, y_hi) - d * shifts[1][j]
            if at_lo < 0 or at_hi < 0:
                return None
            if at_hi == 0:
                if at_lo == 0 and j not in rows:
                    return None
                tight.append(j)
        limits.add(tuple(tight))
        cones.append((cone, t, w, d))
    return _Certificate(limits, L, cones)
