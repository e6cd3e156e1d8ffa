"""Reference intersection numbers by moving divisors, for cross-checks.

This is an independent route to the numbers ``toriq.intersection`` reads
off the wall relations: replace the divisor by a linearly equivalent one
whose support misses the subvariety (subtracting the divisor of a
character), then read off the coefficients over the one-step-larger cones,
dividing by the index of the ray image in the one-dimensional quotient
lattice.  It takes a Smith normal form per (sigma, gamma) pair, so it is
kept for tests only; a singular surface's multiplicity is the product of
its cone's invariant factors (``linalg_oracle.snf_multiplicity``).

``walls_fraction`` and ``ch2_dot_surface_scan`` are the earlier wall-relation
path: walls self-checked in ``Fraction`` arithmetic, each relation normalized
to 1 on the higher-indexed opposite ray, and one scan of every wall and
maximal cone per surface.  ``wall_class_key`` is the earlier canonical form
of a wall's curve class.

``primitive_collections_over_subsets`` is the earlier search for primitive
collections: every ray subset of size 2 to rank + 1 tested as a
``frozenset`` against the faces, and each relation's coordinates taken as
``Fraction``s in the first maximal cone holding the members' sum.

``nef_threshold_from`` and ``kleiman_walls`` are the earlier nef threshold
and Kleiman test: two curve numbers per wall, each the wall's scale times
a ``Fraction`` pairing, where ``toriq.intersection`` reads the Kleiman signs
off the integer relation alone and ``toriq.polytopes._critical_value`` reads
the nef threshold off the slack rows of the polytope the divisor gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from toriq.fans import (
    CACHE_SIZE,
    Fan,
    MalformedFanError,
    PrimitiveCollection,
    UnsupportedFanError,
    Wall,
    _cone_coords,
    _facets,
    _inverses,
    is_face,
    validate,
    walls,
)
from toriq.intersection import TorusDivisor, anticanonical, wall_curve_number
from toriq.linalg import ONE, QVec, adjugate, dot, smith_normal_form, solve_linear
from helpers import prime_divisor
from linalg_oracle import snf_multiplicity

ZERO = Fraction(0)


@dataclass(frozen=True)
class Cycle:
    """A rational combination of invariant subvarieties of one dimension,
    keyed by the defining cones."""

    fan: Fan
    codim: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def total(self) -> Fraction:
        return sum((c for _, c in self.terms), ZERO)


def div_char_rational(fan: Fan, u: Sequence[Fraction]) -> TorusDivisor:
    return TorusDivisor(fan, tuple(sum(a * x for a, x in zip(u, v)) for v in fan.rays))


def _solve_character(fan: Fan, sigma: tuple[int, ...], values) -> QVec:
    u = solve_linear([fan.rays[j] for j in sigma], values)
    if u is None:
        raise UnsupportedFanError(f"cone {sigma} is not simplicial; cannot solve for u")
    return u


def move_divisor(fan: Fan, i: int, sigma: tuple[int, ...]) -> TorusDivisor:
    """D_i minus the divisor of a character u with <u, v_i> = 1 and
    <u, v_j> = 0 on the other rays of sigma; the result's support misses
    V(sigma).  For singular cones u may be rational."""
    sigma = tuple(sorted(sigma))
    if i not in sigma:
        raise ValueError(f"ray {i} does not lie in the cone {sigma}; no move needed")
    target = [Fraction(1 if j == i else 0) for j in sigma]
    u = _solve_character(fan, sigma, target)
    return prime_divisor(fan, i) - div_char_rational(fan, u)


def move_off(fan: Fan, D: TorusDivisor, sigma: tuple[int, ...]) -> TorusDivisor:
    """A divisor linearly equivalent to D whose support contains no ray of
    sigma (so V(sigma) is not inside the support)."""
    if not sigma:
        return D
    values = [D.coeffs[j] for j in sigma]
    u = _solve_character(fan, sigma, values)
    return D - div_char_rational(fan, u)


@lru_cache(maxsize=None)
def _quotient_data(fan: Fan, sigma: tuple[int, ...], gamma: tuple[int, ...]):
    """Data for the surjection N_gamma -> Z with kernel N_sigma: a lattice
    basis of N_gamma (as an n x k matrix of columns) and the functional on
    basis coordinates whose kernel is the sigma-sublattice."""
    cols = [fan.rays[i] for i in gamma]
    n = fan.rank
    A = [[c[r] for c in cols] for r in range(n)]
    U, _, _ = smith_normal_form(A)
    k1 = len(gamma)
    adj, d = adjugate(U)  # U is unimodular, so U^-1 = d * adj
    mat = [[d * adj[r][j] for j in range(k1)] for r in range(n)]  # basis columns
    scoords = []
    for i in sigma:
        sol = solve_linear(mat, fan.rays[i])
        assert sol is not None
        scoords.append([int(x) for x in sol])
    if scoords:
        S = [[col[r] for col in scoords] for r in range(k1)]
        U2, _, _ = smith_normal_form(S)
        phi = tuple(U2[k1 - 1])
    else:
        phi = tuple([0] * (k1 - 1) + [1])
    return mat, phi


def quotient_index(fan: Fan, sigma: tuple[int, ...], gamma: tuple[int, ...], j: int) -> int:
    """The positive integer s: the image of ray j generates s times the
    one-dimensional lattice N_gamma / N_sigma."""
    mat, phi = _quotient_data(fan, sigma, gamma)
    coords = solve_linear(mat, fan.rays[j])
    assert coords is not None
    val = dot(phi, coords)
    assert val.denominator == 1 and val != 0
    return abs(int(val))


def intersect_once(fan: Fan, D: TorusDivisor, sigma: tuple[int, ...]) -> Cycle:
    """D . V(sigma) as a cycle over the cones one dimension up.

    D is internally replaced by a linearly equivalent divisor missing
    V(sigma); the coefficient over gamma = sigma + one ray j is the moved
    coefficient at j divided by the index of v_j in N_gamma/N_sigma.
    """
    sigma = tuple(sorted(sigma))
    if sigma and not is_face(fan, sigma):
        raise ValueError(f"{sigma} is not a cone of the fan")
    moved = move_off(fan, D, sigma)
    terms = []
    seen = set()
    for cone in fan.max_cones:
        if not set(sigma) <= set(cone):
            continue
        for j in cone:
            if j in sigma:
                continue
            gamma = tuple(sorted(sigma + (j,)))
            if gamma in seen:
                continue
            seen.add(gamma)
            if moved.coeffs[j] == 0:
                continue
            s = quotient_index(fan, sigma, gamma, j)
            terms.append((gamma, moved.coeffs[j] / s))
    return Cycle(fan, len(sigma) + 1, tuple(sorted(terms)))


def curve_number(fan: Fan, D: TorusDivisor, tau: tuple[int, ...]) -> Fraction:
    """D . V(tau) for a wall tau, by moving D off tau."""
    tau = tuple(sorted(tau))
    if sum(1 for c in fan.max_cones if set(tau) <= set(c)) != 2:
        raise ValueError(f"{tau} is not a wall")
    return intersect_once(fan, D, tau).total()


def ch2_dot_surface(fan: Fan, sigma: tuple[int, ...]) -> Fraction:
    """Half the sum of D_i^2 . V(sigma), each square taken as two moves.
    The surface is complete when every maximal cone over sigma has rank
    rays and each of their facets over sigma lies in exactly two of them."""
    sigma = tuple(sorted(sigma))
    if len(sigma) != fan.rank - 2:
        raise ValueError(f"{sigma} is not a codimension-2 cone")
    over = [c for c in fan.max_cones if set(sigma) <= set(c)]
    facets = Counter(tuple(i for i in c if i != j) for c in over for j in c if j not in sigma)
    if any(len(c) < fan.rank for c in over) or any(n != 2 for n in facets.values()):
        raise UnsupportedFanError(f"the surface V{sigma} is not complete")
    total = ZERO
    for i in range(len(fan.rays)):
        Di = prime_divisor(fan, i)
        once = intersect_once(fan, Di, sigma)
        for tau, b in once.terms:
            total += b * intersect_once(fan, Di, tau).total()
    return total / 2


@lru_cache(maxsize=CACHE_SIZE)
def walls_fraction(fan: Fan) -> tuple[Wall, ...]:
    """All walls of a simplicial fan with their exact relations.

    The relation across a wall is read off the inverse of the cone holding
    the lower-indexed opposite ray: -v_hi in that cone's ray basis."""
    rep = validate(fan)
    if not rep.simplicial:
        raise UnsupportedFanError("walls are only computed for simplicial fans")
    inverses = _inverses(fan)
    out = []
    for facet, sides in sorted(_facets(fan).items()):
        if len(sides) != 2:
            continue
        (a, ja), (b, jb) = sides
        op_a, op_b = fan.max_cones[a][ja], fan.max_cones[b][jb]
        lo_side, lo_pos, hi_side, hi = (a, ja, b, op_b) if op_a < op_b else (b, jb, a, op_a)
        lo_cone = fan.max_cones[lo_side]
        lo = lo_cone[lo_pos]
        adj, d = inverses[lo_cone]
        rel = [ZERO] * len(fan.rays)
        for i, row in zip(lo_cone, adj):
            c = dot(row, fan.rays[hi])
            if c:
                rel[i] = Fraction(-c, d)
        rel[hi] = ONE
        if rel[lo] <= 0:
            raise MalformedFanError(f"wall {facet} has a nonconvex crossing")
        support = lo_cone + (hi,)
        if any(sum(rel[i] * fan.rays[i][k] for i in support) != 0 for k in range(fan.rank)):
            raise MalformedFanError(f"relation across wall {facet} does not vanish")
        if rep.smooth:
            mult, scale = 1, ONE
        else:
            # mult(wall) is the gcd of the wall's maximal minors, which make
            # up the adjugate row of the ray it omits; r_hi = 1, so
            # s = mult(wall) / mult(cone holding the ray hi)
            mult = gcd(*adj[lo_pos])
            scale = Fraction(mult, abs(inverses[fan.max_cones[hi_side]][1]))
        out.append(Wall(facet, a, b, tuple(rel), mult, scale))
    return tuple(out)


def ch2_dot_surface_scan(fan: Fan, sigma: tuple[int, ...]) -> Fraction:
    """Pairing of half the sum of squared prime divisors with the invariant
    surface V(sigma); sigma must have dimension rank-2.

    For smooth fans this is the second Chern character against the surface;
    simplicial non-smooth input is evaluated under the same formula.
    """
    sigma = tuple(sorted(sigma))
    if len(sigma) != fan.rank - 2:
        raise ValueError(f"{sigma} is not a codimension-2 cone")
    if sigma and not is_face(fan, sigma):
        raise ValueError(f"{sigma} is not a cone of the fan")
    inside = set(sigma)
    mult = 1 if validate(fan).smooth else snf_multiplicity([fan.rays[i] for i in sigma])
    # D_j . V(sigma) = weight_j * V(tau_j) for the wall tau_j = sigma + {j}
    star: dict[int, tuple[Wall, Fraction]] = {}
    for w in walls_fraction(fan):
        if inside.issubset(w.wall_rays):
            j = next(k for k in w.wall_rays if k not in inside)
            star[j] = (w, mult * w.scale / w.multiplicity)
    for cone in fan.max_cones:
        if inside.issubset(cone) and (len(cone) < fan.rank
                                      or any(j not in inside and j not in star for j in cone)):
            raise UnsupportedFanError(f"the surface V{sigma} is not complete")
    total = sum((weight * w.relation[j] for j, (w, weight) in star.items()), ZERO)
    # D_i ~ D_i - div(u) = -sum_{j not in sigma} <u, v_j> D_j for u the row
    # adj_i / det of a maximal cone tau over sigma: <u, v_k> = [k = i] on tau
    tau = next(cone for cone in fan.max_cones if inside.issubset(cone))
    adj, d = _inverses(fan)[tau]
    for i in sigma:
        row = adj[tau.index(i)]
        for j, (w, weight) in star.items():
            if w.relation[i]:
                total -= Fraction(dot(row, fan.rays[j]), d) * weight * w.relation[i]
    return total / 2


def wall_class_key(wall: Wall) -> QVec:
    """Canonical form of the wall's curve class: the relation scaled so its
    positive entries sum to 1.  Two walls are numerically proportional
    exactly when their keys agree."""
    pos = sum(c for c in wall.relation if c > 0)
    return tuple(Fraction(c, pos) for c in wall.relation)


def kleiman_walls(fan: Fan) -> tuple[Wall, ...]:
    """The walls whose curve meets the anticanonical divisor in <= 0."""
    mk = anticanonical(fan)
    return tuple(w for w in walls(fan) if wall_curve_number(fan, mk, w) <= 0)


def nef_threshold_from(fan: Fan, L: TorusDivisor, s0: Fraction) -> tuple[Fraction, list[Wall]]:
    """Nef threshold lambda of L + s*K from s0 on and the walls attaining
    it, from the curve numbers L.C and -K.C of every wall."""
    mk = anticanonical(fan)
    best: Optional[Fraction] = None
    attained: list[Wall] = []
    for w in walls(fan):
        kc = wall_curve_number(fan, mk, w)
        lc = wall_curve_number(fan, L, w)
        at_s0 = lc - s0 * kc
        if at_s0 < 0 or (at_s0 == 0 and not s0):
            kind = "nef" if s0 else "ample"
            raise ValueError(f"divisor is not {kind} at s={s0} (wall {w.wall_rays})")
        if kc > 0:
            cand = lc / kc
            if best is None or cand < best:
                best, attained = cand, [w]
            elif cand == best:
                attained.append(w)
    if best is None:
        raise ValueError("no wall meets the canonical divisor negatively")
    return best, attained


def primitive_collections_over_subsets(fan: Fan) -> tuple[PrimitiveCollection, ...]:
    """Primitive collections of a complete simplicial fan, by size, then
    members: the ray subsets that are no face while each of their maximal
    proper subsets is one."""
    rep = validate(fan)
    if not (rep.simplicial and rep.complete):
        raise UnsupportedFanError("primitive collections need a complete simplicial fan")
    faces = {frozenset(sub) for cone in fan.max_cones
             for k in range(len(cone) + 1) for sub in combinations(cone, k)}
    out = []
    for d in range(2, fan.rank + 2):
        for members in combinations(range(len(fan.rays)), d):
            if frozenset(members) in faces or not all(
                    frozenset(sub) in faces for sub in combinations(members, d - 1)):
                continue
            total = tuple(sum(fan.rays[i][k] for i in members) for k in range(fan.rank))
            sigma, coeffs = _minimal_cone_with_coords(fan, total)
            degree = Fraction(d) - sum(coeffs, Fraction(0))
            out.append(PrimitiveCollection(members, sigma, coeffs, degree))
    return tuple(out)


def _minimal_cone_with_coords(fan: Fan, x) -> tuple[tuple[int, ...], QVec]:
    if all(a == 0 for a in x):
        return (), ()
    for cone in fan.max_cones:
        coords = _cone_coords(fan, cone, x)
        if coords is not None and all(c >= 0 for c in coords):
            support = tuple(i for i, c in zip(cone, coords) if c > 0)
            cf = tuple(c for c in coords if c > 0)
            return support, cf
    raise MalformedFanError(f"{x} lies outside the fan support")
