"""Exact intersection theory on complete simplicial toric data.

Every intersection number is read off the primitive integer wall relations
that ``fans._relation`` reads off the cached cone adjugates and checks in
integers.  For a wall tau between the maximal cones sigma_a and sigma_b, with
relation r (sum_k r_k v_k = 0, on tau and the two opposite rays, positive on
both opposite rays), a divisor D = sum_k d_k D_k meets V(tau) in
s_tau * sum_k d_k r_k, where s_tau = mult(tau) / (mult(sigma_a) r_a) is the
``scale`` of ``fans.Wall`` (Fulton, *Introduction to Toric Varieties*, ch. 5;
Cox-Little-Schenck, 6.4).  On an invariant surface V(sigma), D_j with j not
in sigma restricts to (mult sigma / mult tau_j) V(tau_j) for the wall
tau_j = sigma + {j}, and D_i on a ray of sigma is first moved off sigma
(through a row of the cached inverse of a maximal cone over sigma).  One pass
over the relations, with no ``Wall`` built, indexes every surface to its star.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .fans import (
    Fan,
    UnsupportedFanError,
    Wall,
    _inverses,
    _relation,
    _wall_facets,
    cone_multiplicity,
    primitive_collections,
    validate,
    walls,
)
from .linalg import QVec, Vec, _dot_of, _FrozenRecord, dot, frac
from .polytopes import FacetPresentation, _critical_value, _slack_rows

ZERO = Fraction(0)


class TorusDivisor(_FrozenRecord):
    """An invariant Q-divisor, one rational coefficient per ray."""

    __slots__ = ("fan", "coeffs")

    def __init__(self, fan: Fan, coeffs: QVec):
        cs = tuple(frac(a) for a in coeffs)
        self._set(fan, cs)
        if len(cs) != len(fan.rays):
            raise ValueError("coefficient count differs from ray count")

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        if other.fan != self.fan:
            raise ValueError("divisors live on different fans")
        return TorusDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        if other.fan != self.fan:
            raise ValueError("divisors live on different fans")
        return TorusDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


def div_char(fan: Fan, m: Vec) -> TorusDivisor:
    """Divisor of the character associated to a dual lattice point."""
    if len(m) != fan.rank:
        raise ValueError("character exponent has wrong length")
    return TorusDivisor(fan, tuple(Fraction(dot(m, v)) for v in fan.rays))


def anticanonical(fan: Fan) -> TorusDivisor:
    return TorusDivisor(fan, (Fraction(1),) * len(fan.rays))


def curve_number(fan: Fan, D: TorusDivisor, tau: tuple[int, ...]) -> Fraction:
    """The intersection number D . V(tau) for a wall tau."""
    tau = tuple(sorted(tau))
    wall = next((w for w in walls(fan) if w.wall_rays == tau), None)
    if wall is None:
        raise ValueError(f"{tau} is not a wall")
    return wall_curve_number(fan, D, wall)


def wall_curve_number(fan: Fan, D: TorusDivisor, wall: Wall) -> Fraction:
    """D . V(wall): the wall's scale times the pairing of D with its
    integer relation."""
    if D.fan != fan:
        raise ValueError("the divisor lives on another fan")
    return wall.scale * sum((d * r for d, r in zip(D.coeffs, wall.relation) if r), ZERO)


def ch2_dot_surface(fan: Fan, sigma: tuple[int, ...]) -> Fraction:
    """Pairing of half the sum of squared prime divisors with the invariant
    surface V(sigma); sigma must have dimension rank-2.

    For smooth fans this is the second Chern character against the surface;
    simplicial non-smooth input is evaluated under the same formula.
    """
    return _surface_values(fan, [surface_cone(fan, sigma)])[1][0]


def surface_cone(fan: Fan, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """sigma sorted, once checked to have dimension rank-2."""
    sigma = tuple(sorted(sigma))
    if len(sigma) != fan.rank - 2:
        raise ValueError(f"{sigma} is not a codimension-2 cone")
    return sigma


def _surface_values(fan: Fan, sigmas=None) -> tuple[
        list[tuple[tuple[int, ...], Fraction]], list[Fraction]]:
    """(sigma, ``ch2_dot_surface``) for each sorted (rank-2)-tuple in sigmas or,
    by default, each (rank-2)-face in order, from one pass over the maximal
    cones and one over the walls in ``walls`` order, reading the relations of
    the walls over some sigma only: the cones over each face and its star.
    Then the distinct values, which equal values share."""
    over: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cone in fan.max_cones:
        for face in combinations(cone, fan.rank - 2):
            over.setdefault(face, []).append(cone)
    if sigmas is None:
        sigmas, wanted = sorted(over), None  # every wall is over some face
    else:
        wanted = {c[:p] + c[p + 1:] for s in sigmas if s in over for c in over[s]
                  for p, k in enumerate(c) if k not in s}  # the walls over the sigmas
    for sigma in sigmas:
        if sigma not in over:
            raise ValueError(f"{sigma} is not a cone of the fan")
    smooth = validate(fan).smooth
    # D_j . V(sigma) = mult(sigma) / mult(tau) V(tau) for tau = sigma + {j}, and s_tau =
    # mult(tau) / q for q = r_op mult(sigma_b): each wall keeps q and r on its rays
    inverses = _inverses(fan)
    stars: dict[tuple[int, ...], dict[int, tuple[int, Vec, int]]] = {}
    for facet, sides in _wall_facets(fan):
        if wanted is not None and facet not in wanted:
            continue
        _, ja, b, _, rel = _relation(fan, inverses, facet, sides)
        q = 1 if smooth else rel[-1] * abs(inverses[fan.max_cones[b]][1])
        on = rel[:ja] + rel[ja + 1:-1]  # on the wall rays, in order
        for p, j in enumerate(facet):
            stars.setdefault(facet[:p] + facet[p + 1:], {})[j] = (on[p], on[:p] + on[p + 1:], q)
    dot_r = _dot_of(fan.rank)
    keys = []  # each value's num / den in lowest terms
    for sigma in sigmas:
        star, cones = stars.get(sigma, {}), over[sigma]
        if len(star) != len(cones):
            raise UnsupportedFanError(f"the surface V{sigma} is not complete")
        mult = 1 if smooth else cone_multiplicity(fan, sigma)
        # D_i ~ D_i - div(u) = -sum_{j not in sigma} <u, v_j> D_j for u = adj_i / d
        # from a maximal cone over sigma, so the wall of j adds d r_j - sum_i <adj_i, v_j> r_i
        adj, d = inverses[cones[0]]
        rows = [adj[cones[0].index(i)] for i in sigma]
        num, den = 0, 1  # the walls' terms summed in integers, num / den
        for j, (r_j, r_sigma, q) in star.items():
            v, n = fan.rays[j], r_j * d
            for row, r in zip(rows, r_sigma):
                if r:
                    n -= dot_r(row, v) * r
            num, den = num * q + n * den, den * q
        num, den = mult * num, 2 * d * den
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        keys.append((num // g, den // g))
    distinct = {key: Fraction(*key) for key in dict.fromkeys(keys)}
    return [(sigma, distinct[key]) for sigma, key in zip(sigmas, keys)], list(distinct.values())


class FanoVerdict(NamedTuple):
    is_fano: bool
    method: str                      # "primitive-collections" | "kleiman"
    witnesses: tuple                 # failing collections or walls


def is_fano(fan: Fan) -> FanoVerdict:
    """Ampleness of the anticanonical divisor.

    Smooth fans: every primitive collection has positive degree.  Other
    simplicial fans (where every divisor is Q-Cartier): every wall curve
    meets the anticanonical divisor positively (Kleiman's criterion).
    """
    rep = validate(fan)
    if not rep.complete:
        raise UnsupportedFanError("Fano test needs a complete simplicial fan")
    if rep.smooth:
        bad = tuple(c for c in primitive_collections(fan) if c.degree <= 0)
        return FanoVerdict(not bad, "primitive-collections", bad)
    # -K.C is the wall's positive scale times the sum of its relation
    bad_walls = tuple(w for w in walls(fan) if sum(w.relation) <= 0)
    return FanoVerdict(not bad_walls, "kleiman", bad_walls)


class TwoFanoVerdict(NamedTuple):
    is_two_fano: bool
    minimum: Fraction
    witness: tuple[int, ...]
    nef_but_not_positive: bool
    values: tuple[tuple[tuple[int, ...], Fraction], ...]


def is_2fano(fan: Fan) -> TwoFanoVerdict:
    """Positivity of the squared-divisor pairing over every invariant
    surface; the witness is the minimizing surface cone."""
    rep = validate(fan)
    if not rep.complete:
        raise UnsupportedFanError("2-Fano scan needs a complete simplicial fan")
    if fan.rank < 2:
        raise ValueError("2-Fano scan needs rank >= 2")
    values, distinct = _surface_values(fan)
    minimum = min(distinct)  # shared, so its first sigma is the least minimiser
    witness = next(sigma for sigma, v in values if v is minimum)
    return TwoFanoVerdict(minimum > 0, minimum, witness, minimum == 0, tuple(values))


def is_ample(fan: Fan, D: TorusDivisor) -> bool:
    if D.fan != fan:
        raise ValueError("the divisor lives on another fan")
    return all(wall_curve_number(fan, D, w) > 0 for w in walls(fan))


def nef_threshold(fan: Fan, L: TorusDivisor) -> Fraction:
    """Largest s with L + s*K nef, for ample L (else ValueError): the least
    s at which a wall curve C with -K.C > 0 has (L + s*K).C = 0, read off
    the slack rows of the polytope {x : <v_k, x> + L_k >= 0} that L gives on
    the fan's rays (``polytopes._critical_value``)."""
    if L.fan != fan:
        raise ValueError("the divisor lives on another fan")
    slacks = _slack_rows(FacetPresentation(fan.rank, fan.rays, L.coeffs))
    return _critical_value(slacks, fan, ZERO)[0]
