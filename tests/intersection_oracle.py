"""Reference intersection numbers by moving divisors, for cross-checks.

This is an independent route to the numbers ``toriq.intersection`` reads
off the wall relations: replace the divisor by a linearly equivalent one
whose support misses the subvariety (subtracting the divisor of a
character), then read off the coefficients over the one-step-larger cones,
dividing by the index of the ray image in the one-dimensional quotient
lattice.  It takes a Smith normal form per (sigma, gamma) pair, so it is
kept for tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from toriq.fans import Fan, UnsupportedFanError, is_face
from toriq.intersection import TorusDivisor
from toriq.linalg import QVec, dot, invert, smith_normal_form, solve_linear
from helpers import prime_divisor

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
    Uinv = invert(U)
    mat = [[Uinv[r][j] for j in range(k1)] for r in range(n)]  # basis columns
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
    """Half the sum of D_i^2 . V(sigma), each square taken as two moves."""
    sigma = tuple(sorted(sigma))
    if len(sigma) != fan.rank - 2:
        raise ValueError(f"{sigma} is not a codimension-2 cone")
    total = ZERO
    for i in range(len(fan.rays)):
        Di = prime_divisor(fan, i)
        once = intersect_once(fan, Di, sigma)
        for tau, b in once.terms:
            total += b * intersect_once(fan, Di, tau).total()
    return total / 2
