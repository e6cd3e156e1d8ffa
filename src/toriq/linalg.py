"""Exact rational and lattice linear algebra.

Everything in this package runs on Python ints and ``fractions.Fraction``;
there is no floating point anywhere.  This module provides the shared
kernels: one fraction-free pivot step, ``_pivot`` (Bareiss 1968), behind
Gauss-Jordan elimination on integer rows (int and ``Fraction`` entries are
scaled to integers first, and a ``Fraction`` is built only for the result);
the integer adjugate, by cofactors up to 4 x 4 and by that elimination
beyond; Smith normal form, which gives a sublattice's saturation, the
coordinates in it and its annihilator (``saturation_and_projection``); and
a cone's lineality space and the extreme rays of its pointed part by the
double description method, ``_extreme_rays``.
On homogenized rows those give polytope vertices, convex hull facets
(``hull_facets``, the vertices of the polar), face fans (the tight sets of
the polar) and the optimum of a linear program (``lp_standard``,
``lp_min``), whose vertices and recession directions are the rays.
As the lowest module it also holds ``_Record``, the base of the
package's records kept in slots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, index, mul
from typing import NamedTuple, Optional, Sequence

Vec = tuple[int, ...]
QVec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionError(ValueError):
    """Raised when operands have incompatible shapes."""


class _Record:
    """Base of the package's records held in slots.  A record's fields are
    the public names of its ``__slots__``, in constructor order
    (``_fields``); its own ``__init__`` fills them, through ``_set``.  repr
    shows the fields; == compares, between records of one class, the fields
    named by the class keyword ``key``, all by default; ``_replace`` is the
    constructor on the fields with some changed, so it validates as the
    constructor does.  A ``_Record`` is mutable and unhashable, a
    ``_FrozenRecord`` refuses assignment and hashes its key once, keeping
    the hash in its slot ``_hash``, out of the fields."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, key=None):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        if cls._fields:
            cls._key = attrgetter(*key or cls._fields)

    def _set(self, *values):
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def _replace(self, **changes):
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class _FrozenRecord(_Record):
    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key(self)))
            return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def frac(x) -> Fraction:
    """Coerce an int, string ("p/q") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def int_vec(v: Sequence, error: type[Exception] = ValueError) -> Vec:
    """v as a tuple of ints (a tuple of ints is returned as it is); an entry
    that is not an int or an integral Fraction raises ``error``."""
    if type(v) is tuple and all(type(x) is int for x in v):
        return v
    if not all(isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1 for x in v):
        raise error(f"{tuple(v)!r} is not an integer vector")
    return tuple(int(x) for x in v)


def format_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionError(f"dot of length {len(u)} against {len(v)}")
    return sum(map(mul, u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _scaled(xs) -> tuple[int, list[int]]:
    """(L, L * xs) for L the lcm of the denominators of the ints and
    ``Fraction``s xs: the one integer scaling of every rational layer."""
    L = lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


def _lowest_terms(y: Sequence[int], d: int) -> tuple[Vec, int]:
    """The rational point y / d, d > 0, as (y', d') with gcd(*y', d') = 1:
    one representation per point, so equal points are equal pairs."""
    g = gcd(d, *y)
    return tuple(a // g for a in y), d // g


def _common_denominator(points) -> tuple[int, list[Vec]]:
    """(D, [D * y / d]) for the rational points y / d given as pairs (y, d),
    d > 0, and D the lcm of their denominators: integer vectors that
    compare and sort as the points do."""
    D = lcm(*(d for _, d in points))
    return D, [tuple(a * (D // d) for a in y) for y, d in points]


def primitive_part(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    The direction is preserved: (-3, 0) -> (-1, 0).  Raises on the zero
    vector, which has no primitive representative.
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in v)


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


# ---------------------------------------------------------------------------
# dense exact matrices (lists of row tuples)
# ---------------------------------------------------------------------------

def _rectangular(M, n: int):
    """M, whose rows must all have length n (else ``DimensionError``)."""
    for row in M:
        if len(row) != n:
            raise DimensionError(f"row lengths {[len(r) for r in M]} are not all {n}")
    return M


def _integer_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators, so every entry is an
    int; a row of ints is taken as it is."""
    return list(row) if all(type(x) is int for x in row) else _scaled(row)[1]


def _pivot(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step (Bareiss 1968) in place: every row
    but rows[r] becomes (pv * row - f * rows[r]) // prev, with pv = rows[r][col]
    and f = row[col].  If the rows are prev times a rational tableau, each
    division is exact and they become pv times the pivoted one; returns pv."""
    pk = rows[r]
    pv = pk[col]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and (f or prev != pv):
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, pk)]
    return pv


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer ``rows`` in
    place over their first ``ncols`` columns, skipping columns without a
    pivot.  Returns the pivot columns (leftmost first), d and the sign of the
    row swaps: row i below the rank is then d times row i of the reduced row
    echelon form, and every entry is a minor.  For a square matrix of full
    rank, det = sign * d."""
    m = len(rows)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prev = _pivot(rows, r, col, prev)
        pivots.append(col)
    return pivots, prev, sign


def matrix_rank(M) -> int:
    n = len(M[0]) if M else 0
    return len(_eliminate([_integer_row(row) for row in _rectangular(M, n)], n)[0])


def _adjugate1(r0):
    a, = map(index, r0)
    if not a:
        return None, 0
    return ((1,),), a


def _adjugate2(r0, r1):
    a, b = map(index, r0)
    c, d = map(index, r1)
    det = a * d - b * c
    if not det:
        return None, 0
    return ((d, -b), (-c, a)), det


def _adjugate3(r0, r1, r2):
    a, b, c = map(index, r0)
    d, e, f = map(index, r1)
    g, h, i = map(index, r2)
    c00, c10, c20 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c00 + b * c10 + c * c20
    if not det:
        return None, 0
    return ((c00, c * h - b * i, b * f - c * e),
            (c10, a * i - c * g, c * d - a * f),
            (c20, b * g - a * h, a * e - b * d)), det


def _adjugate4(r0, r1, r2, r3):
    # Laplace expansion along rows {0, 1}: s_k and c_k are the 2x2 minors
    # of rows {0, 1} and of rows {2, 3} on the column pairs 01, 02, 03, 12,
    # 13, 23; each adjugate entry is three products of a minor and an entry.
    a00, a01, a02, a03 = map(index, r0)
    a10, a11, a12, a13 = map(index, r1)
    a20, a21, a22, a23 = map(index, r2)
    a30, a31, a32, a33 = map(index, r3)
    s0, s1, s2 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    s3, s4, s5 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    c0, c1, c2 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    c3, c4, c5 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    if not det:
        return None, 0
    return ((a11 * c5 - a12 * c4 + a13 * c3, a02 * c4 - a01 * c5 - a03 * c3,
             a31 * s5 - a32 * s4 + a33 * s3, a22 * s4 - a21 * s5 - a23 * s3),
            (a12 * c2 - a10 * c5 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
             a32 * s2 - a30 * s5 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1),
            (a10 * c4 - a11 * c2 + a13 * c0, a01 * c2 - a00 * c4 - a03 * c0,
             a30 * s4 - a31 * s2 + a33 * s0, a21 * s2 - a20 * s4 - a23 * s0),
            (a11 * c1 - a10 * c3 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
             a31 * s1 - a30 * s3 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0)), det


_COFACTORS = (lambda: ((), 1), _adjugate1, _adjugate2, _adjugate3, _adjugate4)


def adjugate(M) -> tuple[Optional[tuple[Vec, ...]], int]:
    """Adjugate and determinant of a square integer matrix, so that
    M^-1 = adj / det: by cofactors up to 4 x 4 (every cone of a fan of
    dimension at most 4), from one elimination of [M | I] beyond.  The
    adjugate is None when the determinant is 0."""
    n = len(M)
    _rectangular(M, n)
    if n < len(_COFACTORS):
        return _COFACTORS[n](*M)
    rows = [[index(x) for x in row] + [int(j == i) for j in range(n)] for i, row in enumerate(M)]
    pivots, d, sign = _eliminate(rows, n)
    if len(pivots) < n:
        return None, 0
    # rows = [d I | d M^-1]
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * d


def det(M) -> int:
    """Determinant of a square integer matrix."""
    return adjugate(M)[1]


def solve_linear(M, b) -> Optional[QVec]:
    """Solve M x = b exactly.

    Returns None when the system is inconsistent.  Underdetermined systems
    get the solution whose free coordinates (under leftmost-pivot order)
    are zero, which keeps downstream constructions deterministic.
    """
    m = len(M)
    if m != len(b):
        raise DimensionError(f"{m} rows but {len(b)} right-hand entries")
    if m == 0:
        return ()
    n = len(M[0])
    rows = [_integer_row(list(row) + [bi]) for row, bi in zip(_rectangular(M, n), b)]
    pivots, d, _ = _eliminate(rows, n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        return None
    x = [ZERO] * n
    for i, col in enumerate(pivots):
        x[col] = Fraction(rows[i][n], d)
    return tuple(x)


def kernel_basis(M) -> list[QVec]:
    """Basis of the rational kernel of M (rows are equations)."""
    if not M:
        return []
    n = len(M[0])
    rows = [_integer_row(row) for row in _rectangular(M, n)]
    pivots, d, _ = _eliminate(rows, n)
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[i][fc], d)
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*M*V = D, D diagonal with d1 | d2 | ...,
    and U, V unimodular integer matrices.

    M must be a nonempty integer matrix.  The work is on one block matrix
    B = [A | U ; V], from A = M and U, V = I: a row operation on the first
    m rows acts on A and U, and a column operation on the first n columns
    on A and V, so U*M*V = A throughout.
    """
    if not M or not M[0]:
        raise ValueError("Smith normal form of an empty matrix")
    m, n = len(M), len(M[0])
    B = [[*int_vec(row), *(int(i == j) for j in range(m))]
         for i, row in enumerate(_rectangular(M, n))]
    B += [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        # the pivot: the first entry of least nonzero magnitude, row-major
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if B[i][j] and (best is None or abs(B[i][j]) < abs(B[best[0]][best[1]])):
                    best = i, j
        if best is None:
            break
        i, j = best
        B[t], B[i] = B[i], B[t]
        for row in B:
            row[t], row[j] = row[j], row[t]
        p = B[t][t]
        dirty = False
        for i in range(t + 1, m):
            if B[i][t]:
                q = B[i][t] // p
                B[i] = [a - q * b for a, b in zip(B[i], B[t])]
                dirty = dirty or B[i][t] != 0
        for j in range(t + 1, n):
            if B[t][j]:
                q = B[t][j] // p
                for row in B:
                    row[j] -= q * row[t]
                dirty = dirty or B[t][j] != 0
        if dirty:
            continue
        # p must divide every remaining entry: else fold the first row that
        # breaks that into row t, which shrinks the pivot, and start over
        for i in range(t + 1, m):
            if any(B[i][j] % p for j in range(t + 1, n)):
                B[t] = [a + b for a, b in zip(B[t], B[i])]
                break
        else:
            if p < 0:
                B[t] = [-a for a in B[t]]
            t += 1
    return [row[n:] for row in B[:m]], [row[:n] for row in B[:m]], B[m:]


def saturation_and_projection(columns: list[Vec],
                              n: int) -> tuple[list[Vec], list[Vec], list[Vec]]:
    """From one Smith normal form U A V = D of the integer columns A in Z^n,
    r of whose invariant factors are nonzero: the first r columns of U^-1, a
    basis of the saturation (span ∩ Z^n) of their lattice; the rows U[:r],
    which give a vector of the saturation its coordinates in that basis;
    and the rows U[r:], the projection Z^n -> Z^(n-r) whose kernel is the
    saturation, which are also a basis of the forms that vanish on it."""
    if not columns:
        return [], [], [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    A = [list(row) for row in zip(*_rectangular(columns, n))]
    U, D, _ = smith_normal_form(A)
    r = sum(1 for i in range(min(len(D), len(D[0]))) if D[i][i] != 0)
    adj, d = adjugate(U)  # U is unimodular, so U^-1 = d * adj
    basis = [tuple(d * adj[i][j] for i in range(n)) for j in range(r)]
    return basis, [tuple(row) for row in U[:r]], [tuple(row) for row in U[r:]]


# ---------------------------------------------------------------------------
# linear programs on the extreme rays
# ---------------------------------------------------------------------------

def _rationals(xs) -> list:
    """xs as exact rationals: ints as they are, anything else through
    ``frac``."""
    return [x if type(x) is int else frac(x) for x in xs]


class LPResult(NamedTuple):
    status: str            # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction]
    point: Optional[QVec]


def _ray_optimum(c: Sequence, rays: list[tuple[Vec, int]], kernel: Sequence[Vec]) -> LPResult:
    """Minimize c·x over P + span(kernel), for kernel vectors (k, 0) and
    the polyhedron P whose homogenization, a pointed cone in t >= 0, has the
    extreme rays (x, t): the rays with t > 0 are P's vertices x / t and
    those with t = 0 its recession directions.  P is empty when no ray has
    t > 0; c·x is unbounded below when it is negative on a recession
    direction or nonzero on the kernel; otherwise its minimum is at a
    vertex.  With c = C / L for integers C, vertices compare by C·x / t
    cross-multiplied, the first of equal ones winning, and only the winner
    becomes ``Fraction``s."""
    L, C = _scaled(_rationals(c))
    best = None
    for z, _ in rays:
        t, v = z[-1], sum(map(mul, C, z))
        if t > 0 and (best is None or v * bt < bv * t):
            best, bv, bt = z, v, t
    if best is None:
        return LPResult("infeasible", None, None)
    recedes = any(z[-1] == 0 and sum(map(mul, C, z)) < 0 for z, _ in rays)
    if recedes or any(sum(map(mul, C, k)) for k in kernel):
        return LPResult("unbounded", None, None)
    return LPResult("optimal", Fraction(bv, L * bt), tuple(Fraction(a, bt) for a in best[:-1]))


def lp_standard(c: Sequence[Fraction], A: list[list[Fraction]], b: Sequence[Fraction]) -> LPResult:
    """Minimize c·y subject to A y = b, y >= 0, exactly.

    Read off the extreme rays (y, t) of the cone over the unit rows (y >= 0
    and t >= 0) and the rows ±(L A_i, -L b_i), with one common L scaling A
    and b to integers (``_scaled``); the unit rows make it pointed."""
    m, n = len(A), len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise DimensionError(f"{m} x {n} constraints against {len(b)} right-hand entries")
    _, flat = _scaled(_rationals([x for row, bi in zip(A, b) for x in (*row, bi)]))
    eqs = [[*flat[i:i + n], -flat[i + n]] for i in range(0, m * (n + 1), n + 1)]
    units = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return _ray_optimum(c, *_extreme_rays(units + eqs + [[-x for x in row] for row in eqs]))


def lp_min(c: Sequence, normals: Sequence[Sequence], constants: Sequence) -> LPResult:
    """Minimize c·x over {x : <v_i, x> >= -a_i} with free x, exactly.

    Read off the extreme rays (x, t) of the cone over the rows (L v_i, L a_i)
    and t >= 0, with one common L scaling the normals and constants to
    integers (``_scaled``), and its lineality space (k, 0), k in the kernel
    of the normals (all of R^n when there are none)."""
    n, m = len(c), len(normals)
    if m != len(constants) or any(len(v) != n for v in normals):
        raise DimensionError(f"{m} normals, {len(constants)} constants, length {n}")
    _, flat = _scaled(_rationals([x for v, a in zip(normals, constants) for x in (*v, a)]))
    rows = [flat[i:i + n + 1] for i in range(0, m * (n + 1), n + 1)]
    rows.append([0] * n + [1])
    return _ray_optimum(c, *_extreme_rays(rows))


def nonneg_solve(generators: Sequence[Sequence], x: Sequence) -> Optional[QVec]:
    """Coefficients c >= 0 with sum(c_i * g_i) = x, or None.

    The feasibility problem of ``lp_standard``; the returned witness is one
    valid certificate, not a canonical one.
    """
    gens = [_rationals(g) for g in generators]
    target = _rationals(x)
    for g in gens:
        if len(g) != len(target):
            raise DimensionError("generator length differs from target length")
    if not gens:
        return None if any(target) else ()
    # with c = 0 nothing is unbounded, and only an optimum has a point
    return lp_standard([0] * len(gens), list(zip(*gens)), target).point


# ---------------------------------------------------------------------------
# extreme rays (double description) and convex hull facets
# ---------------------------------------------------------------------------

def _extreme_rays(rows: Sequence[Vec]) -> tuple[list[tuple[Vec, int]], list[Vec]]:
    """The cone {z : rows·z >= 0} for nonempty integer rows of length k, as
    (rays, lineality): the extreme rays of its part orthogonal to the
    lineality space {z : rows·z = 0}, a pointed cone, each as (primitive
    ray, bitmask of the rows that vanish on it), in no particular order,
    and a primitive basis of that space.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953): k independent rows cut out a simplicial cone, whose rays are the
    columns of their inverse: the ``adjugate`` of the leading k rows, or,
    when those are dependent, one elimination of [rows^T | I], which picks
    the leftmost independent rows, so the same rays in the same order when
    the leading ones are.  Each further row keeps the rays where it is >= 0
    and joins each adjacent pair of a ray where it is positive and one where
    it is negative: two extreme rays of a pointed cone are adjacent exactly
    when no third one vanishes on every row that both vanish on (Fukuda and
    Prodon, "Double description method revisited", 1996).  Rows of rank
    below k leave a lineality space; the pointed part is then the cone of
    the rows and ±e for its basis e (Schrijver, "Theory of Linear and
    Integer Programming", ch. 8)."""
    m, k = len(rows), len(rows[0])
    adj, d = adjugate(rows[:k]) if m >= k else (None, 0)
    # ray c is row c of E, for B E^T = d I and the rows B = rows[pivots]
    if d:
        pivots, E = range(k), zip(*adj)
    else:
        T = [[*col, *(int(i == j) for j in range(k))] for i, col in enumerate(zip(*rows))]
        pivots, d, _ = _eliminate(T, m)
        # T = d [R | E], and the rows of T below the rank vanish on the
        # first m columns, so their identity part e has rows·e = 0
        lineality = [primitive_part(t[m:]) for t in T[len(pivots):]]
        if lineality:
            rays, _ = _extreme_rays([*rows, *([s * x for x in e] for e in lineality for s in (1, -1))])
            return [(z, mask & (1 << m) - 1) for z, mask in rays], lineality
        E = [t[m:] for t in T]
    seen = sum(1 << j for j in pivots)
    rays = [(primitive_part(e if d > 0 else [-x for x in e]), seen & ~(1 << j))
            for e, j in zip(E, pivots)]
    for j, row in enumerate(rows):
        if seen >> j & 1:
            continue
        bit = 1 << j
        pos, neg, kept = [], [], []
        for z, mask in rays:
            s = sum(map(mul, row, z))
            if s > 0:
                pos.append((z, mask, s))
                kept.append((z, mask))
            elif s < 0:
                neg.append((z, mask, s))
            else:
                kept.append((z, mask | bit))
        masks = [mask for _, mask in rays]
        for zp, mp, sp in pos:
            for zn, mn, sn in neg:
                common = mp & mn
                # a 2-face has k - 2 independent rows that vanish on it
                if common.bit_count() < k - 2 or any(
                        c & common == common and c != mp and c != mn for c in masks):
                    continue
                kept.append((primitive_part([sp * b - sn * a for a, b in zip(zp, zn)]),
                             common | bit))
        rays = kept
    return rays, []


def hull_facets(points: Sequence[Sequence[Fraction]]) -> list[tuple[Vec, Fraction]]:
    """Facets of conv(points) as (primitive inward normal v, constant a)
    pairs with conv(points) = {x : <v,x> >= -a}, sorted.

    The points must affinely span their ambient space, so their centroid c
    is interior.  By polarity the facets are the vertices y of
    {y : <p - c, y> >= -1 for every point p}: the facet with inward normal
    y holds the points where equality holds.  With P = L p the points
    scaled to integers, these are the extreme rays (y, t) of the cone over
    the rows (m P - sum P, 1) = (m L (p - c), 1) (``_extreme_rays``), which
    sum to (0, m), so t > 0 on every ray, and span exactly when the points
    do.  Each constant is one ``Fraction``.
    """
    if not points:
        raise ValueError("no points")
    d = len(points[0])
    if d == 0:
        return []
    L, flat = _scaled([a if type(a) is int else frac(a)
                       for p in _rectangular(points, d) for a in p])
    pts = [flat[i:i + d] for i in range(0, len(flat), d)]
    m = len(pts)
    total = [sum(col) for col in zip(*pts)]
    rays, lineality = _extreme_rays([(*(m * a - s for a, s in zip(p, total)), 1) for p in pts])
    if lineality:
        raise ValueError("points do not span the ambient space")
    normals = [primitive_part(z[:d]) for z, _ in rays]
    return sorted((u, Fraction(-min(dot(u, p) for p in pts), L)) for u in normals)
