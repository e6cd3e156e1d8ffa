"""Reference elimination over ``Fraction``, for cross-checks.

This is an independent route to the ranks, solutions, kernels and adjugates
that ``toriq.linalg`` computes with one fraction-free integer elimination:
plain Gauss-Jordan over ``Fraction`` (divide the pivot row by its pivot,
clear the column), and the Bareiss loop on [M | I] that stops at the first
column without a pivot.  The reduced row echelon form is unique, so both
routes must agree exactly.  It builds a ``Fraction`` per entry and step, so
it is kept for tests only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` in place over their first
    ``ncols`` columns; returns the pivot columns, leftmost first."""
    m = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def matrix_rank(M) -> int:
    rows = [[Fraction(x) for x in row] for row in M]
    return len(_rref(rows, len(rows[0]))) if rows else 0


def solve_linear(M, b) -> Optional[tuple[Fraction, ...]]:
    """Solve M x = b exactly; None when inconsistent, free coordinates 0."""
    m = len(M)
    if m == 0:
        return ()
    n = len(M[0])
    rows = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(M, b)]
    pivots = _rref(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for i, col in enumerate(pivots):
        x[col] = rows[i][n]
    return tuple(x)


def kernel_basis(M) -> list[tuple[Fraction, ...]]:
    """Basis of the rational kernel of M, one vector per free column."""
    if not M:
        return []
    n = len(M[0])
    rows = [[Fraction(x) for x in row] for row in M]
    pivots = _rref(rows, n)
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


def adjugate(M):
    """Adjugate and determinant of a square integer matrix by the Bareiss
    loop on [M | I]; (None, 0) at the first column without a pivot."""
    n = len(M)
    rows = [[index(x) for x in row] + [int(j == i) for j in range(n)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return None, 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pk = rows[k]
        pv = pk[k]
        for i in range(n):
            f = rows[i][k]
            if i != k and (f or prev != pv):
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(rows[i], pk)]
        prev = pv
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * prev
