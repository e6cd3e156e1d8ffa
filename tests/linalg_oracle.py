"""Reference elimination over ``Fraction``, for cross-checks.

This is an independent route to the ranks, solutions, kernels and adjugates
that ``toriq.linalg`` computes with one fraction-free integer elimination:
plain Gauss-Jordan over ``Fraction`` (divide the pivot row by its pivot,
clear the column), and the Bareiss loop on [M | I] that stops at the first
column without a pivot.  The reduced row echelon form is unique, so both
routes must agree exactly.  It builds a ``Fraction`` per entry and step, so
it is kept for tests only.

``hull_facets`` is the brute-force hull that ``toriq.linalg`` ran before it
read the facets off the vertices of the polar: one kernel per d-subset of
the points, then a scan of every point against the hyperplane.

``_vertex_solutions`` is the vertex enumeration that ``toriq.linalg`` ran
before it shared one elimination along the tree of subsets: one adjugate of
[M | I] per n-subset of the rows, and the solution as adj times rhs.

``tree_vertex_solutions`` is that shared walk as ``toriq.linalg`` ran it
before it kept a table of bases per normal list: one elimination of
[rows | rhs] along the tree for every right-hand side, the pivot columns
carried as d times unit vectors, and every slack taken before the check.
``hull_facets_over_fractions`` and ``polytope_oracle`` run on it.

``bases`` and ``basis_solutions`` are the walk as ``toriq.linalg`` ran it
before the double description: d B^-1 for every basis B of the rows from
one walk of the tree of subsets, and a right-hand side solved against each.
``walk_hull_facets`` and ``walk_face_fan`` are ``toriq.linalg.hull_facets``
and ``toriq.fans.face_fan`` on that walk, and ``extreme_rays`` finds the
extreme rays of a cone by brute force, one kernel per k - 1 of its rows.

``extreme_rays_by_elimination`` is ``toriq.linalg._extreme_rays`` as it ran
before it seeded the double description with the adjugate of the leading
rows: every start, one elimination of [rows^T | I].

``cone_inverses`` and ``primitive_data_cones`` are the per-fan adjugates and
the row-wise rank test that ``toriq.fans`` ran before it kept one adjugate
per cone's ray vectors, shared by every fan that holds the cone; the rank
test runs on every ray subset of the rank's size.

``certify_cover_all_signs`` is the cover certificate of ``toriq.fans.validate``
as it ran before it read each cone only up to its first negative sign: every
sign of every cone at each trial point, and a new point while any is zero.

``lp_standard`` is the two-phase simplex (Bland's rule) that ``toriq.linalg``
ran before it pivoted one integer tableau with the elimination step: every
pivot divides the tableau by a ``Fraction``, and phase 2 starts from a
rebuilt tableau.  ``lp_min`` and ``nonneg_solve`` are the standard-form
encodings on it that ``toriq.linalg`` ran before it read every LP off the
extreme rays of a homogenized cone: x = p - q with slacks, and a phase-one
solve.  They share no code with the package's LPs.

``hull_facets_over_fractions`` is the polar hull that ``toriq.linalg.hull_facets``
ran before it scaled the points to integers once: a ``Fraction`` centroid,
rows scaled back to integers by m times the lcm of the denominators, and a
``Fraction`` dot product per point and facet for the constants.

``scale_to_primitive`` and ``lcm_scaled`` are the integer scalings that were
written out by hand before ``toriq.linalg._scaled`` took them over: a running
lcm of the denominators and a running gcd of the entries, and the one-line
lcm scaling that ``linalg._integer_row``, ``polytopes.vertices``,
``polytopes._SlackRows`` and the nef threshold each repeated.

``integer_kernel_basis`` is the second Smith form that
``toriq.polytopes`` took of a fiber basis for the forms vanishing on it,
before it read them off the projection rows of
``linalg.saturation_and_projection``; ``snf_multiplicity`` is the index of
a lattice in its saturation as the product of its Smith invariant factors,
the route of ``fans.cone_multiplicity`` before it took the gcd of the
maximal minors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import index, mul
from typing import Optional, Sequence

from toriq.fans import Fan, MalformedFanError, ReconstructionError, validate
from toriq.linalg import (
    LPResult, Vec, _eliminate, _scaled, dot, frac, primitive_part, smith_normal_form, vec_sub)
from toriq.linalg import _pivot as bareiss_step

ZERO = Fraction(0)
ONE = Fraction(1)


def lcm_scaled(xs) -> tuple[int, list[int]]:
    """(L, L * xs) for L the lcm of the denominators of the ints and
    ``Fraction``s xs."""
    q = [Fraction(x) for x in xs]
    L = lcm(*(x.denominator for x in q))
    return L, [x.numerator * (L // x.denominator) for x in q]


def scale_to_primitive(v: Sequence[Fraction]) -> Vec:
    """The primitive integer vector on the ray of a nonzero rational v."""
    denoms = 1
    for a in v:
        denoms = denoms * a.denominator // gcd(denoms, a.denominator)
    ints = [int(a * denoms) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in ints)


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


def integer_kernel_basis(rows: list[Vec]) -> list[Vec]:
    """Basis of the integer kernel lattice {x : rows·x = 0} (saturated): the
    last columns of V in the Smith form U rows V = D.  It spans the same
    lattice as the projection rows of ``linalg.saturation_and_projection``
    of the rows as columns, but is not always the same ordered basis."""
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0])
    _, D, V = smith_normal_form([list(r) for r in rows])
    r = sum(1 for i in range(min(len(D), len(D[0]))) if D[i][i] != 0)
    return [tuple(V[i][j] for i in range(n)) for j in range(r, n)]


def snf_multiplicity(rows: list[Vec]) -> int:
    """The index of the lattice spanned by the k rows in its saturation, as
    the product of the k invariant factors of their Smith form: 0 when the
    rows are dependent, and when k exceeds their length, since only that
    many factors can be nonzero."""
    if not rows:
        return 1
    _, D, _ = smith_normal_form([list(r) for r in rows])
    n = len(rows[0])
    return abs(prod(D[i][i] if i < n else 0 for i in range(len(rows))))


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


def cone_inverses(fan):
    """Adjugate and determinant of each maximal cone with ``rank`` rays of
    the fan, the rays as matrix columns, computed for this fan alone."""
    return {
        cone: adjugate([[fan.rays[i][k] for i in cone] for k in range(fan.rank)])
        for cone in fan.max_cones
        if cone and len(cone) == fan.rank
    }


def primitive_data_cones(rays, collections) -> list[tuple[int, ...]]:
    """The n-subsets of the rays that contain no collection and whose rays,
    as matrix rows, have a nonzero determinant."""
    n = len(rays[0])
    colls = [frozenset(c) for c in collections]
    return [sub for sub in combinations(range(len(rays)), n)
            if not any(c <= frozenset(sub) for c in colls)
            and adjugate([rays[i] for i in sub])[1]]


def certify_cover_all_signs(fan: Fan, inverses, facets) -> None:
    """Raise unless the pseudo-manifold of full cones covers the space
    exactly once, from a point (1, m, m^2, ...) off every boundary
    hyperplane of every cone."""
    cones = fan.max_cones
    for sides in facets.values():
        (a, ja), (b, jb) = sides
        adj, d = inverses[cones[a]]
        if dot(adj[ja], fan.rays[cones[b][jb]]) * d >= 0:
            raise MalformedFanError(
                f"maximal cones {cones[a]} and {cones[b]} lie on the same side of their wall"
            )
    rows = [(cone, row, d) for cone, (adj, d) in inverses.items() for row in adj]
    m = 2
    while True:
        p = tuple(m**k for k in range(fan.rank))
        signs = [(cone, dot(row, p) * d) for cone, row, d in rows]
        if all(s for _, s in signs):
            break
        m += 1
    outside = {cone for cone, s in signs if s < 0}
    hits = [cone for cone in cones if cone not in outside]
    if len(hits) > 1:
        raise MalformedFanError(
            f"maximal cones {hits[0]} and {hits[1]} overlap without meeting in a face"
        )


def _vertex_solutions(rows: Sequence[Vec], rhs: Sequence[int]):
    """Vertices of {y : rows·y >= rhs} for nonempty integer rows of length n:
    one integer adjugate per n-subset of the rows, yielding (y, d, slack) for
    each invertible, feasible one, with the vertex y / d, d > 0, and
    slack = rows·y - rhs·d >= 0; once per such subset, so possibly repeated."""
    for subset in combinations(range(len(rows)), len(rows[0])):
        adj, d = adjugate([rows[i] for i in subset])
        if not d:
            continue
        y = [sum(a * rhs[i] for a, i in zip(row, subset)) for row in adj]
        if d < 0:
            y, d = [-t for t in y], -d
        slack = [sum(map(mul, v, y)) - b * d for v, b in zip(rows, rhs)]
        if min(slack) >= 0:
            yield y, d, slack


def tree_vertex_solutions(rows: Sequence[Vec], rhs: Sequence[int]):
    """``_vertex_solutions``' (y, d, slack), in lexicographic order of the
    subsets, from one fraction-free elimination of [rows | rhs] shared along
    the tree of subsets: a child reduces its new row against its prefix's
    rows, d * r minus r[c] times the row of each pivot column c, and takes
    one ``linalg._pivot`` step; a dependent prefix prunes its subtree, and a
    leaf reads [d I | y] up to the order of the pivot columns."""
    m, n = len(rows), len(rows[0])
    aug = [list(v) + [b] for v, b in zip(rows, rhs)]

    def walk(tab, pivots, d, start):
        k = len(pivots)
        if k == n:
            y = [0] * n
            for row, c in zip(tab, pivots):
                y[c] = row[n]
            if d < 0:
                y, d = [-t for t in y], -d
            slack = [sum(map(mul, v, y)) - b * d for v, b in zip(rows, rhs)]
            if min(slack) >= 0:
                yield y, d, slack
            return
        for j in range(start, m - n + k + 1):
            r = aug[j]
            new = [d * a for a in r]
            for row, c in zip(tab, pivots):
                f = r[c]
                if f:
                    new = [a - f * b for a, b in zip(new, row)]
            col = next((c for c in range(n) if new[c]), None)
            if col is None:
                continue
            child = tab + [new]
            yield from walk(child, pivots + [col], bareiss_step(child, k, col, d), j + 1)

    yield from walk([], [], 1, 0)


def bases(rows: Sequence[Vec]):
    """(order, d, inverse) for each invertible n-subset of the nonempty
    integer rows of length n, in lexicographic order: the matrix B whose
    row c is rows[order[c]] has d = |det B| > 0, and inverse = d B^-1.

    One fraction-free Gauss-Jordan elimination of the rows is shared along
    the tree of subsets: a node holds its prefix's rows as d times their
    reduced row echelon form, and a child reduces its new row r against
    them without division, d * r minus r[c] times the row of each pivot
    column c, and takes one ``linalg._pivot`` step.  A dependent prefix prunes its
    subtree.  The rows are kept in exchange form (Stiefel's exchange step):
    a pivot column is d times a unit vector, so its slot holds instead the
    column of I of the row that took it, and every row has n entries.  At a
    leaf the row of pivot column c is row c of d B^-1, up to the sign of d,
    which the leaf folds in."""
    m, n = len(rows), len(rows[0])

    def walk(tab, pivots, free, subset, d):
        k = len(pivots)
        if k == n:
            order, inverse = [None] * n, [None] * n
            for row, c, j in zip(tab, pivots, subset):
                order[c], inverse[c] = j, row if d > 0 else [-a for a in row]
            yield order, abs(d), inverse
            return
        # leaves n - k - 1 rows after j
        for j in range(subset[-1] + 1 if subset else 0, m - n + k + 1):
            r = rows[j]
            new = [d * a for a in r]
            for c in pivots:
                new[c] = 0
            for row, c in zip(tab, pivots):
                f = r[c]
                if f:
                    new = [a - f * b for a, b in zip(new, row)]
            col = next((c for c in free if new[c]), None)
            if col is None:
                continue  # every subset through this prefix is singular
            child = tab + [new]
            pv = bareiss_step(child, k, col, d)
            # the exchange: slot col takes column k of I, which the step
            # made -tab[i][col] in the rows above and left d in the new row
            for row, old in zip(child, tab):
                if old[col]:
                    row[col] = -old[col]
            new[col] = d
            yield from walk(child, pivots + [col], [c for c in free if c != col],
                            subset + (j,), pv)

    return walk([], [], list(range(n)), (), 1)


def basis_solutions(rows: Sequence[Vec], rhs: Sequence[int], bases):
    """Vertices of {y : rows·y >= rhs} for nonempty integer rows of length n,
    solved against the ``bases`` of the rows (``bases``): yields (y, d,
    slack) for each basis whose solution y = inverse rhs_order is feasible,
    in their order, with the vertex y / d and slack = rows·y - rhs·d >= 0;
    once per such basis, so possibly repeated.  The slacks are taken row by
    row up to the first negative one."""
    ext = [[*v, -b] for v, b in zip(rows, rhs)]
    for order, d, inverse in bases:
        b = [rhs[j] for j in order]
        y = [sum(map(mul, row, b)) for row in inverse]
        y.append(d)
        slack = []
        for v in ext:
            s = sum(map(mul, v, y))
            if s < 0:
                break
            slack.append(s)
        else:
            y.pop()
            yield y, d, slack


def walk_hull_facets(points: Sequence[Sequence[Fraction]]) -> list[tuple[Vec, Fraction]]:
    """``toriq.linalg.hull_facets`` as it ran on the walk: the vertices of
    the polar {y : <m L (p - c), y> >= -1} from ``basis_solutions``."""
    if not points:
        raise ValueError("no points")
    d = len(points[0])
    if d == 0:
        return []
    L, flat = _scaled([a if type(a) is int else frac(a) for p in points for a in p])
    pts = [flat[i:i + d] for i in range(0, len(flat), d)]
    m = len(pts)
    total = [sum(col) for col in zip(*pts)]
    rows = [[m * a - s for a, s in zip(p, total)] for p in pts]
    normals = {primitive_part(y) for y, _, _ in basis_solutions(rows, [-1] * m, bases(rows))}
    if not normals:
        raise ValueError("points do not span the ambient space")
    return sorted((u, Fraction(-min(dot(u, p) for p in pts), L)) for u in normals)


def walk_face_fan(rays: list[Vec]) -> Fan:
    """``toriq.fans.face_fan`` as it ran on the walk: a cone per vertex of
    the polar {y : <r, y> >= -1} from ``basis_solutions``."""
    if not rays:
        raise ReconstructionError("no rays to take the face fan of")
    rays = [tuple(r) for r in rays]
    cones = {tuple(i for i, sl in enumerate(slack) if sl == 0)
             for _, _, slack in basis_solutions(rays, [-1] * len(rays), bases(rays))}
    fan = Fan(len(rays[0]), tuple(rays), tuple(cones))
    rep = validate(fan)
    if not (rep.well_formed and rep.complete):
        raise ReconstructionError("face fan failed validation")
    return fan


def extreme_rays(rows: Sequence[Vec]) -> Optional[set[tuple[Vec, int]]]:
    """``toriq.linalg._extreme_rays`` as a set, by brute force: a ray of the
    pointed cone {z : rows·z >= 0} spans the kernel of some k - 1 of the
    rows, and one of its two primitive directions satisfies every row."""
    k = len(rows[0])
    if matrix_rank(rows) < k:
        return None
    found = set()
    for subset in combinations(range(len(rows)), k - 1):
        kern = kernel_basis([rows[i] for i in subset]) if subset else [
            tuple(ONE if j == 0 else ZERO for j in range(k))]
        if len(kern) != 1:
            continue
        for z in (scale_to_primitive(kern[0]), scale_to_primitive([-x for x in kern[0]])):
            values = [dot(row, z) for row in rows]
            if min(values) >= 0:
                found.add((z, sum(1 << i for i, s in enumerate(values) if s == 0)))
    return found


def extreme_rays_by_elimination(rows: Sequence[Vec]) -> tuple[list[tuple[Vec, int]], list[Vec]]:
    """(rays, lineality) of the cone {z : rows·z >= 0}, in the order of
    ``toriq.linalg._extreme_rays``, the start always read off one
    elimination of [rows^T | I]: its pivots pick the leftmost k independent
    rows B and give d [R | E] with E B^T = I, or leave a lineality space."""
    m, k = len(rows), len(rows[0])
    T = [[*col, *(int(i == j) for j in range(k))] for i, col in enumerate(zip(*rows))]
    pivots, d, _ = _eliminate(T, m)
    lineality = [primitive_part(t[m:]) for t in T[len(pivots):]]
    if lineality:
        rays, _ = extreme_rays_by_elimination(
            [*rows, *([s * x for x in e] for e in lineality for s in (1, -1))])
        return [(z, mask & (1 << m) - 1) for z, mask in rays], lineality
    seen = sum(1 << j for j in pivots)
    rays = [(primitive_part(t[m:] if d > 0 else [-x for x in t[m:]]), seen & ~(1 << j))
            for t, j in zip(T, pivots)]
    for j, row in enumerate(rows):
        if seen >> j & 1:
            continue
        bit = 1 << j
        pos, neg, kept = [], [], []
        for z, mask in rays:
            s = dot(row, z)
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
                if common.bit_count() < k - 2 or any(
                        c & common == common and c != mp and c != mn for c in masks):
                    continue
                kept.append((primitive_part([sp * b - sn * a for a, b in zip(zp, zn)]),
                             common | bit))
        rays = kept
    return rays, []


def affine_rank(points) -> int:
    if not points:
        return -1
    return matrix_rank([vec_sub(p, points[0]) for p in points[1:]])


def hull_facets_over_fractions(points) -> list[tuple[Vec, Fraction]]:
    """``toriq.linalg.hull_facets`` by polarity, on ``Fraction`` points."""
    pts = [tuple(frac(a) for a in p) for p in points]
    if not pts:
        raise ValueError("no points")
    d = len(pts[0])
    if d == 0:
        return []
    c = [sum(col) / len(pts) for col in zip(*pts)]
    # D (p - c) is integral; scaling every row by D scales the polar by 1/D
    D = len(pts) * lcm(*(x.denominator for p in pts for x in p))
    rows = [[int(D * (a - ci)) for a, ci in zip(p, c)] for p in pts]
    normals = {scale_to_primitive(y) for y, _, _ in tree_vertex_solutions(rows, [-1] * len(rows))}
    if not normals:
        raise ValueError("points do not span the ambient space")
    return sorted((u, -min(dot(u, p) for p in pts)) for u in normals)


def hull_facets(points: Sequence[Sequence[Fraction]]) -> list[tuple[Vec, Fraction]]:
    """Facets of conv(points) as (primitive inward normal v, constant a)
    pairs with conv(points) = {x : <v,x> >= -a}.

    The points must affinely span their ambient space.  Brute force over
    d-subsets; intended for the small vertex sets arising here.
    """
    pts = [tuple(frac(a) for a in p) for p in points]
    if not pts:
        raise ValueError("no points")
    d = len(pts[0])
    if d == 0:
        return []
    if affine_rank(pts) != d:
        raise ValueError("points do not span the ambient space")
    found: dict[tuple[Vec, Fraction], None] = {}
    for subset in combinations(range(len(pts)), d):
        base = pts[subset[0]]
        diffs = [vec_sub(pts[i], base) for i in subset[1:]]
        kern = kernel_basis(diffs) if diffs else [tuple(ONE if j == 0 else ZERO for j in range(d))]
        if len(kern) != 1:
            continue
        normal = scale_to_primitive(kern[0])
        level = dot(normal, base)
        lo = hi = False
        for p in pts:
            val = dot(normal, p)
            if val < level:
                lo = True
            elif val > level:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:  # points on the >= side: inward normal as is
            found[(normal, -level)] = None
        elif lo:
            neg = tuple(-x for x in normal)
            found[(neg, level)] = None
        else:  # all points on the hyperplane: cannot happen, full-dim checked
            continue
    return sorted(found.keys())


def _pivot(T, basis, row, col):
    pv = T[row][col]
    T[row] = [x / pv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[row])]
    basis[row] = col


def _simplex_phase(T, basis, nvars):
    """Run simplex on tableau T (last row = objective, last col = rhs)
    with Bland's rule.  Returns 'optimal' or 'unbounded'."""
    m = len(T) - 1
    while True:
        obj = T[m]
        enter = next((j for j in range(nvars) if obj[j] < 0), None)
        if enter is None:
            return "optimal"
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][nvars] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(T, basis, best[1], enter)


def lp_standard(c: Sequence[Fraction], A: list[list[Fraction]], b: Sequence[Fraction]) -> LPResult:
    """Minimize c·y subject to A y = b, y >= 0, exactly."""
    m = len(A)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # phase 1: artificials
    total = n + m
    T = []
    for i in range(m):
        T.append(rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]])
    objrow = [ZERO] * (total + 1)
    for i in range(m):
        objrow = [o - a for o, a in zip(objrow, T[i])]
    for j in range(n, total):
        objrow[j] = ZERO
    T.append(objrow)
    basis = [n + i for i in range(m)]
    _simplex_phase(T, basis, total)
    if -T[m][total] != 0:
        return LPResult("infeasible", None, None)
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n or any(T[i][j] != 0 for j in range(n))]
    # rows whose basic artificial cannot leave are redundant zero rows
    rows2 = [T[i][:n] + [T[i][total]] for i in range(m) if i in keep]
    basis2 = [basis[i] for i in range(m) if i in keep]
    m2 = len(rows2)
    obj = [Fraction(x) for x in c] + [ZERO]
    T2 = [row[:] for row in rows2]
    T2.append(obj)
    for i in range(m2):
        bc = basis2[i]
        if T2[m2][bc] != 0:
            f = T2[m2][bc]
            T2[m2] = [x - f * y for x, y in zip(T2[m2], T2[i])]
    status = _simplex_phase(T2, basis2, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    y = [ZERO] * n
    for i in range(m2):
        y[basis2[i]] = T2[i][n]
    return LPResult("optimal", -T2[m2][n], tuple(y))


def lp_min(c: Sequence, normals: Sequence[Sequence], constants: Sequence) -> LPResult:
    """Minimize c·x over {x : <v_i, x> >= -a_i} with free x: x = p - q with
    a slack per inequality, in the standard form of ``lp_standard``."""
    n, k = len(c), len(normals)
    cq = [Fraction(x) for x in c]
    A = [[*v, *(-x for x in v), *(-int(j == i) for j in range(k))] for i, v in enumerate(normals)]
    res = lp_standard(cq + [-x for x in cq] + [0] * k, A, [-Fraction(a) for a in constants])
    if res.status != "optimal":
        return res
    return LPResult("optimal", res.value, tuple(res.point[i] - res.point[n + i] for i in range(n)))


def nonneg_solve(generators: Sequence[Sequence], x: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c >= 0 with sum(c_i * g_i) = x, or None: phase one of
    ``lp_standard`` on the generators as columns."""
    if not generators:
        return None if any(x) else ()
    res = lp_standard([0] * len(generators), list(zip(*generators)), x)
    return res.point if res.status == "optimal" else None
