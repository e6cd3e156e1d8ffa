"""Reference polytope algorithms, for cross-checks.

``remove_redundant`` is an independent route to the irredundant
sub-presentation that ``toriq.polytopes.remove_redundant`` reads off the
vertex-facet incidences: walk the inequalities in order and drop each one
that a two-phase simplex shows to be implied by the ones still kept.  It
runs one LP per inequality, so it is kept for tests only.

``nef_threshold_tracking`` finds the nef threshold that
``toriq.polytopes.thresholds`` reads off the walls of the normal fan by
tracking each vertex of P^(s) linearly in s instead.

``is_cayley_s`` asks the Smith normal form of the direction matrix whether
every invariant factor is the same s, where ``toriq.polytopes.is_cayley_s``
compares the gcd of its entries with its determinant.

``_positively_spanning`` is the boundedness test that
``toriq.polytopes._positively_spanning`` answers with one rank and one LP:
it runs one LP per signed unit vector, 2n in all.

``faces`` finds the implicit equalities and the facets that
``toriq.polytopes._faces`` reads off the vertices' tight sets from the
vertices' coordinates and the affine ranks of their subsets instead.

``decompose_along_fiber`` is the Cayley decomposition that
``toriq.polytopes._decompose_along_fiber`` reads off P's tight sets: it
solves for each base vertex's kernel coordinates, takes each base's hull
and compares the bases' normal fans.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from linalg_oracle import affine_rank
from toriq.linalg import (
    Vec,
    dot,
    integer_kernel_basis,
    lp_min,
    nonneg_solve,
    smith_normal_form,
    solve_linear,
    vec_sub,
)
from toriq.polytopes import (
    CayleyMoriDecomposition,
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    RedundantPresentationError,
    effective_threshold,
    facet_presentation_from_vertices,
    is_empty,
    normal_fan,
    vertices,
)


def _positively_spanning(dim: int, normals: tuple[Vec, ...]) -> bool:
    """Whether every presentation with these normals is bounded: every
    signed unit vector is a nonnegative combination of them."""
    for k in range(dim):
        for sign in (1, -1):
            e = tuple(sign if j == k else 0 for j in range(dim))
            if nonneg_solve(normals, e) is None:
                return False
    return True


def remove_redundant(P: FacetPresentation) -> tuple[FacetPresentation, tuple[int, ...]]:
    """Minimal sub-presentation; removed inequalities are certified by exact
    LP to be implied by the rest."""
    if is_empty(P):
        raise EmptyPolytopeError("cannot reduce an empty polytope")
    keep = list(range(P.nfacets))
    removed = []
    for i in range(P.nfacets):
        others = [j for j in keep if j != i]
        if not others:
            break
        res = lp_min(
            P.normals[i],
            [P.normals[j] for j in others],
            [P.constants[j] for j in others],
        )
        if res.status == "optimal" and res.value + P.constants[i] >= 0:
            keep.remove(i)
            removed.append(i)
    Q = FacetPresentation(
        P.dim,
        tuple(P.normals[i] for i in keep),
        tuple(P.constants[i] for i in keep),
        irredundant=True,
    )
    if affine_rank(vertices(Q, allow_lower_dim=True).vertices) != P.dim:
        raise DegenerateError("polytope is not full-dimensional")
    return Q, tuple(removed)


def faces(P: FacetPresentation, points) -> tuple[list[int], dict[int, set[int]]]:
    """For F = conv(points), P itself or a face of P given by its vertices:
    the inequalities of P that hold with equality at every point, and, for
    each inequality that defines a facet of F, the indices of the points on
    it.  An inequality defines a facet when the points on its hyperplane
    are nonempty and of affine rank one less than all of them."""
    dim = affine_rank(points)
    on = [{k for k, x in enumerate(points) if dot(v, x) == -a}
          for v, a in zip(P.normals, P.constants)]
    equalities = [j for j, T in enumerate(on) if len(T) == len(points)]
    facets = {j: T for j, T in enumerate(on)
              if T and affine_rank([points[k] for k in T]) == dim - 1}
    return equalities, facets


def nef_threshold_tracking(P: FacetPresentation) -> Fraction:
    """sup{s : P^(s) has the same normal fan as P}, by exact parametric
    vertex tracking.  Needs a simple, irredundant, full-dimensional P."""
    if not P.irredundant:
        raise RedundantPresentationError("nef threshold needs an irredundant presentation")
    vs = vertices(P)
    n = P.dim
    best: Optional[Fraction] = None
    for x, tight in zip(vs.vertices, vs.tight):
        if len(tight) != n:
            raise RedundantPresentationError("polytope is not simple")
        mat = [P.normals[i] for i in tight]
        d = solve_linear(mat, [1] * n)
        if d is None:
            raise DegenerateError(f"tight normals at vertex {x} are not independent")
        for j in range(P.nfacets):
            if j in tight:
                continue
            slope = 1 - dot(P.normals[j], d)
            if slope <= 0:
                continue
            g0 = dot(P.normals[j], x) + P.constants[j]
            cand = g0 / slope
            if best is None or cand < best:
                best = cand
    if best is None:
        return effective_threshold(P)
    return best


def is_cayley_s(W: list[Vec]) -> Optional[int]:
    """The common value s > 0 of all invariant factors of the square
    integer matrix W, or None when they differ or one is 0."""
    _, D, _ = smith_normal_form(W)
    diag = [D[i][i] for i in range(len(W))]
    return diag[0] if diag[0] > 0 and all(d == diag[0] for d in diag) else None


def decompose_along_fiber(P, pvs, data) -> Optional[CayleyMoriDecomposition]:
    """P as a Cayley sum along the fibration ``data``, or None; each base is
    the hull of its section face in coordinates on the projection's kernel."""
    k = data.fiber_fan.rank
    pi_rows = [tuple(b) for b in data.fiber_basis]
    simplex_pts = sorted({tuple(dot(row, v) for row in pi_rows) for v in pvs.vertices})
    if len(simplex_pts) != k + 1:
        return None
    # one invariant-section face of P per maximal fiber-fan cone
    base_faces = []
    ws = []
    for fcone in data.fiber_fan.max_cones:
        facet_idx = [data.fiber_ray_origin[i] for i in fcone]
        face_verts = [
            v for v, t in zip(pvs.vertices, pvs.tight) if set(facet_idx) <= set(t)
        ]
        if not face_verts:
            return None
        imgs = {tuple(dot(row, v) for row in pi_rows) for v in face_verts}
        if len(imgs) != 1:
            return None
        ws.append(next(iter(imgs)))
        base_faces.append(tuple(sorted(face_verts)))
    if sorted(ws) != simplex_pts:
        return None
    order = sorted(range(len(ws)), key=lambda i: ws[i])
    ws = [ws[i] for i in order]
    base_faces = [base_faces[i] for i in order]
    # coordinates on ker(pi) via its saturated integer basis
    kern = integer_kernel_basis([tuple(r) for r in pi_rows])
    mat = [[kern[c][r] for c in range(len(kern))] for r in range(P.dim)]
    bases = []
    for face in base_faces:
        origin = face[0]
        coords = []
        for v in face:
            sol = solve_linear(mat, vec_sub(v, origin))
            if sol is None:
                return None
            coords.append(sol)
        try:
            bases.append(facet_presentation_from_vertices(coords))
        except ValueError:
            return None
    first_fan = None
    for b in bases:
        try:
            f = normal_fan(b)
        except (DegenerateError, RedundantPresentationError, EmptyPolytopeError):
            return None
        if first_fan is None:
            first_fan = f
        elif f != first_fan:
            return None
    w0 = ws[0]
    wrel = [vec_sub(wi, w0) for wi in ws[1:]]
    return CayleyMoriDecomposition(
        bases=tuple(bases),
        w=tuple(wrel),
        fiber_projection=tuple(pi_rows),
        base_faces=tuple(base_faces),
        simplex_vertices=tuple(tuple(x) for x in ws),
    )
