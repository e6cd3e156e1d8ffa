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

``is_empty`` is the emptiness LP that ``toriq.polytopes`` solved for
normals that do not span, before it read emptiness off the extreme rays
of the pointed part of the homogenized cone; it runs on the ``Fraction``
simplex, independent of the double description.

``_positively_spanning`` is a boundedness test with one LP per signed
unit vector, 2n in all; ``positively_spanning`` is the one rank and one LP
(Davis 1954) that ``toriq.polytopes`` asked before it read boundedness off
the extreme rays of the homogenized cone.

``walk_vertices`` is ``toriq.polytopes.vertices`` as it ran before the
double description: boundedness from ``positively_spanning``, the vertices
solved against every basis of the normals from the walk over their
n-subsets (``linalg_oracle.bases``), and the emptiness LP for every
presentation that is not positively spanned.

``faces`` finds the implicit equalities and the facets that
``toriq.polytopes._faces`` reads off the vertices' tight sets from the
vertices' coordinates and the affine ranks of their subsets instead.

``decompose_along_fiber`` is the Cayley decomposition that
``toriq.polytopes._decompose_along_fiber`` reads off P's tight sets: it
solves for each base vertex's kernel coordinates, takes each base's hull
and compares the bases' normal fans.

``cayley_mori_detect`` is ``toriq.polytopes.cayley_mori_detect`` as it ran
before it sign-tested each wall from its cone's adjugate: every wall of the
normal fan built by ``fans.walls``, classified by ``wall_classification``,
and ``mmp.mori_fiber_data`` run on every fibering class.

``vertices_over_fractions``, ``core_over_fractions`` and
``decompose_over_fractions`` are ``toriq.polytopes.vertices``,
``_core_and_projection`` and ``_decompose_along_fiber`` as they ran before
vertex sets held integer points: every vertex coordinate a ``Fraction``,
deduplicated and sorted as tuples of ``Fraction``s, and the projected
images, the core's edge directions, the hull and the bases' constants
computed on them.  ``vertices_over_fractions`` walks the tree of subsets
afresh for every presentation (``linalg_oracle.tree_vertex_solutions``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from math import gcd

from linalg_oracle import (
    affine_rank,
    bases,
    basis_solutions,
    hull_facets_over_fractions,
    integer_kernel_basis,
    lp_min,
    nonneg_solve,
    scale_to_primitive,
    tree_vertex_solutions,
)
from toriq import mmp
from toriq.fans import MalformedFanError, wall_classification, walls
from toriq.linalg import (
    QVec,
    Vec,
    _lowest_terms,
    _scaled,
    dot,
    matrix_rank,
    saturation_and_projection,
    smith_normal_form,
    solve_linear,
    vec_sub,
)
from toriq.polytopes import (
    CayleyMoriDecomposition,
    CoreProjection,
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    RedundantPresentationError,
    UnboundedError,
    VertexSet,
    _decompose_along_fiber,
    _faces,
    _rational_decomposition,
    _vertex_set,
    effective_threshold,
    facet_presentation_from_vertices,
    normal_fan,
    remove_redundant as toriq_remove_redundant,
    vertices,
)


def is_empty(P: FacetPresentation) -> bool:
    return lp_min([0] * P.dim, P.normals, P.constants).status == "infeasible"


def _positively_spanning(dim: int, normals: tuple[Vec, ...]) -> bool:
    """Whether every presentation with these normals is bounded: every
    signed unit vector is a nonnegative combination of them."""
    for k in range(dim):
        for sign in (1, -1):
            e = tuple(sign if j == k else 0 for j in range(dim))
            if nonneg_solve(normals, e) is None:
                return False
    return True


def positively_spanning(dim: int, normals: tuple[Vec, ...]) -> bool:
    """Whether the normals positively span R^dim: they span it and a
    strictly positive combination 1 + c (c >= 0) of them vanishes."""
    minus_sum = [-sum(col) for col in zip(*normals)]
    return matrix_rank(normals) == dim and nonneg_solve(normals, minus_sum) is not None


def walk_vertices(P: FacetPresentation, allow_lower_dim: bool = False) -> VertexSet:
    """The vertices of P solved against every basis of its normals."""
    n = P.dim
    if n == 0:
        return VertexSet((((), 1),), ((),))
    if not positively_spanning(n, P.normals):
        if is_empty(P):
            raise EmptyPolytopeError("polytope is empty")
        raise UnboundedError("presentation is unbounded")
    L, A = _scaled(P.constants)
    found = {}
    for y, d, slack in basis_solutions(P.normals, [-a for a in A], bases(P.normals)):
        found.setdefault(_lowest_terms(y, d * L), tuple(i for i, sl in enumerate(slack) if sl == 0))
    if not found:
        raise EmptyPolytopeError("polytope is empty")
    vs = _vertex_set(found)
    if not allow_lower_dim and vs.faces[0]:
        raise DegenerateError("polytope is not full-dimensional")
    return vs


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


def cayley_mori_detect(P: FacetPresentation) -> Optional[CayleyMoriDecomposition]:
    """The decomposition along the first fibering class of P's normal fan,
    in the order of its walls, that decomposes, or None."""
    fan = normal_fan(P)
    pvs = vertices(P)
    tried = set()
    for wall in walls(fan):
        if wall_classification(fan, wall)[0] != 0 or wall.relation in tried:
            continue
        tried.add(wall.relation)
        try:
            data = mmp.mori_fiber_data(fan, wall)
        except MalformedFanError:
            continue
        found = _decompose_along_fiber(P, pvs, data)
        if found is not None:
            return _rational_decomposition(found, data)
    return None


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


def vertices_over_fractions(P: FacetPresentation, allow_lower_dim: bool = False
                            ) -> tuple[tuple[QVec, ...], tuple[tuple[int, ...], ...]]:
    """The vertices, as ``Fraction`` tuples, and their tight sets."""
    n = P.dim
    if n == 0:
        return ((),), ((),)
    if not _positively_spanning(n, P.normals):
        if is_empty(P):
            raise EmptyPolytopeError("polytope is empty")
        raise UnboundedError("presentation is unbounded")
    L, A = _scaled(P.constants)
    found: dict[QVec, tuple[int, ...]] = {}
    coords: dict[Fraction, Fraction] = {}
    for y, d, slack in tree_vertex_solutions(P.normals, [-a for a in A]):
        x = tuple(coords.setdefault(q, q) for q in (Fraction(yk, d * L) for yk in y))
        if x not in found:
            found[x] = tuple(i for i, sl in enumerate(slack) if sl == 0)
    if not found:
        raise EmptyPolytopeError("polytope is empty")
    verts = tuple(sorted(found))
    tight = tuple(found[x] for x in verts)
    if not allow_lower_dim and _faces(tight)[0]:
        raise DegenerateError("polytope is not full-dimensional")
    return verts, tight


def core_over_fractions(P: FacetPresentation, sigma: Fraction,
                        core_vertices: Optional[tuple[QVec, ...]]) -> CoreProjection:
    """The core at sigma, its projection and Q; the core's vertices are
    enumerated when None is given."""
    core = FacetPresentation(P.dim, P.normals, tuple(a - sigma for a in P.constants))
    if core_vertices is None:
        core_vertices = vertices_over_fractions(core, allow_lower_dim=True)[0]
    kern_cols = [scale_to_primitive(vec_sub(v, core_vertices[0])) for v in core_vertices[1:]]
    kbasis, _, proj = saturation_and_projection(kern_cols, P.dim)
    if kbasis:
        imgs = sorted({tuple(dot(row, v) for row in proj) for v in vertices_over_fractions(P)[0]})
        facets = hull_facets_over_fractions(imgs)
        Q = FacetPresentation(len(imgs[0]), tuple(v for v, _ in facets),
                              tuple(a for _, a in facets), irredundant=True)
    else:
        R = toriq_remove_redundant(P)[0]
        facets = sorted(zip(R.normals, R.constants))
        Q = FacetPresentation(P.dim, tuple(v for v, _ in facets),
                              tuple(a for _, a in facets), irredundant=True)
    return CoreProjection(core, core_vertices, tuple(kbasis), tuple(proj), Q)


def decompose_over_fractions(P, pvs, data) -> Optional[CayleyMoriDecomposition]:
    """The decomposition read off the tight sets of ``pvs``, on its
    ``Fraction`` vertices."""
    if not (data.split and data.fiber_rho_one):
        return None
    pi_rows = [tuple(b) for b in data.fiber_basis]
    simplex_pts = sorted({tuple(dot(row, v) for row in pi_rows) for v in pvs.vertices})
    # per maximal fiber cone: (simplex vertex, section face as (vertex, tight set)s)
    sections = []
    for fcone in data.fiber_fan.max_cones:
        on = {data.fiber_ray_origin[i] for i in fcone}
        face = sorted((v, t) for v, t in zip(pvs.vertices, pvs.tight) if on <= set(t))
        imgs = {tuple(dot(row, v) for row in pi_rows) for v, _ in face}
        if len(imgs) != 1:
            return None
        sections.append((imgs.pop(), face))
    sections.sort()
    ws = [w for w, _ in sections]
    if ws != simplex_pts:  # k + 1 fiber rays make k + 1 sections
        return None
    kern = integer_kernel_basis(pi_rows)
    bases, base_fans = [], set()
    for _, face in sections:
        equalities, face_facets = _faces([t for _, t in face])
        if P.dim - matrix_rank([P.normals[j] for j in equalities]) != len(kern):
            return None
        facets: dict[Vec, tuple[Fraction, set[int]]] = {}
        for j, T in face_facets.items():
            gu = [dot(col, P.normals[j]) for col in kern]
            g = gcd(*gu)
            b = (P.constants[j] + dot(P.normals[j], face[0][0])) / g
            facets[tuple(x // g for x in gu)] = (b, T)
        normals = sorted(facets)
        bases.append(FacetPresentation(len(kern), tuple(normals),
                                       tuple(facets[u][0] for u in normals), irredundant=True))
        base_fans.add(frozenset(frozenset(u for u in normals if p in facets[u][1])
                                for p in range(len(face))))
    if len(base_fans) != 1:
        return None
    return CayleyMoriDecomposition(
        bases=tuple(bases),
        w=tuple(vec_sub(wi, ws[0]) for wi in ws[1:]),
        fiber_projection=tuple(pi_rows),
        base_faces=tuple(tuple(v for v, _ in face) for _, face in sections),
        simplex_vertices=tuple(ws),
    )
