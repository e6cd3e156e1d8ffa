"""Rational polytopes in facet presentation.

A polytope is stored as P = {x : <v_i, x> >= -a_i} with primitive integer
inward normals v_i and rational constants a_i.  Vertex enumeration, normal
fans, adjoint families P^(s) and their integer slack rows, nef/effective
thresholds, the core and its quotient projection, and Cayley sums over an
arbitrary basis (with their detection) are all computed in exact
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple, Optional, Sequence

from . import fans
from .fans import Fan, _cone_inverse
from .linalg import (
    QVec,
    Vec,
    _common_denominator,
    _dot_of,
    _extreme_rays,
    _FrozenRecord,
    _lowest_terms,
    _scaled,
    det,
    dot,
    frac,
    hull_facets,
    int_vec,
    is_primitive,
    lp_min,
    matrix_rank,
    primitive_part,
    saturation_and_projection,
    vec_sub,
)

ZERO = Fraction(0)


class EmptyPolytopeError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


class DegenerateError(ValueError):
    """The polytope is not full-dimensional."""


class RedundantPresentationError(ValueError):
    """The operation needs an irredundant facet presentation."""


class FacetPresentation(_FrozenRecord, key=("dim", "normals", "constants")):
    """P = {x : <normals[i], x> >= -constants[i]}.  ``irredundant`` is a
    certificate carried alongside, not part of identity: == and hash ignore it."""

    __slots__ = ("dim", "normals", "constants", "irredundant")

    def __init__(self, dim: int, normals: tuple[Vec, ...], constants: tuple[Fraction, ...],
                 irredundant: bool = False):
        if dim < 0:
            raise ValueError(f"negative dimension {dim}")
        # int tuples are kept as given, so every P^(s) of a family shares them
        normals = tuple(int_vec(v) for v in normals)
        self._with_constants(dim, normals, constants, irredundant)
        seen = set()
        for v in normals:
            if len(v) != dim:
                raise ValueError(f"normal {v} does not have length {dim}")
            if not is_primitive(v):
                raise ValueError(f"normal {v} is not primitive")
            if v in seen:
                raise ValueError(f"duplicate normal {v}")
            seen.add(v)

    def _derived(self, constants, keep=None, irredundant: bool = False) -> FacetPresentation:
        """The presentation on these normals, already checked, or on those at
        the distinct indices ``keep``, with the given constants, coerced and
        counted as the constructor does."""
        Q = FacetPresentation.__new__(FacetPresentation)
        normals = self.normals if keep is None else tuple(self.normals[i] for i in keep)
        Q._with_constants(self.dim, normals, constants, irredundant)
        return Q

    def _with_constants(self, dim, normals, constants, irredundant):
        constants = tuple(frac(a) for a in constants)
        self._set(dim, normals, constants, irredundant)
        if len(normals) != len(constants):
            raise ValueError("normals and constants differ in length")

    @property
    def nfacets(self) -> int:
        return len(self.normals)

    def contains(self, x) -> bool:
        return all(dot(v, x) >= -a for v, a in zip(self.normals, self.constants))


Point = tuple[Vec, int]  # the rational point y / d as (y, d), d > 0, gcd(*y, d) = 1


class VertexSet(_FrozenRecord):
    """The vertices of a polytope, sorted by value, and per vertex the
    indices of all inequalities met with equality there.  A vertex is held
    as a ``Point``: gcd-reduced integer numerators over one positive
    denominator, so equal vertex sets are equal tuples of integers, however
    they were found.  ``vertices``, the same points as tuples of
    ``Fraction``s, and ``faces``, ``_faces`` of the tight sets, are built on
    demand, once."""

    __slots__ = ("points", "tight", "__dict__")

    def __init__(self, points: tuple[Point, ...], tight: tuple[tuple[int, ...], ...]):
        self._set(points, tight)

    @cached_property
    def vertices(self) -> tuple[QVec, ...]:
        return tuple(map(_rational, self.points))

    @cached_property
    def faces(self) -> tuple[list[int], dict[int, set[int]]]:
        return _faces(self.tight)


def _rational(point: Point) -> QVec:
    y, d = point
    return tuple(Fraction(a, d) for a in y)


def _sorted_points(points) -> tuple[Point, ...]:
    """The distinct points, sorted by value over their common denominator."""
    points = set(points)
    return tuple(x for _, x in sorted(zip(_common_denominator(points)[1], points)))


def _vertex_set(tight: dict[Point, tuple[int, ...]]) -> VertexSet:
    """The ``VertexSet`` of the points with these tight sets."""
    points = _sorted_points(tight)
    return VertexSet(points, tuple(tight[x] for x in points))


class Thresholds(NamedTuple):
    nef: Fraction
    effective: Fraction


class CoreProjection(NamedTuple):
    core: FacetPresentation
    core_vertices: tuple[QVec, ...]
    kernel_basis: tuple[Vec, ...]      # integer basis of K(P) cap Z^n
    projection: tuple[Vec, ...]        # rows of Z^n -> Z^(n-k)
    Q: FacetPresentation


class CayleyMoriDecomposition(NamedTuple):
    bases: tuple[FacetPresentation, ...]
    w: tuple[QVec, ...]                # w_1..w_k relative to w_0 = 0
    fiber_projection: tuple[Vec, ...]  # rows of M -> Z^k restricting to the fiber lattice
    base_faces: tuple[tuple[QVec, ...], ...]
    simplex_vertices: tuple[QVec, ...]


@lru_cache(maxsize=64)  # one entry per presentation, read by all its callers
def vertices(P: FacetPresentation, allow_lower_dim: bool = False) -> VertexSet:
    """Exact vertex enumeration by polarity: with integers A_i = L a_i, the
    vertices are the extreme rays (y, t), t > 0, of the cone over the rows
    (v_i, A_i) and t >= 0 (``linalg._extreme_rays``), each the vertex
    y / (t L), tight where its rows vanish.  P is empty when no ray has
    t > 0, and unbounded when a ray has t = 0, a recession direction, or
    the normals do not span, leaving lines in P (the cone's lineality).
    P is full-dimensional exactly when no inequality is tight at every
    vertex (``VertexSet.faces``), which ``allow_lower_dim`` does not ask."""
    n = P.dim
    L, A = _scaled(P.constants)
    m = P.nfacets
    rays, lineality = _extreme_rays([(*v, a) for v, a in zip(P.normals, A)] + [(0,) * n + (1,)])
    found = {_lowest_terms(z[:n], z[n] * L): tuple(i for i in range(m) if mask >> i & 1)
             for z, mask in rays if z[n]}
    if not found:
        raise EmptyPolytopeError("polytope is empty")
    if lineality or len(found) < len(rays):
        raise UnboundedError("presentation is unbounded")
    vs = _vertex_set(found)
    if not allow_lower_dim and vs.faces[0]:
        raise DegenerateError("polytope is not full-dimensional")
    return vs


def is_simple(P: FacetPresentation) -> bool:
    return all(len(t) == P.dim for t in vertices(P).tight)


def normal_fan(P: FacetPresentation) -> Fan:
    """Normal fan of a full-dimensional irredundant presentation; the fan's
    rays are exactly the facet normals in presentation order."""
    if not P.irredundant:
        raise RedundantPresentationError("normal fan needs an irredundant presentation")
    vs = vertices(P)
    if len(vs.faces[1]) != P.nfacets:
        raise RedundantPresentationError("an inequality defines no facet")
    return Fan._on_rays(P.dim, P.normals, vs.tight)


def polytope_of_divisor(fan: Fan, coeffs: Sequence) -> FacetPresentation:
    """P_D for a torus divisor with the given ray coefficients."""
    cs = tuple(frac(a) for a in coeffs)
    if len(cs) != len(fan.rays):
        raise ValueError("coefficient count differs from ray count")
    return FacetPresentation(fan.rank, fan.rays, cs, irredundant=False)


def adjoint(P: FacetPresentation, s, allow_redundant: bool = False) -> FacetPresentation:
    """P^(s): move every facet inward by lattice distance s.

    Refuses redundant presentations unless explicitly overridden, since the
    result genuinely depends on the inequality list.  The irredundance flag
    of the result is recomputed (facets can die as s grows).
    """
    s = frac(s)
    if s < 0:
        raise ValueError("adjoint parameter must be >= 0")
    if not P.irredundant and not allow_redundant:
        raise RedundantPresentationError(
            "adjoint of a redundant presentation is presentation-dependent; "
            "pass allow_redundant=True to override"
        )
    shifted = P._derived(tuple(a - s for a in P.constants))
    try:
        Q, removed = remove_redundant(shifted)
    except (EmptyPolytopeError, DegenerateError):
        return shifted
    return shifted if removed else Q


def remove_redundant(P: FacetPresentation) -> tuple[FacetPresentation, tuple[int, ...]]:
    """Minimal sub-presentation of a bounded full-dimensional polytope and
    the indices it drops.  Inequality i is kept exactly when it defines a
    facet, read off the tight sets of P's vertices (``VertexSet.faces``).
    Distinct primitive normals define distinct facets, so the kept
    inequalities are the unique minimal subsystem.  The result carries the
    irredundance flag, which is not part of its identity: it shares P's
    cached vertex set."""
    facets = vertices(P).faces[1]
    keep = [i for i in range(P.nfacets) if i in facets]
    Q = P._derived(tuple(P.constants[i] for i in keep), keep, irredundant=True)
    return Q, tuple(i for i in range(P.nfacets) if i not in facets)


def _faces(tight_sets) -> tuple[list[int], dict[int, set[int]]]:
    """The implicit equalities and the facets of a polytope F, a face of P
    or P itself, given the tight sets of all of F's vertices: the
    inequalities tight at every vertex, which cut out F's affine hull
    (Schrijver, *Theory of Linear and Integer Programming*, 8.2), and the
    set T_j of tight vertices of each inequality j that defines a facet of
    F.  A facet of F is F cut by a facet of P (Ziegler, *Lectures on
    Polytopes*, 2.3), and every other proper face of F lies strictly inside
    one, so j defines a facet exactly when T_j is nonempty and proper and
    lies strictly inside no other proper T_i."""
    tight: dict[int, set[int]] = {}
    for k, t in enumerate(tight_sets):
        for j in t:
            tight.setdefault(j, set()).add(k)
    everywhere = len(tight_sets)
    proper = {j: T for j, T in tight.items() if len(T) < everywhere}
    facets = {j: T for j, T in proper.items() if not any(T < U for U in proper.values())}
    return [j for j in tight if j not in proper], facets


@lru_cache(maxsize=64)  # thresholds and the public core each ask for it
def effective_threshold(P: FacetPresentation) -> Fraction:
    """sup{s : P^(s) nonempty}, by exact LP over (x, s)."""
    n = P.dim
    normals = [tuple(v) + (-1,) for v in P.normals]
    res = lp_min([0] * n + [-1], normals, list(P.constants))
    # x = 0 with s = min a_i is feasible, so the LP is never infeasible
    if res.status == "unbounded":
        raise UnboundedError("presentation is unbounded")
    sigma = -res.value
    if sigma < 0:
        raise EmptyPolytopeError("polytope is empty")
    return sigma


def polarization(P: FacetPresentation) -> Fan:
    """The normal fan of a simple, irredundant, full-dimensional P, on
    which P's constants give an ample divisor; RedundantPresentationError
    or DegenerateError otherwise."""
    fan = normal_fan(P)
    if not is_simple(P):
        raise RedundantPresentationError("polytope is not simple")
    return fan


def nef_threshold_tracking(P: FacetPresentation) -> Fraction:
    """sup{s : P^(s) has the same normal fan as P}: the nef threshold of
    P's divisor on its normal fan (``intersection.nef_threshold``), read
    off P's own slack rows, which its scaled run shares."""
    return _critical_value(_slack_rows(P), polarization(P), ZERO)[0]


def thresholds(P: FacetPresentation) -> Thresholds:
    return Thresholds(nef=nef_threshold_tracking(P), effective=effective_threshold(P))


class _SlackRows(dict):
    """P's scaled slack rows per maximal cone, shared by P's nef threshold
    and by every critical value search and interval certificate of its
    scaled run (``_slack_rows``).

    With the constants a_j = A_j / L, a cone sigma of P's normals with
    adjugate adj and determinant d > 0 (signs flipped together), and an end
    s = p / q, q*d*L*x_sigma(s) = p*L*t - q*w for t = adj^T 1 and
    w = adj^T A_sigma; q*d*L times the slack <v_j, x_sigma(s)> - s + a_j of
    inequality j is then p*L*alpha_j - q*beta_j, with alpha_j = <v_j, t> - d
    and beta_j = <v_j, w> - d*A_j.  None of these depends on s, so each
    cone's row (t, w, d, alpha, beta) is built once, on first use, keyed by
    the cone's indices into P, from the cone's cached adjugate.  The row is
    checked on its own cone: x_sigma(s) is tight on sigma's inequalities,
    alpha_i = beta_i = 0 for i in sigma, which fixes t and w since sigma's
    normals are independent, or ``MalformedFanError`` names the cone.
    ``scans`` keeps each ``_critical_value`` result by (fan, s0), so P's nef
    threshold is the first step of its run."""

    def __init__(self, P: FacetPresentation):
        super().__init__()
        self.P = P
        self.index = {v: j for j, v in enumerate(P.normals)}
        self.L, self.A = _scaled(P.constants)
        self.scans: dict[tuple[Fan, Fraction], tuple[Fraction, tuple]] = {}

    def __missing__(self, key: tuple[int, ...]) -> tuple[Vec, Vec, int, list[int], list[int]]:
        adj, d = _cone_inverse(tuple(self.P.normals[j] for j in key))
        sign = 1 if d > 0 else -1
        t = [sign * sum(col) for col in zip(*adj)]
        w = [sign * sum(self.A[j] * x for j, x in zip(key, col)) for col in zip(*adj)]
        d *= sign
        dot_n = _dot_of(len(t))
        alpha = [dot_n(v, t) - d for v in self.P.normals]
        beta = [dot_n(v, w) - d * Aj for v, Aj in zip(self.P.normals, self.A)]
        if any(alpha[i] or beta[i] for i in key):
            raise fans.MalformedFanError(f"cone {key} of P's normals is not tight at its own point")
        self[key] = row = t, w, d, alpha, beta
        return row


@lru_cache(maxsize=1)  # P's nef threshold and the scaled run that follows share them
def _slack_rows(P: FacetPresentation) -> _SlackRows:
    """The ``_SlackRows`` of the last presentation asked."""
    return _SlackRows(P)


def _critical_value(slacks: _SlackRows, fan: Fan, s0: Fraction) -> tuple[
        Fraction, tuple[tuple[tuple[int, ...], list[tuple[int, int]]], ...]]:
    """The nef threshold lambda of L + s*K from s0 on, where the fan's rays
    are normals of the P of ``slacks`` and L is the divisor of P's constants
    on them, and the walls where L + lambda*K vanishes with -K.C > 0, as
    (facet, sides) of ``fans._wall_facets``.

    Across the wall between sigma_a and sigma_b, the slack at x_a(s) of the
    ray j of sigma_b outside the wall is (L + s*K).C over a positive number
    (Cox-Little-Schenck 6.1, 6.4): with the relation sum_k r_k v_k = 0,
    r_j > 0, it is sum_k r_k (a_k - s) / r_j.  So, scaled, it is
    p*L*alpha_j - q*beta_j at s = p / q, read from sigma_a's row.  The same
    pass checks the start wall by wall: the slack at s0 must be >= 0, and
    > 0 when s0 = 0 (ampleness), or ``ValueError`` names the first failing
    wall.  A slack that decreases, alpha_j < 0, vanishes at
    beta_j / (L*alpha_j); lambda is the least such root, compared
    cross-multiplied.  No wall relation is built, and completeness is not
    assumed.  Each (fan, s0) is scanned once per slack rows (``scans``)."""
    found = slacks.scans.get((fan, s0))
    if found is not None:
        return found
    wall_facets = fans._wall_facets(fan)
    index = [slacks.index[v] for v in fan.rays]
    keys = [tuple(index[i] for i in cone) for cone in fan.max_cones]
    pL, q = s0.numerator * slacks.L, s0.denominator
    best: Optional[tuple[int, int]] = None  # (alpha_j, beta_j) of the least root so far
    attained = []
    for facet, sides in wall_facets:
        (a, _), (b, jb) = sides
        j = index[fan.max_cones[b][jb]]
        alpha, beta = slacks[keys[a]][3:]
        at_s0 = pL * alpha[j] - q * beta[j]
        if at_s0 < 0 or (at_s0 == 0 and not pL):
            kind = "nef" if s0 else "ample"
            raise ValueError(f"divisor is not {kind} at s={s0} (wall {facet})")
        if alpha[j] < 0:
            # both alphas < 0: beta / alpha < beta' / alpha' iff beta * alpha' < beta' * alpha
            order = -1 if best is None else beta[j] * best[0] - best[1] * alpha[j]
            if order < 0:
                best, attained = (alpha[j], beta[j]), [(facet, sides)]
            elif order == 0:
                attained.append((facet, sides))
    if best is None:
        raise ValueError("no wall meets the canonical divisor negatively")
    slacks.scans[fan, s0] = found = Fraction(best[1], slacks.L * best[0]), tuple(attained)
    return found


def core_and_projection(P: FacetPresentation) -> CoreProjection:
    """The core P^(sigma(P)) (possibly lower-dimensional), the lattice
    projection along its affine span, and the image polytope Q.  When the
    core is a point the projection is the identity and Q is P: its facets
    are read off P's cached vertex set, sorted as ``hull_facets`` sorts
    them, and no hull is run.  sigma(P) is the LP of ``effective_threshold``
    and the core's vertices are enumerated; the scaled program reads both
    off its own certificates instead, and enumerates the vertices only when
    it has none (``mmp._adjoint_cross_validation``)."""
    return _core_and_projection(P, effective_threshold(P), None)


def _core_and_projection(P: FacetPresentation, sigma: Fraction,
                         core_points: Optional[tuple[Point, ...]]) -> CoreProjection:
    """``core_and_projection`` given sigma(P) and the core's vertices,
    sorted and distinct, or None to enumerate them.  The differences of
    the core's vertices and P's projected vertices are integers over each
    point's denominator, and Q is 1/D times the hull of the images scaled
    to integers by their common denominator D."""
    core = P._derived(tuple(a - sigma for a in P.constants))
    if core_points is None:
        core_points = vertices(core, allow_lower_dim=True).points
    (y0, d0), *rest = core_points
    kern_cols = [primitive_part([a * d0 - b * d for a, b in zip(y, y0)]) for y, d in rest]
    kbasis, _, proj = saturation_and_projection(kern_cols, P.dim)
    if kbasis:
        D, imgs = _common_denominator({_lowest_terms([dot(row, y) for row in proj], d)
                                       for y, d in vertices(P).points})
        DQ = facet_presentation_from_vertices(sorted(imgs))
        Q = DQ._derived(tuple(a / D for a in DQ.constants), irredundant=True)
    else:
        R = remove_redundant(P)[0]
        order = sorted(range(R.nfacets), key=R.normals.__getitem__)
        Q = R._derived(tuple(R.constants[i] for i in order), order, irredundant=True)
    return CoreProjection(core, tuple(map(_rational, core_points)), tuple(kbasis),
                          tuple(proj), Q)


def facet_presentation_from_vertices(points: Sequence[QVec]) -> FacetPresentation:
    """Irredundant facet presentation of conv(points) (full-dimensional)."""
    d = len(points[0]) if points else 0
    if d == 0:
        return FacetPresentation(0, (), (), irredundant=True)
    facets = hull_facets(points)
    return FacetPresentation(
        d,
        tuple(v for v, _ in facets),
        tuple(a for _, a in facets),
        irredundant=True,
    )


# ---------------------------------------------------------------------------
# Cayley sums over an arbitrary basis
# ---------------------------------------------------------------------------

def strictly_equivalent(P1: FacetPresentation, P2: FacetPresentation) -> bool:
    """Strict combinatorial equivalence: identical normal fans."""
    try:
        return normal_fan(P1) == normal_fan(P2)
    except (RedundantPresentationError, DegenerateError, EmptyPolytopeError):
        return False


def cayley_mori_build(bases: Sequence[FacetPresentation], w: Sequence[Vec]) -> FacetPresentation:
    """Facet presentation of conv(P_0 x 0, P_1 x w_1, ..., P_k x w_k).

    The bases must be strictly combinatorially equivalent presentations in
    a common R^n (same normals in the same order); w_1..w_k must be
    linearly independent integer vectors in R^k.  The sum is the hull of
    the placed base vertices, its facets sorted as ``hull_facets`` sorts
    them.
    """
    k = len(bases) - 1
    if k < 1:
        raise ValueError("need at least two base polytopes")
    P0 = bases[0]
    for Pi in bases[1:]:
        if Pi.normals != P0.normals:
            raise ValueError("base polytopes must share one normal list")
        if not strictly_equivalent(P0, Pi):
            raise ValueError("base polytopes are not strictly combinatorially equivalent")
    W = [int_vec(wi) for wi in w]
    if len(W) != k or any(len(wi) != k for wi in W):
        raise ValueError(f"need {k} direction vectors of length {k}")
    if det(W) == 0:
        raise ValueError("direction vectors are linearly dependent")
    placed = [(*x, *wi) for Pi, wi in zip(bases, [(0,) * k, *W]) for x in vertices(Pi).vertices]
    return facet_presentation_from_vertices(placed)


def cayley_mori_detect(P: FacetPresentation) -> Optional[CayleyMoriDecomposition]:
    """Detect a Cayley sum structure on P by searching its normal fan for a
    fibering-type wall and decomposing along each, the bases read off P's
    tight sets, as the scaled program does along its own Mori fiber.

    Walls are met in ``fans.walls`` order and built only where they fibre
    with a Picard-rank-one fiber, as the decomposition needs: the relation
    of ``fans._relation``, read off the wall's first cone (adj, d), has no
    negative entry (alpha = 0), and no ray but the support's has adj·v
    vanish on the rows where the relation does.

    On success the base polytopes are returned in coordinates on the kernel
    of the fiber projection, together with the simplex directions w and the
    projection itself.  Returns None when no fibering contraction exists or
    the candidate section faces fail strict combinatorial equivalence.
    """
    fan = normal_fan(P)
    pvs = vertices(P)
    inverses, dot_r = fans._inverses(fan), _dot_of(fan.rank)
    tried = set()
    for facet, sides in fans._wall_facets(fan):
        relation = fans._relation(fan, inverses, facet, sides)
        side, _, _, _, rel = relation
        if min(rel) < 0:
            continue
        zero = [row for row, r in zip(inverses[fan.max_cones[side]][0], rel) if not r]
        if sum(not any(dot_r(r, v) for r in zero) for v in fan.rays) > P.dim + 1 - len(zero):
            continue
        wall = fans._wall(fan, inverses, facet, relation)
        if wall.relation in tried:
            continue
        tried.add(wall.relation)
        try:
            data = fans.mori_fiber_data(fan, wall)
        except fans.MalformedFanError:
            continue
        found = _decompose_along_fiber(P, pvs, data)
        if found is not None:
            return _rational_decomposition(found, data)
    return None


def _rational_decomposition(found, data) -> CayleyMoriDecomposition:
    """``_decompose_along_fiber``'s result as the public record, in ``Fraction``s."""
    bases, ws, faces = found
    simplex = tuple(map(_rational, ws))
    return CayleyMoriDecomposition(
        bases=bases,
        w=tuple(vec_sub(wi, simplex[0]) for wi in simplex[1:]),
        fiber_projection=tuple(map(tuple, data.fiber_basis)),
        base_faces=tuple(tuple(map(_rational, face)) for face in faces),
        simplex_vertices=simplex,
    )


def _decompose_along_fiber(P, pvs, data) -> Optional[tuple]:
    """P (vertex set ``pvs``) as a Cayley sum along the split fibration
    ``data`` of its normal fan, whose fiber has Picard rank one: its bases,
    the simplex vertices sorted and each one's section face, as integer
    points (``_rational_decomposition`` builds the public record), or None.
    The bases are read off P's tight sets (``_faces``): a section face F
    spans the kernel of the projection when its dimension, dim P minus the
    rank of the normals of its implicit equalities, is the kernel's; a
    facet j of F on x = origin + kern c is <u, c> >= -(a_j +
    <v_j, origin>) / g for kern^T v_j = g u, u primitive, where kern is the
    fibration's projection, a basis of the forms that vanish on the fiber:
    u is v_j's primitive image in the base fan's lattice.  The bases' fans
    are compared as tight sets; a face not spanning the kernel gives None.
    Every vertex's image, and the bases' constants up to one ``Fraction``
    each, are integers over the vertex's denominator."""
    if not (data.split and data.fiber_rho_one):
        return None
    images = [_lowest_terms([dot(row, y) for row in data.fiber_basis], d) for y, d in pvs.points]
    # simplex vertex -> its section face, as indices into pvs
    sections = {}
    for fcone in data.fiber_fan.max_cones:
        on = {data.fiber_ray_origin[i] for i in fcone}
        face = [k for k, t in enumerate(pvs.tight) if on <= set(t)]
        imgs = {images[k] for k in face}
        if len(imgs) != 1:
            return None
        sections[imgs.pop()] = face
    # k + 1 fiber rays make k + 1 sections, one over each simplex vertex
    if len(sections) != len(data.fiber_fan.max_cones) or sections.keys() != set(images):
        return None
    ws = _sorted_points(sections)
    kern = data.projection
    bases, base_fans = [], set()
    for w in ws:
        face = sections[w]
        equalities, face_facets = _faces([pvs.tight[k] for k in face])
        if P.dim - matrix_rank([P.normals[j] for j in equalities]) != len(kern):
            return None
        y0, d0 = pvs.points[face[0]]
        facets: dict[Vec, tuple[Fraction, set[int]]] = {}
        for j, T in face_facets.items():
            gu = [dot(col, P.normals[j]) for col in kern]
            g = gcd(*gu)
            a = P.constants[j]
            b = Fraction(a.numerator * d0 + a.denominator * dot(P.normals[j], y0),
                         a.denominator * d0 * g)
            facets[tuple(x // g for x in gu)] = (b, T)
        normals = sorted(facets)
        bases.append(FacetPresentation(len(kern), tuple(normals),
                                       tuple(facets[u][0] for u in normals), irredundant=True))
        base_fans.add(frozenset(frozenset(u for u in normals if p in facets[u][1])
                                for p in range(len(face))))
    if len(base_fans) != 1:
        return None
    return tuple(bases), ws, tuple(tuple(pvs.points[k] for k in sections[w]) for w in ws)


def is_cayley_s(P: FacetPresentation, dec: Optional[CayleyMoriDecomposition] = None) -> Optional[int]:
    """The positive integer s such that the simplex image of P equals
    conv(0, s*e_1, ..., s*e_k) in some lattice basis, or None.  That is, all
    invariant factors of the direction matrix W equal s: the first is gcd(W),
    each next one a multiple of it, their product |det W|, so exactly when
    s = gcd(W) > 0 and |det W| = s^k."""
    if dec is None:
        dec = cayley_mori_detect(P)
    if dec is None:
        return None
    try:
        W = [int_vec(wi) for wi in dec.w]
    except ValueError:
        return None
    s = gcd(*(x for row in W for x in row))
    return s if s > 0 and abs(det(W)) == s ** len(W) else None
