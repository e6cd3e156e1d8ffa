"""Fans of strongly convex rational polyhedral cones.

A fan is stored combinatorially: the lattice rank, an ordered list of
primitive ray generators, and the maximal cones as sorted tuples of ray
indices.  Walls, primitive collections, star subdivisions, images under
lattice projections (quotient and star fans among them) and the base and
fiber fans of a fibering wall are computed exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd
from operator import and_
from typing import NamedTuple, Optional

from .linalg import (
    CACHE_SIZE,
    ONE,
    Vec,
    QVec,
    _dot_of,
    _extreme_rays,
    _FrozenRecord,
    _Record,
    adjugate,
    det,
    dot,
    int_vec,
    is_primitive,
    lp_min,
    nonneg_solve,
    primitive_part,
    saturation_and_projection,
    solve_linear,
)


class MalformedFanError(ValueError):
    """The given cones do not assemble into a fan."""


class UnsupportedFanError(ValueError):
    """The operation needs a property (e.g. simplicial) the fan lacks."""


class ReconstructionError(ValueError):
    """Ray/collection data did not reconstruct a valid fan."""


class Fan(_FrozenRecord):
    """A fan, given by its rank, primitive rays and maximal cones."""

    __slots__ = ("rank", "rays", "max_cones")

    def __init__(self, rank: int, rays: tuple[Vec, ...], max_cones: tuple[tuple[int, ...], ...]):
        if rank < 0:
            raise MalformedFanError(f"negative rank {rank}")
        rays = tuple(int_vec(r, MalformedFanError) for r in rays)
        for r in rays:
            if len(r) != rank:
                raise MalformedFanError(f"ray {r} does not have length {rank}")
            if not is_primitive(r):
                raise MalformedFanError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise MalformedFanError("rays are not pairwise distinct")
        self._with_cones(rank, rays, max_cones)

    @classmethod
    def _on_rays(cls, rank: int, rays: tuple[Vec, ...], max_cones) -> Fan:
        """The fan on rays that a record has already checked: the rays of a
        fan, or the normals of a presentation, of this rank.  The cones are
        checked as the constructor checks them."""
        fan = cls.__new__(cls)
        fan._with_cones(rank, rays, max_cones)
        return fan

    def _with_cones(self, rank, rays, max_cones):
        cones = tuple(sorted(tuple(sorted(set(c))) for c in max_cones))
        self._set(rank, rays, cones)
        if len(set(cones)) != len(cones):
            raise MalformedFanError("maximal cones are not pairwise distinct")
        for c in cones:
            if c and (c[0] < 0 or c[-1] >= len(rays)):
                raise MalformedFanError(f"cone {c} has out-of-range ray indices")

    def ray_matrix(self, cone: tuple[int, ...]) -> list[Vec]:
        return [self.rays[i] for i in cone]

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


class Wall(NamedTuple):
    """An (n-1)-dimensional cone shared by exactly two maximal cones,
    together with the exact linear relation among the n+1 rays involved.

    The relation is the primitive integer vector r over *all* rays of the
    fan with sum_k r_k v_k = 0, supported on the wall rays and the two
    opposite rays, and positive on both opposite rays.  It is its own class
    key: two walls have proportional curve classes exactly when their
    relations are equal.

    ``multiplicity`` is the lattice index mult(wall) of the wall cone, and
    ``scale`` is s = mult(wall) / (mult(sigma_a) * r_a) for either adjacent
    maximal cone sigma_a and its opposite-ray coefficient r_a, which is
    mult(wall) * g / (mult(sigma_a) * mult(sigma_b)) for g the gcd that
    made the relation primitive: the divisor sum_k d_k D_k meets the wall
    curve in s * sum_k d_k * r_k.  On smooth fans both are 1.
    """

    wall_rays: tuple[int, ...]
    side_a: int
    side_b: int
    relation: Vec
    multiplicity: int
    scale: Fraction

    def opposite_rays(self, fan: Fan) -> tuple[int, int]:
        a = next(i for i in fan.max_cones[self.side_a] if i not in self.wall_rays)
        b = next(i for i in fan.max_cones[self.side_b] if i not in self.wall_rays)
        return a, b


class PrimitiveCollection(NamedTuple):
    """A minimal set of rays not contained in any cone, with the data of
    its relation: sum of members = sum of coefficients over sigma's rays."""

    members: tuple[int, ...]
    sigma: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    degree: Fraction


class ValidationReport(_Record):
    """``validate``'s flags and problems.  A report that ``validate`` returns
    for a simplicial fan also keeps, out of == and repr, the sorted
    (facet, sides) of ``_facets`` of each wall (``_wall_facets``).

    The flags nest: only a simplicial fan is checked for completeness, and
    only a cone of multiplicity 0 (so not simplicial) can be a problem.  So
    complete implies simplicial, which implies well_formed."""

    __slots__ = ("well_formed", "simplicial", "smooth", "complete", "problems", "_wall_facets")

    def __init__(self, well_formed: bool, simplicial: bool, smooth: bool, complete: bool,
                 problems: Optional[list[str]] = None):
        self._set(well_formed, simplicial, smooth, complete, [] if problems is None else problems)


@lru_cache(maxsize=4 * CACHE_SIZE)
def _cone_inverse(rays: tuple[Vec, ...]) -> tuple[Optional[tuple[Vec, ...]], int]:
    """Integer adjugate and determinant of the square matrix whose columns
    are the given rays, in order: the coordinates of x in their basis are
    adj·x / det, so row j of adj pairs with rays[j].  The adjugate is None
    when the rays are dependent.  The key is the rays themselves, not a fan,
    so every fan of a run or a table that holds a cone shares its entry: a
    flip or a contraction recomputes only the cones over its circuit.  A
    forced sweep of the 67 explicit table rows meets about 1,200 distinct
    cones, well inside the bound."""
    return adjugate(list(zip(*rays)))


@lru_cache(maxsize=CACHE_SIZE)
def _inverses(fan: Fan) -> dict[tuple[int, ...], tuple[Optional[tuple[Vec, ...]], int]]:
    """``_cone_inverse`` of each maximal cone with ``rank`` rays, by cone:
    row j of the adjugate pairs with the ray cone[j]."""
    return {
        cone: _cone_inverse(tuple(fan.rays[i] for i in cone))
        for cone in fan.max_cones
        if cone and len(cone) == fan.rank
    }


def _facets(fan: Fan) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Each (n-1)-face of the maximal cones with n rays, mapped to the
    (cone index, position of the opposite ray) of every cone holding it."""
    out: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ci, cone in enumerate(fan.max_cones):
        if cone and len(cone) == fan.rank:
            for j in range(len(cone)):
                out.setdefault(cone[:j] + cone[j + 1:], []).append((ci, j))
    return out


def _cone_coords(fan: Fan, cone: tuple[int, ...], x) -> Optional[QVec]:
    """Coordinates of x in the simplicial cone's ray basis, or None."""
    adj, d = _inverses(fan).get(cone, (None, 0))
    if d:
        return tuple(Fraction(dot(row, x), d) for row in adj)
    cols = [[fan.rays[i][k] for i in cone] for k in range(fan.rank)]
    return solve_linear(cols, x)


def cone_multiplicity(fan: Fan, cone: tuple[int, ...]) -> int:
    """Index of the lattice spanned by a cone's k rays in its saturation: the
    gcd of their k x k minors, which is the product of their invariant
    factors (Smith 1861).  It is 1 exactly when the cone is smooth, and 0
    when the rays are dependent, k > rank included."""
    rows = fan.ray_matrix(cone)
    return gcd(*(det([[r[j] for j in cols] for r in rows])
                 for cols in combinations(range(fan.rank), len(cone))))


def is_face(fan: Fan, rays: tuple[int, ...]) -> bool:
    s = set(rays)
    return any(s.issubset(cone) for cone in fan.max_cones)


@lru_cache(maxsize=CACHE_SIZE)
def validate(fan: Fan) -> ValidationReport:
    """Validate a fan and report simplicial / smooth / complete flags.

    A cone is simplicial when its multiplicity d (the determinant of a cone
    with ``rank`` rays, else ``cone_multiplicity``) is nonzero and smooth
    when |d| = 1; simplicial cones are strongly convex, and any other cone
    is checked for strong convexity by an LP.

    A simplicial fan whose maximal cones all have ``rank`` rays and whose
    (n-1)-faces each lie in exactly two of them is certified complete, or
    rejected, by two checks: across every wall the two opposite rays lie
    strictly on opposite sides, and one point p on no cone's boundary lies
    in exactly one cone.  Across a wall the number of cones holding a point
    is then unchanged, so it is the same for all points off the
    codimension-2 faces, and so off the union of the walls; p shows it is
    1, i.e. the cones cover the space and meet in faces.  Each cone reads
    p = (1, m, m^2, ...) up to its first negative coordinate: a cone with
    one does not hold p, so p is not on its boundary, and a new m is tried
    only when a cone with no negative coordinate has a zero one.  Any
    other simplicial fan is not complete, and the exact pairwise LP test
    checks that every two of its cones meet in their common face.
    Overlapping cones raise ``MalformedFanError`` naming two of them;
    non-simplicial fans get no overlap test and are never reported
    complete.  A maximal cone whose rays lie among another's, which the
    pairwise test passes, raises too.
    """
    longest = max(map(len, fan.max_cones), default=0)
    for small in (c for c in fan.max_cones if len(c) < longest):
        big = next((c for c in fan.max_cones if set(small) < set(c)), None)
        if big is not None:
            raise MalformedFanError(f"maximal cone {small} lies in maximal cone {big}")
    problems: list[str] = []
    simplicial = True
    smooth = True
    inverses = _inverses(fan)
    for cone in fan.max_cones:
        d = inverses[cone][1] if cone in inverses else cone_multiplicity(fan, cone)
        simplicial = simplicial and d != 0
        smooth = smooth and abs(d) == 1
        if not d and not _strongly_convex(fan, cone):
            problems.append(f"cone {cone} is not strongly convex")

    complete, wall_facets = False, None
    if simplicial:
        facets = _facets(fan)
        wall_facets = sorted(item for item in facets.items() if len(item[1]) == 2)
        complete = (
            bool(fan.max_cones)
            and all(len(cone) == fan.rank for cone in fan.max_cones)
            and len(wall_facets) == len(facets)
        )
        if complete:
            _certify_cover(fan, inverses, facets)
        else:
            for c1, c2 in combinations(fan.max_cones, 2):
                if _pair_overlaps(fan, c1, c2):
                    raise MalformedFanError(
                        f"maximal cones {c1} and {c2} overlap without meeting in a face"
                    )
    report = ValidationReport(not problems, simplicial, smooth, complete, problems)
    report._wall_facets = wall_facets
    return report


def _certify_cover(fan: Fan, inverses, facets) -> None:
    """Raise unless the pseudo-manifold of full cones covers the space
    exactly once (see ``validate``)."""
    cones = fan.max_cones
    for sides in facets.values():
        (a, ja), (b, jb) = sides
        adj, d = inverses[cones[a]]
        # v_b's coordinate on v_a in sigma_a's basis must be negative
        if dot(adj[ja], fan.rays[cones[b][jb]]) * d >= 0:
            raise MalformedFanError(
                f"maximal cones {cones[a]} and {cones[b]} lie on the same side of their wall"
            )
    dot_r, m = _dot_of(fan.rank), 2
    while True:
        # (1, m, m^2, ...) lies on a boundary hyperplane for finitely many m;
        # a cone is left at its first negative sign (see ``validate``)
        p = tuple(m**k for k in range(fan.rank))
        hits = []
        for cone, (adj, d) in inverses.items():
            zero = False
            for row in adj:
                s = dot_r(row, p) * d
                if s < 0:
                    break
                zero = zero or not s
            else:
                if zero:
                    break  # p is on this cone's boundary: next m
                hits.append(cone)
        else:
            break
        m += 1
    # at least one cone holds p: the count is the same everywhere off the
    # walls, and every cone holds such points
    if len(hits) > 1:
        raise MalformedFanError(
            f"maximal cones {hits[0]} and {hits[1]} overlap without meeting in a face"
        )


def _strongly_convex(fan: Fan, cone: tuple[int, ...]) -> bool:
    # exists c with <c, ray> >= 1 for all rays of the cone
    res = lp_min([0] * fan.rank, fan.ray_matrix(cone), [-1] * len(cone))
    return res.status == "optimal"


def _pair_overlaps(fan: Fan, c1: tuple[int, ...], c2: tuple[int, ...]) -> bool:
    common = sorted(set(c1) & set(c2))
    extra1 = [i for i in c1 if i not in common]
    # feasibility: x in both cones with some non-common coordinate in c1
    gens = []
    for i in c1:
        gens.append(tuple(fan.rays[i]) + ((1,) if i in extra1 else (0,)))
    for i in c2:
        gens.append(tuple(-x for x in fan.rays[i]) + (0,))
    target = (0,) * fan.rank + (1,)
    return nonneg_solve(gens, target) is not None


@lru_cache(maxsize=CACHE_SIZE)
def walls(fan: Fan) -> tuple[Wall, ...]:
    """All walls of a simplicial fan with their exact relations, in the
    order of their sorted wall rays (``_wall``)."""
    inverses = _inverses(fan)
    return tuple(_wall(fan, inverses, facet, _relation(fan, inverses, facet, sides))
                 for facet, sides in _wall_facets(fan))


def _wall_facets(fan: Fan) -> list[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """The (facet, sides) of ``_facets`` of each wall of a simplicial fan,
    sorted, as its ``validate`` report keeps them."""
    report = validate(fan)
    if not report.simplicial:
        raise UnsupportedFanError("walls are only computed for simplicial fans")
    return report._wall_facets


def _relation(fan: Fan, inverses, facet: tuple[int, ...],
              sides: list[tuple[int, int]]) -> tuple[int, int, int, int, Vec]:
    """(a, ja, b, op) of the wall on a facet with sides (a, ja), (b, jb)
    (``_facets``), op the opposite ray of cone b, and the wall's primitive
    integer relation on cone a's rays, then on op.  It is the one relation
    positive on both opposite rays, so either side gives it: -v_op in cone
    a's ray basis is c / d for c = -adj·v_op (``_inverses``); its
    self-checks, c_ja / d > 0 and sum_i c_i v_i + d v_op = 0, run in
    integers, and (c, d) is divided by its gcd with the sign of d."""
    (a, ja), (b, jb) = sides
    cone, op = fan.max_cones[a], fan.max_cones[b][jb]
    adj, d = inverses[cone]
    v_op, dot_r, dot_r1 = fan.rays[op], _dot_of(fan.rank), _dot_of(fan.rank + 1)
    cs = [-dot_r(row, v_op) for row in adj] + [d]
    if cs[ja] * d <= 0:
        raise MalformedFanError(f"wall {facet} has a nonconvex crossing")
    if any(dot_r1(cs, coords) for coords in zip(*(fan.rays[i] for i in cone + (op,)))):
        raise MalformedFanError(f"relation across wall {facet} does not vanish")
    g = gcd(*cs) if d > 0 else -gcd(*cs)
    return a, ja, b, op, tuple(cs) if g == 1 else tuple([c // g for c in cs])


def _wall(fan: Fan, inverses, facet: tuple[int, ...],
          relation: tuple[int, int, int, int, Vec]) -> Wall:
    """The ``Wall`` on a facet from its ``_relation`` result, which the caller
    holds: mult(wall) is the gcd of its maximal minors, the adjugate row of
    the ray cone a omits, and s = mult(wall) / (r_op mult(sigma_b))."""
    a, ja, b, op, cs = relation
    cone = fan.max_cones[a]
    rel = [0] * len(fan.rays)
    for i, c in zip(cone + (op,), cs):
        rel[i] = c
    mult = gcd(*inverses[cone][0][ja])
    q = cs[-1] * abs(inverses[fan.max_cones[b]][1])
    scale = ONE if mult == q else Fraction(mult, q)  # mult = q = 1 on smooth fans
    return Wall(facet, a, b, tuple(rel), mult, scale)


def wall_classification(fan: Fan, wall: Wall) -> tuple[int, int]:
    """Counts (alpha, beta) of negative / nonpositive wall-ray coefficients
    in the wall relation; these determine the contraction type."""
    alpha = sum(1 for i in wall.wall_rays if wall.relation[i] < 0)
    beta = sum(1 for i in wall.wall_rays if wall.relation[i] <= 0)
    return alpha, beta


@lru_cache(maxsize=CACHE_SIZE)
def primitive_collections(fan: Fan) -> tuple[PrimitiveCollection, ...]:
    """Exhaustive list of primitive collections of a complete simplicial fan,
    by size, then members.

    The collections are the minimal non-faces.  A set of rays is a face
    exactly when the bitmasks of the cones holding each of its rays meet.
    Each collection S is F + {j} for the face F = S - {j}, j the highest
    ray of S, so the faces are grown depth-first from single rays, each by
    rays above its highest, and S is found once: as the F + {j} that is no
    face while every S - {i} is one.  For |F| >= 2 each {i, j} with i in F
    is a proper subset of S, so a face: j is taken among the neighbours
    (the rays sharing a cone) of every ray of F, held as bitmasks.  Each
    collection carries the minimal cone containing the sum of its members,
    the positive coefficients of the relation, and the degree (member
    count minus coefficient sum).
    """
    rep = validate(fan)
    if not rep.complete:
        raise UnsupportedFanError("primitive collections need a complete simplicial fan")
    m = len(fan.rays)
    holding, near = [0] * m, [0] * m  # per ray: the cones holding it, its neighbours
    for k, cone in enumerate(fan.max_cones):
        rays = sum(1 << i for i in cone)
        for i in cone:
            holding[i] |= 1 << k
            near[i] |= rays
    found = []  # faces to extend: (rays, the cones holding them, common neighbours)
    faces = [((i,), holding[i], near[i]) for i in range(m) if holding[i]]
    while faces:
        face, cones, common = faces.pop()
        above = (common if len(face) > 1 else (1 << m) - 1) & -(2 << face[-1])
        while above:
            b = above & -above
            above ^= b
            j = b.bit_length() - 1
            if cones & holding[j]:
                faces.append((face + (j,), cones & holding[j], common & near[j]))
            elif all(reduce(and_, (holding[k] for k in face if k != i), holding[j])
                     for i in face):
                found.append(face + (j,))
    out = []
    for members in sorted(found, key=lambda m: (len(m), m)):
        total = tuple(sum(fan.rays[i][k] for i in members) for k in range(fan.rank))
        sigma, cs, d = _minimal_cone_with_coords(fan, total)
        degree = Fraction(len(members) * d - sum(cs), d)
        out.append(PrimitiveCollection(members, sigma, tuple(Fraction(c, d) for c in cs), degree))
    return tuple(out)


def _minimal_cone_with_coords(fan: Fan, x) -> tuple[tuple[int, ...], Vec, int]:
    """The rays of the minimal cone of a complete simplicial fan holding x,
    with x's positive coordinates on them as integers c over one positive
    denominator d: the cone's determinant, up to sign."""
    inverses, dot_r = _inverses(fan), _dot_of(fan.rank)
    for cone in fan.max_cones:
        adj, d = inverses[cone]
        sign, cs = (1 if d > 0 else -1), []
        for row in adj:
            c = sign * dot_r(row, x)
            if c < 0:
                break
            cs.append(c)
        else:
            return tuple(i for i, c in zip(cone, cs) if c), tuple(c for c in cs if c), abs(d)
    raise MalformedFanError(f"{x} lies outside the fan support")


def fan_from_primitive_data(rays: list[Vec], collections: list[tuple[int, ...]]) -> Fan:
    """Rebuild a complete simplicial fan from its rays and the list of its
    primitive collections: maximal cones are the full-rank ray subsets
    containing no collection, grown as bitmasks one ray at a time in
    increasing order.  Adding ray i tests the collections whose highest ray
    is i, and drops a prefix that holds one with every subset it starts
    (the empty collection is filed in the last slot, -1).  The rank test
    reads the shared cone cache, whose determinant is that of the rows'
    transpose, so ``validate`` finds every kept cone's adjugate there."""
    if not rays:
        raise ReconstructionError("no rays to rebuild a fan from")
    rays = [tuple(r) for r in rays]
    n, m = len(rays[0]), len(rays)
    tops: list[list[int]] = [[] for _ in range(m + 1)]
    for c in collections:
        if any(not 0 <= i < m for i in c):
            raise ReconstructionError(f"collection {tuple(c)} names a ray outside 0..{m - 1}")
        tops[max(c, default=-1)].append(sum(1 << i for i in set(c)))
    prefixes = [((), 0)] if not tops[-1] else []
    for k in range(n):
        grown = []
        for prefix, f in prefixes:
            for i in range(prefix[-1] + 1 if prefix else 0, m - n + k + 1):
                s = f | 1 << i
                for c in tops[i]:
                    if c & s == c:
                        break
                else:
                    grown.append((prefix + (i,), s))
        prefixes = grown
    cones = [cone for cone, _ in prefixes if _cone_inverse(tuple(rays[i] for i in cone))[1]]
    try:
        fan = Fan(n, tuple(rays), tuple(cones))
        rep = validate(fan)
    except MalformedFanError as exc:
        raise ReconstructionError(str(exc)) from exc
    if not rep.complete:
        raise ReconstructionError(
            f"collection data yields an invalid fan (problems={rep.problems}, "
            f"simplicial={rep.simplicial}, complete={rep.complete})"
        )
    return fan


def face_fan(rays: list[Vec]) -> Fan:
    """The fan over the facets of conv(rays); the origin must be interior.

    This is the standard reconstruction for fans whose rays are the
    vertices of a reflexive-type polytope (all our classification rows).
    Each cone holds the rays tight at one vertex of the polar
    {y : <r, y> >= -1}; if the origin is not interior, the cones cannot
    cover the space.
    """
    if not rays:
        raise ReconstructionError("no rays to take the face fan of")
    rays = [tuple(r) for r in rays]
    n, m = len(rays[0]), len(rays)
    # the polar's vertices: the rays (y, t > 0) of the cone over (r, 1) and t >= 0
    polar, lineality = _extreme_rays([(*r, 1) for r in rays] + [(0,) * n + (1,)])
    if lineality:  # rays that do not span leave the polar no vertex, so no cone
        raise ReconstructionError("face fan failed validation")
    cones = [tuple(i for i in range(m) if mask >> i & 1) for z, mask in polar if z[n]]
    fan = Fan(n, tuple(rays), tuple(cones))
    rep = validate(fan)
    if not rep.complete:
        raise ReconstructionError("face fan failed validation")
    return fan


def star_subdivision(fan: Fan, v: Vec) -> Fan:
    """Star subdivision at a primitive lattice vector in the fan's support."""
    v = int_vec(v)
    if all(x == 0 for x in v):
        raise ValueError("cannot subdivide at the zero vector")
    if not is_primitive(v):
        raise ValueError(f"{v} is not primitive")
    if v in fan.rays:
        return fan
    rep = validate(fan)
    if not rep.simplicial:
        raise UnsupportedFanError("star subdivision implemented for simplicial fans")
    new_index = len(fan.rays)
    new_cones = []
    hit = False
    for cone in fan.max_cones:
        coords = _cone_coords(fan, cone, v)
        if coords is None or any(c < 0 for c in coords):
            new_cones.append(cone)
            continue
        hit = True
        for i, c in zip(cone, coords):
            if c > 0:
                new_cones.append(tuple(sorted(set(cone) - {i})) + (new_index,))
    if not hit:
        raise ValueError(f"{v} lies outside the fan support")
    return Fan(fan.rank, fan.rays + (v,), tuple(set(new_cones)))


def image_fan(fan: Fan, projection, cones) -> Fan:
    """The fan of the images of the given cones under a lattice projection
    (rows of N -> N').  Rays mapping to zero are dropped, the others go to
    their primitive images, numbered in order of first appearance."""
    return _image_fan(len(projection), _ray_images(fan, projection), cones)


def _ray_images(fan: Fan, projection) -> list[Optional[Vec]]:
    """The primitive image of each ray of the fan under a lattice
    projection (rows of N -> N'), None for a ray that maps to zero: one
    projection per ray, which every cone through it reads."""
    images = [tuple(dot(row, r) for row in projection) for r in fan.rays]
    return [primitive_part(img) if any(img) else None for img in images]


def _image_fan(rank: int, images: list[Optional[Vec]], cones) -> Fan:
    """``image_fan`` given the rays' images (``_ray_images``)."""
    index: dict[Vec, int] = {}
    cone_images = {tuple(sorted({index.setdefault(images[i], len(index))
                                 for i in cone if images[i] is not None})) for cone in cones}
    return Fan(rank, tuple(index), tuple(cone_images))


def restricted_cones(fan: Fan, rays) -> list[tuple[int, ...]]:
    """The maximal cones among sigma ∩ S, for sigma a maximal cone of the
    fan and S the given set of ray indices."""
    keep = set(rays)
    faces = {tuple(i for i in cone if i in keep) for cone in fan.max_cones}
    return sorted(c for c in faces if not any(set(c) < set(o) for o in faces))


def star_quotient(fan: Fan, sigma: tuple[int, ...]) -> tuple[Fan, list[Vec]]:
    """The fan of the invariant subvariety V(sigma) in the quotient lattice,
    together with the projection matrix (rows) realizing N -> N/N_sigma:
    the image of the star of sigma."""
    sigma = tuple(sorted(sigma))
    if not is_face(fan, sigma):
        raise ValueError(f"{sigma} is not a cone of the fan")
    *_, proj = saturation_and_projection([fan.rays[i] for i in sigma], fan.rank)
    star = [cone for cone in fan.max_cones if set(sigma) <= set(cone)]
    return image_fan(fan, proj, star), proj


class MoriFiberData(NamedTuple):
    base_fan: Fan
    fiber_fan: Fan
    projection: tuple[Vec, ...]       # rows of N -> N/N0
    fiber_basis: tuple[Vec, ...]      # integer basis of the fiber sublattice N0
    fiber_ray_origin: tuple[int, ...] # fiber-fan ray index -> ambient ray index
    fiber_rho_one: bool
    split: bool


@lru_cache(maxsize=CACHE_SIZE)  # the Cayley search and the run's last step share it
def mori_fiber_data(fan: Fan, wall: Wall) -> MoriFiberData:
    """Quotient base fan, fiber fan and the projection for a fibering wall."""
    alpha, _ = wall_classification(fan, wall)
    if alpha != 0:
        raise ValueError("fibering data needs a wall with alpha = 0")
    support = [i for i, c in enumerate(wall.relation) if c > 0]
    basis, coords, proj = saturation_and_projection([fan.rays[i] for i in support], fan.rank)
    images = _ray_images(fan, proj)
    # validate raises on some image fans rather than report them incomplete;
    # either way the wall does not fibre
    try:
        # the base fan first: most walls that do not fibre fail there
        base_fan = _image_fan(len(proj), images, fan.max_cones)
        if not validate(base_fan).complete:
            raise MalformedFanError("the base fan is not complete and simplicial")
        # fiber fan: cones of the fan lying inside the kernel sublattice,
        # each ray by its coordinates in the saturation's basis
        in_kernel = [i for i, img in enumerate(images) if img is None]
        fiber_rays = [tuple(dot(row, fan.rays[i]) for row in coords) for i in in_kernel]
        fiber_cones = [tuple(map(in_kernel.index, c)) for c in restricted_cones(fan, in_kernel)]
        fiber_fan = Fan(len(basis), tuple(fiber_rays), tuple(fiber_cones))
        if not validate(fiber_fan).complete:
            raise MalformedFanError("the fiber fan is not complete and simplicial")
    except MalformedFanError as exc:
        raise MalformedFanError(f"wall {wall.wall_rays} does not induce a fibration") from exc
    return MoriFiberData(
        base_fan=base_fan,
        fiber_fan=fiber_fan,
        projection=tuple(proj),
        fiber_basis=tuple(basis),
        fiber_ray_origin=tuple(in_kernel),
        fiber_rho_one=len(fiber_rays) == fiber_fan.rank + 1,
        split=_weakly_split(fan, images, base_fan),
    )


def weakly_split(fan: Fan, projection) -> bool:
    """Whether the fan is weakly split by its kernel subfan and the image
    fan under a surjection N -> N' (rows of ``projection``): a subfan maps
    cone-by-cone bijectively onto the base and every maximal cone
    decomposes as lifted cone + kernel cone."""
    images = _ray_images(fan, projection)
    return _weakly_split(fan, images, _image_fan(len(projection), images, fan.max_cones))


def _weakly_split(fan: Fan, images, base: Fan) -> bool:
    """``weakly_split`` given the rays' images (``fans._ray_images``) and
    the image fan ``base`` of all maximal cones: it is simplicial with
    rank-many rays per maximal cone, every blade (the non-kernel rays of a
    maximal cone) has rank-many rays, and distinct blades have distinct
    images."""
    blades = {tuple(i for i in cone if images[i] is not None) for cone in fan.max_cones}
    # determinants only: validate would add an LP per non-simplicial image cone
    return (
        all(len(c) == base.rank for c in base.max_cones)
        and all(d for _, d in _inverses(base).values())
        and all(len(b) == base.rank for b in blades)
        and len(blades) == len(base.max_cones)
    )
