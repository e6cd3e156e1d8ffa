"""Reference fan projections, for cross-checks.

Each construction builds its image fan with its own loop, the way
``toriq.fans.star_quotient`` and ``toriq.fans.mori_fiber_data`` did before
both moved onto ``toriq.fans.image_fan`` and ``restricted_cones``.
``weakly_split`` decides weak splitting with one rank test per maximal cone,
where ``toriq.fans.weakly_split`` counts rays of the image fan and of the
blades instead.
"""

from __future__ import annotations

from typing import Optional

from toriq.fans import (
    Fan,
    MalformedFanError,
    MoriFiberData,
    Wall,
    is_face,
    validate,
    wall_classification,
)
from toriq.linalg import (
    Vec,
    dot,
    matrix_rank,
    primitive_part,
    saturation_and_projection,
    solve_linear,
)


def star_quotient(fan: Fan, sigma: tuple[int, ...]) -> tuple[Fan, list[Vec]]:
    """The fan of the invariant subvariety V(sigma) in the quotient lattice,
    together with the projection matrix (rows) realizing N -> N/N_sigma."""
    sigma = tuple(sorted(sigma))
    if not is_face(fan, sigma):
        raise ValueError(f"{sigma} is not a cone of the fan")
    *_, proj = saturation_and_projection([fan.rays[i] for i in sigma], fan.rank)
    qrank = len(proj)
    ray_map: dict[Vec, int] = {}
    qrays: list[Vec] = []
    qcones = set()
    for cone in fan.max_cones:
        if not set(sigma) <= set(cone):
            continue
        idxs = []
        for i in cone:
            if i in sigma:
                continue
            img = tuple(dot(row, fan.rays[i]) for row in proj)
            img = primitive_part(img)
            if img not in ray_map:
                ray_map[img] = len(qrays)
                qrays.append(img)
            idxs.append(ray_map[img])
        qcones.add(tuple(sorted(idxs)))
    return Fan(qrank, tuple(qrays), tuple(sorted(qcones))), proj


def mori_fiber_data(fan: Fan, wall: Wall) -> MoriFiberData:
    """Quotient base fan, fiber fan and the projection for a fibering wall."""
    alpha, _ = wall_classification(fan, wall)
    if alpha != 0:
        raise ValueError("fibering data needs a wall with alpha = 0")
    support = [i for i, c in enumerate(wall.relation) if c > 0]
    basis, _, proj = saturation_and_projection([fan.rays[i] for i in support], fan.rank)
    # fiber fan: cones of the fan lying inside the kernel sublattice
    in_kernel = [
        i for i in range(len(fan.rays))
        if all(dot(row, fan.rays[i]) == 0 for row in proj)
    ]
    bmat = [[b[r] for b in basis] for r in range(fan.rank)]
    fiber_rays = []
    fiber_origin = []
    for i in in_kernel:
        coords = solve_linear(bmat, fan.rays[i])
        if coords is None:
            raise MalformedFanError(f"ray {i} lies outside the fiber lattice")
        fiber_rays.append(tuple(int(x) for x in coords))
        fiber_origin.append(i)
    kernel_set = set(in_kernel)
    fiber_cones = set()
    for cone in fan.max_cones:
        inside = tuple(sorted(in_kernel.index(i) for i in cone if i in kernel_set))
        fiber_cones.add(inside)
    maximal = [
        c for c in fiber_cones
        if not any(set(c) < set(other) for other in fiber_cones)
    ]
    fiber_fan = Fan(len(basis), tuple(fiber_rays), tuple(sorted(maximal)))
    # base fan: images of the maximal cones
    ray_map: dict[Vec, int] = {}
    base_rays: list[Vec] = []
    base_cones = set()
    for cone in fan.max_cones:
        idxs = set()
        for i in cone:
            img = tuple(dot(row, fan.rays[i]) for row in proj)
            if all(x == 0 for x in img):
                continue
            img = primitive_part(img)
            if img not in ray_map:
                ray_map[img] = len(base_rays)
                base_rays.append(img)
            idxs.add(ray_map[img])
        base_cones.add(tuple(sorted(idxs)))
    base_fan = Fan(len(proj), tuple(base_rays), tuple(sorted(base_cones)))
    base_rep = validate(base_fan)
    fiber_rep = validate(fiber_fan)
    ok = (
        base_rep.well_formed and base_rep.simplicial and base_rep.complete
        and fiber_rep.well_formed and fiber_rep.simplicial and fiber_rep.complete
    )
    if not ok:
        raise MalformedFanError("wall does not induce a fibration")
    rho_one = len(fiber_rays) == fiber_fan.rank + 1
    split = weakly_split(fan, proj, base_fan)
    return MoriFiberData(
        base_fan=base_fan,
        fiber_fan=fiber_fan,
        projection=tuple(proj),
        fiber_basis=tuple(basis),
        fiber_ray_origin=tuple(fiber_origin),
        fiber_rho_one=rho_one,
        split=split,
    )


def weakly_split(fan: Fan, projection, base_fan: Optional[Fan] = None) -> bool:
    """Whether the fan is weakly split by its kernel subfan and the image
    fan: a subfan maps cone-by-cone bijectively onto the base and every
    maximal cone decomposes as lifted cone + kernel cone."""
    proj = [tuple(row) for row in projection]
    kernel_rays = {
        i for i in range(len(fan.rays))
        if all(dot(row, fan.rays[i]) == 0 for row in proj)
    }
    lifts: dict[tuple, tuple[int, ...]] = {}
    for cone in fan.max_cones:
        blade = tuple(sorted(i for i in cone if i not in kernel_rays))
        imgs = []
        for i in blade:
            img = tuple(dot(row, fan.rays[i]) for row in proj)
            imgs.append(primitive_part(img))
        if matrix_rank(imgs) != len(blade):
            return False
        key = tuple(sorted(imgs))
        if key in lifts and lifts[key] != blade:
            return False
        lifts[key] = blade
    if base_fan is not None:
        base_keys = {
            tuple(sorted(base_fan.rays[i] for i in cone)) for cone in base_fan.max_cones
        }
        if base_keys != set(lifts.keys()):
            return False
    return True

