"""Reference redundancy removal by exact LP, for cross-checks.

This is an independent route to the irredundant sub-presentation that
``toriq.polytopes.remove_redundant`` reads off the vertex-facet incidences:
walk the inequalities in order and drop each one that a two-phase simplex
shows to be implied by the ones still kept.  It runs one LP per inequality,
so it is kept for tests only.
"""

from __future__ import annotations

from toriq.linalg import affine_rank, lp_min
from toriq.polytopes import (
    DegenerateError,
    EmptyPolytopeError,
    FacetPresentation,
    is_empty,
    vertices,
)


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
