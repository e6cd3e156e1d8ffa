"""Birational steps from one circuit replacement: on every divisorial
contraction and flip of forced runs, the class of walls the run passes is
the wall's whole class, ``contract`` and ``flip`` give exactly the fans and
dropped rays of the two loops in ``mmp_oracle``, and every step record
follows from alpha."""

import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

import mmp_oracle as oracle
from toriq import mmp
from toriq.fans import Fan, MalformedFanError, walls
from toriq.mmp import DIVISORIAL, FLIP, MORI_FIBER, run_mmp_scaling


def _workloads():
    """The benchmark's inputs: the seeded 4-fold perturbation and the
    adjoint-family pool."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fourfold_polytopes(workloads, names=None):
    rows = workloads.explicit_rows()
    ks = workloads.mmp_perturbations(rows)
    return {r.name: workloads.mmp_polytope(r, ks[r.name]) for r in rows
            if names is None or r.name in names}


def wall_of(fan, wall_rays):
    return next(w for w in walls(fan) if w.wall_rays == wall_rays)


def test_steps_match_oracle(corpus_polytopes, monkeypatch):
    workloads = _workloads()
    polys = list(corpus_polytopes)
    polys += [workloads.adjoint_polytope(key) for key in workloads.ADJOINT_KEYS]
    polys += list(fourfold_polytopes(workloads).values())[::3]
    crossings = []

    def recording(step):
        def wrapped(fan, wall, cls=None):
            out = step(fan, wall, cls)
            crossings.append((step, fan, wall, out))
            assert cls == mmp.class_walls(fan, wall)
            return out
        return wrapped

    monkeypatch.setattr(mmp, "contract", recording(mmp.contract))
    monkeypatch.setattr(mmp, "flip", recording(mmp.flip))
    steps = []
    for P in polys:
        try:
            steps += run_mmp_scaling(P, force=True).steps
        except MalformedFanError:
            continue  # the fiber-polytope check fails after the last step (d3-76)
    compared = Counter()
    for step, fan, wall, out in crossings:
        if step.__name__ == "contract":
            ref = oracle.contract(fan, wall)
            assert (out.kind, out.fan, out.dropped_ray) == (ref.kind, ref.fan, ref.dropped_ray)
        else:
            assert out == oracle.flip(fan, wall)
        compared[step.__name__] += 1
    assert compared["contract"] >= 80 and compared["flip"] >= 8, compared
    for step in steps:
        assert step.kind == {0: MORI_FIBER, 1: DIVISORIAL}.get(step.alpha, FLIP)
        assert step.lost_face_dim == step.fan_before.rank - step.alpha
        assert (step.fiber_data is not None) == (step.alpha == 0)
        wall = wall_of(step.fan_before, step.wall_rays)
        if step.kind == DIVISORIAL:
            assert step.fan_after == oracle.contract(step.fan_before, wall).fan
        elif step.kind == FLIP:
            assert step.fan_after == oracle.flip(step.fan_before, wall)


def test_missing_circuit_cone_rejected():
    """G_3's first step flips a circuit whose relation is positive on wall
    ray 0; without the cone that omits ray 0 the crossing cannot start."""
    P = fourfold_polytopes(_workloads(), {"G_3"})["G_3"]
    step = run_mmp_scaling(P, force=True).steps[0]
    fan, j = step.fan_before, step.wall_rays[0]
    assert step.kind == FLIP and step.relation[j] > 0
    circ = set(step.wall_rays) | set(wall_of(fan, step.wall_rays).opposite_rays(fan))
    cone = tuple(sorted(circ - {j}))
    broken = Fan(fan.rank, fan.rays, tuple(c for c in fan.max_cones if c != cone))
    assert len(broken.max_cones) == len(fan.max_cones) - 1
    for flip in (mmp.flip, oracle.flip):
        with pytest.raises(MalformedFanError, match=re.escape(str(cone))):
            flip(broken, wall_of(broken, step.wall_rays))


def test_leftover_exceptional_cone_rejected(bl_p1p1, monkeypatch):
    """A cone that still holds the exceptional ray after the crossing
    cannot be renumbered; contract names it instead of dropping the ray."""
    replace = mmp._replace_circuits
    monkeypatch.setattr(mmp, "_replace_circuits",
                        lambda fan, cls: replace(fan, cls) | {(0, 4)})
    with pytest.raises(MalformedFanError, match=re.escape("[(0, 4)] still hold the exceptional ray 4")):
        mmp.contract(bl_p1p1, wall_of(bl_p1p1, (4,)))
