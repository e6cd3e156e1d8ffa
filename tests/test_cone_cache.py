"""Each cone's adjugate is cached by its ray vectors, so every fan of a run
or of the table that holds a cone shares one elimination: the
reconstruction from primitive collections keeps the cones of the row-wise
rank test in ``linalg_oracle``, and a collection row or a forced 4-fold run
takes one adjugate per distinct cone.  ``test_surface_scan`` compares the
cached adjugates with the per-fan oracle on the table and sweep fans."""

from itertools import combinations

import linalg_oracle as oracle
from helpers import cold_caches, count_calls
from test_adjoint_certificate import sweep_polytopes
from toriq import fans, intersection, mmp
from toriq.fano_table import load_builtin_table, verify_row
from toriq.fans import fan_from_primitive_data
from toriq.mmp import run_mmp_scaling


def explicit_rows():
    return [row for row in load_builtin_table() if row.explicit]


def test_reconstructed_cones_match_oracle():
    rows = [row for row in explicit_rows() if row.collections]
    assert len(rows) == 66  # the 67th explicit row is rebuilt as a face fan
    for row in rows:
        fan = fan_from_primitive_data(list(row.rays), list(row.collections))
        assert list(fan.max_cones) == oracle.primitive_data_cones(row.rays, row.collections)


def test_singular_collection_free_subset_is_skipped(monkeypatch):
    # only {1, 3} is given: the collection-free pair {0, 2} = {e1, -e1} is
    # singular and dropped, which leaves the fan of P^1 x P^1
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    calls = count_calls(monkeypatch, "adjugate", fans)
    cold_caches()
    fan = fan_from_primitive_data(rays, [(1, 3)])
    assert list(fan.max_cones) == oracle.primitive_data_cones(rays, [(1, 3)]) == [
        (0, 1), (0, 3), (1, 2), (2, 3)]
    # the five collection-free pairs, each once; validate reads the cache
    assert sorted(calls) == sorted((list(zip(rays[i], rays[j])),)
                                   for i, j in combinations(range(4), 2) if (i, j) != (1, 3))


def test_collection_row_takes_one_adjugate_per_cone(monkeypatch):
    # row 117: its 30 collection-free 4-subsets, each once (60 when the rank
    # test and validate each took their own)
    row = next(row for row in explicit_rows() if row.name == "117")
    calls = count_calls(monkeypatch, "adjugate", fans)
    cold_caches()
    res = verify_row(row)
    assert res.status == "ok" and res.method == "collections"
    subsets = [sub for sub in combinations(range(len(row.rays)), 4)
               if not any(set(c) <= set(sub) for c in row.collections)]
    assert len(calls) == len(subsets) == 30
    assert len({tuple(M) for M, in calls}) == len(calls)


def test_forced_run_takes_one_adjugate_per_cone(monkeypatch):
    # row 117 (seed-1 perturbation): one adjugate for each of the 58 distinct
    # cones of the fans the run builds (275 when each fan took its own)
    cold_caches()  # before the cached _inverses is wrapped
    calls = count_calls(monkeypatch, "adjugate", fans)
    inverses = count_calls(monkeypatch, "_inverses", fans, intersection, mmp)
    run_mmp_scaling(sweep_polytopes()["117"], force=True)
    cones = {tuple(fan.rays[i] for i in cone)
             for fan, in inverses for cone in fan.max_cones if len(cone) == fan.rank}
    assert len(calls) == len(cones) == 58
    assert len({tuple(M) for M, in calls}) == len(calls)
