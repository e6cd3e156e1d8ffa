"""Every member P^(s) of an adjoint family has P's facet normals.
``polytopes.vertices`` once kept a table of bases per normal list, from one
walk of the tree of subsets; it now runs one double description per
presentation (``linalg._extreme_rays``), on the normals with that member's
constants, and keeps no table.  The vertex sets, tight sets and errors
equal the ``Fraction`` oracle's, which walks afresh, across whole families;
the work is pinned from cold caches: one double description per
enumeration of a benchmark pass, ``_faces`` once per vertex set, and one
copy of each note key of the cross-validation."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import polytope_oracle as oracle
from helpers import cold_caches, count_calls
from test_circuit_replacement import _workloads
from test_integer_points import non_simple
from test_redundancy import presentations, vertex_outcome
from toriq import polytopes
from toriq.fans import MalformedFanError
from toriq.mmp import run_mmp_scaling
from toriq.polytopes import FacetPresentation, adjoint, remove_redundant, vertices

F = Fraction


def family(P, shifts):
    return [FacetPresentation(P.dim, P.normals, tuple(a - s for a in P.constants))
            for s in shifts]


def assert_family_matches(P, shifts):
    # each member from its own walk in the oracle, from one table here;
    # empty, lower-dimensional and unbounded members included
    cold_caches()
    for Q in family(P, shifts):
        for lower in (False, True):
            assert vertex_outcome(vertices, Q, lower) == vertex_outcome(
                oracle.vertices_over_fractions, Q, lower)


@given(presentations(), st.lists(st.builds(F, st.integers(-2, 6), st.sampled_from((1, 2, 3))),
                                 min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_families_match_oracle(P, shifts):
    assert_family_matches(P, [0] + shifts)


@given(non_simple(), st.lists(st.builds(F, st.integers(0, 4), st.sampled_from((1, 2))),
                              min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_non_simple_families_match_oracle(P, shifts):
    assert_family_matches(P, [0] + shifts)


def test_one_walk_per_normal_list_of_a_family(monkeypatch):
    # the seed-1 adjoint-family pass: 232 enumerations over 46 normal
    # lists, each one double description.  With a table of bases that
    # lived for 4 normal lists they took 51 walks, the segment and triangle
    # fibers that items share walked again after other items
    workloads = _workloads()
    items = workloads.adjoint_items(1)
    enumerations = count_calls(monkeypatch, "_extreme_rays", polytopes)
    cold_caches()
    for _, P in items:
        try:
            workloads.run_adjoint_item(P)
        except MalformedFanError:  # the pinned failure
            pass
    normal_lists = {tuple(row[:-1] for row in rows[:-1]) for rows, in enumerations}
    assert (len(enumerations), len(normal_lists)) == (232, 46)


def test_faces_once_per_vertex_set(monkeypatch):
    # adjoint's remove_redundant, the caller's and the degeneracy check of
    # vertices read one cached VertexSet.faces (11 _faces calls before)
    faces = count_calls(monkeypatch, "_faces", polytopes)
    cold_caches()
    P = remove_redundant(FacetPresentation(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)),
                                           (0, 0, 4, 3, -1)))[0]
    for s in (F(1, 4), F(1, 2), F(3, 4)):
        A = adjoint(P, s)
        remove_redundant(A)
    assert len(faces) == 4  # P and its three adjoints


def test_note_keys_are_shared_between_traces():
    # two runs from cold caches record equal notes under the same key objects
    workloads = _workloads()
    P = workloads.adjoint_polytope("d3-48")
    notes = []
    for _ in range(2):
        cold_caches()
        notes.append(run_mmp_scaling(P, force=True).validation)
    assert notes[0] == notes[1] and list(notes[0]) == list(notes[1])
    assert all(a is b for a, b in zip(notes[0], notes[1]))
