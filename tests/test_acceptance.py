"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s).

Criteria touching the two recorded data defects of the bundled reference
values (the H_2 table entry and the second trace's critical values) are
asserted as recorded and therefore fail; the companion assertions document
the computed behavior; the README records the analysis.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from toriq.fans import (
    face_fan,
    star_subdivision,
    validate,
    walls,
    weakly_split,
)
from toriq.intersection import (
    TorusDivisor,
    anticanonical,
    ch2_dot_surface,
    curve_number,
    div_char,
    is_2fano,
    nef_threshold,
)
from toriq.mmp import (
    DIVISORIAL,
    MORI_FIBER,
    GeneralityError,
    flip,
    run_mmp_scaling,
)
from toriq.polytopes import (
    FacetPresentation,
    adjoint,
    cayley_mori_build,
    cayley_mori_detect,
    effective_threshold,
    normal_fan,
    remove_redundant,
    thresholds,
)
from toriq.fano_table import load_builtin_table, verify_table
from conftest import blowup_polytope, hexagon, pn_fan
from helpers import cone_contains, fans_equal_up_to_ray_order

F = Fraction


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def table_report():
    return verify_table(load_builtin_table())


def test_criterion_1_table_reproduction(table_report):
    """Every explicit classification row: validated smooth/complete/Fano fan
    and exact witness-surface value."""
    rep = table_report
    ok_rows = [r for r in rep.rows if r.status == "ok"]
    validated = all(r.smooth and r.complete and r.fano for r in ok_rows)
    mismatched = sorted(r.name for r in ok_rows if not r.match)
    spot = {r.name: r.computed for r in ok_rows}
    spots_ok = (
        spot["E_1"] == -2 and spot["K_1"] == -3
        and spot["117"] == -5 and spot["124"] == -4
    )
    detail = (
        f"{len(ok_rows)} rows reconstructed, validated={validated}, "
        f"spot values ok={spots_ok}, mismatches={mismatched or 'none'}"
    )
    report(1, rep.errors == 0 and validated and spots_ok and not mismatched, detail)


def test_criterion_1_companion_known_defect(table_report):
    """Companion record: the single mismatch is H_2, where the recorded -1
    is unattained by any invariant surface of the fan rebuilt from the
    row's own vectors (computed value -3/2, as for the rest of its
    family)."""
    mismatched = sorted(
        r.name for r in table_report.rows if r.status == "ok" and not r.match
    )
    assert mismatched == ["H_2"]
    h2 = next(r for r in table_report.rows if r.name == "H_2")
    assert h2.computed == F(-3, 2)
    family = [
        r for r in table_report.rows
        if r.status == "ok" and r.name.startswith("H_") and r.name != "H_2"
    ]
    assert all(r.computed == F(-3, 2) for r in family)


def test_criterion_2_projective_spaces_are_2fano():
    details = []
    ok = True
    for n in (4, 5):
        fan = pn_fan(n)
        scan = is_2fano(fan)
        expected = F(n + 1, 2)  # Euler-sequence value
        values = {v for _, v in scan.values}
        ok = ok and scan.is_two_fano and values == {expected}
        details.append(f"rank {n}: {len(scan.values)} surfaces all {expected}")
    report(2, ok, "; ".join(details))


def test_criterion_3_first_trace():
    P = blowup_polytope((2, 1, 2, 1, F(5, 2)))
    trace = run_mmp_scaling(P)
    lams = trace.critical_values
    kinds = trace.kinds
    quad = trace.steps[0].fan_after
    quad_ok = fans_equal_up_to_ray_order(
        quad,
        face_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]),
    )
    base = trace.steps[1].fan_after
    base_ok = base.rank == 1 and set(base.rays) == {(1,), (-1,)}
    ok = (
        lams == (F(1, 2), F(1))
        and kinds == (DIVISORIAL, MORI_FIBER)
        and quad_ok and base_ok
    )
    report(3, ok, f"critical values {tuple(map(str, lams))}, kinds {kinds}")


def test_criterion_4_second_trace_recorded_values():
    """As recorded: coefficients (6,5,6,5,2) with critical values
    (1/2, 3/2, 5/2).  The computed values are (1, 3, 13/3); the recorded
    ones are unattainable from these coefficients (see the README)."""
    P = blowup_polytope((6, 5, 6, 5, 2))
    trace = run_mmp_scaling(P)
    lams = trace.critical_values
    kinds = trace.kinds
    chain_ok = kinds == (DIVISORIAL, DIVISORIAL, MORI_FIBER)
    values_ok = lams == (F(1, 2), F(3, 2), F(5, 2))
    report(
        4,
        chain_ok and values_ok,
        f"chain ok={chain_ok}, critical values {tuple(map(str, lams))} "
        f"vs recorded (1/2, 3/2, 5/2)",
    )


def test_criterion_4_companion_computed_trace():
    """Companion record: the computed second trace, and a polarization on
    the same surface that does realize the recorded critical values."""
    P = blowup_polytope((6, 5, 6, 5, 2))
    trace = run_mmp_scaling(P)
    assert trace.critical_values == (F(1), F(3), F(13, 3))
    assert trace.kinds == (DIVISORIAL, DIVISORIAL, MORI_FIBER)
    assert [len(s.fan_before.rays) for s in trace.steps] == [5, 4, 3]
    alt = run_mmp_scaling(blowup_polytope((2, 5, 5, 1, F(1, 2))))
    assert alt.critical_values == (F(1, 2), F(3, 2), F(5, 2))
    assert alt.kinds == (DIVISORIAL, DIVISORIAL, MORI_FIBER)


def polygon_corners(normals, constants, s):
    """The corners of the polygon {x : <v, x> >= s - a} whose inward
    primitive normals v are listed counterclockwise, one per edge: corner i
    meets edges i - 1 and i (Cramer's rule)."""
    corners = []
    for (a, b), (c, d), e, f in zip(normals[-1:] + normals[:-1], normals,
                                    constants[-1:] + constants[:-1], constants):
        det = a * d - b * c
        corners.append((F((s - e) * d - b * (s - f), det), F(a * (s - f) - (s - e) * c, det)))
    return corners


def polygon_lengths(normals, constants, s):
    """Signed lattice lengths of the edges of ``polygon_corners``: edge i
    runs from corner i to corner i + 1 along (b, -a) for v = (a, b)."""
    pts = polygon_corners(normals, constants, s)
    return [(q[0] - p[0]) / b if b else (p[1] - q[1]) / a
            for (a, b), p, q in zip(normals, pts, pts[1:] + pts[:1])]


def test_criterion_4_values_by_hand():
    """Independent evidence for acceptance 4: the critical values of
    (6,5,6,5,2) from the edges of P^(s), with no wall relation and no run.
    P^(s) is x >= -6+s, y >= -5+s, x <= 6-s, y <= 5-s, x+y <= 2-s, and each
    edge's lattice length is affine in s.  The edge with normal (-1, 0)
    (x = 6-s, -5+s <= y <= -4) has length 1 - s and is the first to
    collapse, at 1; with it contracted, the edge with normal (0, -1)
    (y = 5-s, -6+s <= x <= -3) has length 3 - s and collapses at 3; the
    triangle left, with vertices (-6+s, -5+s), (-6+s, 8-2s) and
    (7-2s, -5+s), collapses to a point at 13/3.  The run agrees, so the
    recorded (1/2, 3/2, 5/2) are not the critical values of these
    constants."""
    # counterclockwise: (1,0), (0,1), (-1,0), (-1,-1), (0,-1)
    facets = dict(zip(((1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)), (6, 5, 6, 2, 5)))
    derived, lo = [], F(0)
    for contracted, lam, length in (((-1, 0), F(1), (1, -1)), ((0, -1), F(3), (3, -1)),
                                    (None, F(13, 3), None)):
        normals, constants = list(facets), list(facets.values())
        at0, at1 = polygon_lengths(normals, constants, 0), polygon_lengths(normals, constants, 1)
        roots = {v: l0 / (l0 - l1) for v, l0, l1 in zip(normals, at0, at1) if l1 < l0}
        # a polygon on the open interval, with no edge collapsing before lam
        assert all(l > 0 for l in polygon_lengths(normals, constants, (lo + lam) / 2))
        assert min(roots.values()) == lam
        collapsing = [v for v, root in roots.items() if root == lam]
        if contracted is None:  # every edge of the triangle at once
            assert collapsing == normals and len(normals) == 3
            for s in (F(0), F(1, 2), lam):
                assert sorted(polygon_corners(normals, constants, s)) == sorted(
                    [(-6 + s, -5 + s), (-6 + s, 8 - 2 * s), (7 - 2 * s, -5 + s)])
            assert polygon_lengths(normals, constants, lam) == [0, 0, 0]
        else:  # one edge alone, of the stated length
            assert collapsing == [contracted]
            i = normals.index(contracted)
            assert (at0[i], at1[i] - at0[i]) == length
            del facets[contracted]
        derived.append(lam)
        lo = lam
    assert derived == [1, 3, F(13, 3)]
    assert run_mmp_scaling(blowup_polytope((6, 5, 6, 5, 2))).critical_values == tuple(derived)


def test_criterion_5_singular_fiber_space(singular_fan):
    mk = anticanonical(singular_fan)
    # rays 3, 4 span the fiber curve; ray 4 the singular surface
    kc = curve_number(singular_fan, mk, (3, 4))
    ch = ch2_dot_surface(singular_fan, (4,))
    ok = kc == 1 and ch == F(1, 4)
    report(5, ok, f"-K.C = {kc} (expect 1), ch2.S = {ch} (expect 1/4)")


def test_criterion_6_hexagon():
    H = hexagon()
    th = thresholds(H)
    dec = cayley_mori_detect(H)
    try:
        run_mmp_scaling(H)
        flagged = False
    except GeneralityError:
        flagged = True
    ok = th.nef == 1 and th.effective == 1 and dec is None and flagged
    report(
        6,
        ok,
        f"nef={th.nef}, effective={th.effective}, cayley detection "
        f"{'absent' if dec is None else 'present'}, generality error={flagged}",
    )


# --- criterion 7: the zero-tolerance property suite -------------------------

def random_simple_polytope(rng, dim):
    pool2 = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1),
             (-1, 1), (2, 1), (1, 2), (-2, -1), (-1, 2)]
    pool3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
             (0, 0, -1), (1, 1, 1), (-1, -1, -1), (1, 1, 0), (0, -1, -1),
             (-1, 0, 1)]
    pool = pool2 if dim == 2 else pool3
    normals = pool[: 2 * dim] + rng.sample(pool[2 * dim:], rng.randint(1, 3))
    constants = [F(rng.randint(2, 12), rng.choice([1, 1, 2, 3])) for _ in normals]
    try:
        reduced, _ = remove_redundant(FacetPresentation(dim, tuple(normals), tuple(constants)))
    except ValueError:
        return None
    from toriq.polytopes import is_simple

    return reduced if is_simple(reduced) else None


def test_criterion_7a_adjoint_composition():
    rng = random.Random(73911)
    checked = 0
    while checked < 100:
        P = random_simple_polytope(rng, 2 if checked % 2 else 3)
        if P is None:
            continue
        sigma = effective_threshold(P)
        s = sigma * F(rng.randint(0, 7), 15)
        t = min(sigma - s, sigma * F(rng.randint(0, 7), 15))
        one = adjoint(adjoint(P, s), t, allow_redundant=True)
        two = adjoint(P, s + t)
        assert (one.normals, one.constants) == (two.normals, two.constants)
        checked += 1
    report(7, True, f"(a) adjoint composition exact on {checked} random polytopes")


def test_criterion_7b_principal_divisors_trivial(corpus_fans):
    count = 0
    for fan in corpus_fans:
        for k in range(fan.rank):
            m = tuple(1 if j == k else 0 for j in range(fan.rank))
            D = div_char(fan, m)
            for w in walls(fan):
                assert curve_number(fan, D, w.wall_rays) == 0
                count += 1
    report(7, True, f"(b) principal pairings vanish ({count} wall checks)")


def test_criterion_7c_nef_threshold_two_ways(corpus_polytopes):
    for P in corpus_polytopes:
        fan = normal_fan(P)
        L = TorusDivisor(fan, P.constants)
        assert thresholds(P).nef == nef_threshold(fan, L)
    report(7, True, f"(c) polyhedral == intersection nef threshold on {len(corpus_polytopes)} polytopes")


def test_criterion_7d_cayley_roundtrip():
    rng = random.Random(40112)
    built = 0
    while built < 12:
        # strictly equivalent random segment bases, plus 2D bases for k=1
        if built % 3 == 0:
            B0 = random_simple_polytope(rng, 2)
            if B0 is None:
                continue
            delta = tuple(F(rng.randint(0, 2), 4) for _ in B0.constants)
            B1 = FacetPresentation(
                2, B0.normals, tuple(a + d for a, d in zip(B0.constants, delta)),
                irredundant=True,
            )
            from toriq.polytopes import strictly_equivalent

            if not strictly_equivalent(B0, B1):
                continue
            bases, w = [B0, B1], [(1,)]
        else:
            k = 2
            segs = []
            for _ in range(k + 1):
                lo = rng.randint(0, 3)
                segs.append(FacetPresentation(
                    1, ((1,), (-1,)), (lo, lo + rng.randint(1, 4)), irredundant=True,
                ))
            u = rng.choice([(1, 0), (1, 1), (0, 1)])
            v = (u[0] + 1, u[1] + 1) if u == (1, 1) else ((0, 1) if u == (1, 0) else (1, 0))
            if u[0] * v[1] - u[1] * v[0] == 0:
                continue
            bases, w = segs, [u, v]
        P = cayley_mori_build(bases, w)
        dec = cayley_mori_detect(P)
        assert dec is not None
        assert len(dec.bases) == len(bases)
        first = normal_fan(dec.bases[0])
        assert all(normal_fan(b) == first for b in dec.bases)
        n = bases[0].dim
        k = len(bases) - 1
        proj = [tuple(1 if j == i else 0 for j in range(n + k)) for i in range(n)]
        assert weakly_split(normal_fan(P), proj)
        built += 1
    report(7, True, f"(d) build->detect round trip with weak splitting on {built} Cayley sums")


def test_criterion_7e_flip_rank3_example():
    from toriq.fans import Fan

    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)),
              ((0, 1, 2), (0, 1, 3)))
    w = next(x for x in walls(fan) if x.wall_rays == (0, 1))
    out = flip(fan, w)
    assert out.rays == fan.rays
    assert out.max_cones == ((0, 2, 3), (1, 2, 3))
    samples = list(fan.rays) + [(1, 1, 0), (2, 1, 1), (1, 2, -1), (1, 1, 1),
                                (3, 1, -1), (0, 1, 1), (5, 4, -2)]
    for x in samples:
        before = any(cone_contains(fan, c, x) for c in fan.max_cones)
        after = any(cone_contains(out, c, x) for c in out.max_cones)
        assert before == after
    report(7, True, "(e) flip preserves the ray set and the support")


def test_criterion_7f_segment_fiber_closed_form():
    """Closed form for segment bases over the line with a dilated-simplex
    image: re-derived from the intersection recipe itself,

        2 * ch2 . V(e_2..e_k) = (1/s) * sum_{i>=2} [(b_1 - b_0) - 2(b_i - b_0)],

    always nonpositive for b_0 <= b_1 <= ... <= b_k.  At s = 1 this agrees
    with the recorded lemma form using d_u, d_v; for s > 1 the recorded
    scaling is inconsistent with the recipe, and the corrected form
    is asserted."""
    rng = random.Random(550221)
    checked = 0
    checked_s1 = 0
    while checked < 50:
        k = rng.choice([1, 2, 2, 3])
        s = rng.randint(1, 3)
        ends = []
        for _ in range(k + 1):
            bu = rng.randint(0, 3)
            bv = rng.randint(0, 3)
            if bu + bv == 0:
                bv = 1
            ends.append((bu, bv))
        ends.sort(key=lambda e: e[0] + e[1])
        bases = [
            FacetPresentation(1, ((1,), (-1,)), (bu, bv), irredundant=True)
            for bu, bv in ends
        ]
        w = [tuple(s if j == i else 0 for j in range(k)) for i in range(k)]
        P = cayley_mori_build(bases, w)
        fan = normal_fan(P)
        # the invariant surface spanned by the fiber rays e_2..e_k
        sigma = []
        for i in range(2, k + 1):
            ray = (0,) + tuple(1 if j == i else 0 for j in range(1, k + 1))
            sigma.append(fan.rays.index(ray))
        value = ch2_dot_surface(fan, tuple(sorted(sigma)))
        b = [bu + bv for bu, bv in ends]
        closed = sum(
            (F(b[1] - b[0] - 2 * (b[i] - b[0]), s) for i in range(2, k + 1)),
            F(0),
        )
        assert 2 * value == closed
        assert value <= 0
        if s == 1:
            du = 1 // gcd(1, *[ends[i][0] - ends[0][0] for i in range(1, k + 1)])
            dv = 1 // gcd(1, *[ends[i][1] - ends[0][1] for i in range(1, k + 1)])
            recorded = sum(
                (
                    F(ends[1][0] - ends[0][0], du)
                    + F(ends[1][1] - ends[0][1], dv)
                    - 2 * (b[i] - b[0])
                    for i in range(2, k + 1)
                ),
                F(0),
            )
            assert 2 * value == recorded
            checked_s1 += 1
        checked += 1
    assert checked_s1 >= 10
    report(7, True,
           f"(f) closed-form fiber values match and are nonpositive "
           f"({checked} fans, {checked_s1} also against the s=1 recorded form)")


def test_criterion_8_codim2_blowups_not_2fano():
    details = []
    ok = True
    for n, center in ((3, (1, 1, 0)), (4, (1, 1, 0, 0))):
        bl = star_subdivision(pn_fan(n), center)
        rep = validate(bl)
        scan = is_2fano(bl)
        ok = ok and rep.smooth and rep.complete and scan.minimum < 0
        details.append(f"rank {n}: min = {scan.minimum} at {scan.witness}")
    report(8, ok, "; ".join(details))


def test_criterion_9_out_of_scope_substitutes():
    """Exhaustive rank-5/6 verification needs an external database and the
    presentation-space decomposition theory is explicitly excluded; their
    operational substitutes are criteria 2, 7 and 8 plus the per-step
    structure checks inside the program runner."""
    trace = run_mmp_scaling(blowup_polytope((2, 1, 2, 1, F(5, 2))))
    structural = [key for key in trace.validation if key.startswith(("interval", "step"))]
    assert structural and all(
        trace.validation[k] for k in structural if isinstance(trace.validation[k], bool)
    )
    report(9, True, "substituted by criteria 2, 7, 8 and the runner's per-step checks")
