"""The three benchmark workloads: their items, the calls one item makes
into toriq, and the exact, JSON-ready encoding of an item's result.

Every workload runs a fixed list of items so that each item's exact
result can be pinned in ``reference/<workload>.json`` (written by
``pin.py``); the run's seed sets only their order.  Items call toriq
through module attributes at call time, so the tracer's patched wrappers
see every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from toriq import fano_table, formats, mmp, polytopes

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# mmp-4fold: the perturbation 1 + k/10000 per ray, k drawn in table order
# from this seed (the seed-1 sweep of the 4-fold table).
MMP_PERTURBATION_SEED = 1
# The costliest row of that sweep (117) and nine rows spread over the rest
# by cost; G_4 is one of its known MalformedFanError failures.
MMP_ROWS = ("117", "G_5", "H_6", "G_4", "M_1", "Q_1", "Q_5", "H_4", "I_8", "U_2")
# adjoint-family: entries of the polytope pool (see adjoint_polytope),
# the costliest one (d3-48) and 39 spread over the rest by cost.
ADJOINT_KEYS = (
    "d3-48", "d2-101", "d2-12", "d2-106", "d2-35", "d2-86", "d2-57", "d3-114",
    "d2-102", "d2-76", "d2-118", "d2-5", "d2-39", "d2-9", "d2-65", "d2-98",
    "d2-74", "d3-77", "d2-53", "d3-98", "d2-103", "d3-45", "d3-52", "d2-36",
    "d2-15", "d3-43", "d3-16", "d3-74", "d3-89", "d3-31", "d3-119", "d3-22",
    "d3-47", "d3-76", "d3-105", "d3-58", "d3-62", "d3-5", "d3-55", "d3-19",
)


def q(x) -> str:
    return str(Fraction(x))


def qs(xs) -> list[str]:
    return [q(x) for x in xs]


def error_entry(exc: BaseException) -> dict:
    return {"error": type(exc).__name__}


def shuffled(seed: int, keys) -> list:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# table-verify
# ---------------------------------------------------------------------------


def explicit_rows() -> list:
    return [r for r in fano_table.load_builtin_table() if r.explicit]


def table_items(seed: int) -> list[tuple[str, object]]:
    """All explicit rows of the builtin table, in a seeded order."""
    return [(r.name, r) for r in shuffled(seed, explicit_rows())]


def encode_row(res) -> dict:
    if res.status == "error":
        return {"error": res.reason.split(":", 1)[0]}
    return {
        "status": res.status,
        "method": res.method,
        "computed": q(res.computed),
        "match": res.match,
        "global_min": q(res.global_min),
        "min_witness": list(res.min_witness),
        "two_fano": res.two_fano,
        "collections_roundtrip": res.collections_roundtrip,
    }


def run_table_item(row):
    res = fano_table.verify_row(row)
    return res, encode_row(res)


def finish_table_pass(raw_results: list) -> list[str]:
    """Emit the CSV report of the rows verified in one pass and return one
    report line per row, in pass order."""
    report = fano_table.VerificationReport(rows=list(raw_results))
    lines = formats.emit_report(report).splitlines()
    return lines[1:]


# ---------------------------------------------------------------------------
# mmp-4fold
# ---------------------------------------------------------------------------


def mmp_perturbations(rows) -> dict[str, tuple[int, ...]]:
    rng = random.Random(MMP_PERTURBATION_SEED)
    return {r.name: tuple(rng.randint(1, 99) for _ in r.rays) for r in rows}


def mmp_polytope(row, ks) -> polytopes.FacetPresentation:
    """P_L for L = -K + sum (k_i/10000) D_i on the row's fan; ``pin.py``
    checks that every such L is ample, so the presentation is irredundant."""
    coeffs = tuple(1 + Fraction(k, 10000) for k in ks)
    return polytopes.FacetPresentation(len(row.rays[0]), row.rays, coeffs, irredundant=True)


def mmp_items(seed: int) -> list[tuple[str, object]]:
    rows = {r.name: r for r in explicit_rows()}
    ks = mmp_perturbations(rows.values())
    return [(name, mmp_polytope(rows[name], ks[name])) for name in shuffled(seed, MMP_ROWS)]


def encode_trace(trace) -> dict:
    return {
        "critical_values": qs(trace.critical_values),
        "kinds": list(trace.kinds),
        "wall_rays": [list(s.wall_rays) for s in trace.steps],
        "effective_threshold": q(trace.effective_threshold),
        "generality_flag": trace.generality_flag,
        "validation": trace.validation,
    }


def run_mmp_item(P):
    trace = mmp.run_mmp_scaling(P, force=True)
    return trace, encode_trace(trace)


# ---------------------------------------------------------------------------
# adjoint-family
# ---------------------------------------------------------------------------

POOL2 = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1),
         (-1, 1), (2, 1), (1, 2), (-2, -1), (-1, 2)]
POOL3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
         (0, 0, -1), (1, 1, 1), (-1, -1, -1), (1, 1, 0), (0, -1, -1),
         (-1, 0, 1)]


def random_simple_polytope(rng: random.Random, dim: int):
    """A box plus 1-3 random extra facet normals with random rational
    constants, reduced; None when the result is degenerate or not simple."""
    pool = POOL2 if dim == 2 else POOL3
    normals = pool[: 2 * dim] + rng.sample(pool[2 * dim:], rng.randint(1, 3))
    constants = [Fraction(rng.randint(2, 12), rng.choice([1, 1, 2, 3])) for _ in normals]
    try:
        reduced, _ = polytopes.remove_redundant(
            polytopes.FacetPresentation(dim, tuple(normals), tuple(constants))
        )
    except ValueError:
        return None
    return reduced if polytopes.is_simple(reduced) else None


def adjoint_polytope(key: str):
    """Pool entry ``key`` = ``d<dim>-<i>``: the first simple polytope drawn
    from its own generator, so any entry can be rebuilt without the others."""
    dim = int(key[1])
    rng = random.Random(f"adjoint-family/{key}")
    while True:
        P = random_simple_polytope(rng, dim)
        if P is not None:
            return P


def encode_polytope(P) -> dict:
    return {"normals": [list(v) for v in P.normals], "constants": qs(P.constants)}


def adjoint_items(seed: int) -> list[tuple[str, object]]:
    return [(key, adjoint_polytope(key)) for key in shuffled(seed, ADJOINT_KEYS)]


def encode_cayley(dec) -> dict | None:
    if dec is None:
        return None
    return {
        "bases": [encode_polytope(B) for B in dec.bases],
        "w": [qs(w) for w in dec.w],
        "fiber_projection": [list(r) for r in dec.fiber_projection],
    }


def run_adjoint_item(P):
    th = polytopes.thresholds(P)
    adjoints = []
    for j in (1, 3, 5, 7):
        s = th.effective * Fraction(j, 8)
        A = polytopes.adjoint(P, s)
        _, removed = polytopes.remove_redundant(A)
        adjoints.append({
            "s": q(s),
            "constants": qs(A.constants),
            "irredundant": A.irredundant,
            "removed": list(removed),
        })
    cayley = polytopes.cayley_mori_detect(P)
    trace = mmp.run_mmp_scaling(P, force=True)
    return None, {
        "input": encode_polytope(P),
        "nef": q(th.nef),
        "effective": q(th.effective),
        "adjoints": adjoints,
        "cayley": encode_cayley(cayley),
        "mmp": encode_trace(trace),
    }


# ---------------------------------------------------------------------------

WORKLOADS = {
    "table-verify": (table_items, run_table_item, finish_table_pass),
    "mmp-4fold": (mmp_items, run_mmp_item, None),
    "adjoint-family": (adjoint_items, run_adjoint_item, None),
}
