"""Small test-side helpers that the package itself has no use for."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

from toriq import fans, linalg, mmp, polytopes
from toriq.fans import Fan, _cone_coords
from toriq.intersection import TorusDivisor
from toriq.linalg import dot


def mat_mul(A, B):
    if not A or not B:
        return []
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def cone_contains(fan: Fan, cone: tuple[int, ...], x) -> bool:
    """Exact membership of x in the cone spanned by the given rays."""
    coords = _cone_coords(fan, cone, x)
    return coords is not None and all(c >= 0 for c in coords)


def faces_of_dim(fan: Fan, k: int) -> list[tuple[int, ...]]:
    """All k-dimensional cones of a simplicial fan (as ray index tuples)."""
    return sorted({sub for cone in fan.max_cones for sub in combinations(cone, k)})


def fans_equal_up_to_ray_order(f1: Fan, f2: Fan) -> bool:
    """Equality of fans after matching rays literally by their vectors."""
    if f1.rank != f2.rank or set(f1.rays) != set(f2.rays):
        return False
    perm = {i: f2.rays.index(r) for i, r in enumerate(f1.rays)}
    cones1 = {tuple(sorted(perm[i] for i in c)) for c in f1.max_cones}
    return cones1 == set(f2.max_cones)


def count_calls(monkeypatch, name, *modules) -> list:
    """Record the arguments of every call of the function ``name`` of
    ``modules[0]``, patched into each of the modules that holds it (``from
    .linalg import f`` copies the name); the calls still run.  Deterministic
    work counts for pinning, independent of load."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_lps(monkeypatch) -> list:
    """Record the arguments of every LP solved from here on: each call of
    ``linalg.lp_min`` (which ``polytopes`` and ``fans`` import) and of
    ``linalg.lp_standard`` (behind ``nonneg_solve``); neither calls the
    other."""
    calls = count_calls(monkeypatch, "lp_min", linalg, polytopes, fans)
    standard = linalg.lp_standard

    def counted(*args):
        calls.append(args)
        return standard(*args)

    monkeypatch.setattr(linalg, "lp_standard", counted)
    return calls


def toriq_caches() -> dict:
    """Every functools cache in the loaded toriq modules, by qualified name,
    found as the benchmark's tracer finds them."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "toriq" or name.startswith("toriq."):
            for val in vars(mod).values():
                if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                    found.setdefault(f"{val.__module__}.{val.__qualname__}", val)
    return found


def cold_caches() -> None:
    """Clear every toriq cache, so a work count does not depend on which
    tests ran before it."""
    for fn in toriq_caches().values():
        fn.cache_clear()


def count_enumerations(monkeypatch) -> list:
    """Record, from cold caches, the rows of the homogenized cone of each
    vertex enumeration that ``polytopes.vertices`` runs
    (``linalg._extreme_rays``): (v_i, L a_i) per inequality, then the row
    of t >= 0."""
    calls = count_calls(monkeypatch, "_extreme_rays", polytopes)
    cold_caches()
    return calls


def count_fractions(monkeypatch) -> Counter:
    """Count, by module, every ``Fraction`` that toriq's modules construct
    from here on: each one they build and each result of their arithmetic
    on ``Fraction``s, credited to the nearest caller outside ``fractions``.
    A deterministic work count, independent of load."""
    counts = Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "fractions":
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "")
        if module.split(".")[0] == "toriq":
            counts[module] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return counts


def decomposition(P, pvs, data):
    """``polytopes._decompose_along_fiber`` as the public record, its points
    ``Fraction``s, or None."""
    found = polytopes._decompose_along_fiber(P, pvs, data)
    return found and polytopes._rational_decomposition(found, data)


def certificates(trace) -> list:
    """The interval certificates of the trace's steps, one per step, as its
    run builds them for the checks (``mmp._interval_certificates``)."""
    return mmp._interval_certificates(polytopes._SlackRows(trace.initial_polytope), trace.steps)


def prime_divisor(fan: Fan, i: int) -> TorusDivisor:
    return TorusDivisor(fan, tuple(Fraction(1 if j == i else 0) for j in range(len(fan.rays))))


def run_divisor(slacks, fan: Fan) -> TorusDivisor:
    """The polarization a scaled run holds on one of its fans: the
    constants of P, whose slack rows are ``slacks``, on the fan's rays."""
    return TorusDivisor(fan, tuple(slacks.P.constants[slacks.index[v]] for v in fan.rays))


def divisor_slacks(fan: Fan, L: TorusDivisor):
    """The slack rows (``polytopes._SlackRows``) of the polytope that L
    gives on the fan's rays, {x : <v_k, x> + L_k >= 0}, whose polarization
    on the fan is L."""
    return polytopes._SlackRows(polytopes.FacetPresentation(fan.rank, fan.rays, L.coeffs))


def with_walls(fan: Fan, lam, attained):
    """A ``polytopes._critical_value`` result with its attained (facet,
    sides) pairs built into walls, as ``fans.walls`` builds them."""
    inverses = fans._inverses(fan)
    return lam, [fans._wall(fan, inverses, facet, sides) for facet, sides in attained]


def scan(fan: Fan, L: TorusDivisor, s0):
    """The slack-row nef threshold of L on the fan from s0 on, and the
    walls that attain it (``with_walls``)."""
    return with_walls(fan, *polytopes._critical_value(divisor_slacks(fan, L), fan, s0))
