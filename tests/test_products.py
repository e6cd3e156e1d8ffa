"""Products as an independent check in ranks 4 and 5.

The adjoint of a product is the product of the adjoints, (P x Q)^(s) =
P^(s) x Q^(s), and its normal fan is the product fan (Cox-Little-Schenck,
"Toric Varieties", sections 2.3 and 3.1).  So the forced run on P x Q
reaches sigma(P x Q) = min(sigma_P, sigma_Q), and on a general run its
critical values are those of the two factors below that value, followed by
it.  Each step there has the kind of the one factor step at its value,
and on each interval the facets of the product are those of the two
factors on the intervals that hold its end.
The oracle is those laws, not a second implementation: the product run is
compared with the runs on its factors, in a rank neither factor reaches.
"""

import pytest

from test_adjoint_certificate import pool_polytope
from toriq.mmp import run_mmp_scaling
from toriq.polytopes import FacetPresentation

D2 = tuple(f"d2-{i}" for i in range(0, 120, 12))
D3 = tuple(f"d3-{i}" for i in range(0, 120, 20))
# every d2 key with each later d2 key (45 pairs, rank 4) and with every
# d3 key (60 pairs, rank 5)
PAIRS = [(a, b) for i, a in enumerate(D2) for b in D2[i + 1:] + D3]


def product(P: FacetPresentation, Q: FacetPresentation) -> FacetPresentation:
    """P x Q, each factor's facets padded with zeros on the other's lattice."""
    normals = ([v + (0,) * Q.dim for v in P.normals]
               + [(0,) * P.dim + v for v in Q.normals])
    return FacetPresentation(P.dim + Q.dim, tuple(normals), P.constants + Q.constants,
                             irredundant=True)


def interval_at(trace, lam) -> int:
    """The index of the trace's interval (lo, lam_k] that holds lam."""
    lams = (0,) + trace.critical_values
    return next(k for k in range(len(trace.steps)) if lams[k] < lam <= lams[k + 1])


@pytest.fixture(scope="module")
def factor_runs():
    return {key: run_mmp_scaling(pool_polytope(key), force=True) for key in D2 + D3}


def test_products_follow_their_factors(factor_runs):
    flagged = fibred5 = 0
    for a, b in PAIRS:
        ta, tb = factor_runs[a], factor_runs[b]
        trace = run_mmp_scaling(product(pool_polytope(a), pool_polytope(b)), force=True)
        sigma = min(ta.effective_threshold, tb.effective_threshold)
        assert trace.effective_threshold == sigma, (a, b)
        fibred5 += trace.steps[-1].fan_before.rank == 5 and trace.steps[-1].fiber_data is not None
        if trace.generality_flag:
            flagged += 1
            continue
        below = sorted({lam for t in (ta, tb) for lam in t.critical_values if lam < sigma})
        assert trace.critical_values == (*below, sigma), (a, b)
        assert all(v for v in trace.validation.values() if isinstance(v, bool)), (a, b)
        for i, step in enumerate(trace.steps):
            kinds = [s.kind for t in (ta, tb) for s in t.steps if s.lam == step.lam]
            assert kinds == [step.kind], (a, b, i)
            facets = sum(t.validation[f"interval_{interval_at(t, step.lam)}_facets"]
                         for t in (ta, tb))
            assert trace.validation[f"interval_{i}_facets"] == facets, (a, b, i)
    # 16 runs tie-break between classes that vanish at one value; every
    # rank-5 run ends in a fibration of its rank-5 fan
    assert (len(PAIRS), flagged, fibred5) == (105, 16, 60)
