"""Shared fixtures: instance builders and the seeded random corpus used
by the bound-chain / kernel-oracle / compression suites, and the small
helpers only tests read (report rows from supplied optima, the MCS
sample budget)."""

import math
import random
import time
from fractions import Fraction

import pytest

from grouprelax import (
    ILPInstance,
    IntMatrix,
    branch_and_bound,
    feasible_coset,
    gomory_shortest_path,
    relax_ilp,
)
from grouprelax.exact import clear_denominators
from grouprelax.pipeline import ReportRow, _row
from grouprelax.relax import GroupRelaxationData, LinearCost, bound_chain


def build(inst):
    """Instance -> (sf, bs, grd, fc) through the exact pipeline."""
    grd = relax_ilp(inst)
    return grd.sf, grd.bs, grd, feasible_coset(grd)


def stub_grd(Abold_rows, r, bbold, cbold=None, shift=0):
    """Bare congruence system for kernel-level unit tests; the LP fields
    are not consulted by the kernel and walk operations. The cost is
    shift + cbold·x over the lcm of their denominators, as the LP's
    would be in lowest terms."""
    A = IntMatrix(Abold_rows)
    cbold = [Fraction(v) for v in (cbold or [1] * A.cols)]
    den, (const, *weights) = clear_denominators([Fraction(shift), *cbold])
    return GroupRelaxationData(
        sf=None, bs=None,
        r=list(r),
        Abold=A,
        bbold=list(bbold),
        cost=LinearCost(den, const, weights),
        kept_cols=list(range(A.cols)),
        dropped_cols=[],
    )


def report_row_from_values(name, opt_lp, opt_b, opt_ilp, method="supplied") -> ReportRow:
    """Row from externally supplied optima (report arithmetic only)."""
    return _row(name, bound_chain(opt_lp, opt_b, opt_ilp), certified=False,
                degenerate_lp=False, k_order=0, g_order=0, method=method, seed=None, wall_ms=0)


def sample_budget(kernel_order: int, kstar_order: int, epsilon: float) -> int:
    """ceil(2 (|K|/|K*|) ln(1/eps)) samples suffice to hit an optimum
    with failure probability eps when sampling near-uniformly."""
    return math.ceil(2 * (kernel_order / kstar_order) * math.log(1 / epsilon))


def random_feasible_instance(seed):
    """m <= 3, n <= 6, |A_ij| <= 5, feasible by construction at a point
    inside {0..3}^n; costs nonnegative so the LP is bounded."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    n = rng.randint(max(2, m), 6)
    A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    for row in A:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 5)
    x0 = [rng.randint(0, 3) for _ in range(n)]
    b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    sense = [rng.choice(["<=", "=", ">="]) for _ in range(m)]
    c = [Fraction(rng.randint(0, 5)) for _ in range(n)]
    return ILPInstance(name=f"rand{seed}", A=IntMatrix(A), b=b, c=c,
                       row_sense=sense)


def dependent_row_instance(seed, off=0):
    """random_feasible_instance(seed) with its first row made an equality
    and one more equality row planted among its rows: a combination, with
    nonzero integer weights, of its equality rows. With off = 0 the new
    row's b is consistent, so the row-rank repair drops a row; otherwise
    b is off by off and no point is feasible. Returns (instance, number
    of rows without the planted one)."""
    inst = random_feasible_instance(seed)
    rng = random.Random(f"dependent{seed}")
    A, b = [row[:] for row in inst.A.data], list(inst.b)
    sense = ["="] + inst.row_sense[1:]
    lam = [rng.choice((-2, -1, 1, 2)) if s == "=" else 0 for s in sense]
    at = rng.randint(0, len(A))
    A.insert(at, [sum(l * row[j] for l, row in zip(lam, A)) for j in range(inst.n_vars)])
    b.insert(at, sum(l * v for l, v in zip(lam, b)) + off)
    sense.insert(at, "=")
    return ILPInstance(name=f"dep{seed}+{off}", A=IntMatrix(A), b=b, c=inst.c,
                       row_sense=sense), inst.n_rows


@pytest.fixture(scope="session")
def random_suite():
    """200 seeded random instances solved end to end: exact LP, group
    relaxation, kernel coset, certified group optimum (Dijkstra), and
    the certified ILP optimum by branch and bound rooted at it."""
    t0 = time.monotonic()
    cases = []
    for seed in range(200):
        inst = random_feasible_instance(seed)
        sf, bs, grd, fc = build(inst)
        res = gomory_shortest_path(grd)
        ilp = branch_and_bound(inst, root=(grd, res))
        cases.append({
            "inst": inst, "sf": sf, "bs": bs, "grd": grd, "fc": fc,
            "opt_b": res.objective, "opt_ilp": ilp.value, "ilp": ilp,
        })
    return {"cases": cases, "elapsed": time.monotonic() - t0}
