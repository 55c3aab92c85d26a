"""Solvers for the group relaxation over the feasible coset: Markov
chain search (plain, expander, Metropolis), Dijkstra over the range
group, and brute-force oracles for the coset and for tiny ILPs.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import CapExceeded, CertificateError, Infeasible
from .kernel import FeasibleCoset, enumerate_coset
from .lp import ILPInstance
from .relax import GroupRelaxationData, GroupSolution, lift_to_ilp
from .walks import CayleyWalkSpec, expander_generation, walk

METHODS = ("mcs", "mcs-expander", "mcs-metropolis", "dijkstra", "brute")


@dataclass
class SearchConfig:
    method: str = "dijkstra"
    seed: Optional[int] = None
    max_samples: int = 64
    mix_steps: Optional[int] = None
    beta: float = 0.0
    epsilon: float = 0.01
    cap: int = 10**6
    expander_c: float = 8.0
    # optional early-exit target (e.g. a known optimum in tests); the
    # search is anytime, so stopping at the target only shortens the run
    stop_at: Optional[Fraction] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")


@dataclass
class SearchResult:
    best_point: Optional[tuple[int, ...]]
    objective: Fraction
    samples_used: int
    certified_optimal: bool
    trace: list[tuple[int, Fraction]] = field(default_factory=list)
    solution: Optional[GroupSolution] = None
    argmin_points: Optional[list[tuple[int, ...]]] = None  # K*, brute only
    seed: Optional[int] = None
    proposals: int = 0   # non-null Metropolis proposals, MCS only
    accepted: int = 0


def default_mix_steps(fc: FeasibleCoset, epsilon: float) -> int:
    """Walk length per sample: ceil(k * u_max^2 * ln(|K|/eps)), from the
    product-of-cycles gap 1/(k u_max^2)."""
    kb = fc.basis
    k = len(kb.generators)
    if k == 0 or kb.kernel_order <= 1:
        return 1
    u = max(kb.orders)
    # log of each factor: |K| / eps overflows a float once |K| > 2^1024
    return math.ceil(k * u * u * (math.log(kb.kernel_order) - math.log(epsilon)))


def sample_budget(kernel_order: int, kstar_order: int, epsilon: float) -> int:
    """ceil(2 (|K|/|K*|) ln(1/eps)) samples suffice to hit an optimum
    with failure probability eps when sampling near-uniformly."""
    return math.ceil(2 * (kernel_order / kstar_order) * math.log(1 / epsilon))


def markov_chain_search(fc: FeasibleCoset, f: Callable[[tuple[int, ...]], Fraction],
                        cfg: SearchConfig,
                        grd: Optional[GroupRelaxationData] = None) -> SearchResult:
    """Anytime search: burn in one mixing time, then repeatedly walk a
    mixing time and keep the sample iff it does not increase f. The
    best-so-far value is non-increasing by construction; the result is
    not certified optimal."""
    kb = fc.basis
    rng = random.Random(cfg.seed)
    fbest = Fraction(f(fc.x_hat))
    best = fc.x_hat
    trace = [(0, fbest)]
    if kb.kernel_order <= 1 or not kb.generators:
        sol = lift_to_ilp(grd, best) if grd is not None else None
        return SearchResult(best, fbest, 0, False, trace, sol, seed=cfg.seed)

    if cfg.method == "mcs-expander":
        gens = tuple(expander_generation(kb, cfg.expander_c, rng))
    else:
        gens = kb.generators
    spec = CayleyWalkSpec(generators=gens, moduli=kb.moduli, rng=rng)
    beta = cfg.beta if cfg.method == "mcs-metropolis" else 0.0

    t_mix = cfg.mix_steps if cfg.mix_steps is not None else default_mix_steps(fc, cfg.epsilon)
    # burn-in before the first comparison
    z, fz, proposals, accepted = walk(spec, fc.x_hat, t_mix, f, beta)
    fz = Fraction(fz)
    if fz < fbest:
        best, fbest = tuple(z), fz
        trace.append((0, fbest))
    samples = 0
    for i in range(1, cfg.max_samples + 1):
        zt, fzt, p, a = walk(spec, z, t_mix, f, beta)
        proposals += p
        accepted += a
        fzt = Fraction(fzt)
        if fzt <= fz:  # plateau moves allowed
            z, fz = zt, fzt
        if fz < fbest:
            best, fbest = tuple(z), fz
            trace.append((i, fbest))
        samples = i
        if cfg.stop_at is not None and fbest <= cfg.stop_at:
            break
    sol = lift_to_ilp(grd, best) if grd is not None else None
    return SearchResult(best, fbest, samples, False, trace, sol, seed=cfg.seed,
                        proposals=proposals, accepted=accepted)


def gomory_shortest_path(grd: GroupRelaxationData, cap: int = 10**6) -> SearchResult:
    """Dijkstra from 0 to the target residue over the range group: nodes
    are residue tuples mod (r_1..r_m), one outgoing edge per kept column
    with weight equal to its reduced cost. The reconstructed edge
    multiplicities are an optimal x_N; the result is certified. Raises
    CapExceeded once more than cap distinct residues have a distance."""
    m, r = grd.m, grd.r
    target = tuple(grd.bbold[i] % r[i] for i in range(m))
    src = (0,) * m
    cols = [tuple(grd.Abold.column(j)) for j in range(grd.d)]
    # the group cost scaled by L > 0 to integers keeps every comparison and tie
    den, shift, cbold = grd._cost_scale
    dist: dict[tuple[int, ...], int] = {src: 0}
    pred: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    heap: list[tuple[int, tuple[int, ...]]] = [(0, src)]
    done = set()
    while heap:
        dcur, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == target:
            break
        for j, col in enumerate(cols):
            v = tuple((u[i] + col[i]) % r[i] for i in range(m))
            nd = dcur + cbold[j]
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = (u, j)
                heapq.heappush(heap, (nd, v))
                if old is None and len(dist) > cap:
                    raise CapExceeded(f"Dijkstra reached more than {cap} residues")
    if target not in done:
        raise Infeasible("target residue unreachable: group relaxation infeasible")

    x_n = [0] * grd.d
    node = target
    while node != src:
        node, j = pred[node]
        x_n[j] += 1
    # path feasibility: the steps must sum to the target residue
    acc = [0] * m
    for j, mult in enumerate(x_n):
        for i in range(m):
            acc[i] = (acc[i] + mult * cols[j][i]) % r[i]
    if tuple(acc) != target:
        raise CertificateError("shortest path does not sum to the target residue")
    sol = lift_to_ilp(grd, x_n)
    obj = Fraction(shift + dist[target], den)
    if sol.objective != obj:
        raise CertificateError(
            f"lifted objective {sol.objective} differs from the path length {obj}")
    return SearchResult(tuple(x_n), obj, len(done), True, [(0, obj)], sol)


def brute_force_group(fc: FeasibleCoset, f: Callable[[tuple[int, ...]], Fraction],
                      cap: int,
                      grd: Optional[GroupRelaxationData] = None) -> SearchResult:
    """Exhaustive minimum over the coset plus the full argmin set K*."""
    best = None
    fbest = None
    argmin: list[tuple[int, ...]] = []
    count = 0
    for pt in enumerate_coset(fc, cap):  # raises CapExceeded
        count += 1
        v = Fraction(f(pt))
        if fbest is None or v < fbest:
            best, fbest = pt, v
            argmin = [pt]
        elif v == fbest:
            argmin.append(pt)
    if best is None:
        raise Infeasible("empty coset")
    sol = lift_to_ilp(grd, best) if grd is not None else None
    return SearchResult(best, fbest, count, True, [(0, fbest)], sol,
                        argmin_points=argmin)


def _box_sums(coeffs: list[int], side: int, dtype) -> np.ndarray:
    """sum_j coeffs[j]·x_j at every point of {0..side-1}^n, flat in
    mixed radix with x_0 the fastest digit, as a Kronecker sum: one
    pass per column, no n-column grid."""
    digits = np.arange(side, dtype=dtype)
    acc = np.zeros(1, dtype=dtype)
    for a in reversed(coeffs):
        acc = (acc[:, None] + digits * a).ravel()
    return acc


def _sum_dtype(coeffs: list[int], box: int, rhs: int = 0):
    """int64 while no sum over the box (nor the rhs) can reach 2^62,
    Python ints (object dtype) above that."""
    big = max((abs(v) for v in coeffs), default=0) * box * max(len(coeffs), 1)
    return np.int64 if max(big, abs(rhs)) < 2**62 else object


def brute_force_ilp(inst: ILPInstance, box: int, cap: int = 10**7):
    """Exact optimum of the original ILP over the box {0..box}^n by
    vectorized enumeration. Returns (value, x): the first minimiser in
    mixed-radix order with x_0 the fastest digit. Raises Infeasible when
    nothing in the box is feasible, CapExceeded when the box is too big.
    """
    n, side = inst.n_vars, box + 1
    if side**n > cap:
        raise CapExceeded(f"{side**n} box points exceed cap {cap}")
    mask = np.ones(side**n, dtype=bool)
    for row, s, rhs in zip(inst.A.data, inst.row_sense, inst.b):
        lhs = _box_sums(row, side, _sum_dtype(row, box, rhs))
        if s == "<=":
            mask &= lhs <= rhs
        elif s == ">=":
            mask &= lhs >= rhs
        else:
            mask &= lhs == rhs
    feasible = np.flatnonzero(mask)
    if not feasible.size:
        raise Infeasible("no feasible point in the box")
    scale = math.lcm(*(c.denominator for c in inst.c))
    cs = [c.numerator * (scale // c.denominator) for c in inst.c]
    obj = _box_sums(cs, side, _sum_dtype(cs, box))[feasible]
    best = int(np.argmin(obj))
    k = int(feasible[best])
    return Fraction(int(obj[best]), scale), [k // side**j % side for j in range(n)]


def solve_group(grd: GroupRelaxationData, fc: FeasibleCoset,
                cfg: SearchConfig) -> SearchResult:
    """Dispatch on cfg.method; the objective is the shifted group cost."""
    if cfg.method == "dijkstra":
        return gomory_shortest_path(grd, cfg.cap)
    if cfg.method == "brute":
        return brute_force_group(fc, grd.cost, cfg.cap, grd)
    return markov_chain_search(fc, grd.cost, cfg, grd)
