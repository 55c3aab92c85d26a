"""Solvers for the group relaxation over the feasible coset: Markov
chain search (plain, expander, Metropolis), Dijkstra over the range
group, and brute-force oracles for the coset and for tiny ILPs; and the
certified ILP optimum by branch and bound with group bounds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub
from typing import Optional

import numpy as np

from .errors import CapExceeded, CertificateError, Infeasible
from .kernel import FeasibleCoset, _group_residual, coset_array
from .exact import IntMatrix, clear_denominators, int_dtype
from .lp import GE, LE, ILPInstance, solve_lp_exact, to_standard_form
from .relax import (GroupRelaxationData, GroupSolution, LinearCost,
                    build_group_relaxation, lift_to_ilp)
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
    # Dijkstra residues reached, brute-force coset points, MCS walk steps
    cap: int = 10**6
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


def markov_chain_search(fc: FeasibleCoset, cost: LinearCost, cfg: SearchConfig,
                        grd: Optional[GroupRelaxationData] = None) -> SearchResult:
    """Anytime search: burn in one mixing time, then repeatedly walk a
    mixing time and keep the sample iff it does not increase the cost.
    The best-so-far value is non-increasing by construction; the result
    is not certified optimal. Raises TypeError unless cost is a
    LinearCost, and CapExceeded before a walk (the burn-in or a sample)
    would take the steps walked past cfg.cap. The cap is not checked
    against the whole plan, (cfg.max_samples + 1) walks, up front: a
    search with cfg.stop_at may stop long before its plan ends."""
    if not isinstance(cost, LinearCost):
        raise TypeError("markov_chain_search needs a LinearCost")
    kb = fc.basis
    rng = random.Random(cfg.seed)
    fbest = cost(fc.x_hat)
    best = fc.x_hat
    trace = [(0, fbest)]
    if kb.kernel_order <= 1 or not kb.generators:
        sol = lift_to_ilp(grd, best) if grd is not None else None
        return SearchResult(best, fbest, 0, False, trace, sol)

    if cfg.method == "mcs-expander":
        gens = tuple(expander_generation(kb, rng=rng))
    else:
        gens = kb.generators
    spec = CayleyWalkSpec(generators=gens, moduli=kb.moduli, rng=rng)
    beta = cfg.beta if cfg.method == "mcs-metropolis" else 0.0

    t_mix = cfg.mix_steps if cfg.mix_steps is not None else default_mix_steps(fc, cfg.epsilon)
    z, fz = fc.x_hat, fbest
    proposals = accepted = samples = 0
    # walk 0 is the burn-in, kept whatever its cost; each later walk is a
    # sample, kept iff it does not increase the cost (plateau moves allowed)
    for i in range(cfg.max_samples + 1):
        if (i + 1) * t_mix > cfg.cap:
            raise CapExceeded(f"MCS would walk {(i + 1) * t_mix} steps, past the cap of {cfg.cap}")
        zt, fzt, p, a = walk(spec, z, t_mix, cost, beta)
        proposals += p
        accepted += a
        if i == 0 or fzt <= fz:
            z, fz = zt, fzt
        if fz < fbest:
            best, fbest = tuple(z), fz
            trace.append((i, fbest))
        samples = i
        if i and cfg.stop_at is not None and fbest <= cfg.stop_at:
            break
    sol = lift_to_ilp(grd, best) if grd is not None else None
    return SearchResult(best, fbest, samples, False, trace, sol,
                        proposals=proposals, accepted=accepted)


def gomory_shortest_path(grd: GroupRelaxationData, cap: int = 10**6) -> SearchResult:
    """Dijkstra from 0 to the target residue over the range group
    (Gomory, 1965). A node is a residue over the rows with r_i > 1 (a row
    mod 1 is always 0), coded in mixed radix with row 0 the most
    significant digit, so codes order as the residue tuples do. One edge
    per distinct column residue: its cheapest column, ties to the lowest
    index, with weight equal to its reduced cost; a costlier column of
    the same residue is dominated (Shapiro, 1968).

    The reconstructed edge multiplicities are an optimal x_N; the result
    is certified three ways, each raising CertificateError: the potential
    pi = settled distance, or dist(target) off the settled set, has
    pi(0) = 0 and pi(u + a_j) <= pi(u) + w_j for every settled u and kept
    residue a_j (a dual certificate that no path is shorter); the path
    sums to the target; and its lift has the path's cost. Raises
    CapExceeded once more than cap distinct residues have a distance,
    Infeasible when the target is unreachable."""
    rows = [(row, r_i, b % r_i) for row, r_i, b in zip(grd.Abold.data, grd.r, grd.bbold)
            if r_i > 1]
    # the group cost scaled by L > 0 to integers keeps every comparison and tie
    cost = grd.cost
    den, shift, cbold = cost.den, cost.const, cost.weights
    kept: dict[tuple[int, ...], int] = {}  # residue -> its cheapest column
    for j, col in enumerate(zip(*(row for row, _, _ in rows))):
        k = kept.get(col)
        if k is None or cbold[j] < cbold[k]:
            kept[col] = j
    cols = list(kept.values())
    weights = [cbold[j] for j in cols]
    # per row, last first: each kept residue's digit times the row's place
    # value pv, and the row's modulus in code units r_i·pv
    digits, target, pv = [], 0, 1
    for i in reversed(range(len(rows))):
        _, r_i, b = rows[i]
        digits.append(([col[i] * pv for col in kept], pv, r_i * pv))
        target += b * pv
        pv *= r_i

    def neighbours(u: int) -> list[int]:
        """The code of u + a for every kept residue a, in kept order."""
        out = None
        for ds, pv, mod in digits:
            ui = u % mod - u % pv  # u's digit of this row, in code units
            part = [(ui + x) % mod for x in ds]
            out = part if out is None else list(map(add, out, part))
        return out or []

    dist: dict[int, int] = {0: 0}
    pred: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int]] = [(0, 0)]
    done: dict[int, int] = {}  # settled residue -> its distance
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        dcur, u = pop(heap)
        if u in done:
            continue
        done[u] = dcur
        if u == target:
            break
        for v, w, j in zip(neighbours(u), weights, cols):
            nd = dcur + w
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = (u, j)
                push(heap, (nd, v))
                if old is None and len(dist) > cap:
                    raise CapExceeded(f"Dijkstra reached more than {cap} residues")
    if target not in done:
        raise Infeasible("target residue unreachable: group relaxation infeasible")

    # pi <= top everywhere and w >= 0, so an edge out of an unsettled
    # residue holds; each settled u is checked against every kept residue
    top = done[target]
    if done[0] != 0 or max(done.values()) > top or min(weights, default=0) < 0:
        raise CertificateError("dual certificate fails: pi(0) != 0, pi above the "
                               "target's distance, or a negative weight")
    pi, off = done.get, itertools.repeat(top)
    for u, du in done.items():
        # max_j pi(u + a_j) - w_j <= pi(u), in one pass over the kept residues
        if weights and max(map(sub, map(pi, neighbours(u), off), weights)) > du:
            raise CertificateError(
                f"dual certificate fails: pi(u + a_j) > pi(u) + w_j at residue {u}")
    x_n = [0] * grd.d
    node = target
    while node:
        node, j = pred[node]
        x_n[j] += 1
    # path feasibility: the steps must sum to the target residue
    if _group_residual(grd.Abold, grd.r, x_n) != [b % r_i for b, r_i in zip(grd.bbold, grd.r)]:
        raise CertificateError("shortest path does not sum to the target residue")
    sol = lift_to_ilp(grd, x_n)
    obj = Fraction(shift + top, den)
    if sol.objective != obj:
        raise CertificateError(
            f"lifted objective {sol.objective} differs from the path length {obj}")
    return SearchResult(tuple(x_n), obj, len(done), True, [(0, obj)], sol)


def brute_force_group(fc: FeasibleCoset, cost: LinearCost, cap: int,
                      grd: Optional[GroupRelaxationData] = None) -> SearchResult:
    """Exhaustive minimum over the coset plus the full argmin set K*, in
    coset order: every point of ``coset_array`` priced by its integer
    numerator (``LinearCost.scaled_rows``); the first minimizer is the
    best point."""
    X = coset_array(fc, cap)  # raises CapExceeded
    iv = cost.scaled_rows(X, fc.basis.moduli)
    lo = iv.min()
    argmin = list(map(tuple, X[iv == lo].tolist()))
    best, fbest = argmin[0], Fraction(int(lo), cost.den)
    sol = lift_to_ilp(grd, best) if grd is not None else None
    return SearchResult(best, fbest, len(X), True, [(0, fbest)], sol,
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
    """The dtype of the sums over the box: every partial sum, like the
    rhs it is compared with, is at most max|coeff|·box·n in magnitude."""
    big = max((abs(v) for v in coeffs), default=0) * box * max(len(coeffs), 1)
    return int_dtype(max(big, abs(rhs)) + 1)


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
        mask &= _holds(_box_sums(row, side, _sum_dtype(row, box, rhs)), s, rhs)
    feasible = np.flatnonzero(mask)
    if not feasible.size:
        raise Infeasible("no feasible point in the box")
    scale, cs = clear_denominators(inst.c)
    obj = _box_sums(cs, side, _sum_dtype(cs, box))[feasible]
    best = int(np.argmin(obj))
    k = int(feasible[best])
    return Fraction(int(obj[best]), scale), [k // side**j % side for j in range(n)]


def _holds(lhs, sense: str, rhs):
    """lhs (sense) rhs, elementwise on arrays."""
    if sense == LE:
        return lhs <= rhs
    if sense == GE:
        return lhs >= rhs
    return lhs == rhs


@dataclass
class ILPOptimum:
    """A certified optimum of an ILP, from ``branch_and_bound``."""
    value: Fraction
    x: list[int]
    nodes: int          # nodes evaluated, the root included
    group_pruned: int   # nodes the group bound pruned and the LP bound did not


def _cost_at(inst: ILPInstance, x: list[int]) -> Fraction:
    """c·x, one Fraction over the lcm of c's denominators."""
    scale, cs = clear_denominators(inst.c)
    return Fraction(sum(map(mul, cs, x)), scale)


def _node_instance(inst: ILPInstance, lo: list[int], hi: list[Optional[int]]):
    """The node lo <= x <= hi of inst as an ILP in y = x - lo over the
    variables whose bounds differ, with the constant c·lo it leaves out.
    x_j <= hi_j becomes a row y_j <= hi_j - lo_j. A variable whose bounds
    meet is substituted out, not kept as such a row: the group relaxation
    drops the sign of that row's slack, and with it the bound. Returns
    (None, [], c·lo) when every variable is fixed. Raises Infeasible when
    a row left without variables fails."""
    free = [j for j in range(inst.n_vars) if hi[j] is None or lo[j] < hi[j]]
    const = _cost_at(inst, lo)
    rows, b, sense = [], [], []
    for row, s, rhs in zip(inst.A.data, inst.row_sense, inst.b):
        rest = rhs - sum(map(mul, row, lo))
        coeffs = [row[j] for j in free]
        if any(coeffs):
            rows.append(coeffs)
            b.append(rest)
            sense.append(s)
        elif not _holds(0, s, rest):
            raise Infeasible("a row left without variables fails")
    if not free:
        return None, free, const
    for k, j in enumerate(free):
        if hi[j] is not None:
            rows.append([int(i == k) for i in range(len(free))])
            b.append(hi[j] - lo[j])
            sense.append(LE)
    if not rows:  # read as one zero <= row, as to_standard_form does
        rows, b, sense = [[0] * len(free)], [0], [LE]
    node = ILPInstance(name=inst.name, A=IntMatrix(rows), b=b,
                       c=[inst.c[j] for j in free], row_sense=sense,
                       var_names=[inst.var_names[j] for j in free])
    return node, free, const


def branch_and_bound(inst: ILPInstance, cap: int = 1000,
                     root: Optional[tuple[GroupRelaxationData, SearchResult]] = None,
                     group_cap: int = 10**6) -> ILPOptimum:
    """Certified optimum of inst by branch and bound (Land and Doig, 1960)
    with group bounds (Gorry, Northup and Shapiro, 1973).

    A node lo <= x <= hi runs the exact LP and, unless the LP optimum is
    integral, Dijkstra on its group relaxation. It is pruned when its LP
    or group relaxation is infeasible or either bound is at least the
    incumbent. It is solved when its LP optimum is integral or its group
    optimum lifts to x_B >= 0 (Gomory). Otherwise it branches on the first
    fractional variable x_j = v of the LP optimum into x_j <= floor(v) and
    x_j >= ceil(v). Nodes run lowest parent bound first, ties in creation
    order, down branch first: depth first can dive without end along an
    unbounded ray whose nodes stay fractional, and never find an
    incumbent. ``root`` = (relax_ilp(inst), a certified group optimum of
    it) spares the root its LP and Dijkstra.

    Raises CapExceeded past cap nodes or when a Dijkstra reaches more than
    group_cap residues, Infeasible when no integer point exists, and
    CertificateError unless the optimum x satisfies A x (sense) b, x >= 0
    and c·x = value.
    """
    n = inst.n_vars
    best: Optional[tuple[Fraction, list[int]]] = None
    nodes = group_pruned = 0
    order = itertools.count()
    heap = [(Fraction(0), next(order), [0] * n, [None] * n)]
    while heap:
        key, _, lo, hi = heapq.heappop(heap)
        if best is not None and key >= best[0]:
            break  # every open node is bounded by the incumbent
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"branch and bound passed {cap} nodes")
        try:
            if root is not None:
                (grd, res), root = root, None
                sf, bs = grd.sf, grd.bs
                free, const = list(range(n)), Fraction(0)
            else:
                node, free, const = _node_instance(inst, lo, hi)
                if node is None:  # every variable fixed; its rows hold
                    if best is None or const < best[0]:
                        best = (const, lo)
                    continue
                sf = to_standard_form(node)
                bs, res = solve_lp_exact(sf), None
            bound = const + bs.opt_lp
            if best is not None and bound >= best[0]:
                continue
            # y = floor of the LP optimum on the free variables, frac the
            # first of them that is fractional
            y, frac = [0] * len(free), None
            for k, v in zip(bs.basis, bs.xb):
                if k < len(free):
                    y[k], rem = divmod(v, bs.det)
                    if rem and (frac is None or k < frac):
                        frac = k
            if res is None and frac is not None:
                res = gomory_shortest_path(build_group_relaxation(sf, bs), group_cap)
        except Infeasible:
            continue
        if res is not None:
            bound = const + res.objective
            if best is not None and bound >= best[0]:
                group_pruned += 1
                continue
            if res.solution.ilp_feasible:
                y, frac = res.solution.lifted_x[:len(free)], None
        if frac is None:
            x = list(lo)
            for j, v in zip(free, y):
                x[j] += int(v)
            best = (bound, x)
            continue
        j = free[frac]
        up, down = list(lo), list(hi)
        down[j] = lo[j] + y[frac]
        up[j] = down[j] + 1
        heapq.heappush(heap, (bound, next(order), lo, down))
        heapq.heappush(heap, (bound, next(order), up, hi))
    if best is None:
        raise Infeasible("no integer point satisfies the constraints")
    value, x = best
    if any(v < 0 for v in x) or not all(
            _holds(sum(map(mul, row, x)), s, rhs)
            for row, s, rhs in zip(inst.A.data, inst.row_sense, inst.b)):
        raise CertificateError("branch and bound returned a point outside the ILP")
    if _cost_at(inst, x) != value:
        raise CertificateError("branch and bound value differs from c·x")
    return ILPOptimum(value, x, nodes, group_pruned)


def solve_group(grd: GroupRelaxationData, fc: Optional[FeasibleCoset],
                cfg: SearchConfig) -> SearchResult:
    """Dispatch on cfg.method; the objective is the shifted group cost.
    Dijkstra reads only grd, so fc may be None for it; the brute-force
    and MCS solvers walk the coset fc."""
    if cfg.method == "dijkstra":
        return gomory_shortest_path(grd, cfg.cap)
    if cfg.method == "brute":
        return brute_force_group(fc, grd.cost, cfg.cap, grd)
    return markov_chain_search(fc, grd.cost, cfg, grd)
