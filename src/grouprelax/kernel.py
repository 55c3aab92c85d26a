"""Feasible coset x_hat + K of the null-space formulation.

Provides the feasible-point solve, cyclic kernel generators, per-column
orders, ambient-space compression, and coset enumeration (the brute
force oracle used throughout the tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterator, Sequence

from .errors import CapExceeded, CertificateError, Infeasible
from .exact import IntMatrix, SNFResult, snf, solve_mod
from .relax import GroupRelaxationData


@dataclass(frozen=True)
class KernelBasis:
    """Independent cyclic generators of K inside the ambient group
    with the given per-coordinate moduli; kernel_order = prod(orders)."""

    generators: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    moduli: tuple[int, ...]
    kernel_order: int
    range_order: int


@dataclass(frozen=True)
class FeasibleCoset:
    x_hat: tuple[int, ...]
    basis: KernelBasis


def element_order(v: Sequence[int], moduli: Sequence[int]) -> int:
    """Order of v in the direct sum of Z_{moduli}."""
    o = 1
    for vi, mi in zip(v, moduli):
        if vi % mi:
            o = lcm(o, mi // gcd(mi, vi % mi))
    return o


def _group_residual(Abold: IntMatrix, r: Sequence[int], x: Sequence[int]) -> list[int]:
    return [v % r[i] for i, v in enumerate(Abold.matvec(list(x)))]


def _kernel_generators(fact: SNFResult, r_max: int, A: IntMatrix, r: Sequence[int]):
    """Core of the generator-finding algorithm: cyclic generators of
    {x in Z_{r_max}^d : A x = 0 (mod R Z^m)}, read off fact, the SNF of
    the preconditioned matrix diag(r_max / r_i) A.

    Returns (generators, orders, kernel_order) with trivial generators
    dropped; each generator is checked against the congruence. Handles
    d > m by treating the missing diagonal entries of the SNF as zeros
    (free coordinates).
    """
    d = A.cols
    ts = list(fact.D) + [0] * (d - len(fact.D))
    gens, orders = [], []
    kernel_order = 1
    for i in range(d):
        g = gcd(r_max, ts[i])
        kernel_order *= g
        if g > 1:
            z = r_max // g
            h = tuple((z * fact.Vinv.data[row][i]) % r_max for row in range(d))
            gens.append(h)
            orders.append(g)
    for h in gens:
        if any(_group_residual(A, r, h)):
            raise CertificateError(f"kernel generator {h} fails the congruence")
    return gens, orders, kernel_order


def feasible_coset(grd: GroupRelaxationData) -> FeasibleCoset:
    """Feasible coset x_hat + K of Abold x = bbold (mod R Z^m) in
    Z_{r_max}^d, with |K| and |G| = r_max^d / |K|.

    Preconditioning with diag(r_max / r_j) turns every row into a
    congruence mod r_max; one SNF of that matrix gives both the
    particular solution (a per-row modular solve in SNF coordinates) and
    the cyclic generators of K with orders gcd(r_max, t_i). Both are
    verified by substitution before returning.
    """
    m, d, r_max = grd.m, grd.d, grd.r_max
    if d == 0 and any(grd.bbold[i] % grd.r[i] for i in range(m)):
        raise Infeasible("no columns left but the right-hand side is nonzero")
    x_hat, gens, orders, korder = (0,) * d, [], [], 1
    if d and r_max > 1:
        scale = [r_max // r_i for r_i in grd.r]
        fact = snf(IntMatrix([[s * v for v in row] for s, row in zip(scale, grd.Abold.data)]))
        Bb = [s * v for s, v in zip(scale, grd.bbold)]
        bprime = [v % r_max for v in fact.Uinv.matvec(Bb)]
        ts = list(fact.D) + [0] * (m - len(fact.D))
        y = [0] * d
        for i in range(m):
            yi, _ = solve_mod(ts[i], bprime[i], r_max)  # raises Infeasible
            if i < d:
                y[i] = yi
        x_hat = tuple(v % r_max for v in fact.Vinv.matvec(y))
        residual = _group_residual(grd.Abold, grd.r, x_hat)
        if residual != [grd.bbold[i] % grd.r[i] for i in range(m)]:
            raise CertificateError("feasible-point substitution check failed")
        gens, orders, korder = _kernel_generators(fact, r_max, grd.Abold, grd.r)
    basis = KernelBasis(generators=tuple(gens), orders=tuple(orders), moduli=(r_max,) * d,
                        kernel_order=korder, range_order=r_max**d // korder)
    return FeasibleCoset(x_hat=x_hat, basis=basis)


def _check_order_minimal(grd: GroupRelaxationData, col: Sequence[int], j: int,
                         s: int, p: int) -> None:
    if not any(((s // p) * v) % grd.r[i] for i, v in enumerate(col)):
        raise CertificateError(f"column {j} order {s} is not minimal: {s // p} suffices")


def column_orders(grd: GroupRelaxationData) -> list[int]:
    """Order s_j of each column of Abold in Z^m / R Z^m:
    s_j = lcm_i(r_i / gcd(r_i, A_ij)). Minimality is verified."""
    out = []
    for j in range(grd.d):
        col = grd.Abold.column(j)
        s = 1
        for i, r_i in enumerate(grd.r):
            s = lcm(s, r_i // gcd(r_i, col[i] % r_i))
        if any((s * v) % grd.r[i] for i, v in enumerate(col)):
            raise CertificateError(f"column {j} is not annihilated by its order {s}")
        p = 2
        ss = s
        while p * p <= ss:  # every prime quotient of s must fail
            if ss % p == 0:
                _check_order_minimal(grd, col, j, s, p)
                while ss % p == 0:
                    ss //= p
            p += 1
        if ss > 1:
            _check_order_minimal(grd, col, j, s, ss)
        out.append(s)
    return out


def _check_order_bookkeeping(s: Sequence[int], korder: int, range_order: int) -> None:
    if prod(s) != korder * range_order:
        raise CertificateError(
            f"compressed order bookkeeping broke: prod(s) = {prod(s)} != "
            f"|K'| * |G| = {korder} * {range_order}")


def compress_kernel(grd: GroupRelaxationData, kb: KernelBasis) -> KernelBasis:
    """Cyclic generators of K' = image of K in the compressed ambient
    group  ⊕_j Z_{s_j}  (coordinatewise reduction mod the column orders).

    Works in the coefficient space of the generators of K: the kernel of
    the reduction map restricted to K is spanned by the coefficient
    vectors found by re-running generator finding on the scaled system,
    and the quotient K / ker is read off one SNF.
    """
    s = column_orders(grd)
    d, r_max = grd.d, grd.r_max
    range_order = kb.range_order
    if kb.kernel_order == 1 or not kb.generators:
        _check_order_bookkeeping(s, 1, range_order)
        return KernelBasis((), (), tuple(s), 1, range_order)

    k = len(kb.generators)
    D = IntMatrix([[kb.generators[i][row] for i in range(k)] for row in range(d)])
    # coefficient vectors n with D n = 0 (mod S Z^d), found via the
    # scaled system diag(r_max/s_j) D n = 0 (mod r_max Z^d)
    BD = IntMatrix([[(r_max // s[row]) * v for v in D.data[row]] for row in range(d)])
    coeff_gens, _, _ = _kernel_generators(snf(BD), r_max, BD, [r_max] * d)
    # present K / ker as a quotient in coefficient space: relations are
    # the kernel coefficients plus the generator orders u_i e_i
    rel_cols: list[list[int]] = [list(g) for g in coeff_gens]
    for i, u in enumerate(kb.orders):
        col = [0] * k
        col[i] = u
        rel_cols.append(col)
    C = IntMatrix([[rel_cols[c][row] for c in range(len(rel_cols))] for row in range(k)])
    fact = snf(C)
    gens, orders = [], []
    for j in range(k):
        mjj = fact.D[j] if j < len(fact.D) else 0
        if mjj in (0, 1):
            continue
        w = fact.U.column(j)
        g = tuple(v % s[row] for row, v in enumerate(D.matvec(w)))
        o = element_order(g, s)
        if o == 1:
            continue
        if any(_group_residual(grd.Abold, grd.r, g)):
            raise CertificateError(f"compressed generator {g} fails the congruence")
        gens.append(g)
        orders.append(o)
    korder = prod(orders) if orders else 1
    _check_order_bookkeeping(s, korder, range_order)
    return KernelBasis(tuple(gens), tuple(orders), tuple(s), korder, range_order)


def compress_coset(grd: GroupRelaxationData, fc: FeasibleCoset) -> FeasibleCoset:
    """Reduce the feasible point into the compressed ambient group; never
    increases cost since the group costs are nonnegative."""
    kb2 = compress_kernel(grd, fc.basis)
    x2 = tuple(v % m for v, m in zip(fc.x_hat, kb2.moduli))
    return FeasibleCoset(x_hat=x2, basis=kb2)


def enumerate_coset(fc: FeasibleCoset, cap: int) -> Iterator[tuple[int, ...]]:
    """Yield every coset point x_hat + sum n_i h_i exactly once."""
    kb = fc.basis
    if kb.kernel_order > cap:
        raise CapExceeded(f"|K| = {kb.kernel_order} exceeds cap {cap}")
    moduli = kb.moduli
    for coeffs in itertools.product(*(range(u) for u in kb.orders)):
        x = list(fc.x_hat)
        for n_i, h in zip(coeffs, kb.generators):
            if n_i:
                for row in range(len(x)):
                    x[row] = (x[row] + n_i * h[row]) % moduli[row]
        yield tuple(x)


def span(kb: KernelBasis) -> set[tuple[int, ...]]:
    """Subgroup generated by the basis, by breadth-first closure."""
    zero = (0,) * len(kb.moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for h in kb.generators:
                y = tuple((a + b) % m for a, b, m in zip(x, h, kb.moduli))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen
