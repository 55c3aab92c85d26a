"""Feasible coset x_hat + K of the null-space formulation.

Provides the feasible-point solve, cyclic kernel generators, per-column
orders, ambient-space compression, and coset enumeration (the brute
force oracle used throughout the tests).

``feasible_coset`` reads x_hat and the generators of K off one Smith
normal form over Python ints. ``compress_kernel`` runs no SNF: it
row-reduces the generators of K, reduced mod the column orders, over
Z/p^e for each prime power of r_max in numpy, and certifies the result
by substitution, element orders and the order count prod(s) = |K'| |G|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

import numpy as np

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
    """Abold x mod r, row by row; a row with r_i = 1 is 0 without a product."""
    return [sum(map(mul, row, x)) % r_i if r_i > 1 else 0 for row, r_i in zip(Abold.data, r)]


def _kernel_generators(fact: SNFResult, r_max: int, A: IntMatrix, r: Sequence[int]):
    """Core of the generator-finding algorithm: cyclic generators of
    {x in Z_{r_max}^d : A x = 0 (mod R Z^m)}, read off fact, the SNF of
    the preconditioned matrix diag(r_max / r_i) A: column i of Vinv
    times r_max / g_i, of order g_i = gcd(r_max, t_i).

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
            gens.append(tuple(z * v % r_max for v in fact.Vinv_t.data[i]))
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
    verified by substitution, over the rows with r_i > 1, before
    returning.
    """
    m, d, r_max = grd.m, grd.d, grd.r_max
    if d == 0 and any(grd.bbold[i] % grd.r[i] for i in range(m)):
        raise Infeasible("no columns left but the right-hand side is nonzero")
    x_hat, gens, orders, korder = (0,) * d, [], [], 1
    if d and r_max > 1:
        scale = [r_max // r_i for r_i in grd.r]
        fact = snf(IntMatrix._of([[s * v for v in row] for s, row in zip(scale, grd.Abold.data)]))
        Bb = [s * v for s, v in zip(scale, grd.bbold)]
        bprime = [v % r_max for v in fact.Uinv.matvec(Bb)]
        ts = list(fact.D) + [0] * (m - len(fact.D))
        y = []  # (i, y_i) for the nonzero y_i, i < min(m, d)
        for i in range(m):
            yi, _ = solve_mod(ts[i], bprime[i], r_max)  # raises Infeasible
            if i < d and yi:
                y.append((i, yi))
        x_hat = [0] * d
        for i, yi in y:
            x_hat = [x + yi * v for x, v in zip(x_hat, fact.Vinv_t.data[i])]
        x_hat = tuple(x % r_max for x in x_hat)
        residual = _group_residual(grd.Abold, grd.r, x_hat)
        if residual != [grd.bbold[i] % grd.r[i] for i in range(m)]:
            raise CertificateError("feasible-point substitution check failed")
        gens, orders, korder = _kernel_generators(fact, r_max, grd.Abold, grd.r)
    basis = KernelBasis(generators=tuple(gens), orders=tuple(orders), moduli=(r_max,) * d,
                        kernel_order=korder, range_order=r_max**d // korder)
    return FeasibleCoset(x_hat=x_hat, basis=basis)


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


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
        for p, _ in _prime_powers(s):  # every prime quotient of s must fail
            if not any(((s // p) * v) % grd.r[i] for i, v in enumerate(col)):
                raise CertificateError(
                    f"column {j} order {s} is not minimal: {s // p} suffices")
        out.append(s)
    return out


def _check_order_bookkeeping(s: Sequence[int], korder: int, range_order: int) -> None:
    if prod(s) != korder * range_order:
        raise CertificateError(
            f"compressed order bookkeeping broke: prod(s) = {prod(s)} != "
            f"|K'| * |G| = {korder} * {range_order}")


def _check_congruence(grd: GroupRelaxationData, G: np.ndarray) -> None:
    """Abold g = 0 (mod R Z^m) for every row g of G, all rows at once."""
    for i, r_i in enumerate(grd.r):
        if r_i > 1:
            a = np.array([v % r_i for v in grd.Abold.data[i]], dtype=G.dtype)
            bad = np.flatnonzero((G * a % r_i).sum(axis=1) % r_i)
            if len(bad):
                raise CertificateError(
                    f"compressed generator {tuple(G[bad[0]].tolist())} fails the congruence")


def _eliminate(H: np.ndarray, p: int, e: int) -> tuple[np.ndarray, list[int]]:
    """Independent cyclic generators of the row span of H over Z/p^e.

    Row elimination with a pivot of minimal p-valuation a, in the
    rightmost column that holds one: it divides every remaining entry,
    so each other row clears the pivot column by subtracting an exact
    multiple of the pivot row, which is scaled to make the pivot p^a.
    Earlier pivot rows are reduced in that column modulo p^a. Pivot
    columns are distinct and each pivot row is zero in the earlier
    pivot columns, so the span is the direct sum of the cyclic groups of
    the pivot rows, of orders p^(e-a). A column without entries of
    valuation a never gains one at that level, so the search sweeps the
    columns once per level; cleared rows stay in place as zeros.
    Returns (rows, orders) with the orders descending.
    """
    q = p**e
    R = H % q
    P = np.zeros((min(H.shape), H.shape[1]), dtype=H.dtype)
    orders: list[int] = []
    pa = 1
    for _ in range(e):  # pivots of valuation a = 0, 1, ..., e-1
        c = H.shape[1] - 1
        while c >= 0:
            hits = np.flatnonzero(R[:, c] % (pa * p))
            if not len(hits):
                c -= 1
                continue
            t = int(hits[0])
            row = R[t] * pow(int(R[t, c]) // pa, -1, q) % q  # row[c] == pa
            idx = np.flatnonzero(R[:, c])  # includes t, which becomes zero
            R[idx] = (R[idx] - (R[idx, c] // pa)[:, None] * row) % q
            n = len(orders)
            idx = np.flatnonzero(P[:n, c] >= pa)
            P[idx] = (P[idx] - (P[idx, c] // pa)[:, None] * row) % q
            P[n] = row
            orders.append(q // pa)
        pa *= p
    return P[:len(orders)], orders


def compress_kernel(grd: GroupRelaxationData, kb: KernelBasis) -> KernelBasis:
    """Cyclic generators of K' = image of K in the compressed ambient
    group  ⊕_j Z_{s_j}  (coordinatewise reduction mod the column orders).

    x -> ((r_max / s_j) x_j)_j embeds ⊕_j Z_{s_j} in Z_{r_max}^d, so K'
    is the row span of the k x d matrix of the generators of K reduced
    mod s and scaled so. For each prime power p^e exactly dividing r_max
    the row span is reduced over Z/p^e (``_eliminate``); the i-th
    largest generators of the p-parts are summed with CRT weights into
    one generator whose order is the product of theirs, and coordinate j
    is divided back by r_max / s_j. The generators are listed with
    their orders ascending, each dividing the next (invariant factors).

    The arithmetic is int64 numpy while r_max < 2^31, so that a product
    of two residues stays below 2^62, and the same code runs on Python
    ints in object dtype above that. Certificates, each raising
    ``CertificateError``: the column orders are minimal; every generator
    satisfies Abold g = 0 (mod R Z^m), checked for all generators at
    once; ``element_order`` of each generator equals its stated order;
    and prod(s) = |K'| |G|, which with the congruence shows that K' is
    the whole kernel of Abold on ⊕_j Z_{s_j}.
    """
    s = column_orders(grd)
    range_order = kb.range_order
    if kb.kernel_order == 1 or not kb.generators:
        _check_order_bookkeeping(s, 1, range_order)
        return KernelBasis((), (), tuple(s), 1, range_order)

    r_max = grd.r_max
    dtype = np.int64 if r_max < 2**31 else object
    scale = np.array([r_max // sj for sj in s], dtype=dtype)
    H = np.array(kb.generators, dtype=dtype) % r_max * scale % r_max
    parts = []
    for p, e in _prime_powers(r_max):
        q = p**e
        crt = (r_max // q) * pow(r_max // q, -1, q)  # 1 mod q, 0 mod r_max / q
        rows, orders = _eliminate(H, p, e)
        parts.append((rows * crt % r_max, orders))
    n = max(len(orders) for _, orders in parts)
    G = np.zeros((n, len(s)), dtype=dtype)
    orders = [1] * n
    for rows, p_orders in parts:
        G[:len(rows)] += rows
        orders[:len(p_orders)] = [o * po for o, po in zip(orders, p_orders)]
    G = (G % r_max)[::-1] // scale
    orders.reverse()
    _check_congruence(grd, G)
    gens = [tuple(g) for g in G.tolist()]
    for g, o in zip(gens, orders):
        if element_order(g, s) != o:
            raise CertificateError(f"compressed generator {g} does not have order {o}")
    korder = prod(orders)
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


def coset_array(fc: FeasibleCoset, cap: int) -> np.ndarray:
    """Every coset point, reduced, as a (|K|, d) array in
    enumerate_coset's order: point i has the mixed-radix digits of i
    over kb.orders as coefficients, the last generator's digit running
    fastest. The dtype is the narrowest signed int that holds a sum of
    two residues, Python ints past int64."""
    kb = fc.basis
    if kb.kernel_order > cap:
        raise CapExceeded(f"|K| = {kb.kernel_order} exceeds cap {cap}")
    mods = kb.moduli
    top = 2 * max(mods, default=0)
    dtype = next((t for t in (np.int8, np.int16, np.int32, np.int64)
                  if top <= np.iinfo(t).max), object)
    m = np.array(mods, dtype=dtype)
    X = np.array([[x % mc for x, mc in zip(fc.x_hat, mods)]], dtype=dtype)
    for h, u in zip(reversed(kb.generators), reversed(kb.orders)):
        M = np.array([[a * g % mc for g, mc in zip(h, mods)] for a in range(u)], dtype=dtype)
        X = ((M[:, None, :] + X[None, :, :]) % m).reshape(u * len(X), len(mods))
    return X


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
