"""The SNF references that ``kernel.feasible_coset``, uncompressed and
compressed, is tested against, working from a Smith
normal form or from the generators of K rather than from the
per-prime-power elimination of the congruence rows.

``snf_feasible_coset`` factors diag(r_max / r_i) Abold once over Python
ints and reads x_hat (``solve_mod`` per SNF row) and the cyclic
generators of K (``_kernel_generators``) off it.

``two_snf_compress_kernel`` works in the coefficient space of the
generators of K: the coefficient vectors n with D n = 0 (mod S Z^d) come
from the scaled system diag(r_max / s_j) D n = 0 (mod r_max Z^d), and the
quotient K / ker is read off one more SNF. Python ints throughout.

``eliminate_compress_kernel`` row-reduces the dense k x d matrix of the
generators of K, reduced mod the column orders, over Z/p^e for each
prime power of r_max (``_eliminate``).

``two_call_compressed_coset`` builds the compressed coset in two calls
of the elimination: the coset of Z_{r_max}^d, then K' with the column
orders as moduli and a zero right-hand side, and x_hat reduced mod them.

``span`` enumerates the subgroup a basis generates.

``corrupted_elimination`` breaks ``_eliminate``'s output one way, so
that the certificate tests can see each certificate fire.
"""

from math import gcd, lcm, prod

import numpy as np

from grouprelax.errors import CertificateError, Infeasible
from grouprelax.exact import IntMatrix, ext_gcd, int_dtype, snf
from grouprelax.kernel import (FeasibleCoset, KernelBasis, _coset, _Gens, _group_residual,
                               _prime_powers, column_orders, feasible_coset)


def element_order(v, moduli):
    """Order of v in the direct sum of Z_{moduli}, entry by entry."""
    o = 1
    for vi, mi in zip(v, moduli):
        if vi % mi:
            o = lcm(o, mi // gcd(mi, vi % mi))
    return o


def corrupted_elimination(eliminate, how):
    """eliminate with its result broken: "shift" adds 1 at the first
    generator's own column, "order" multiplies every order by p, "drop"
    drops the first generator, "repeat" puts the first generator in
    place of the second (of the same order) and "x" adds 1 at the
    solution's column 0."""

    def corrupted(B, p, e, sp):
        (xc, xv), g = eliminate(B, p, e, sp)
        first = g.gen == 0
        if how == "shift":
            g = g._replace(val=g.val + (first & (g.col == g.own[0])))
        elif how == "order":
            g = g._replace(order=g.order * p)
        elif how == "drop":
            g = _Gens(g.own[1:], g.order[1:], g.gen[~first] - 1, g.col[~first], g.val[~first])
        elif how == "repeat":
            assert g.order[1] == g.order[0]
            keep = g.gen != 1
            g = _Gens(np.concatenate([g.own[:1], g.own[:1], g.own[2:]]), g.order,
                      np.concatenate([g.gen[keep], g.gen[first] + 1]),
                      np.concatenate([g.col[keep], g.col[first]]),
                      np.concatenate([g.val[keep], g.val[first]]))
        else:
            xc, xv = np.append(xc, 0), np.append(xv, 1)
        return (xc, xv), g

    return corrupted


def solve_mod(t, b, r):
    """Solve t*y = b (mod r) for r >= 1.

    Returns (particular, count) where particular is the smallest
    nonnegative solution and count = gcd(r, t) is the number of
    solutions in [0, r); all solutions are particular + multiples of
    r // count. Raises Infeasible when gcd(r, t) does not divide b.
    """
    if r < 1:
        raise ValueError("modulus must be >= 1")
    g, x, _ = ext_gcd(t, r)
    if b % g != 0:
        raise Infeasible(f"{t}*y = {b} (mod {r}): gcd {g} does not divide {b}")
    step = r // g
    return (x * (b // g)) % step, g


def _kernel_generators(fact, r_max, A, r):
    """Cyclic generators of {x in Z_{r_max}^d : A x = 0 (mod R Z^m)},
    read off fact, the SNF of the preconditioned matrix
    diag(r_max / r_i) A: column i of Vinv times r_max / g_i, of order
    g_i = gcd(r_max, t_i), the missing diagonal entries of a d > m SNF
    taken as zeros (free coordinates). Returns (generators, orders,
    kernel_order) with trivial generators dropped; each generator is
    checked against the congruence."""
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


def snf_feasible_coset(grd):
    """x_hat + K in Z_{r_max}^d from one SNF of diag(r_max / r_i) Abold:
    x_hat from a per-row modular solve in SNF coordinates (Infeasible
    when a row has none), K from ``_kernel_generators``, and
    |G| = r_max^d / |K|."""
    m, d, r_max = grd.m, grd.d, grd.r_max
    if d == 0 and any(b % r_i for b, r_i in zip(grd.bbold, grd.r)):
        raise Infeasible("no columns left but the right-hand side is nonzero")
    x_hat, gens, orders, korder = (0,) * d, [], [], 1
    if d and r_max > 1:
        scale = [r_max // r_i for r_i in grd.r]
        fact = snf(IntMatrix([[s * v for v in row] for s, row in zip(scale, grd.Abold.data)]))
        bprime = [v % r_max for v in fact.Uinv.matvec([s * v for s, v in zip(scale, grd.bbold)])]
        ts = list(fact.D) + [0] * (m - len(fact.D))
        x = [0] * d
        for i in range(m):
            yi, _ = solve_mod(ts[i], bprime[i], r_max)
            if i < d and yi:
                x = [a + yi * v for a, v in zip(x, fact.Vinv_t.data[i])]
        x_hat = tuple(a % r_max for a in x)
        rhs = [b % r_i for b, r_i in zip(grd.bbold, grd.r)]
        if _group_residual(grd.Abold, grd.r, x_hat) != rhs:
            raise CertificateError("feasible-point substitution check failed")
        gens, orders, korder = _kernel_generators(fact, r_max, grd.Abold, grd.r)
    basis = KernelBasis(tuple(gens), tuple(orders), (r_max,) * d, korder, r_max**d // korder)
    return FeasibleCoset(x_hat, basis)


def span(kb):
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


def two_snf_compress_kernel(grd, kb):
    s = column_orders(grd)
    d, r_max = grd.d, grd.r_max
    if kb.kernel_order == 1 or not kb.generators:
        return KernelBasis((), (), tuple(s), 1, kb.range_order)

    k = len(kb.generators)
    D = IntMatrix([[kb.generators[i][row] for i in range(k)] for row in range(d)])
    BD = IntMatrix([[(r_max // s[row]) * v for v in D.data[row]] for row in range(d)])
    coeff_gens, _, _ = _kernel_generators(snf(BD), r_max, BD, [r_max] * d)
    # relations of K / ker in coefficient space: the kernel coefficients
    # plus the generator orders u_i e_i
    rel_cols = [list(g) for g in coeff_gens]
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
        w = [row[j] for row in fact.U.data]
        g = tuple(v % s[row] for row, v in enumerate(D.matvec(w)))
        o = element_order(g, s)
        if o > 1:
            gens.append(g)
            orders.append(o)
    return KernelBasis(tuple(gens), tuple(orders), tuple(s), prod(orders), kb.range_order)


def _eliminate(H, p, e):
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
    orders = []
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


def eliminate_compress_kernel(grd, kb):
    """K' as the row span of the k x d matrix of the generators of K,
    reduced mod s and scaled by r_max / s_j into Z_{r_max}^d: for each
    prime power p^e of r_max the span is reduced over Z/p^e, the i-th
    largest generators of the p-parts are summed with CRT weights, and
    coordinate j is divided back by r_max / s_j. Orders ascending."""
    s = column_orders(grd)
    if kb.kernel_order == 1 or not kb.generators:
        return KernelBasis((), (), tuple(s), 1, kb.range_order)
    r_max = grd.r_max
    dtype = int_dtype(r_max * max(r_max, len(s)))
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
    gens = tuple(tuple(g) for g in G.tolist())
    return KernelBasis(gens, tuple(orders), tuple(s), prod(orders), kb.range_order)


def two_call_compressed_coset(grd):
    fc = feasible_coset(grd)
    kb = _coset(grd, column_orders(grd), [0] * grd.m, fc.basis.range_order).basis
    return FeasibleCoset(tuple(v % s for v, s in zip(fc.x_hat, kb.moduli)), kb)
