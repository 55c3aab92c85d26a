"""Two references that ``kernel.compress_kernel`` is tested against, both
working from the generators of K rather than from the congruence rows.

``two_snf_compress_kernel`` works in the coefficient space of the
generators of K: the coefficient vectors n with D n = 0 (mod S Z^d) come
from the scaled system diag(r_max / s_j) D n = 0 (mod r_max Z^d), and the
quotient K / ker is read off one more SNF. Python ints throughout.

``eliminate_compress_kernel`` row-reduces the dense k x d matrix of the
generators of K, reduced mod the column orders, over Z/p^e for each
prime power of r_max (``_eliminate``).

``span`` enumerates the subgroup a basis generates.
"""

from math import prod

import numpy as np

from grouprelax.exact import IntMatrix, int_dtype, snf
from grouprelax.kernel import (KernelBasis, _kernel_generators, _prime_powers, column_orders,
                               element_order)


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
