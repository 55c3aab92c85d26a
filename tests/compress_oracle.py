"""The two-SNF compression: the reference that ``kernel.compress_kernel``
is tested against.

It works in the coefficient space of the generators of K: the
coefficient vectors n with D n = 0 (mod S Z^d) come from the scaled
system diag(r_max / s_j) D n = 0 (mod r_max Z^d), and the quotient
K / ker is read off one more SNF. Python ints throughout.
"""

from math import prod

from grouprelax.exact import IntMatrix, snf
from grouprelax.kernel import (KernelBasis, _kernel_generators, column_orders,
                               element_order)


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
        w = fact.U.column(j)
        g = tuple(v % s[row] for row, v in enumerate(D.matvec(w)))
        o = element_order(g, s)
        if o > 1:
            gens.append(g)
            orders.append(o)
    return KernelBasis(tuple(gens), tuple(orders), tuple(s), prod(orders), kb.range_order)
