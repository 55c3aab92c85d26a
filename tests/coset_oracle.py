"""The point-by-point references that ``kernel.coset_array`` and
``search.brute_force_group`` are tested against.

``enumerate_coset`` yields x_hat + sum n_i h_i one point at a time, the
coefficients n in ``itertools.product`` order (the last generator's
fastest), each coordinate reduced mod its modulus.

``brute_force_group`` walks that enumeration with one Fraction cost per
point and keeps every minimizer in enumeration order.
"""

import itertools
from fractions import Fraction

from grouprelax.errors import CapExceeded, Infeasible
from grouprelax.relax import lift_to_ilp
from grouprelax.search import SearchResult


def enumerate_coset(fc, cap):
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


def brute_force_group(fc, f, cap, grd=None):
    """Exhaustive minimum of f over the coset plus the full argmin set K*."""
    best = None
    fbest = None
    argmin = []
    count = 0
    for pt in enumerate_coset(fc, cap):
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
    return SearchResult(best, fbest, count, True, [(0, fbest)], sol, argmin_points=argmin)
