"""Feasible coset x_hat + K of the null-space formulation.

Provides the feasible-point solve, cyclic kernel generators, per-column
orders, ambient-space compression, and coset enumeration (the brute
force oracle used throughout the tests).

``feasible_coset`` reads x_hat and the generators of K off one Smith
normal form over Python ints. ``compress_kernel`` runs no SNF and reads
no generator of K: it row-reduces the m' nontrivial congruence rows over
Z/p^e for each prime power of r_max in numpy, and certifies the result
by substitution, element orders, independence and the order count
prod(s) = |K'| |G|.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, CertificateError, Infeasible
from .exact import IntMatrix, SNFResult, ext_gcd, int_dtype, snf, solve_mod
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


def range_order(grd: GroupRelaxationData) -> int:
    """|G|, the order of the subgroup of ⊕Z_{r_i} that the columns of
    Abold generate: prod(r_i) / det L, where L is the lattice spanned by
    the distinct column residues and the r_i e_i, over the rows with
    r_i > 1. No element of G is enumerated.

    L is triangularized row by row with unimodular column operations: the
    row's pivot starts as r_i e_i and takes the gcd of the row's entries,
    the other vectors are cleared there, and det L is the product of the
    pivots. L holds r_max e_k for every row k, so every entry is reduced
    mod r_max."""
    rows = _nontrivial_rows(grd)
    r_max = grd.r_max
    vecs = [col for col in set(zip(*(row for row, _ in rows))) if any(col)]
    det = 1
    for i, (_, r_i) in enumerate(rows):
        p = [r_i if k == i else 0 for k in range(len(rows))]
        rest = []
        for v in vecs:
            if v[i] % p[i]:
                g, s, t = ext_gcd(p[i], v[i])
                a, b = v[i] // g, p[i] // g
                p, v = ([(s * x + t * y) % r_max for x, y in zip(p, v)],
                        [(a * x - b * y) % r_max for x, y in zip(p, v)])
            elif v[i]:
                q = v[i] // p[i]
                v = [(y - q * x) % r_max for x, y in zip(p, v)]
            if any(v):
                rest.append(v)
        det *= p[i]
        vecs = rest
    order, rem = divmod(prod(r_i for _, r_i in rows), det)
    if rem:
        raise CertificateError(f"det L = {det} does not divide prod(r_i)")
    return order


def feasible_coset(grd: GroupRelaxationData) -> FeasibleCoset:
    """Feasible coset x_hat + K of Abold x = bbold (mod R Z^m) in
    Z_{r_max}^d, with |K| and |G| (``range_order``).

    Preconditioning with diag(r_max / r_j) turns every row into a
    congruence mod r_max; one SNF of that matrix gives both the
    particular solution (a per-row modular solve in SNF coordinates) and
    the cyclic generators of K with orders gcd(r_max, t_i). Both are
    verified by substitution, over the rows with r_i > 1, before
    returning, and |K| by the count r_max^d = |K| |G| against the
    lattice's |G|.
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
    g_order = range_order(grd)
    if korder * g_order != r_max**d:
        raise CertificateError(f"|K| = {korder} and |G| = {g_order} do not multiply to "
                               f"r_max^d = {r_max}^{d}")
    basis = KernelBasis(generators=tuple(gens), orders=tuple(orders), moduli=(r_max,) * d,
                        kernel_order=korder, range_order=g_order)
    return FeasibleCoset(x_hat=x_hat, basis=basis)


# Trial division runs to _TRIAL_BOUND; a cofactor below its square is
# prime. Miller–Rabin with the first 13 prime bases decides primality
# below _MR_LIMIT (Sorenson and Webster, 2015), and Pollard's rho splits
# composites within _RHO_STEPS squarings.
_TRIAL_BOUND = 1000
_SMALL_PRIMES = [n for n in range(2, _TRIAL_BOUND) if all(n % f for f in range(2, isqrt(n) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 18


def _miller_rabin(n: int) -> bool:
    """n passes the strong-pseudoprime test to every base in _MR_BASES;
    for odd n < _MR_LIMIT that proves n prime."""
    d, k = n - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the composite n: Pollard's rho with Brent's
    cycle search and batched gcds. CapExceeded past _RHO_STEPS squarings."""
    steps = 0
    for c in range(1, 64):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += 128
            steps += 2 * r
            r *= 2
            if steps > _RHO_STEPS and g == 1:
                raise CapExceeded(f"could not factor {n} within {_RHO_STEPS} rho steps")
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise CapExceeded(f"could not factor {n}")


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p
    ascending. Trial division, then Miller–Rabin and Pollard's rho on the
    cofactor; CapExceeded for a factor whose primality they cannot prove
    or that rho cannot split."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
    big: list[int] = []
    stack = [n] if n > 1 else []
    while stack:
        f = stack.pop()
        if f < _TRIAL_BOUND**2 or (f < _MR_LIMIT and _miller_rabin(f)):
            big.append(f)
        elif f >= _MR_LIMIT and _miller_rabin(f):
            raise CapExceeded(f"cannot prove {f} prime: past {_MR_LIMIT}")
        else:
            g = _rho(f)
            stack += [g, f // g]
    out += [(p, big.count(p)) for p in sorted(set(big))]
    return out


def _nontrivial_rows(grd: GroupRelaxationData) -> list[tuple[list[int], int]]:
    return [(row, r_i) for row, r_i in zip(grd.Abold.data, grd.r) if r_i > 1]


def column_orders(grd: GroupRelaxationData) -> list[int]:
    """Order s_j of each column of Abold in Z^m / R Z^m:
    s_j = lcm_i(r_i / gcd(r_i, A_ij)), a divisor of r_max. Minimality is
    verified against each prime of r_max, factored once."""
    rows = _nontrivial_rows(grd)
    mods = [r_i for _, r_i in rows]
    primes = [p for p, _ in _prime_powers(grd.r_max)]
    out = []
    for j, col in enumerate(zip(*(row for row, _ in rows)) if rows else [()] * grd.d):
        s = element_order(col, mods)
        if any((s * v) % r_i for v, r_i in zip(col, mods)):
            raise CertificateError(f"column {j} is not annihilated by its order {s}")
        for p in primes:  # every prime quotient of s must fail
            if s % p == 0 and not any(((s // p) * v) % r_i for v, r_i in zip(col, mods)):
                raise CertificateError(
                    f"column {j} order {s} is not minimal: {s // p} suffices")
        out.append(s)
    return out


def _check_order_bookkeeping(s: Sequence[int], korder: int, range_order: int) -> None:
    if prod(s) != korder * range_order:
        raise CertificateError(
            f"compressed order bookkeeping broke: prod(s) = {prod(s)} != "
            f"|K'| * |G| = {korder} * {range_order}")


Sparse = dict[int, int]  # column -> nonzero value


def _axpy(x: Sparse, a: int, y: Sparse, q: int) -> Sparse:
    """x + a y, entries mod q."""
    out = dict(x)
    for c, v in y.items():
        out[c] = (out.get(c, 0) + a * v) % q
    return out


def _dense(g: Sparse, d: int) -> tuple[int, ...]:
    x = [0] * d
    for c, v in g.items():
        x[c] = v
    return tuple(x)


def _eliminate(B: np.ndarray, p: int, e: int, sp: Sequence[int]) -> list[tuple[int, Sparse, int]]:
    """Independent generators of {x in ⊕_j Z_{sp_j} : B x = 0 (mod p^e)},
    where B, m_p x d, holds the rows with p | r_i, each scaled to modulus
    p^e, and sp_j is the p-part of the column order s_j.

    The rows are reduced with a pivot of minimal p-valuation a, in the
    leftmost column c that holds one; the pivot row is scaled to make the
    pivot p^a, and every other row clears that column (earlier pivot rows
    modulo p^a). Pivot row k then reads x_{c_k} + w_k·x = 0 (mod
    p^(e-a_k)), with w_k zero on the earlier pivot columns. Each other
    column j with sp_j > 1 gives g_j = e_j plus the pivot coordinates
    solved back from the last row. A pivot whose column order exceeds
    p^(e-a_k) leaves x_{c_k} free modulo p^(e-a_k): it gives a torsion
    generator, and then ``_split_torsion`` makes the set independent.
    Returns (own column, generator, order) triples, entries reduced mod sp.
    """
    q = p**e
    R = B % q
    found = []  # (row, column, a) of each pivot, in the order found
    rest = list(range(R.shape[0]))
    pa = 1
    for a in range(e):
        while rest:
            hit = R[rest] % (pa * p) != 0
            cols = np.flatnonzero(hit.any(axis=0))
            if not len(cols):
                break
            c = int(cols[0])
            t = rest.pop(int(np.flatnonzero(hit[:, c])[0]))
            row = R[t] * pow(int(R[t, c]) // pa, -1, q) % q  # row[c] == pa
            idx = np.flatnonzero(R[:, c])  # includes t, which becomes zero
            R[idx] = (R[idx] - (R[idx, c] // pa)[:, None] * row) % q
            R[t] = row
            found.append((t, c, a))
        pa *= p
    piv = [c for _, c, _ in found]
    mods = [q // p**a for _, _, a in found]  # x_{c_k} is fixed modulo p^(e-a_k)
    W = [R[t] // p**a for t, _, a in found]
    is_piv = np.zeros(R.shape[1], dtype=bool)
    is_piv[piv] = True
    J = np.flatnonzero(~is_piv & (np.array(sp) > 1))
    X: list = [None] * len(piv)  # pivot coordinates of every g_j
    for k in reversed(range(len(piv))):
        acc = W[k][J] % mods[k]
        for l in range(k + 1, len(piv)):
            acc = (acc + int(W[k][piv[l]]) * X[l] % mods[k]) % mods[k]
        X[k] = -acc % mods[k]
    J = J.tolist()
    Xl = [x.tolist() for x in X]
    free = []
    for i, j in enumerate(J):
        g = {j: 1}
        for k, c in enumerate(piv):
            if Xl[k][i]:
                g[c] = Xl[k][i]
        free.append((j, g, sp[j]))
    torsion = [k for k, c in enumerate(piv) if sp[c] > mods[k]]
    if not torsion:
        return free
    return _split_torsion(p, e, sp, free, Xl, piv, mods, [w.tolist() for w in W], torsion)


def _split_torsion(p, e, sp, free, Xl, piv, mods, W, torsion) -> list[tuple[int, Sparse, int]]:
    """Independent generators of the p-part of K' when some pivots leave
    torsion, by a Smith reduction of the presentation of K' on the
    generators b_j = g_j and t_k (the torsion generators), in the local
    ring Z/p^e.

    K' / <t_k> is ⊕_j Z_{sp_j}, so sp_j g_j is a combination of the t_k,
    and p^(ex_k) t_k one of the earlier t's: these are the relations. A
    relation column holds sp_j at b_j and its t-coefficients in the few
    dense rows of the t's. Reducing a dense entry mod sp_j moves a
    multiple of t into b_j; a b_j whose column is then clear is final,
    of order sp_j. Otherwise the entry of least valuation p^v is the
    pivot: its row and column are cleared, its generator is final of
    order p^v, and if the column was b_j's relation, b_j turns into a
    dense row.
    """
    q = p**e
    nJ, K = len(free), len(piv)

    def tau(k: int) -> dict[int, int]:
        """t_k by pivot index: x_{c_k} = p^(e-a_k), back-solved below."""
        t = {k: mods[k]}
        for l in reversed(range(k)):
            v = -sum(W[l][piv[i]] * x for i, x in t.items()) % mods[l]
            if v:
                t[l] = v
        return t

    taus = {k: tau(k) for k in torsion}

    def express(z: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Coefficients on the t_k of the kernel elements with pivot
        coordinates z (zero on the free columns), one per entry."""
        coef = {}
        for k in reversed(range(K)):
            zk = z[k] % sp[piv[k]]
            if k not in taus:
                if zk.any():
                    raise CertificateError("a torsion-free pivot coordinate is not determined")
                continue
            if (zk % mods[k]).any():
                raise CertificateError("a pivot coordinate breaks its congruence")
            coef[k] = zk // mods[k]
            for l, v in taus[k].items():
                z[l] = (z[l] - coef[k] * v) % sp[piv[l]]
        return coef

    spJ = np.array([o for _, _, o in free], dtype=object)
    rho = express([spJ * np.array(x, dtype=object) for x in Xl])
    sigma = express([np.array([sp[piv[l]] // mods[l] * taus[l].get(k, 0) for l in torsion],
                              dtype=object) for k in range(K)])
    dense = []  # [generator, relation row over the nJ + len(torsion) columns]
    for i, k in enumerate(torsion):
        row = np.concatenate([-rho[k], -sigma[k]]) % q
        row[nJ + i] = (row[nJ + i] + sp[piv[k]] // mods[k]) % q
        dense.append([{piv[l]: v for l, v in taus[k].items()}, row])
    b = [g for _, g, _ in free]
    active = np.ones(nJ + len(torsion), dtype=bool)
    out = []
    while True:
        for vec, row in dense:
            qj = np.zeros(nJ, dtype=object)
            qj[active[:nJ]] = row[:nJ][active[:nJ]] // spJ[active[:nJ]]
            row[:nJ] -= qj * spJ
            for i in np.flatnonzero(qj):
                b[i] = _axpy(b[i], qj[i], vec, q)
        busy = np.zeros(len(active), dtype=bool)
        for _, row in dense:
            busy |= row != 0
        for i in np.flatnonzero(active[:nJ] & ~busy[:nJ]):
            out.append((free[i][0], b[i], free[i][2]))
            active[i] = False
        out += [(-1, vec, q) for vec, row in dense if not row.any()]
        dense = [d for d in dense if d[1].any()]
        if not dense:
            return [(own if own >= 0 else max(vec), {c: v % sp[c] for c, v in vec.items()
                                                     if v % sp[c]}, o)
                    for own, vec, o in out if o > 1]
        best = None  # (v, dense index, column) of an entry of least valuation
        for n_, (_, row) in enumerate(dense):
            pv = 1
            for v in range(e):
                hits = np.flatnonzero(active & (row % (pv * p) != 0))
                if len(hits):
                    if best is None or v < best[0]:
                        best = (v, n_, int(hits[0]))
                    break
                pv *= p
        v, n_, col = best
        pv = p**v
        vec, row = dense.pop(n_)
        inv = pow(int(row[col]) // pv, -1, q)
        f = row // pv * inv % q  # f[col] == 1
        for other in dense:
            a = other[1][col]
            if a:
                vec = _axpy(vec, a // pv * inv % q, other[0], q)
                other[1] = (other[1] - a * f) % q
        if col < nJ:  # b_col's relation: b_col turns dense
            vec = _axpy(vec, spJ[col] // pv * inv % q, b[col], q)
            new = (-spJ[col] * f) % q
            new[col] = 0
            dense.append([b[col], new])
        active[col] = False
        if v:
            out.append((-1, vec, pv))


def _check_independent(gens: Sequence[tuple[Sparse, int]], s: Sequence[int],
                       primes: Sequence[int]) -> None:
    """Generators g_i of orders o_i are independent iff, for each prime
    p, the elements (o_i / p) g_i of order p (over the o_i that p
    divides) are linearly independent over F_p. An element with a column
    that no other one touches takes no part in a relation, so those are
    set aside (every g_j of a non-pivot column j); the rest are
    row-reduced mod p. Raises CertificateError on a dependence."""
    for p in primes:
        socle = []
        for g, o in gens:
            if o % p == 0:
                h = {c: w for c, v in g.items() if (w := (o // p) * v % s[c])}
                socle.append({c: w // (s[c] // p) for c, w in h.items()})
        users = Counter(c for h in socle for c in h)
        basis: list[tuple[int, Sparse]] = []  # (pivot column, row with pivot 1)
        for h in socle:
            if any(users[c] == 1 for c in h):
                continue
            for c, row in basis:
                if h.get(c):
                    h = {k: v for k, v in _axpy(h, -h[c], row, p).items() if v}
            if not h:
                raise CertificateError(f"compressed generators are not independent mod {p}")
            c = min(h)
            inv = pow(h[c], -1, p)
            basis.append((c, {k: v * inv % p for k, v in h.items()}))


def compress_kernel(grd: GroupRelaxationData, kb: KernelBasis) -> KernelBasis:
    """Cyclic generators of K' = image of K in the compressed ambient
    group  ⊕_j Z_{s_j}  (coordinatewise reduction mod the column orders),
    which is the kernel of Abold on ⊕_j Z_{s_j}. Only kb.range_order = |G|
    is read; the generators of K are not.

    For each prime power p^e exactly dividing r_max, the rows with
    p | r_i, scaled to modulus p^e, are reduced over Z/p^e with x_j in
    the p-part of Z_{s_j} (``_eliminate``): every column that is not a
    pivot gives a generator e_j minus pivot coordinates, every pivot of
    excess valuation a torsion generator. Each p-part generator is scaled
    by a unit, as if its own column were embedded in Z_{r_max} by
    x -> (r_max / s_j) x; the i-th largest generators of the p-parts are
    summed with CRT weights into one generator whose order is the
    product of theirs. The generators are listed with their orders
    ascending, each dividing the next (invariant factors). Nothing forms
    a k x d array; the elimination works on the m' x d nontrivial rows
    in ``int_dtype``, where no value exceeds a product of two residues,
    r_max^2.

    Certificates, each raising ``CertificateError``, all on the sparse
    generators before the dense tuples are built: the column orders are
    minimal; every generator satisfies Abold g = 0 (mod R Z^m);
    ``element_order`` of each generator equals its stated order; the
    generators are independent (``_check_independent``); and
    prod(s) = |K'| |G|. With independence the span has order
    prod(orders) = |K'|, and with the congruence it lies in the kernel,
    whose order is prod(s) / |G|: so K' is the whole kernel.
    """
    s = column_orders(grd)
    r_max, d = grd.r_max, grd.d
    dtype = int_dtype(r_max * r_max)
    rows = _nontrivial_rows(grd)
    pes = _prime_powers(r_max)
    parts = []
    for p, e in pes:
        q = p**e
        B = [[v % pf * (q // pf) for v in row]
             for row, pf in ((row, gcd(r_i, q)) for row, r_i in rows) if pf > 1]
        sp = [gcd(sj, q) for sj in s]
        gens = sorted(_eliminate(np.array(B, dtype=dtype), p, e, sp),
                      key=lambda g: (-g[2], -g[0]))
        parts.append((q, sp, gens))
    n = max((len(gens) for *_, gens in parts), default=0)
    sums: list[Sparse] = [{} for _ in range(n)]
    orders = [1] * n
    for q, sp, gens in parts:
        crt = (r_max // q) * pow(r_max // q, -1, q)  # 1 mod q, 0 mod r_max / q
        for acc, i, (own, g, o) in zip(sums, range(n), gens):
            lam = pow(r_max // s[own] // (q // sp[own]), -1, q)
            for c, v in g.items():
                acc[c] = (acc.get(c, 0) + crt * ((r_max // s[c]) * lam * v % q)) % r_max
            orders[i] *= o
    gens = [({c: y // (r_max // s[c]) for c, y in acc.items() if y}, o)
            for acc, o in zip(reversed(sums), reversed(orders))]
    for g, o in gens:
        if any(sum(row[c] * v for c, v in g.items()) % r_i for row, r_i in rows):
            raise CertificateError(f"compressed generator {_dense(g, d)} fails the congruence")
        if element_order(g.values(), [s[c] for c in g]) != o:
            raise CertificateError(f"compressed generator {_dense(g, d)} does not have order {o}")
    _check_independent(gens, s, [p for p, _ in pes])
    korder = prod(o for _, o in gens)
    _check_order_bookkeeping(s, korder, kb.range_order)
    return KernelBasis(tuple(_dense(g, d) for g, _ in gens), tuple(o for _, o in gens),
                       tuple(s), korder, kb.range_order)


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

