"""Feasible coset x_hat + K of the null-space formulation.

Provides per-column orders, |G| from the residue lattice, the feasible
coset in Z_{r_max}^d or in the compressed group ⊕_j Z_{s_j}, and the
coset's points as one array (``coset_array``), which the brute force and
the diagnostics price.

``feasible_coset`` runs one routine (``_coset``) and no Smith normal
form: it row-reduces the m' nontrivial congruence rows over Z/p^e for
each prime power of r_max in numpy, the right-hand side as one more
column, with every column modulus r_max for K, or the column orders s_j
for the compressed K'. It reads no generator of K, and certifies its
result by the congruence, element orders, independence, the order count
prod(s) = |K| |G| and substitution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, CertificateError, Infeasible
from .exact import IntMatrix, ext_gcd, int_dtype
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


def _eliminate(B: np.ndarray, p: int, e: int,
               sp: Sequence[int]) -> tuple[Sparse, list[tuple[int, Sparse, int]]]:
    """A solution of B x = b (mod p^e), x in ⊕_j Z_{sp_j}, and
    independent generators of the kernel {x : B x = 0 (mod p^e)}. B,
    m_p x (d + 1), holds the rows with p | r_i, each scaled to modulus
    p^e, with b as its last column; sp_j is the p-part of the column
    order s_j, and 1 for b.

    The rows are reduced with a pivot of minimal p-valuation a, in the
    leftmost column c that holds one; the pivot row is scaled to make the
    pivot p^a, and every other row clears that column (earlier pivot rows
    modulo p^a). A pivot in b's column leaves a row whose coefficients
    p^(a+1) divides against a right-hand side of valuation a:
    ``Infeasible``. Otherwise pivot row k reads
    x_{c_k} + w_k·x = b_k (mod p^(e-a_k)), with w_k zero on the earlier
    pivot columns. The solution has every other coordinate 0 and the
    pivot coordinates solved back from the last row, each its least
    nonnegative residue mod p^(e-a_k). Each other column j with sp_j > 1
    gives g_j = e_j plus the pivot coordinates solved back the same way.
    A pivot whose column order exceeds p^(e-a_k) leaves x_{c_k} free
    modulo p^(e-a_k): it gives a torsion generator, and then
    ``_split_torsion`` makes the set independent. Returns the solution's
    nonzero pivot coordinates and (own column, generator, order) triples,
    entries reduced mod sp.
    """
    q = p**e
    R = B % q
    R[:, -1] = -R[:, -1] % q  # with -b, a kernel vector with x_d = 1 solves B x = b
    n = R.shape[1] - 1
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
            if c == n:
                raise Infeasible(f"Abold x = bbold has no solution mod {p}^{e}: a row's "
                                 f"coefficients are 0 mod {p}^{a + 1} and its right-hand "
                                 f"side is not")
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
    J = np.append(np.flatnonzero(~is_piv & (np.array(sp) > 1)), n)
    X: list = [None] * len(piv)  # pivot coordinates of every g_j and, last, of x
    for k in reversed(range(len(piv))):
        acc = W[k][J] % mods[k]
        for l in range(k + 1, len(piv)):
            if w := int(W[k][piv[l]]):
                acc = (acc + w * X[l] % mods[k]) % mods[k]
        X[k] = -acc % mods[k]
    J = J.tolist()[:-1]
    Xl = [x.tolist() for x in X]
    x = {c: v for c, xk in zip(piv, Xl) if (v := xk.pop())}
    free = []
    for i, j in enumerate(J):
        g = {j: 1}
        for k, c in enumerate(piv):
            if Xl[k][i]:
                g[c] = Xl[k][i]
        free.append((j, g, sp[j]))
    torsion = [k for k, c in enumerate(piv) if sp[c] > mods[k]]
    if not torsion:
        return x, free
    return x, _split_torsion(p, e, sp, free, Xl, piv, mods, [w.tolist() for w in W], torsion)


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
    rows = []  # relation rows over the nJ + len(torsion) columns, one per dense generator
    vecs = []  # the dense generators
    for i, k in enumerate(torsion):
        row = np.concatenate([-rho[k], -sigma[k]]) % q
        row[nJ + i] = (row[nJ + i] + sp[piv[k]] // mods[k]) % q
        rows.append(row)
        vecs.append({piv[l]: v for l, v in taus[k].items()})
    D = np.array(rows, dtype=object).reshape(len(rows), nJ + len(torsion))
    b = [g for _, g, _ in free]
    active = np.ones(D.shape[1], dtype=bool)  # a column that is not active is zero in D
    out = []
    while True:
        Q = D[:, :nJ] // spJ
        D[:, :nJ] -= Q * spJ
        for n_, i in zip(*np.nonzero(Q)):
            b[i] = _axpy(b[i], Q[n_, i], vecs[n_], q)
        nonzero = D != 0
        for i in np.flatnonzero(active[:nJ] & ~nonzero[:, :nJ].any(axis=0)):
            out.append((free[i][0], b[i], free[i][2]))
            active[i] = False
        live = nonzero.any(axis=1)
        out += [(-1, vec, q) for vec, lv in zip(vecs, live) if not lv]
        D, vecs = D[live], [vec for vec, lv in zip(vecs, live) if lv]
        if not vecs:
            return [(own if own >= 0 else max(vec), {c: v % sp[c] for c, v in vec.items()
                                                     if v % sp[c]}, o)
                    for own, vec, o in out if o > 1]
        pv = 1  # p^v for the least valuation v of an entry; its first row, then column
        while not (hits := active & (D % (pv * p) != 0)).any():
            pv *= p
        n_ = int(np.flatnonzero(hits.any(axis=1))[0])
        col = int(np.flatnonzero(hits[n_])[0])
        row, vec = D[n_], vecs.pop(n_)
        D = np.delete(D, n_, axis=0)
        inv = pow(int(row[col]) // pv, -1, q)
        f = row // pv * inv % q  # f[col] == 1
        a = D[:, col]
        for n_ in np.flatnonzero(a):
            vec = _axpy(vec, a[n_] // pv * inv % q, vecs[n_], q)
        D = (D - np.outer(a, f)) % q
        if col < nJ:  # b_col's relation: b_col turns dense
            vec = _axpy(vec, spJ[col] // pv * inv % q, b[col], q)
            new = (-spJ[col] * f) % q
            new[col] = 0
            D = np.vstack([D, new[None, :]])
            vecs.append(b[col])
        active[col] = False
        if pv > 1:
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
                raise CertificateError(f"kernel generators are not independent mod {p}")
            c = min(h)
            inv = pow(h[c], -1, p)
            basis.append((c, {k: v * inv % p for k, v in h.items()}))


def _coset(grd: GroupRelaxationData, s: Sequence[int], b: Sequence[int],
           g_order: int) -> FeasibleCoset:
    """x + K, where x solves Abold x = b (mod R Z^m) and K is the kernel
    of Abold, both in the ambient group ⊕_j Z_{s_j}; s_j must annihilate
    column j. g_order is |G|.

    For each prime power p^e exactly dividing r_max, the rows with
    p | r_i, scaled to modulus p^e, are reduced over Z/p^e with x_j in
    the p-part of Z_{s_j} and b as one more column (``_eliminate``):
    every column that is not a pivot gives a generator e_j minus pivot
    coordinates, every pivot of excess valuation a torsion generator, and
    b's column the p-part of x. Each p-part generator is scaled by a
    unit, as if its own column were embedded in Z_{r_max} by
    x -> (r_max / s_j) x; the i-th largest generators of the p-parts are
    summed with CRT weights into one generator whose order is the
    product of theirs, and the p-parts of x the same way, unscaled. The
    generators are listed with their orders ascending, each dividing the
    next (invariant factors). Nothing forms a k x d array; the
    elimination works on the m' x d nontrivial rows in ``int_dtype``,
    where no value exceeds a product of two residues, r_max^2.

    Certificates, each raising ``CertificateError``, all on the sparse
    generators before the dense tuples are built: every generator
    satisfies Abold g = 0 (mod R Z^m); ``element_order`` of each
    generator equals its stated order; the generators are independent
    (``_check_independent``); prod(s) = |K| |G|; and x solves the system
    by substitution. With independence the span has order
    prod(orders) = |K|, and with the congruence it lies in the kernel,
    whose order is prod(s) / |G|: so K is the whole kernel.
    """
    r_max, d = grd.r_max, grd.d
    dtype = int_dtype(r_max * r_max)
    rows = [(row, r_i, b_i) for row, r_i, b_i in zip(grd.Abold.data, grd.r, b) if r_i > 1]
    pes = _prime_powers(r_max)
    parts = []
    for p, e in pes:
        q = p**e
        B = [[v % pf * (q // pf) for v in (*row, b_i)]
             for row, b_i, pf in ((row, b_i, gcd(r_i, q)) for row, r_i, b_i in rows) if pf > 1]
        sp = [gcd(sj, q) for sj in s] + [1]
        xp, gens = _eliminate(np.array(B, dtype=dtype), p, e, sp)
        parts.append((q, sp, xp, sorted(gens, key=lambda g: (-g[2], -g[0]))))
    n = max((len(gens) for *_, gens in parts), default=0)
    sums: list[Sparse] = [{} for _ in range(n)]
    xs: Sparse = {}
    orders = [1] * n
    for q, sp, xp, gens in parts:
        crt = (r_max // q) * pow(r_max // q, -1, q)  # 1 mod q, 0 mod r_max / q
        for acc, i, (own, g, o) in zip(sums, range(n), gens):
            lam = pow(r_max // s[own] // (q // sp[own]), -1, q)
            for c, v in g.items():
                acc[c] = (acc.get(c, 0) + crt * ((r_max // s[c]) * lam * v % q)) % r_max
            orders[i] *= o
        for c, v in xp.items():
            xs[c] = (xs.get(c, 0) + crt * ((r_max // s[c]) * v % q)) % r_max

    def unscale(acc: Sparse) -> Sparse:
        return {c: y // (r_max // s[c]) for c, y in acc.items() if y}

    gens = [(unscale(acc), o) for acc, o in zip(reversed(sums), reversed(orders))]
    for g, o in gens:
        if any(sum(row[c] * v for c, v in g.items()) % r_i for row, r_i, _ in rows):
            raise CertificateError(f"kernel generator {_dense(g, d)} fails the congruence")
        if element_order(g.values(), [s[c] for c in g]) != o:
            raise CertificateError(f"kernel generator {_dense(g, d)} does not have order {o}")
    _check_independent(gens, s, [p for p, _ in pes])
    korder = prod(o for _, o in gens)
    if korder * g_order != prod(s):
        raise CertificateError(f"|K| = {korder} and |G| = {g_order} do not multiply to "
                               f"prod(s) = {prod(s)}: the order bookkeeping broke")
    x_hat = _dense(unscale(xs), d)
    if _group_residual(grd.Abold, grd.r, x_hat) != [b_i % r_i for b_i, r_i in zip(b, grd.r)]:
        raise CertificateError("feasible-point substitution check failed")
    basis = KernelBasis(tuple(_dense(g, d) for g, _ in gens), tuple(o for _, o in gens),
                        tuple(s), korder, g_order)
    return FeasibleCoset(x_hat, basis)


def feasible_coset(grd: GroupRelaxationData, compress: bool = False) -> FeasibleCoset:
    """Feasible coset x_hat + K of Abold x = bbold (mod R Z^m): in
    Z_{r_max}^d, or with compress in the compressed ambient group
    ⊕_j Z_{s_j} of the column orders (``column_orders``), where K' is the
    image of K and x_hat its reduction mod s. One ``_coset`` call, with
    |G| from ``range_order``. Raises Infeasible when no x solves it, and
    CapExceeded when r_max cannot be factored (``_prime_powers``)."""
    s = column_orders(grd) if compress else [grd.r_max] * grd.d
    return _coset(grd, s, grd.bbold, range_order(grd))


def compress_coset(grd: GroupRelaxationData, fc: FeasibleCoset) -> FeasibleCoset:
    """``feasible_coset(grd, compress=True)``, with |G| read off fc; no
    other field of fc is read. Kept for callers that hold the coset of
    Z_{r_max}^d already, such as the benchmark's ``kernel --compress``."""
    return _coset(grd, column_orders(grd), grd.bbold, fc.basis.range_order)


def enumerate_coset(fc: FeasibleCoset, cap: int) -> Iterator[tuple[int, ...]]:
    """The rows of ``coset_array`` as tuples. No library path reads it;
    the benchmark's tracer wraps it by name."""
    return map(tuple, coset_array(fc, cap).tolist())


def coset_array(fc: FeasibleCoset, cap: int) -> np.ndarray:
    """Every coset point, reduced, as a (|K|, d) array: point i has the
    mixed-radix digits of i over kb.orders as coefficients, the last
    generator's digit running fastest. The dtype is the narrowest signed
    int that holds a sum of two residues, Python ints past int64."""
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

