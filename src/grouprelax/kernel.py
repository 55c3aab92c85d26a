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

The work is paid per round and per array, not per pivot or generator.
Each round of a reduction (``_first_hits``) takes every row whose pivot
is the only nonzero of its column at once: such a pivot clears nothing,
so the diagonal relations of an all-torsion coset (2I mod 4, 3I mod 9)
take one round; coupled rows take one pivot a round. A p-part's
generators stay arrays (own column, order, and entries: generator,
column, value); the CRT merge, the unscaling, the congruence (one
product with the nontrivial rows), the element orders, the independence
socle and ``column_orders`` are array operations in ``int_dtype``, and
each dense tuple is built once, from a row of zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from operator import mul
from typing import Iterator, NamedTuple, Sequence

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


def _congruence_rows(grd: GroupRelaxationData, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The rows of Abold with r_i > 1 as an (m', d) array, and their r_i
    as an (m', 1) column."""
    rows = _nontrivial_rows(grd)
    A = np.array([row for row, _ in rows], dtype=dtype).reshape(len(rows), grd.d)
    return A, np.array([r_i for _, r_i in rows], dtype=dtype).reshape(len(rows), 1)


def _entry_orders(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The order of each entry of V in Z_M, M / gcd(M, V mod M). An
    element's order is the lcm of its entries' orders."""
    return M // np.gcd(M, V % M)


def column_orders(grd: GroupRelaxationData,
                  pes: Sequence[tuple[int, int]] | None = None) -> list[int]:
    """Order s_j of each column of Abold in Z^m / R Z^m:
    s_j = lcm_i(r_i / gcd(r_i, A_ij)), a divisor of r_max. Minimality is
    verified against each prime of r_max, from pes, its prime powers
    (``_prime_powers``) when the caller has them, else factored here."""
    A, r = _congruence_rows(grd, int_dtype(grd.r_max**2))
    s = np.lcm.reduce(_entry_orders(A, r), axis=0, initial=1)
    primes = [p for p, _ in (_prime_powers(grd.r_max) if pes is None else pes)]
    unkilled = (s * A % r).any(axis=0)
    # a prime quotient s_j / p that annihilates column j as well
    redundant = [(s % p == 0) & ~((s // p) * A % r).any(axis=0) for p in primes]
    bad = np.logical_or.reduce([unkilled, *redundant])
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        if unkilled[j]:
            raise CertificateError(f"column {j} is not annihilated by its order {s[j]}")
        p = next(p for p, red in zip(primes, redundant) if red[j])
        raise CertificateError(f"column {j} order {s[j]} is not minimal: {s[j] // p} suffices")
    return s.tolist()


def _dense(cols: Sequence[int], vals: Sequence[int], d: int) -> tuple[int, ...]:
    x = [0] * d
    for c, v in zip(cols, vals):
        x[c] = v
    return tuple(x)


class _Gens(NamedTuple):
    """Kernel generators as entries: entry i holds val[i] at column col[i]
    of generator gen[i]; generator g has own column own[g] and order
    order[g]."""

    own: np.ndarray
    order: np.ndarray
    gen: np.ndarray
    col: np.ndarray
    val: np.ndarray


def _block_gens(J: np.ndarray, order: np.ndarray, piv: np.ndarray, X: np.ndarray) -> _Gens:
    """The generators e_{J_i} + sum_k X_ki e_{piv_k} of the given orders."""
    k, i = np.nonzero(X)
    return _Gens(J, order, np.concatenate([np.arange(len(J)), i]), np.concatenate([J, piv[k]]),
                 np.concatenate([np.ones(len(J), dtype=X.dtype), X[k, i]]))


Sparse = dict[int, int]  # column -> nonzero value


def _axpy(x: Sparse, a: int, y: Sparse, q: int) -> Sparse:
    """x + a y, entries mod q."""
    out = dict(x)
    for c, v in y.items():
        out[c] = (out.get(c, 0) + a * v) % q
    return out


def _first_hits(M: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of pivot search: the rows of hit with a hit, the first
    hit column of each, and whether that column holds no other nonzero
    of M. Such a lone pivot clears nothing, so a round takes all of them
    at once; coupled rows take one pivot a round."""
    rows = hit.any(axis=1).nonzero()[0]
    cols = hit[rows].argmax(axis=1)
    return rows, cols, (M.take(cols, axis=1) != 0).sum(axis=0) == 1


def _back_solve(Wp: np.ndarray, mods: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Y with Y_k = -(Z_k + sum_{l > k} Wp_kl Y_l) mod mods_k, solved from
    the last row up, each term reduced mod mods_k. A row with no entry
    right of Wp's diagonal reads no other row, so all of those are solved
    in one step and the rest one by one."""
    out = -Z % mods[:, None]
    ml = mods.tolist()
    for k in ((Wp != 0).sum(axis=1) > 1).nonzero()[0][::-1].tolist():  # beside the diagonal's 1
        acc = Z[k] % ml[k]
        for l in Wp[k, k + 1:].nonzero()[0].tolist():
            acc = (acc + Wp[k, k + 1 + l] * out[k + 1 + l] % ml[k]) % ml[k]
        out[k] = -acc % ml[k]
    return out


def _eliminate(B: np.ndarray, p: int, e: int,
               sp: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], _Gens]:
    """A solution of B x = b (mod p^e), x in ⊕_j Z_{sp_j}, and
    independent generators of the kernel {x : B x = 0 (mod p^e)}. B,
    m_p x (d + 1), holds the rows with p | r_i, each scaled to modulus
    p^e, with b as its last column; sp_j is the p-part of the column
    order s_j, and 1 for b.

    The rows are reduced with a pivot of minimal p-valuation a, in the
    leftmost column c that holds one; the pivot row is scaled to make the
    pivot p^a, and every other row clears that column (earlier pivot rows
    modulo p^a). Rows whose first entry of valuation a is the only
    nonzero of its column are all taken in one round, since they clear
    nothing and no other pivot changes them; the pivots are then listed
    by (a, c), the order in which one pivot a round finds them. A pivot
    in b's column leaves a row whose coefficients p^(a+1) divides against
    a right-hand side of valuation a: ``Infeasible``. Otherwise pivot row
    k reads x_{c_k} + w_k·x = b_k (mod p^(e-a_k)), with w_k zero on the
    earlier pivot columns. The solution has every other coordinate 0 and
    the pivot coordinates solved back from the last row
    (``_back_solve``), each its least nonnegative residue mod
    p^(e-a_k). Each other column j with sp_j > 1 gives g_j = e_j plus
    the pivot coordinates solved back the same way: the columns J, the
    block X of their pivot coordinates and the orders sp_J. A pivot whose
    column order exceeds p^(e-a_k) leaves x_{c_k} free modulo
    p^(e-a_k): it gives a torsion generator, and then ``_split_torsion``
    makes the set independent. Returns the solution as (pivot columns,
    values) and the generators.
    """
    q = p**e
    R = B % q
    R[:, -1] = -R[:, -1] % q  # with -b, a kernel vector with x_d = 1 solves B x = b
    n = R.shape[1] - 1
    found = []  # (a, column, row) of each pivot
    rest = np.arange(R.shape[0])
    pa = 1
    for a in range(e):
        while len(rest) and np.count_nonzero(hit := R[rest] % (pa * p) != 0):
            rows, cols, lone = _first_hits(R, hit)
            coupled = not np.count_nonzero(lone)
            if coupled:  # the leftmost column and its first row
                i = cols.argmin()
                rows, cols = rows[i:i + 1], cols[i:i + 1]
            else:
                rows, cols = rows[lone], cols[lone]
            if cols.max() == n:
                raise Infeasible(f"Abold x = bbold has no solution mod {p}^{e}: a row's "
                                 f"coefficients are 0 mod {p}^{a + 1} and its right-hand "
                                 f"side is not")
            t = rest[rows]
            if coupled:
                t0, c = int(t[0]), int(cols[0])
                row = R[t0] * pow(int(R[t0, c]) // pa, -1, q) % q  # row[c] == pa
                idx = R[:, c].nonzero()[0]  # includes t0, which becomes zero
                R[idx] = (R[idx] - (R[idx, c] // pa)[:, None] * row) % q
                R[t0] = row
            else:  # each pivot made p^a
                inv = [pow(u, -1, q) for u in (R[t, cols] // pa).tolist()]
                R[t] = R[t] * np.array(inv, dtype=R.dtype)[:, None] % q
            found += zip([a] * len(t), cols.tolist(), t.tolist())
            taken = np.zeros(len(rest), dtype=bool)
            taken[rows] = True
            rest = rest[~taken]
        pa *= p
    found.sort()
    piv = np.array([c for _, c, _ in found], dtype=np.int64)
    pas = np.array([p**a for a, _, _ in found], dtype=R.dtype)
    W = R[np.array([t for *_, t in found], dtype=np.int64)] // pas[:, None]
    mods = q // pas  # x_{c_k} is fixed modulo p^(e-a_k)
    is_piv = np.zeros(n + 1, dtype=bool)
    is_piv[piv] = True
    J = np.concatenate([(~is_piv & (sp > 1)).nonzero()[0], [n]])
    torsion = (sp[piv] > mods).nonzero()[0]
    # the g_j, then x, then each torsion generator t_k: x_{c_k} = p^(e-a_k)
    # with the earlier pivot coordinates solved back (W is zero left of its
    # pivots, so t_k's rows from k on come out 0)
    Wp = W[:, piv]
    X = _back_solve(Wp, mods, np.concatenate([W[:, J], Wp[:, torsion] * mods[torsion]], axis=1))
    x, J, X, T = (piv, X[:, len(J) - 1]), J[:-1], X[:, :len(J) - 1], X[:, len(J):]
    if not len(torsion):
        return x, _block_gens(J, sp[J], piv, X)
    return x, _split_torsion(p, e, sp, J, X, piv, mods, T, torsion)


def _split_torsion(p: int, e: int, sp: np.ndarray, J: np.ndarray, X: np.ndarray,
                   piv: np.ndarray, mods: np.ndarray, Tb: np.ndarray,
                   torsion: np.ndarray) -> _Gens:
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
    dense row. Rows whose pivot is the only nonzero of its t column clear
    nothing: a round takes the leading run of them at once, up to the
    first that touches a b column, and so lists the generators in the
    order one pivot a round would.
    """
    q = p**e
    nJ, nT = len(J), len(torsion)
    spv, spJ = sp[piv], sp[J]
    ex = spv[torsion] // mods[torsion]
    T = Tb.copy()  # t_k by pivot coordinates: Tb holds the earlier ones
    T[torsion, np.arange(nT)] = mods[torsion]
    # each row that a later t_k touches, last first, with those (k, coefficient)
    touched = [(l, [(int(torsion[i]), Tb[l, i]) for i in Tb[l].nonzero()[0]])
               for l in Tb.any(axis=1).nonzero()[0][::-1].tolist()]
    is_t = np.zeros(len(piv), dtype=bool)
    is_t[torsion] = True
    fixed = np.where(is_t, mods, spv)[:, None]  # t_k's coordinate: a multiple of mods_k; others: 0

    def express(Z: np.ndarray) -> np.ndarray:
        """Coefficients on the t_k, one row per torsion pivot, of the
        kernel elements whose pivot coordinates are Z's columns (zero on
        the free columns). Only the touched rows wait for the rows below
        them."""
        z = Z % spv[:, None]
        for l, terms in touched:
            for k, v in terms:
                z[l] = (z[l] - z[k] // mods[k] * v) % spv[l]
        bad = (z % fixed).any(axis=1)
        if np.count_nonzero(bad):
            k = bad.nonzero()[0][-1]
            raise CertificateError("a pivot coordinate breaks its congruence" if is_t[k] else
                                   "a torsion-free pivot coordinate is not determined")
        return z[torsion] // mods[torsion, None]

    D = -express(np.concatenate([X * spJ, T * ex], axis=1)) % q
    D[:, nJ:] = (D[:, nJ:] + np.diag(ex)) % q
    pl, Jl, spl = piv.tolist(), J.tolist(), sp.tolist()
    vecs = [{pl[l]: v for l, v in enumerate(t) if v} for t in T.T.tolist()]  # the dense generators
    b: list = list(range(nJ))  # b_j: its index while it is g_j, else a Sparse

    def b_vec(i: int) -> Sparse:
        if not isinstance(b[i], dict):
            b[i] = {Jl[i]: 1, **{pl[k]: v for k, v in enumerate(X[:, i].tolist()) if v}}
        return b[i]

    active = np.ones(D.shape[1], dtype=bool)  # a column that is not active is zero in D
    out = []
    while True:
        if nJ:
            Q = D[:, :nJ] // spJ
            if Q.any():
                D[:, :nJ] -= Q * spJ
                for n_, i in zip(*np.nonzero(Q)):
                    b[i] = _axpy(b_vec(i), int(Q[n_, i]), vecs[n_], q)
            for i in np.flatnonzero(active[:nJ] & ~D[:, :nJ].any(axis=0)).tolist():
                out.append((Jl[i], b[i], spl[Jl[i]]))
                active[i] = False
        live = D.any(axis=1)
        if not live.all():
            out += [(-1, vec, q) for vec, lv in zip(vecs, live) if not lv]
            D, vecs = D[live], [vec for vec, lv in zip(vecs, live) if lv]
        if not vecs:
            break
        pv = 1  # p^v for the least valuation v of an entry
        while not (hits := active & (D % (pv * p) != 0)).any():
            pv *= p
        rows, cols, lone = _first_hits(D, hits)
        take = lone & (cols >= nJ)
        k = len(take) if take.all() else int(take.argmin())
        if nJ and (touch := D[rows[:k], :nJ].any(axis=1)).any():
            k = int(touch.argmax()) + 1
        if k:
            if pv > 1:
                out += [(-1, vecs[n_], pv) for n_ in rows[:k].tolist()]
            active[cols[:k]] = False
            keep = np.ones(len(vecs), dtype=bool)
            keep[rows[:k]] = False
            D, vecs = D[keep], [vec for vec, kp in zip(vecs, keep) if kp]
            continue
        n_, col = int(rows[0]), int(cols[0])  # the first row with a hit, its first column
        row, vec = D[n_], vecs.pop(n_)
        D = np.delete(D, n_, axis=0)
        inv = pow(int(row[col]) // pv, -1, q)
        f = row // pv * inv % q  # f[col] == 1
        a = D[:, col]
        for n_ in np.flatnonzero(a):
            vec = _axpy(vec, int(a[n_]) // pv * inv % q, vecs[n_], q)
        D = (D - np.outer(a, f)) % q
        if col < nJ:  # b_col's relation: b_col turns dense
            vec = _axpy(vec, int(spJ[col]) // pv * inv % q, b_vec(col), q)
            new = (-spJ[col] * f) % q
            new[col] = 0
            D = np.vstack([D, new[None, :]])
            vecs.append(b[col])
        active[col] = False
        if pv > 1:
            out.append((-1, vec, pv))
    out = [item for item in out if item[2] > 1]
    own, gen, col, val, blk = [], [], [], [], []
    for g, (j, vec, _) in enumerate(out):
        if isinstance(vec, dict):
            own.append(j if j >= 0 else max(vec))
            for c, v in vec.items():
                if v % spl[c]:
                    gen.append(g), col.append(c), val.append(v % spl[c])
        else:  # b_j is still g_j
            own.append(Jl[vec])
            blk.append((g, vec))
    gens = _Gens(np.array(own, dtype=np.int64), np.array([o for *_, o in out], dtype=X.dtype),
                 np.array(gen, dtype=np.int64), np.array(col, dtype=np.int64),
                 np.array(val, dtype=X.dtype))
    if not blk:
        return gens
    g, i = np.array(blk, dtype=np.int64).T
    kept = _block_gens(J[i], spJ[i], piv, X[:, i] % spv[:, None])
    return gens._replace(gen=np.concatenate([gens.gen, g[kept.gen]]),
                         col=np.concatenate([gens.col, kept.col]),
                         val=np.concatenate([gens.val, kept.val]))


def _per_generator(ufunc: np.ufunc, X: np.ndarray, runs: tuple[np.ndarray, np.ndarray], n: int,
                   empty: int) -> np.ndarray:
    """ufunc reduced along X's last axis over each generator's entries;
    runs holds the first entry of each run of one generator's entries and
    that generator. empty for a generator with none."""
    first, owner = runs
    out = np.full((*X.shape[:-1], n), empty, dtype=X.dtype)
    if len(first):
        out[..., owner] = ufunc.reduceat(X, first, axis=-1)
    return out


def _check_independent(gen: np.ndarray, col: np.ndarray, val: np.ndarray, order: np.ndarray,
                       s: np.ndarray, primes: Sequence[int]) -> None:
    """Generators g_i of orders o_i, given as entries sorted by
    generator, are independent iff, for each prime p, the elements
    (o_i / p) g_i of order p (over the o_i that p divides) are linearly
    independent over F_p. An element with a column that no other one
    touches takes no part in a relation, so those are set aside (every
    g_j of a non-pivot column j); the rest are row-reduced mod p. Raises
    CertificateError on a dependence."""
    for p in primes:
        o = order.take(gen)
        w = (o // p) * val % s.take(col)
        socle = (o % p == 0) & (w != 0)  # the entries of the order-p multiples
        g, c = gen[socle], col[socle]
        rest = order % p == 0
        rest[g[np.bincount(c, minlength=len(s))[c] == 1]] = False
        if not np.count_nonzero(rest):
            continue
        pick = socle & rest.take(gen)
        rows: dict[int, Sparse] = {i: {} for i in rest.nonzero()[0].tolist()}
        for i, cc, hh in zip(gen[pick].tolist(), col[pick].tolist(),
                             (w[pick] // (s.take(col[pick]) // p)).tolist()):
            rows[i][cc] = hh
        basis: list[tuple[int, Sparse]] = []  # (pivot column, row with pivot 1)
        for h in rows.values():
            for c, row in basis:
                if h.get(c):
                    h = {k: v for k, v in _axpy(h, -h[c], row, p).items() if v}
            if not h:
                raise CertificateError(f"kernel generators are not independent mod {p}")
            c = min(h)
            inv = pow(h[c], -1, p)
            basis.append((c, {k: v * inv % p for k, v in h.items()}))


def _coset(grd: GroupRelaxationData, s: Sequence[int], b: Sequence[int],
           g_order: int, pes: Sequence[tuple[int, int]]) -> FeasibleCoset:
    """x + K, where x solves Abold x = b (mod R Z^m) and K is the kernel
    of Abold, both in the ambient group ⊕_j Z_{s_j}; s_j must annihilate
    column j. g_order is |G| and pes the prime powers of r_max
    (``_prime_powers``).

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
    next (invariant factors). The generators stay entries (generator,
    column, value) in ``int_dtype`` arrays, where no value exceeds
    r_max times max(r_max, d + 1), until the dense tuples are built, once
    each; nothing forms a k x d array.

    Certificates, each raising ``CertificateError``, all on the entries
    before the dense tuples are built: every generator satisfies
    Abold g = 0 (mod R Z^m); the order of each generator (the lcm of its
    entries' orders) equals its stated order; the generators are
    independent (``_check_independent``); prod(s) = |K| |G|; and x solves
    the system by substitution. With independence the span has order
    prod(orders) = |K|, and with the congruence it lies in the kernel,
    whose order is prod(s) / |G|: so K is the whole kernel.
    """
    r_max, d = grd.r_max, grd.d
    dtype = int_dtype(r_max * max(r_max, d + 1))
    A, r = _congruence_rows(grd, dtype)
    rhs = np.array([b_i for b_i, r_i in zip(b, grd.r) if r_i > 1], dtype=dtype)
    AB = np.concatenate([A, rhs.reshape(-1, 1) % r], axis=1)
    S = np.array(s, dtype=dtype)
    S1 = np.concatenate([S, np.ones(1, dtype=dtype)])  # and 1 for the right-hand side
    parts = []
    for p, e in pes:
        q = p**e
        pf = np.gcd(r, q)
        sel = pf[:, 0] > 1
        sp = np.gcd(S1, q)
        xp, gens = _eliminate(AB[sel] % pf[sel] * (q // pf[sel]), p, e, sp)
        parts.append((q, sp, xp, gens))
    n = max((len(g.own) for *_, g in parts), default=0)
    orders = [1] * n
    scale = r_max // S  # Z_{s_j} sits in Z_{r_max} as the multiples of r_max / s_j
    G, C, V = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0, dtype)]
    for q, sp, (xc, xv), g in parts:
        crt = (r_max // q) * pow(r_max // q, -1, q)  # 1 mod q, 0 mod r_max / q
        by = np.lexsort((-g.own, -g.order))  # orders descending, then own columns
        for i, o in enumerate(g.order.take(by).tolist()):
            orders[i] *= o
        slot = np.empty(len(by), dtype=np.int64)
        slot[by] = np.arange(n - 1, n - 1 - len(by), -1)  # the i-th largest: n - 1 - i
        units = (scale.take(g.own) // (q // sp.take(g.own))).tolist()
        inverse = {u: pow(u, -1, q) for u in set(units)}
        lam = np.array([inverse[u] for u in units], dtype=dtype)
        G += [slot.take(g.gen), np.full(len(xc), -1)]  # x as generator -1
        C += [g.col, xc]
        V += [scale.take(g.col) * g.val % q * lam.take(g.gen) % q * crt % r_max,
              scale.take(xc) * xv % q * crt % r_max]
    key = np.concatenate(G) * (d + 1) + np.concatenate(C)
    by = key.argsort()
    key, V = key.take(by), np.concatenate(V).take(by)
    if len(key):  # sum the p-parts' entries of one generator and column
        first = np.concatenate([[0], (key[1:] != key[:-1]).nonzero()[0] + 1])
        key, V = key.take(first), np.add.reduceat(V, first) % r_max
    G, C = np.divmod(key, d + 1)
    V = V // scale.take(C)
    nz = V != 0
    G, C, V = G[nz], C[nz], V[nz]
    nx = np.count_nonzero(G < 0)  # x's entries come first
    x_hat = _dense(C[:nx].tolist(), V[:nx].tolist(), d)
    G, C, V = G[nx:], C[nx:], V[nx:]
    first = np.concatenate([[0], (G[1:] != G[:-1]).nonzero()[0] + 1]) if len(G) else G
    runs = first, G.take(first)
    orders.reverse()
    order = np.array(orders, dtype=dtype)

    def generator(i: int) -> tuple[int, ...]:
        return _dense(C[G == i].tolist(), V[G == i].tolist(), d)

    unmet = (_per_generator(np.add, A.take(C, axis=1) * V % r, runs, n, 0) % r).any(axis=0)
    if np.count_nonzero(unmet):
        raise CertificateError(f"kernel generator {generator(unmet.argmax())} fails the "
                               f"congruence")
    wrong = _per_generator(np.lcm, _entry_orders(V, S.take(C)), runs, n, 1) != order
    if np.count_nonzero(wrong):
        i = wrong.argmax()
        raise CertificateError(f"kernel generator {generator(i)} does not have order {orders[i]}")
    _check_independent(G, C, V, order, S, [p for p, _ in pes])
    korder = prod(orders)
    if korder * g_order != prod(s):
        raise CertificateError(f"|K| = {korder} and |G| = {g_order} do not multiply to "
                               f"prod(s) = {prod(s)}: the order bookkeeping broke")
    if _group_residual(grd.Abold, grd.r, x_hat) != [b_i % r_i for b_i, r_i in zip(b, grd.r)]:
        raise CertificateError("feasible-point substitution check failed")
    # the dense tuples, each built once from a row of zeros
    gens, row = [], [0] * d
    for i, c, v in zip(G.tolist(), C.tolist(), V.tolist()):
        while len(gens) < i:
            gens.append(tuple(row))
            row = [0] * d
        row[c] = v
    while len(gens) < n:
        gens.append(tuple(row))
        row = [0] * d
    basis = KernelBasis(tuple(gens), tuple(orders), tuple(s), korder, g_order)
    return FeasibleCoset(x_hat, basis)


def feasible_coset(grd: GroupRelaxationData, compress: bool = False) -> FeasibleCoset:
    """Feasible coset x_hat + K of Abold x = bbold (mod R Z^m): in
    Z_{r_max}^d, or with compress in the compressed ambient group
    ⊕_j Z_{s_j} of the column orders (``column_orders``), where K' is the
    image of K and x_hat its reduction mod s. One ``_coset`` call, with
    |G| from ``range_order`` and r_max factored once. Raises Infeasible
    when no x solves it, and CapExceeded when r_max cannot be factored
    (``_prime_powers``)."""
    pes = _prime_powers(grd.r_max)
    s = column_orders(grd, pes) if compress else [grd.r_max] * grd.d
    return _coset(grd, s, grd.bbold, range_order(grd), pes)


def compress_coset(grd: GroupRelaxationData, fc: FeasibleCoset) -> FeasibleCoset:
    """``feasible_coset(grd, compress=True)``, with |G| read off fc; no
    other field of fc is read. Kept for callers that hold the coset of
    Z_{r_max}^d already, such as the benchmark's ``kernel --compress``."""
    pes = _prime_powers(grd.r_max)
    return _coset(grd, column_orders(grd, pes), grd.bbold, fc.basis.range_order, pes)


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

