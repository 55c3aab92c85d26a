"""The eager Smith normal form: the reference that ``exact.snf`` is
tested against; and the determinant, diagonal and unimodularity
helpers that check an SNF's contract.

It accumulates U, V, Uinv and Vinv on the fly, one elementary operation
at a time, with the same pivot order and the same operations as
``exact.snf``, which keeps Vinv transposed and builds U and V from its
record of the operations only when they are read. Python ints
throughout.
"""

from dataclasses import dataclass

from grouprelax.exact import IntMatrix, ext_gcd, gauss_jordan


@dataclass
class EagerSNF:
    U: IntMatrix
    D: list[int]
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix


def _snf_rowop(S, Uinv, U, i1, i2, a, b, c, d):
    # rows (i1, i2) of S and Uinv <- [[a, b], [c, d]] @ rows; the inverse
    # op is applied to the columns of U so U @ S stays fixed.
    for M in (S, Uinv):
        r1, r2 = M.data[i1], M.data[i2]
        M.data[i1] = [a * x + b * y for x, y in zip(r1, r2)]
        M.data[i2] = [c * x + d * y for x, y in zip(r1, r2)]
    det = a * d - b * c  # +-1
    for row in U.data:
        x, y = row[i1], row[i2]
        row[i1] = det * (d * x - c * y)
        row[i2] = det * (-b * x + a * y)


def _snf_colop(S, Vinv, V, j1, j2, a, b, c, d):
    # columns (j1, j2) of S and Vinv <- cols @ [[a, c], [b, d]].
    for M in (S, Vinv):
        for row in M.data:
            x, y = row[j1], row[j2]
            row[j1] = a * x + b * y
            row[j2] = c * x + d * y
    det = a * d - b * c
    r1, r2 = V.data[j1], V.data[j2]
    V.data[j1] = [det * (d * x - c * y) for x, y in zip(r1, r2)]
    V.data[j2] = [det * (-b * x + a * y) for x, y in zip(r1, r2)]


def eager_snf(M: IntMatrix) -> EagerSNF:
    """Smith normal form M = U @ diag(D) @ V.

    Elementary row/column reduction with smallest-pivot selection; the
    transforms and their inverses are accumulated on the fly. Works for
    any rectangular integer matrix; zero invariant factors trail.
    """
    if M.rows == 0 or M.cols == 0:
        raise ValueError("empty matrix")
    m, n = M.rows, M.cols
    S = M.copy()
    U, Uinv = IntMatrix.identity(m), IntMatrix.identity(m)
    V, Vinv = IntMatrix.identity(n), IntMatrix.identity(n)
    k = min(m, n)

    def pivot_search(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S.data[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    t = 0
    while t < k:
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            _snf_rowop(S, Uinv, U, t, pi, 0, 1, 1, 0)
        if pj != t:
            _snf_colop(S, Vinv, V, t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if S.data[i][t]:
                    p, v = S.data[t][t], S.data[i][t]
                    if v % p == 0:
                        _snf_rowop(S, Uinv, U, t, i, 1, 0, -(v // p), 1)
                    else:
                        g, x, y = ext_gcd(p, v)
                        _snf_rowop(S, Uinv, U, t, i, x, y, -(v // g), p // g)
            for j in range(t + 1, n):
                if S.data[t][j]:
                    p, v = S.data[t][t], S.data[t][j]
                    if v % p == 0:
                        _snf_colop(S, Vinv, V, t, j, 1, 0, -(v // p), 1)
                    else:
                        g, x, y = ext_gcd(p, v)
                        _snf_colop(S, Vinv, V, t, j, x, y, -(v // g), p // g)
            # column ops may refill column t; repeat until both are clear
            if all(S.data[i][t] == 0 for i in range(t + 1, m)) and all(
                S.data[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # pivot must divide the remaining block; if not, fold the
        # offending row in and redo this step
        p = S.data[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S.data[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _snf_rowop(S, Uinv, U, t, offender, 1, 1, 0, 1)
            continue
        if p < 0:
            # negate row t of S and Uinv, column t of U: U absorbs the sign
            S.data[t] = [-x for x in S.data[t]]
            Uinv.data[t] = [-x for x in Uinv.data[t]]
            for row in U.data:
                row[t] = -row[t]
        t += 1

    D = [S.data[i][i] for i in range(k)]
    return EagerSNF(U=U, D=D, V=V, Uinv=Uinv, Vinv=Vinv)


def diag_matrix(D: list[int], rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with D on its diagonal, zeros elsewhere."""
    return IntMatrix([[D[i] if i == j and i < len(D) else 0 for j in range(cols)]
                      for i in range(rows)])


def det_exact(M: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    return gauss_jordan(list(M.data), [0] * M.rows)


def is_unimodular(M: IntMatrix) -> bool:
    """True iff M is square with determinant +-1."""
    if M.rows != M.cols:
        raise ValueError("unimodularity is defined for square matrices")
    return abs(det_exact(M)) == 1
