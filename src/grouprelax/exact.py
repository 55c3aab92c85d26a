"""Exact integer linear algebra: Smith normal form, extended gcd,
linear congruences, unimodularity checks, and the fraction-free pivot.

All scalars are Python ints (arbitrary precision), so nothing here can
overflow. Rationals elsewhere in the package are fractions.Fraction.

``bareiss_pivot`` is the package's only elimination step over Z
(Bareiss, 1968): each entry it makes is a minor of the input (Sylvester's
identity), so every division is exact and no entry outgrows a minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import Infeasible


class IntMatrix:
    """Dense row-major integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]]):
        self.data = [list(map(int, row)) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.data)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.data[i][j] = int(value)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def select_columns(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        return IntMatrix([[row[j] for j in idx] for row in self.data])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.data))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def matvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.data]


@dataclass
class SNFResult:
    """Factorization M = U @ diag(D) @ V with U, V unimodular.

    Uinv and Vinv are exact inverses, accumulated from the elementary
    operations during the reduction. D entries are nonnegative, each
    nonzero entry divides the next, and zeros only trail.
    """

    U: IntMatrix
    D: list[int]
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix

    def diag_matrix(self, rows: int, cols: int) -> IntMatrix:
        S = IntMatrix.zeros(rows, cols)
        for i, d in enumerate(self.D):
            S[i, i] = d
        return S


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(|a|, |b|) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def solve_mod(t: int, b: int, r: int) -> tuple[int, int]:
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
    particular = (x * (b // g)) % step
    return particular, g


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


def snf(M: IntMatrix) -> SNFResult:
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
    return SNFResult(U=U, D=D, V=V, Uinv=Uinv, Vinv=Vinv)


def bareiss_pivot(rows: list[list[int]], xb: list[int], a: list[int], r: int, det: int) -> int:
    """One fraction-free Gauss–Jordan step, in place: a is the pivot
    column, a[r] != 0 the pivot and det the previous pivot (1 at first).
    Every row i != r, and xb_i alike, becomes (a_r·row_i - a_i·row_r) / det,
    exact over Z; rows are replaced, never mutated. Returns a_r."""
    ar, row_r, xr = a[r], rows[r], xb[r]
    for i, ai in enumerate(a):
        if i != r:
            rows[i] = [(ar * v - ai * w) // det for v, w in zip(rows[i], row_r)]
            xb[i] = (ar * xb[i] - ai * xr) // det
    return ar


def gauss_jordan(rows: list[list[int]], xb: list[int]) -> int:
    """Fraction-free Gauss–Jordan on the leading square block of the
    rows, in place: column t is pivoted at the first row at or below t
    with a nonzero entry, swapped to position t with a sign change (xb
    alike) so that the determinant is kept. Afterwards the block is
    det·I; returns det, the block's determinant (0 when singular)."""
    n, det = len(rows), 1
    for t in range(n):
        p = next((i for i in range(t, n) if rows[i][t]), None)
        if p is None:
            return 0
        if p != t:
            rows[t], rows[p] = rows[p], [-v for v in rows[t]]
            xb[t], xb[p] = xb[p], -xb[t]
        det = bareiss_pivot(rows, xb, [row[t] for row in rows], t, det)
    return det


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


def solve_rational(A: IntMatrix, cols: Sequence[int] | None, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve A[:, cols] x = rhs exactly (square nonsingular system); the
    rhs is scaled to integers by the lcm of its denominators."""
    rows = [[row[j] for j in cols] for row in A.data] if cols is not None else list(A.data)
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("square system expected")
    scale = lcm(*(Fraction(v).denominator for v in rhs))
    xb = [int(Fraction(v) * scale) for v in rhs]
    det = gauss_jordan(rows, xb)
    if det == 0:
        raise ValueError("singular system")
    return [Fraction(v, det * scale) for v in xb]
