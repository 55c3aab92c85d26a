"""Exact integer linear algebra: Smith normal form, extended gcd,
linear congruences, determinants, and the fraction-free pivot;
and the package's two rules for exact integer arithmetic elsewhere.

All scalars here are Python ints (arbitrary precision), so nothing here
can overflow. Rationals elsewhere in the package are fractions.Fraction.
``clear_denominators`` is the one place they are put over a common
denominator, and ``int_dtype`` the one rule by which integer numpy
arithmetic stays exact: int64 where it provably fits, Python ints
(object dtype) elsewhere.

``bareiss_pivot`` is the package's only elimination step over Z
(Bareiss, 1968): each entry it makes is a minor of the input (Sylvester's
identity), so every division is exact and no entry outgrows a minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import Infeasible


def int_dtype(bound: int):
    """np.int64 when every value an integer array will hold, the
    intermediates of its arithmetic included, is below bound in
    magnitude and bound <= 2^63; object (Python ints) otherwise."""
    return np.int64 if bound <= 2**63 else object


def clear_denominators(values: Sequence) -> tuple[int, list[int]]:
    """(den, ints): den, the lcm of the denominators of the ints and
    Fractions in values, and each value times den, as an int."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


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
    def _of(cls, data: list[list[int]]) -> "IntMatrix":
        """Wrap rows of ints as they are: no copy and no checks."""
        M = cls.__new__(cls)
        M.data, M.rows = data, len(data)
        M.cols = len(data[0]) if data else 0
        return M

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(_identity_rows(n))

    def copy(self) -> "IntMatrix":
        return IntMatrix._of([list(row) for row in self.data])

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
        return IntMatrix._of([[row[j] for j in idx] for row in self.data])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.data))
        return IntMatrix._of(
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
    operations during the reduction; Vinv is kept transposed, as Vinv_t,
    whose rows are the columns of Vinv. D entries are nonnegative, each
    nonzero entry divides the next, and zeros only trail. The row and
    column operations are recorded in order. Vinv, U and V are built the
    first time they are read (U and V by replaying the record), and are
    cached.
    """

    D: list[int]
    Uinv: IntMatrix
    Vinv_t: IntMatrix
    row_ops: list[tuple]  # (i1, i2, a, b, c, d); i1 == i2 negates row i1
    col_ops: list[tuple]  # (j1, j2, a, b, c, d)

    @cached_property
    def Vinv(self) -> IntMatrix:
        return IntMatrix._of([list(col) for col in zip(*self.Vinv_t.data)])

    @cached_property
    def U(self) -> IntMatrix:
        # a row op E is undone on the columns of U, that is on the rows of
        # U^T by E^-T
        Ut = _replay(self.Uinv.rows, self.row_ops)
        return IntMatrix._of([list(col) for col in zip(*Ut)])

    @cached_property
    def V(self) -> IntMatrix:
        # a column op, columns <- columns @ E^T, is undone on the rows of
        # V by E^-T
        return IntMatrix._of(_replay(self.Vinv_t.rows, self.col_ops))



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


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _inverse_transpose(a, b, c, d):
    """Entries of the transposed inverse of [[a, b], [c, d]], unimodular."""
    det = a * d - b * c  # +-1
    return det * d, -det * c, -det * b, det * a


def _replay(n: int, ops: list[tuple]) -> list[list[int]]:
    """Rows of the n×n identity after E^-T of each recorded op E, in order."""
    rows = _identity_rows(n)
    for i1, i2, a, b, c, d in ops:
        if i1 == i2:
            rows[i1] = [-x for x in rows[i1]]
        else:
            _combine(rows, i1, i2, *_inverse_transpose(a, b, c, d))
    return rows


def _combine(rows, i1, i2, a, b, c, d):
    # rows (i1, i2) <- [[a, b], [c, d]] @ rows; rows are replaced, never mutated
    r1, r2 = rows[i1], rows[i2]
    if a == 1 and b == 0 and d == 1:
        rows[i2] = [c * x + y for x, y in zip(r1, r2)]
    else:
        rows[i1] = [a * x + b * y for x, y in zip(r1, r2)]
        rows[i2] = [c * x + d * y for x, y in zip(r1, r2)]


def snf(M: IntMatrix) -> SNFResult:
    """Smith normal form M = U @ diag(D) @ V.

    Elementary row/column reduction with smallest-pivot selection. Uinv
    and Vinv are accumulated on the fly, Vinv transposed so that a
    column operation updates two rows; the operations are recorded for
    U and V. Works for any rectangular integer matrix; zero invariant
    factors trail.
    """
    if M.rows == 0 or M.cols == 0:
        raise ValueError("empty matrix")
    m, n = M.rows, M.cols
    S = M.copy()
    Uinv, Vinv_t = IntMatrix.identity(m), IntMatrix.identity(n)
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []
    k = min(m, n)

    def rowop(i1, i2, a, b, c, d):
        _combine(S.data, i1, i2, a, b, c, d)
        _combine(Uinv.data, i1, i2, a, b, c, d)
        row_ops.append((i1, i2, a, b, c, d))

    support = [None, []]  # a row of Vinv_t and the indices of its nonzeros

    def colop(j1, j2, a, b, c, d):
        # columns (j1, j2) <- columns @ [[a, c], [b, d]]
        for row in S.data:
            x, y = row[j1], row[j2]
            row[j1] = a * x + b * y
            row[j2] = c * x + d * y
        if a == 1 and b == 0 and d == 1:
            # the pivot sweep's shear: row j2 += c * row j1, over the
            # nonzeros of row j1, which stays the same row across a sweep
            r1 = Vinv_t.data[j1]
            if support[0] is not r1:
                support[:] = r1, [i for i, x in enumerate(r1) if x]
            r2 = Vinv_t.data[j2].copy()
            for i in support[1]:
                r2[i] += c * r1[i]
            Vinv_t.data[j2] = r2
        else:
            _combine(Vinv_t.data, j1, j2, a, b, c, d)
        col_ops.append((j1, j2, a, b, c, d))

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
            rowop(t, pi, 0, 1, 1, 0)
        if pj != t:
            colop(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if S.data[i][t]:
                    p, v = S.data[t][t], S.data[i][t]
                    if v % p == 0:
                        rowop(t, i, 1, 0, -(v // p), 1)
                    else:
                        g, x, y = ext_gcd(p, v)
                        rowop(t, i, x, y, -(v // g), p // g)
            for j in range(t + 1, n):
                if S.data[t][j]:
                    p, v = S.data[t][t], S.data[t][j]
                    if v % p == 0:
                        colop(t, j, 1, 0, -(v // p), 1)
                    else:
                        g, x, y = ext_gcd(p, v)
                        colop(t, j, x, y, -(v // g), p // g)
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
            rowop(t, offender, 1, 1, 0, 1)
            continue
        if p < 0:
            # negate row t of S and Uinv; U absorbs the sign in column t
            S.data[t] = [-x for x in S.data[t]]
            Uinv.data[t] = [-x for x in Uinv.data[t]]
            row_ops.append((t, t, -1, 0, 0, -1))
        t += 1

    D = [S.data[i][i] for i in range(k)]
    return SNFResult(D, Uinv, Vinv_t, row_ops, col_ops)


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


def solve_rational(A: IntMatrix, cols: Sequence[int] | None, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve A[:, cols] x = rhs exactly (square nonsingular system); the
    rhs, ints and Fractions, is cleared to integers first. No library
    path calls it: a lift reads the LP's certified adj and det
    (``relax.lift_to_ilp``). It stays as the tests' reference for that
    lift, and by name for the benchmark's tracer."""
    rows = [[row[j] for j in cols] for row in A.data] if cols is not None else list(A.data)
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("square system expected")
    scale, xb = clear_denominators(rhs)
    det = gauss_jordan(rows, xb)
    if det == 0:
        raise ValueError("singular system")
    return [Fraction(v, det * scale) for v in xb]
