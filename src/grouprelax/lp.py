"""Pure-ILP modelling, standard-form conversion, and an exact two-phase
revised simplex with Bland's rule.

The simplex is deliberately exact: the group relaxation downstream needs
the *integer* basis matrix A_B identified without rounding, since its
Smith normal form drives everything else. It is also deterministic in
its choice of optimal basis, which fixes K, G and every later output.

The simplex works on the m×m basis only, in Python ints. It keeps the
invariant adj = det·B^-1 for the current basis matrix B with its signed
determinant det, and xb = adj·b, so x_B = xb / det. Entering B at
position r, a column with a = adj·A_j gives det' = a_r and, for every
row i != r, adj'_i = (a_r·adj_i - a_i·adj_r) / det exactly: the
fraction-free pivot ``exact.bareiss_pivot``, which is also the only
elimination in the row-rank repair of ``to_standard_form``. Row r is
unchanged.

Pivot rules (Bland): the entering column is the first one, in column
order, with a negative reduced cost; the leaving row has the minimum
ratio x_B,i / (B^-1 A_j)_i over rows where (B^-1 A_j)_i > 0, ties to the
smallest basis index. These are the rules of the full-tableau simplex
it replaced, so it returns the same basis in the same order.

Certificate: at exit det != 0, adj·A_B = det·I, A_B·xb = det·b, x_B >= 0
and every reduced cost >= 0 are checked, the last two on integer
numerators; a failure raises CertificateError. The first two make adj /
det the exact inverse of A_B, so the ``BasisSolution`` that carries them
is the one record of the optimal basis: the relaxation reads its group
cost off the reduced-cost numerators, and every lift solves
A_B x_B = rhs as adj·rhs / det, with no second elimination. Its
Fractions (x_lp, opt_lp) are views built when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul
from typing import Sequence

from .errors import CertificateError, Infeasible, Unbounded
from .exact import IntMatrix, bareiss_pivot as _pivot, clear_denominators

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


@dataclass
class ILPInstance:
    """min c.x  s.t.  A x (sense) b,  x integer >= 0. A model without
    rows is read as one zero <= row: 0·x <= 0."""

    name: str
    A: IntMatrix
    b: list[int]
    c: list[Fraction]
    row_sense: list[str]
    var_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.b = [int(v) for v in self.b]
        # one Fraction per distinct cost: costs repeat, and a Fraction is immutable
        made: dict = {}
        self.c = [v if isinstance(v, Fraction) else made[v] if v in made else
                  made.setdefault(v, Fraction(v)) for v in self.c]
        if not (self.A.rows or self.b or self.row_sense):
            self.A, self.b, self.row_sense = IntMatrix([[0] * len(self.c)]), [0], [LE]
        if self.A.rows != len(self.b) or self.A.rows != len(self.row_sense):
            raise ValueError("row dimension mismatch")
        if self.A.cols != len(self.c):
            raise ValueError("column dimension mismatch")
        for s in self.row_sense:
            if s not in _SENSES:
                raise ValueError(f"bad row sense {s!r}")
        if not self.var_names:
            self.var_names = [f"x{j+1}" for j in range(self.A.cols)]

    @property
    def n_vars(self) -> int:
        return self.A.cols

    @property
    def n_rows(self) -> int:
        return self.A.rows


@dataclass
class StandardFormILP:
    """Equality form with full row rank; slacks/surpluses appended."""

    A: IntMatrix
    b: list[int]
    c: list[Fraction]
    slack_map: dict[int, int]  # column index -> originating row index


@dataclass
class BasisSolution:
    """An optimal basis in integers, certified by ``solve_lp_exact``: adj
    and xb make x_B = xb / det, and the reduced costs and OPT_LP are
    numerators over den. x_lp and opt_lp are Fraction views of them."""

    basis: list[int]
    nonbasic: list[int]
    det: int                # signed det A_B, columns in basis order; nonzero
    adj: list[list[int]]    # det·A_B^-1, rows in basis order; certified
    xb: list[int]           # adj·b, so x_B = xb / det
    den: int                # scale·|det|, scale the lcm of c's denominators
    reduced: list[int]      # den·(reduced cost) of each nonbasic column, >= 0
    opt_num: int            # den·OPT_LP
    n: int                  # standard-form columns

    @cached_property
    def x_lp(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for bi, v in zip(self.basis, self.xb):
            x[bi] = Fraction(v, self.det)
        return x

    @cached_property
    def opt_lp(self) -> Fraction:
        return Fraction(self.opt_num, self.den)

    @property
    def degenerate_primal(self) -> bool:
        return 0 in self.xb


def to_standard_form(inst: ILPInstance) -> StandardFormILP:
    """Append +1 slack per <= row and -1 surplus per >= row, then drop
    linearly dependent rows by exact elimination. When no row survives,
    the instance is read as a model without rows (``ILPInstance``).

    Since the data is integral, slacks and surpluses are themselves
    integer and nonnegative, so the result is still a pure ILP.
    """
    m, n = inst.A.rows, inst.A.cols
    slacked = [i for i, sense in enumerate(inst.row_sense) if sense != EQ]
    data = [row + [0] * len(slacked) for row in inst.A.data]
    slack_map: dict[int, int] = {}
    for col, i in enumerate(slacked, start=n):
        data[i][col] = 1 if inst.row_sense[i] == LE else -1
        slack_map[col] = i
    c = list(inst.c) + [Fraction(0)] * len(slacked)
    b = list(inst.b)

    # Row-rank repair of [A | b]: a <= or >= row owns a slack column, zero
    # in every other row, so it is in no linear dependency. The equality rows
    # are eliminated in order; one that reduces to zero is dropped.
    eq = [i for i, sense in enumerate(inst.row_sense) if sense == EQ]
    rows, rhs = [inst.A.data[i] for i in eq], [b[i] for i in eq]
    det, dropped = 1, set()
    for k, i in enumerate(eq):
        pc = next((j for j, v in enumerate(rows[k]) if v), None)
        if pc is None:
            if rhs[k]:
                raise Infeasible(f"row {i+1} is inconsistent with earlier rows")
            dropped.add(i)
            continue
        det = _pivot(rows, rhs, [row[pc] for row in rows], k, det)
    keep = [i for i in range(m) if i not in dropped]
    if not keep:
        return to_standard_form(replace(inst, A=IntMatrix([]), b=[], row_sense=[]))

    A2 = IntMatrix._of([data[i] for i in keep])
    b2 = [b[i] for i in keep]
    # remap slack rows to surviving row positions
    pos = {orig: new for new, orig in enumerate(keep)}
    slack_map = {j: pos[i] for j, i in slack_map.items() if i in pos}
    return StandardFormILP(A=A2, b=b2, c=c, slack_map=slack_map)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _duals(cost: list[int], basis: list[int], adj: list[list[int]]) -> list[int]:
    """y = c_B·adj, the simplex multipliers scaled by det."""
    cb = [cost[bi] for bi in basis]
    return [_dot(cb, col) for col in zip(*adj)]


def _simplex(cols: list[tuple[int, ...]], cost: list[int], ncols: int, basis: list[int],
             adj: list[list[int]], xb: list[int], det: int) -> int:
    """Bland-rule pivots over columns 0..ncols-1 with integer costs until
    no reduced cost is negative. d_j has the sign of
    (cost_j·det - y·A_j)·sign(det) with y = c_B·adj, and row i is a
    candidate to leave when a_i·det > 0. Mutates basis, adj and xb and
    returns the final det. Raises Unbounded."""
    m = len(basis)
    while True:
        y = _duals(cost, basis, adj)
        s = 1 if det > 0 else -1
        enter = next((j for j in range(ncols)
                      if (cost[j] * det - _dot(y, cols[j])) * s < 0), None)
        if enter is None:
            return det
        a = [_dot(row, cols[enter]) for row in adj]
        leave = None
        for i in range(m):
            if a[i] * s > 0 and (leave is None or xb[i] * a[leave] < xb[leave] * a[i] or (
                    xb[i] * a[leave] == xb[leave] * a[i] and basis[i] < basis[leave])):
                leave = i
        if leave is None:
            raise Unbounded(f"column {enter} has no blocking row")
        det = _pivot(adj, xb, a, leave, det)
        basis[leave] = enter


def _certify(cols: list[tuple[int, ...]], b: list[int], basis: list[int],
             adj: list[list[int]], xb: list[int], det: int, reduced: list[int]) -> None:
    """The optimality certificate: det != 0, adj·A_B = det·I,
    A_B·xb = det·b, x_B = xb / det >= 0 and every reduced-cost numerator
    >= 0. O(m^3 + mn)."""
    m = len(basis)
    if det == 0:
        raise CertificateError("the LP basis determinant is 0")
    if any(_dot(adj[i], cols[bk]) != (det if i == k else 0)
           for i in range(m) for k, bk in enumerate(basis)):
        raise CertificateError("adj·A_B differs from det·I")
    if any(sum(cols[bk][i] * v for bk, v in zip(basis, xb)) != det * b[i] for i in range(m)):
        raise CertificateError("A_B·xb differs from det·b")
    if any(v * det < 0 for v in xb):
        raise CertificateError("the LP basis is not primal feasible")
    if any(v < 0 for v in reduced):
        raise CertificateError("the LP basis is not dual feasible")


def solve_lp_exact(sf: StandardFormILP) -> BasisSolution:
    """Two-phase revised simplex with Bland's rule on the m×m basis, in
    integers only; returns an optimal basis.

    The basis inverse is kept as adj = det·B^-1 with the signed
    determinant det, and xb = adj·b. Phase 1 adds an artificial
    sign(b_i)·e_i per row (cost 1), starts from that basis and lets
    artificials re-enter. Zero-valued artificials left in the basis are
    then driven out, row by row, by the first structural column j with
    adj_i·A_j != 0; when there is none, the rows are dependent, against
    the full row rank sf must have: ValueError. Phase 2 prices the
    structural columns with costs cleared of their denominators. Both
    phases enter the first column with a negative reduced cost and leave
    by the minimum ratio xb_i / a_i, ties to the smallest basis index:
    the pivots of the tableau simplex, so the basis and its order are the
    ones it picks.
    At exit det != 0, adj·A_B = det·I, A_B·xb = det·b, x_B >= 0 and the
    reduced costs >= 0 are checked; a failure raises CertificateError.
    """
    m, n = sf.A.rows, sf.A.cols
    cols = list(zip(*sf.A.data)) if m else [()] * n
    signs = [1 if v >= 0 else -1 for v in sf.b]
    cols += [tuple(signs[i] if k == i else 0 for k in range(m)) for i in range(m)]
    # phase 1: B = diag(signs), so det = prod(signs) and adj = det·B
    det = prod(signs)
    adj = [[det * signs[i] if k == i else 0 for k in range(m)] for i in range(m)]
    xb = [_dot(row, sf.b) for row in adj]
    basis = list(range(n, n + m))
    det = _simplex(cols, [0] * n + [1] * m, n + m, basis, adj, xb, det)
    if sum(v for v, bi in zip(xb, basis) if bi >= n) * det > 0:
        raise Infeasible("phase 1 optimum is positive")
    # drive any zero-valued artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if _dot(adj[i], cols[j]) != 0), None)
            if enter is None:
                raise ValueError("no structural column can replace an artificial: "
                                 "the rows are linearly dependent")
            det = _pivot(adj, xb, [_dot(row, cols[enter]) for row in adj], i, det)
            basis[i] = enter

    # phase 2 on the original columns, costs scaled to integers
    scale, cost = clear_denominators(sf.c)
    det = _simplex(cols, cost, n, basis, adj, xb, det)

    basic = set(basis)
    nonbasic = [j for j in range(n) if j not in basic]
    # every value over den = scale·|det|: det's sign moves to the numerators
    y, s = _duals(cost, basis, adj), 1 if det > 0 else -1
    reduced = [(cost[j] * det - _dot(y, cols[j])) * s for j in nonbasic]
    _certify(cols, sf.b, basis, adj, xb, det, reduced)
    return BasisSolution(
        basis=list(basis), nonbasic=nonbasic, det=det, adj=adj, xb=xb,
        den=scale * det * s, reduced=reduced,
        opt_num=_dot([cost[bi] for bi in basis], xb) * s, n=n,
    )
