"""References in Fraction arithmetic for the exact LP layer.

The two-phase tableau simplex with Bland's rule is the reference that
``lp.solve_lp_exact`` is tested against. It updates the whole m x (n+m)
tableau of Fractions on every pivot. The revised simplex in ``lp.py``
must choose the same entering column, the same leaving row and the same
drive-out pivots, so both return the same basis, in the same order, and
the same Fraction views of it: x_lp, the reduced costs, OPT_LP and
primal degeneracy (``TableauSolution``).

The row-rank repair over all rows, the Gauss–Jordan solve and the
sufficiency test with one solve per nonbasic column are the Fraction
references for ``to_standard_form``, ``solve_rational``, ``det_exact``
and ``check_asymptotic_sufficiency``. The last, Gomory's sufficient
condition for the group optimum to solve the ILP, reads the LP's
certified adj and xb; no library path calls it.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from grouprelax.errors import Infeasible, Unbounded
from grouprelax.exact import IntMatrix
from grouprelax.lp import EQ, LE, BasisSolution, ILPInstance, StandardFormILP


@dataclass
class TableauSolution:
    basis: list[int]
    nonbasic: list[int]
    x_lp: list[Fraction]
    reduced_costs: dict[int, Fraction]  # keyed by nonbasic column
    opt_lp: Fraction
    degenerate_primal: bool


def check_asymptotic_sufficiency(sf: StandardFormILP, bs: BasisSolution) -> bool:
    """Sufficient condition for the group relaxation to solve the ILP:
    A_B^{-1} b >= max_ij |(A_B^{-1} A_N)_ij| * |det A_B| componentwise.

    With the LP's adj = det·A_B^{-1} and xb = det·x_B the test is
    det·xb_i >= det^2·max |adj·A_N|."""
    if not bs.nonbasic:
        return True
    cols = list(zip(*sf.A.data))
    big = max(abs(sum(map(mul, row, cols[j]))) for row in bs.adj for j in bs.nonbasic)
    return all(v * bs.det >= bs.det * bs.det * big for v in bs.xb)


def fraction_to_standard_form(inst: ILPInstance) -> StandardFormILP:
    """Slacks and surpluses appended, then every row of [A | b], in order,
    reduced in Fractions by the rows kept before it: a row that reduces
    to zero is dropped, or raises Infeasible when its b does not."""
    m, n = inst.A.rows, inst.A.cols
    data = [row[:] for row in inst.A.data]
    names = list(inst.var_names)
    slack_map: dict[int, int] = {}
    col = n
    for i, sense in enumerate(inst.row_sense):
        if sense == EQ:
            continue
        coeff = 1 if sense == LE else -1
        for r in range(m):
            data[r].append(coeff if r == i else 0)
        slack_map[col] = i
        names.append(f"_s{i+1}")
        col += 1
    c = list(inst.c) + [Fraction(0)] * (col - n)
    b = list(inst.b)

    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(data)]
    keep: list[int] = []
    pivots: list[tuple[int, int]] = []
    for i in range(m):
        row = aug[i][:]
        for kr, pc in pivots:
            if row[pc] != 0:
                f = row[pc] / aug[kr][pc]
                row = [x - f * y for x, y in zip(row, aug[kr])]
        pc = next((j for j in range(col) if row[j] != 0), None)
        if pc is None:
            if row[col] != 0:
                raise Infeasible(f"row {i+1} is inconsistent with earlier rows")
            continue  # redundant row
        aug[i] = row
        pivots.append((i, pc))
        keep.append(i)

    pos = {orig: new for new, orig in enumerate(keep)}
    return StandardFormILP(
        name=inst.name, A=IntMatrix([data[i] for i in keep]), b=[b[i] for i in keep],
        c=c, slack_map={j: pos[i] for j, i in slack_map.items() if i in pos},
        var_names=names,
    )


def fraction_solve(A: IntMatrix, cols, rhs) -> tuple[list[Fraction], Fraction]:
    """Gauss–Jordan in Fractions on A[:, cols] x = rhs (square, nonsingular):
    returns x and the determinant, the signed product of the pivots."""
    sub = A.select_columns(cols)
    n = sub.rows
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(sub.data)]
    det = Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if aug[i][t] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        if piv != t:
            aug[t], aug[piv] = aug[piv], aug[t]
            det = -det
        det *= aug[t][t]
        inv = 1 / aug[t][t]
        aug[t] = [x * inv for x in aug[t]]
        for i in range(n):
            if i != t and aug[i][t] != 0:
                f = aug[i][t]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[t])]
    return [aug[i][n] for i in range(n)], det


def fraction_sufficiency(sf: StandardFormILP, bs: BasisSolution) -> bool:
    """A_B^{-1} b >= max_ij |(A_B^{-1} A_N)_ij| * |det A_B| by one Fraction
    solve per nonbasic column."""
    if not bs.nonbasic:
        return True
    xb, det = fraction_solve(sf.A, bs.basis, sf.b)
    biggest = max(abs(v) for j in bs.nonbasic
                  for v in fraction_solve(sf.A, bs.basis, sf.A.column(j))[0])
    return all(v >= biggest * abs(det) for v in xb)


def _simplex(T: list[list[Fraction]], basis: list[int], n: int) -> None:
    """Bland-rule simplex on tableau T (m rows + objective row at end).

    T has n+1 columns (last is the rhs); the objective row holds reduced
    costs (to be minimized) and the current negated objective value.
    Mutates T and basis in place. Raises Unbounded.
    """
    m = len(T) - 1
    while True:
        enter = next((j for j in range(n) if T[m][j] < 0), None)
        if enter is None:
            return
        leave_row = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][n] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave_row]
                ):
                    best = ratio
                    leave_row = i
        if leave_row is None:
            raise Unbounded(f"column {enter} has no blocking row")
        piv = T[leave_row][enter]
        T[leave_row] = [x / piv for x in T[leave_row]]
        for i in range(m + 1):
            if i != leave_row and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave_row])]
        basis[leave_row] = enter


def tableau_solve_lp_exact(sf: StandardFormILP) -> TableauSolution:
    """Two-phase exact rational simplex; returns an optimal basis."""
    m, n = sf.A.rows, sf.A.cols
    # phase 1: rows flipped so b >= 0, one artificial per row
    rows = []
    for i in range(m):
        sign = 1 if sf.b[i] >= 0 else -1
        rows.append([Fraction(sign * x) for x in sf.A.data[i]] + [Fraction(0)] * m + [Fraction(sign * sf.b[i])])
        rows[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n, n + m):
        obj[j] = Fraction(1)
    # price out the artificial basis
    for i in range(m):
        obj = [x - y for x, y in zip(obj, rows[i])]
    T = rows + [obj]
    _simplex(T, basis, n + m)  # artificials allowed to re-enter; Bland terminates
    if -T[m][n + m] > 0:
        raise Infeasible("phase 1 optimum is positive")
    # drive any zero-valued artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is None:
                continue  # fully redundant row (rank repair should prevent this)
            piv = T[i][enter]
            T[i] = [x / piv for x in T[i]]
            for r in range(m + 1):
                if r != i and T[r][enter] != 0:
                    f = T[r][enter]
                    T[r] = [x - f * y for x, y in zip(T[r], T[i])]
            basis[i] = enter
    if any(bi >= n for bi in basis):
        raise Infeasible("could not form a basis from structural columns")

    # phase 2 on the original columns
    T2 = [row[:n] + [row[n + m]] for row in T[:m]]
    obj2 = [Fraction(c) for c in sf.c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if obj2[bi] != 0:
            f = obj2[bi]
            obj2 = [x - f * y for x, y in zip(obj2, T2[i])]
    T2.append(obj2)
    _simplex(T2, basis, n)

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T2[i][n]
    nonbasic = [j for j in range(n) if j not in set(basis)]
    reduced = {j: T2[m][j] for j in nonbasic}
    opt = sum((c * xi for c, xi in zip(sf.c, x)), Fraction(0))
    return TableauSolution(
        basis=list(basis),
        nonbasic=nonbasic,
        x_lp=x,
        reduced_costs=reduced,
        opt_lp=opt,
        degenerate_primal=any(x[bi] == 0 for bi in basis),
    )
