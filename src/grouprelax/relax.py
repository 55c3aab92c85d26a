"""Build the group relaxation tuple (Abold, bbold, cbold, {r_j}) from an
optimal LP basis (``relax_ilp`` runs the whole chain from an instance),
lift kernel-space solutions back to full ILP vectors, and assemble the
LP <= group <= ILP bound chain.

Both ends read the LP's certified integers (``lp.BasisSolution``). The
group cost is defined once, from the reduced-cost numerators over the
LP's one denominator; cbold and the OPT_LP shift are its Fraction views.
A lift is x_B = adj·rhs / det, exact because the LP certified
adj·A_B = det·I; a remainder means the point is off the coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

import numpy as np

from .errors import CertificateError
from .exact import IntMatrix, SNFResult, det_exact, int_dtype, snf
from .lp import (BasisSolution, ILPInstance, StandardFormILP, solve_lp_exact,
                 to_standard_form)


@dataclass(frozen=True)
class LinearCost:
    """The linear cost x -> (const + weights·x) / den on integer points,
    with den > 0; every group cost is one. Walks price a move by the
    integer change of const + weights·x, the brute force and the
    diagnostics price the whole coset by ``scaled_rows``, and each call
    builds one Fraction."""

    den: int
    const: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("den must be >= 1")
        object.__setattr__(self, "weights", tuple(self.weights))

    def scaled(self, x: Sequence[int]) -> int:
        """den times the cost of x: const + weights·x."""
        if len(x) != len(self.weights):
            raise ValueError(f"point of length {len(x)} for a cost on "
                             f"{len(self.weights)} coordinates")
        return self.const + sum(map(mul, self.weights, x))

    def bound(self, moduli: Sequence[int]) -> int:
        """Above |const + weights·x|, and each partial sum of it, at every
        x with 0 <= x_c < moduli_c, and above every modulus."""
        return max(abs(self.const) + sum(abs(w) * m for w, m in zip(self.weights, moduli)) + 1,
                   max(moduli, default=0))

    def scaled_rows(self, X: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
        """``scaled`` at each row of X, a point of ⊕_c Z_{moduli_c}, as an
        array in ``int_dtype(bound(moduli))``: one pass per column."""
        if len(self.weights) != len(moduli):
            raise ValueError(f"cost on {len(self.weights)} coordinates for a coset "
                             f"on {len(moduli)}")
        iv = np.full(len(X), self.const, dtype=int_dtype(self.bound(moduli)))
        for c, w in enumerate(self.weights):
            iv += w * X[:, c].astype(iv.dtype, copy=False)
        return iv

    def __call__(self, x: Sequence[int]) -> Fraction:
        return Fraction(self.scaled(x), self.den)

    def __neg__(self) -> LinearCost:
        return LinearCost(self.den, -self.const, tuple(-w for w in self.weights))


@dataclass
class GroupRelaxationData:
    sf: StandardFormILP
    bs: BasisSolution
    r: list[int]                 # invariant factors of A_B, r_1 | ... | r_m
    Abold: IntMatrix             # m x d, entries reduced into [0, r_row)
    bbold: list[int]             # reduced likewise
    cost: LinearCost             # OPT_LP + cbold·x over kept columns, in lowest terms
    kept_cols: list[int]         # Abold column -> standard-form column index
    dropped_cols: list[int]      # nonbasic columns congruent to 0 mod R Z^m

    @property
    def d(self) -> int:
        return self.Abold.cols

    @property
    def m(self) -> int:
        return self.Abold.rows

    @property
    def r_max(self) -> int:
        return self.r[-1]

    @cached_property
    def cbold(self) -> list[Fraction]:
        """The reduced costs of the kept columns, >= 0."""
        return [Fraction(w, self.cost.den) for w in self.cost.weights]

    @cached_property
    def shift(self) -> Fraction:
        """OPT_LP."""
        return Fraction(self.cost.const, self.cost.den)


@dataclass
class GroupSolution:
    objective: Fraction          # includes the OPT_LP shift
    lifted_x: list[int]          # full standard-form vector
    ilp_feasible: bool


def _check_basis_snf(AB: IntMatrix, fact: SNFResult, r: list[int]) -> None:
    """Uinv·A_B·Vinv = diag(r), r_i | r_{i+1} and |det Uinv| = |det Vinv| = 1.

    The last follows from |det A_B| = prod(r): with the first,
    det Uinv · det A_B · det Vinv = prod(r), so the two integer
    determinants multiply to +-1."""
    UA = [[sum(map(mul, u, col)) for col in zip(*AB.data)] for u in fact.Uinv.data]
    # the columns of Vinv are the rows of Vinv_t
    if [[sum(map(mul, row, v)) for v in fact.Vinv_t.data] for row in UA] != \
            [[r_i if i == j else 0 for j in range(len(r))] for i, r_i in enumerate(r)]:
        raise CertificateError("basis SNF: Uinv·A_B·Vinv is not diag(r)")
    if any(b % a for a, b in zip(r, r[1:])):
        raise CertificateError(f"basis SNF: invariant factors {r} do not divide in turn")
    if abs(det_exact(AB)) != math.prod(r):
        raise CertificateError("basis SNF: a transform is not unimodular")


def build_group_relaxation(sf: StandardFormILP, bs: BasisSolution) -> GroupRelaxationData:
    """Form (Abold, bbold, cbold, {r_j}); columns of U^{-1}A_N that are
    0 mod R Z^m are dropped (fixing those variables to 0 is free).

    The basis SNF is certified first. Only rows with r_i > 1 are
    computed: a row mod 1 is 0."""
    AB = sf.A.select_columns(bs.basis)
    fact = snf(AB)
    r = [int(x) for x in fact.D]
    if not all(x >= 1 for x in r):
        raise CertificateError("basis matrix must be nonsingular")
    _check_basis_snf(AB, fact, r)
    m = len(r)

    cols = list(zip(*sf.A.data))
    nonbasic = [cols[j] for j in bs.nonbasic]
    red = [[0] * len(nonbasic) for _ in range(m)]
    bbold = [0] * m
    for i, r_i in enumerate(r):
        if r_i > 1:
            u = fact.Uinv.data[i]
            red[i] = [sum(map(mul, u, col)) % r_i for col in nonbasic]
            bbold[i] = sum(map(mul, u, sf.b)) % r_i
    keep = [any(v) for v in zip(*red)]
    kept = [j for j, k in zip(bs.nonbasic, keep) if k]
    dropped = [j for j, k in zip(bs.nonbasic, keep) if not k]
    Abold = IntMatrix._of([[v for v, k in zip(row, keep) if k] for row in red])
    weights = [v for v, k in zip(bs.reduced, keep) if k]
    if any(w < 0 for w in weights):
        raise CertificateError("optimal basis has a negative reduced cost")
    # over den: the lcm of the reduced denominators of OPT_LP and cbold is den / g
    g = math.gcd(bs.den, bs.opt_num, *weights)
    cost = LinearCost(bs.den // g, bs.opt_num // g, [w // g for w in weights])
    return GroupRelaxationData(
        sf=sf, bs=bs, r=r, Abold=Abold, bbold=bbold,
        cost=cost, kept_cols=kept, dropped_cols=dropped,
    )


def relax_ilp(inst: ILPInstance) -> GroupRelaxationData:
    """Instance -> standard form -> exact optimal LP basis -> group relaxation."""
    sf = to_standard_form(inst)
    return build_group_relaxation(sf, solve_lp_exact(sf))


def lift_to_ilp(grd: GroupRelaxationData, x_n: Sequence[int]) -> GroupSolution:
    """Lift kernel-space x_N (over kept columns) to a full vector.

    x_B = adj·(b - A_N x_N) / det must come out integral; a remainder
    means the input was not in the feasible coset and raises
    CertificateError.
    """
    sf, bs = grd.sf, grd.bs
    if len(x_n) != len(grd.kept_cols):
        raise ValueError("x_N must cover exactly the kept columns")
    full = [0] * sf.A.cols
    for j, v in zip(grd.kept_cols, x_n):
        if v < 0:
            raise ValueError("kernel-space entries must be nonnegative")
        full[j] = int(v)
    moved = [(j, full[j]) for j in grd.kept_cols if full[j]]
    rhs = [bv - sum(row[j] * v for j, v in moved) for row, bv in zip(sf.A.data, sf.b)]
    for j, row in zip(bs.basis, bs.adj):
        full[j], rem = divmod(sum(map(mul, row, rhs)), bs.det)
        if rem:
            raise CertificateError("non-integral basic lift: inconsistent coset input")
    return GroupSolution(
        objective=grd.cost([int(v) for v in x_n]),
        lifted_x=full,
        ilp_feasible=all(full[j] >= 0 for j in bs.basis),
    )


@dataclass
class BoundChain:
    opt_lp: Fraction
    opt_group: Fraction
    opt_ilp: Fraction | None
    delta_lp_ilp: Fraction | None
    delta_b: Fraction | None
    r_abs: Fraction
    r_pct: Fraction | None  # None means "N/A" (zero LP-ILP gap)


def bound_chain(opt_lp, opt_group, opt_ilp=None) -> BoundChain:
    """Assemble gap-closure metrics; violations of the chain
    OPT_LP <= OPT_B <= OPT indicate a solver bug and raise."""
    opt_lp = Fraction(opt_lp)
    opt_group = Fraction(opt_group)
    if opt_group < opt_lp:
        raise CertificateError(f"bound chain violated: OPT_B {opt_group} < OPT_LP {opt_lp}")
    r_abs = opt_group - opt_lp
    if opt_ilp is None:
        return BoundChain(opt_lp, opt_group, None, None, None, r_abs, None)
    opt_ilp = Fraction(opt_ilp)
    if opt_ilp < opt_group:
        raise CertificateError(f"bound chain violated: OPT {opt_ilp} < OPT_B {opt_group}")
    delta_lp_ilp = opt_ilp - opt_lp
    delta_b = opt_ilp - opt_group
    r_pct = 100 * r_abs / delta_lp_ilp if delta_lp_ilp > 0 else None
    return BoundChain(opt_lp, opt_group, opt_ilp, delta_lp_ilp, delta_b, r_abs, r_pct)
