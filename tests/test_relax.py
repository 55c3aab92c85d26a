"""Group relaxation construction, lifting, and the bound chain."""

from fractions import Fraction

import pytest

from grouprelax import (CutStockSpec, ILPInstance, IntMatrix, bound_chain,
                        build_group_relaxation, cutgen, enumerate_coset,
                        lift_to_ilp, snf)
from grouprelax.errors import CertificateError
from grouprelax.exact import SNFResult
from grouprelax.gen import planted
from grouprelax.relax import _check_basis_snf
from tests.conftest import build


def test_build_block_instance():
    inst = ILPInstance(
        name="blk",
        A=IntMatrix([[4, 0, 2, 0], [0, 4, 0, 2]]),
        b=[2, 2],
        c=[Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    _, _, grd, _ = build(inst)
    assert grd.r == [4, 4]
    assert grd.Abold == IntMatrix([[2, 0], [0, 2]])
    assert grd.bbold == [2, 2]
    assert grd.cbold == [Fraction(1), Fraction(1)]
    assert grd.d == 2
    assert grd.shift == 0
    assert grd.dropped_cols == []


def test_build_unimodular_basis_trivial_group():
    # basis I2: r = (1,1), every nonbasic column is congruent to 0
    inst = ILPInstance(
        name="uni",
        A=IntMatrix([[1, 0, 3, 7], [0, 1, 5, 2]]),
        b=[4, 6],
        c=[Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    _, bs, grd, _ = build(inst)
    assert sorted(bs.basis) == [0, 1]
    assert grd.r == [1, 1]
    assert grd.d == 0
    assert sorted(grd.dropped_cols) == [2, 3]


def test_build_drops_zero_congruent_column():
    # third column 4*e1 + 8*e2 is 0 mod 4 Z^2 under the 4I basis
    inst = ILPInstance(
        name="drop",
        A=IntMatrix([[4, 0, 4, 2], [0, 4, 8, 2]]),
        b=[2, 2],
        c=[Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    _, bs, grd, _ = build(inst)
    assert sorted(bs.basis) == [0, 1]
    assert grd.dropped_cols == [2]
    assert grd.kept_cols == [3]


def test_lift_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, _ = build(inst)
    sol = lift_to_ilp(grd, [1, 1])
    assert sol.objective == 2
    assert sol.ilp_feasible
    assert sol.lifted_x[:2] == [0, 0]

    sol = lift_to_ilp(grd, [3, 3])
    assert sol.objective == 6
    assert not sol.ilp_feasible
    # original-instance constraint check on the kernel-space part:
    # x_B = (2 - 2*3)/4 = -1 per row
    assert sol.lifted_x[2:] == [3, 3]


def test_lift_d0_returns_basic_solution():
    inst = ILPInstance(
        name="d0",
        A=IntMatrix([[1, 0], [0, 1]]),
        b=[3, 5],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    _, bs, grd, _ = build(inst)
    sol = lift_to_ilp(grd, [])
    assert sol.objective == grd.shift == 8
    assert sorted(sol.lifted_x) == [3, 5]
    assert sol.ilp_feasible


def test_lift_rejects_bad_input():
    inst, _ = planted(2, 2, 1)
    _, _, grd, _ = build(inst)
    with pytest.raises(ValueError):
        lift_to_ilp(grd, [1])
    with pytest.raises(ValueError):
        lift_to_ilp(grd, [-1, 0])


def test_lift_off_coset_raises():
    # (0, 0) is not in the coset {1, 3}^2: x_B = (2 - 0) / 4 per row
    grd = build(planted(2, 2, 1)[0])[2]
    with pytest.raises(CertificateError, match="non-integral"):
        lift_to_ilp(grd, [0, 0])


def test_lift_satisfies_original_equations():
    inst, _ = planted(3, 2, 1, seed=5, style="random-lower-unit")
    sf, _, grd, fc = build(inst)
    from grouprelax.kernel import enumerate_coset
    for pt in enumerate_coset(fc, 100):
        sol = lift_to_ilp(grd, pt)
        assert sf.A.matvec(sol.lifted_x) == sf.b


def test_bound_chain_values():
    ch = bound_chain(Fraction("332.57"), Fraction("336.00"), Fraction("340.00"))
    assert ch.delta_lp_ilp == Fraction("7.43")
    assert ch.delta_b == Fraction("4.00")
    assert ch.r_abs == Fraction("3.43")
    assert abs(float(ch.r_pct) - 46.2) < 0.05

    ch = bound_chain(100, 100, 100)
    assert ch.r_abs == 0 and ch.delta_b == 0 and ch.r_pct is None

    ch = bound_chain(0, 2, 2)
    assert ch.r_pct == 100


def test_bound_chain_violations_raise():
    with pytest.raises(CertificateError):
        bound_chain(3, 2)
    with pytest.raises(CertificateError):
        bound_chain(0, 2, 1)


def test_cost_matches_lift_objective():
    for inst in (planted(2, 3, 1)[0],
                 cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35))):
        _, _, grd, fc = build(inst)
        points = list(enumerate_coset(fc, 100))
        assert len(points) == fc.basis.kernel_order
        for x in points:
            assert grd.cost(x) == lift_to_ilp(grd, x).objective


def test_basis_snf_certificate():
    # each check on its own: the product, the divisibility of the
    # invariant factors and the unimodularity of the transforms
    def fact(D, Uinv, Vinv):
        return SNFResult(D, IntMatrix(Uinv), IntMatrix(list(map(list, zip(*Vinv)))), [], [])

    AB = IntMatrix([[2, 0], [0, 3]])
    good = snf(AB)
    _check_basis_snf(AB, good, good.D)
    good.Uinv.data[1][1] += 1
    with pytest.raises(CertificateError, match="is not diag"):
        _check_basis_snf(AB, good, good.D)
    with pytest.raises(CertificateError, match="do not divide"):
        _check_basis_snf(AB, fact([2, 3], [[1, 0], [0, 1]], [[1, 0], [0, 1]]), [2, 3])
    with pytest.raises(CertificateError, match="not unimodular"):
        _check_basis_snf(IntMatrix([[2]]), fact([4], [[2]], [[1]]), [4])
