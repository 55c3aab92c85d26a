"""Short-path spectral diagnostics: shifted cost, truncation, dense
Hamiltonian, ground overlaps, condition ratios."""

import math
from fractions import Fraction

import numpy as np
import pytest

from grouprelax import (SPParams, build_sp_hamiltonian, ground_overlap,
                        shifted_cost, sp_diagnose, speedup_conditions,
                        theta_eta)
from grouprelax.errors import DenseLimitExceeded, DiagnosticUnavailable
from grouprelax.gen import planted
from grouprelax.kernel import KernelBasis, enumerate_coset, feasible_coset
from grouprelax.walks import CayleyWalkSpec, transition_matrix
from tests.conftest import build


def test_shifted_cost_planted_values():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    f = grd.cost
    values = sorted(f(pt) for pt in enumerate_coset(fc, 100))
    assert values == [2, 4, 4, 6]
    C, e_star = shifted_cost(values)
    assert C == 7 and e_star == -5


def test_shifted_cost_constant():
    C, e_star = shifted_cost([Fraction(9)] * 3)
    assert C == 10 and e_star == -1


def test_theta_eta():
    assert theta_eta(-1, 0.5) == -1
    assert theta_eta(0, 0.5) == 0
    assert theta_eta(-0.75, 0.5) == -0.5
    assert theta_eta(-0.4, 0.5) == 0  # x >= eta - 1 branch
    assert theta_eta(Fraction(-3, 4), Fraction(1, 2)) == Fraction(-1, 2)


def test_hamiltonian_mu0_is_minus_p():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    kb = fc.basis
    states = list(enumerate_coset(fc, 100))
    f = grd.cost
    values = [f(s) for s in states]
    C, e_star = shifted_cost(values)
    ftilde = [v - C for v in values]
    spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli)
    P = transition_matrix(spec, states).P
    H0 = build_sp_hamiltonian(P, ftilde, 0.0, 0.5, e_star)
    assert np.allclose(H0, -P)
    lam1, overlap = ground_overlap(H0, [values.index(min(values))])
    assert abs(lam1 + 1.0) < 1e-12  # ground state of -P has energy -1
    assert abs(overlap - 1 / 4) < 1e-10  # uniform ground state, |K*|=1


def test_hamiltonian_single_state():
    P = np.eye(1)
    H = build_sp_hamiltonian(P, [Fraction(-1)], 0.3, 0.5, Fraction(-1))
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - (-1 - 0.3)) < 1e-12  # theta(-1) = -1


def test_ground_overlap_constant_cost():
    # all states optimal: overlap 1 for any mu
    P = np.full((3, 3), 1 / 3)
    ftilde = [Fraction(-2)] * 3
    for mu in (0.0, 0.1, 0.5):
        H = build_sp_hamiltonian(P, ftilde, mu, 0.5, Fraction(-2))
        _, ov = ground_overlap(H, [0, 1, 2])
        assert abs(ov - 1.0) < 1e-10


def test_speedup_conditions_planted_band():
    for m in range(2, 9):
        kb = KernelBasis(
            generators=tuple(tuple(2 if i == j else 0 for i in range(m))
                             for j in range(m)),
            orders=(2,) * m,
            moduli=(4,) * m,
            kernel_order=2**m,
            range_order=2**m,
        )
        e_star = Fraction(-(2 * m + 1))  # min m, max 3m, shift 3m+1
        c1, c2 = speedup_conditions(kb, [1] * m, e_star, 1)
        assert abs(c1.ratio - 2 * m / (2 * m + 1)) < 1e-12
        assert abs(c2.ratio - 4.0) < 1e-12
        assert c1.in_band and c2.in_band


def test_speedup_conditions_dense_counterexample():
    d = 12
    kb = KernelBasis(
        generators=((2,) * d,),
        orders=(2,),
        moduli=(4,) * d,
        kernel_order=2,
        range_order=4**d // 2,
    )
    c1, _ = speedup_conditions(kb, [1] * d, Fraction(-3), 1)
    assert c1.ratio == pytest.approx(2 * d / 3)
    assert not c1.in_band


def test_speedup_conditions_degenerate():
    kb = KernelBasis(((2,),), (2,), (4,), 2, 2)
    c1, c2 = speedup_conditions(kb, [1], Fraction(-1), 2)
    assert math.isnan(c1.ratio) and not c1.in_band
    with pytest.raises(DiagnosticUnavailable):
        speedup_conditions(kb, [1], Fraction(-1), 3)


def test_speedup_conditions_huge_kernel():
    # |K| = 2^1100 does not fit a float, and |K*| = 3 does not divide it
    d, u = 110, 2**10
    unit = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    kb = KernelBasis(unit, (u,) * d, (u,) * d, u**d, 1)
    _, c2 = speedup_conditions(kb, [1] * d, Fraction(-1), 3)
    assert c2.ratio == pytest.approx(u * u * d / (1100 - math.log2(3)))


def test_sp_diagnose_planted_t2_m3():
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    rep = sp_diagnose(grd, fc, SPParams(mu_sweep=4))
    assert rep.k_order == 8 and rep.kstar_order == 1 and rep.g_order == 8
    assert rep.e_star == -7 and rep.shift_c == 10
    assert abs(rep.overlap_curve[0][1] - 1 / 8) < 1e-10
    assert not rep.degenerate
    assert 0 <= rep.alpha_hat < 0.5
    assert float(rep.omega_hat) <= rep.delta
    assert rep.condition_26a.in_band and rep.condition_26b.in_band
    # pseudo-Lipschitz bound validity
    assert rep.pseudo_lipschitz_exact <= rep.cyclic_norm_max ** 2


def test_sp_diagnose_degenerate_report():
    # treat the whole kernel as optimal via the oracle override
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    rep = sp_diagnose(grd, fc, SPParams(mu_sweep=2),
                      kstar_order=fc.basis.kernel_order)
    assert rep.degenerate
    assert rep.alpha_hat == 0.0
    assert math.isnan(rep.condition_26a.ratio)
    assert rep.gamma_plain is None and rep.mu is None


def test_sp_diagnose_dense_limit():
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    with pytest.raises(DenseLimitExceeded):
        sp_diagnose(grd, fc, SPParams(dense_limit=4))
