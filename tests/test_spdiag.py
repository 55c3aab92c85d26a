"""Short-path spectral diagnostics: shifted cost, truncation, the
Hamiltonian, Lanczos ground overlaps, the character gap, condition
ratios."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import grouprelax
from grouprelax import SPParams, ground_overlap, sp_diagnose, speedup_conditions, theta_eta
from grouprelax.errors import (CertificateError, DenseLimitExceeded,
                               DiagnosticUnavailable)
from grouprelax.gen import CutStockSpec, cutgen, planted
from grouprelax.kernel import KernelBasis, feasible_coset
from grouprelax.walks import (CayleyWalkSpec, character_gap, spectral_gap,
                              transition_matrix)
from tests import spdiag_oracle
from tests.spdiag_oracle import build_sp_hamiltonian, shifted_cost
from tests.conftest import build, stub_grd
from tests.coset_oracle import enumerate_coset


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


# Sparse Lanczos ground states and the character gap, each checked
# against the dense oracle (numpy eigh / spectral_gap) inside the test.

def oracle_cosets(random_suite):
    """Named cosets of the benchmark ladder and the tier-1 tests, plus
    every random-suite coset with generators and |K| <= 729."""
    named = [planted(2, 3, 1)[0], planted(2, 8, 1)[0], planted(3, 4, 1)[0],
             planted(3, 6, 2, style="random-lower-unit")[0], planted(5, 2, 1)[0],
             cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35))]
    out = [build(inst)[2:] for inst in named]
    out += [(c["grd"], c["fc"]) for c in random_suite["cases"]
            if c["fc"].basis.generators and c["fc"].basis.kernel_order <= 729]
    assert len(out) > 100
    return out


def dense_inputs(grd, fc):
    """(P, ftilde, E*, optimal indices) exactly as sp_diagnose forms them."""
    kb = fc.basis
    states = list(enumerate_coset(fc, 4096))
    values = [grd.cost(s) for s in states]
    C, e_star = shifted_cost(values)
    fmin = min(values)
    kstar = [i for i, v in enumerate(values) if v == fmin]
    P = transition_matrix(CayleyWalkSpec(kb.generators, kb.moduli), states).P
    return P, [v - C for v in values], e_star, kstar


def test_ground_overlap_matches_dense_eigh(random_suite):
    for grd, fc in oracle_cosets(random_suite):
        rep = sp_diagnose(grd, fc, SPParams())
        P, ftilde, e_star, kstar = dense_inputs(grd, fc)
        theta = np.array([theta_eta(float(v / abs(e_star)), 0.5) for v in ftilde])
        mu_top = rep.overlap_curve[-1][0]
        H = -P + np.diag(mu_top * theta)
        assert np.array_equal(build_sp_hamiltonian(P, ftilde, mu_top, 0.5, e_star), H)
        Hsp = build_sp_hamiltonian(scipy.sparse.csr_array(P), ftilde, mu_top, 0.5, e_star)
        assert scipy.sparse.issparse(Hsp) and np.array_equal(Hsp.toarray(), H)
        for (mu, ov), (_, lam) in zip(rep.overlap_curve, rep.lambda_curve):
            H = -P + np.diag(mu * theta)
            w, Q = np.linalg.eigh(H)
            ov_dense = float(np.sum(Q[kstar, 0] ** 2))
            lam_sp, ov_sp = ground_overlap(scipy.sparse.csr_array(H), kstar)
            for lam1, ov1 in ((lam, ov), (lam_sp, ov_sp)):
                assert abs(lam1 - w[0]) < 1e-12
                assert abs(ov1 - ov_dense) < 1e-10


def test_character_gap_matches_spectral_gap(random_suite):
    for grd, fc in oracle_cosets(random_suite):
        P = dense_inputs(grd, fc)[0]
        assert abs(character_gap(fc.basis) - spectral_gap(P)) < 1e-12
    # mixed even and odd cycles, a long cycle, and another laziness
    for orders, lazy in [((2, 3, 5), Fraction(1, 3)), ((7,), Fraction(1, 3)),
                         ((3, 3), Fraction(1, 2)), ((64, 2), Fraction(1, 5))]:
        k = len(orders)
        gens = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        kb = KernelBasis(gens, orders, orders, math.prod(orders), 1)
        spec = CayleyWalkSpec(gens, orders, laziness=lazy)
        states = list(itertools.product(*(range(u) for u in orders)))
        P = transition_matrix(spec, states).P
        assert abs(character_gap(kb, lazy) - spectral_gap(P)) < 1e-12


def test_character_gap_certificate():
    assert character_gap(KernelBasis((), (), (4,), 1, 4)) == 1.0
    with pytest.raises(CertificateError, match="multiply"):
        character_gap(KernelBasis(((2,),), (2,), (4,), 4, 1))


def test_ground_overlap_single_state():
    for H in (np.array([[-1.5]]), scipy.sparse.csr_array([[-1.5]])):
        assert ground_overlap(H, [0]) == (-1.5, 1.0)
        assert ground_overlap(H, []) == (-1.5, 0.0)


def test_ground_overlap_needs_stoquastic():
    lam, ov = ground_overlap(np.array([[0.0, -1.0], [-1.0, 0.0]]), [0])
    assert abs(lam + 1) < 1e-12 and abs(ov - 0.5) < 1e-12
    for H in (np.array([[0.0, 1.0], [1.0, 0.0]]),
              scipy.sparse.csr_array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.5],
                                      [0.0, 0.5, 0.0]])):
        with pytest.raises(ValueError, match="stoquastic"):
            ground_overlap(H, [0])


def test_ground_overlap_one_positive_off_diagonal_entry():
    # one positive entry above the diagonal, and a positive diagonal
    # entry that the check must let through
    H = np.array([[-1.0, -0.5, 0.0], [-0.5, 0.5, 0.25], [0.0, -0.5, -1.0]])
    for form in (H, scipy.sparse.csr_array(H), scipy.sparse.coo_array(H)):
        with pytest.raises(ValueError, match="stoquastic"):
            ground_overlap(form, [0])
    H[1, 2] = -0.5
    for form in (H, scipy.sparse.csr_array(H)):
        lam, ov = ground_overlap(form, [0])
        assert abs(lam - np.linalg.eigvalsh(H)[0]) < 1e-12


def second_eigenpair(H, k, **kwargs):
    """Stand-in solver that returns the second eigenpair: a true
    eigenpair, so only the Perron certificate can reject it."""
    dense = H.toarray() if scipy.sparse.issparse(H) else H
    w, Q = np.linalg.eigh(dense)
    return w[1:2], Q[:, 1:2]


def test_perron_certificate_rejects_second_eigenpair(monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", second_eigenpair)
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    with pytest.raises(CertificateError, match="non-positive"):
        sp_diagnose(grd, fc, SPParams(mu_sweep=2))
    H = -transition_matrix(CayleyWalkSpec(fc.basis.generators, fc.basis.moduli),
                           list(enumerate_coset(fc, 100))).P
    with pytest.raises(CertificateError, match="non-positive"):
        ground_overlap(H, [0])


def test_sp_diagnose_repeats_bit_for_bit():
    inst, _ = planted(3, 6, 2, style="random-lower-unit")
    _, _, grd, fc = build(inst)
    assert fc.basis.kernel_order == 729
    assert sp_diagnose(grd, fc, SPParams()) == sp_diagnose(grd, fc, SPParams())


def test_import_does_not_load_scipy():
    script = ("import sys, grouprelax\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(grouprelax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# sp_diagnose against the Fraction-per-state dense reference in
# tests/spdiag_oracle.py: every SPReport field, compared by repr, so the
# overlap and lambda curves must agree to the last bit.

def ladder_planted_draws(seed=1):
    """The benchmark ladder's two planted instances: (t, m, style) (2, 8,
    identity) and (3, 6, random-lower-unit), ell and the instance seed
    drawn from random.Random(seed) in that order."""
    rng = random.Random(seed)
    out = []
    for t, m, style in ((2, 8, "identity"), (3, 6, "random-lower-unit")):
        ell = rng.randint(1, t - 1)
        out.append(planted(t, m, ell, seed=rng.randrange(1 << 30), style=style)[0])
    return out


def oracle_report_cases():
    """(grd, fc, params, kstar_order) for the report comparison."""
    insts = ladder_planted_draws()
    insts += [planted(t, m, 1, seed=4, style=style)[0]
              for t, m in ((2, 12), (4, 6), (3, 7), (5, 4))
              for style in ("identity", "random-lower-unit")]
    # cutgen cosets with |K| = 1, 27, 64 and 100
    insts += [cutgen(CutStockSpec(m=m, L=L, v2=0.8, dbar=2.0, seed=s))
              for m, L, s in ((3, 10, 9), (4, 20, 24), (4, 20, 35), (3, 10, 2))]
    cases = [(*build(inst)[2:], SPParams(), None) for inst in insts]
    assert sorted(fc.basis.kernel_order for _, fc, _, _ in cases[-4:]) == [1, 27, 64, 100]
    # the |K| = 64 coset compressed (moduli differ by column), another eta
    grd, fc = cases[-2][:2]
    cases.append((grd, feasible_coset(grd, compress=True), SPParams(eta=0.3, mu_sweep=5),
                  None))
    # a degenerate coset: a cost that is the same at every point
    grd = stub_grd([[1, 3]], [6], [1], cbold=[0, 0])
    cases.append((grd, feasible_coset(grd), SPParams(), None))
    # an explicit kstar_order
    grd, fc = build(planted(3, 3, 1)[0])[2:]
    cases.append((grd, fc, SPParams(mu_sweep=3), 5))
    # past int64 and float: points mod 2^64 (Python ints); den and
    # weights past 2^53 and 2^63; den * |E*| past 2^53 with int64 costs
    grds = [stub_grd([[2]], [2**64], [2])]
    grds += [stub_grd([[1, 3]], [6], [1], cbold=cbold)
             for cbold in ([Fraction(2**70 + 1, 3**35), Fraction(-5, 7)],
                           [Fraction(1, 3**40), 2], [Fraction(1, 2**55), 0], [2**60, 1])]
    cases += [(grd, feasible_coset(grd), params, None) for grd in grds
              for params in (SPParams(), SPParams(eta=0.3, mu_sweep=3))]
    return cases


def test_sp_diagnose_matches_oracle():
    degenerate = 0
    for grd, fc, params, kstar in oracle_report_cases():
        rep = sp_diagnose(grd, fc, params, kstar)
        assert repr(rep) == repr(spdiag_oracle.sp_diagnose(grd, fc, params, kstar))
        degenerate += rep.degenerate
    assert degenerate >= 2


def test_sp_diagnose_fits_two_gib():
    # |K| = 32768: the n x n counts alone would take 8 GiB
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from grouprelax import SPParams, feasible_coset, planted, relax_ilp, sp_diagnose\n"
              "grd = relax_ilp(planted(2, 15, 1)[0])\n"
              "rep = sp_diagnose(grd, feasible_coset(grd), SPParams(dense_limit=32768))\n"
              "print(rep.k_order, rep.kstar_order, rep.overlap_curve[0][1] * 32768)\n")
    src = str(Path(grouprelax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    k, kstar, ov = out.stdout.split()
    assert (k, kstar) == ("32768", "1") and abs(float(ov) - 1) < 1e-8
