"""The dense reference that ``grouprelax.spdiag.sp_diagnose`` is tested
against: the coset from ``enumerate_coset``, one Fraction cost per
state, the n x n count matrix from a dict neighbour table, the exact
pseudo-Lipschitz norm over object arrays and a fresh H_mu per sweep
point. Given the same coset and parameters, both must return SPReports
with equal repr. Also the shifted cost and the H_mu builder on Fraction
costs that the spdiag tests read.
"""

import math
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sp

from grouprelax.errors import CertificateError, DenseLimitExceeded
from grouprelax.exact import clear_denominators
from grouprelax.spdiag import (SPParams, SPReport, _theta_vector, ground_overlap,
                               speedup_conditions, theta_eta)
from grouprelax.walks import (CayleyWalkSpec, character_gap, cyclic_norm_max,
                              log_sobolev_lower)
from tests.coset_oracle import enumerate_coset


def shifted_cost(values) -> tuple[Fraction, Fraction]:
    """Shift constant C = f_max + 1 and ground energy E* = f_min - C.
    All shifted values lie in [E*, -1], so E* < 0 always."""
    C = max(values) + 1
    return C, min(values) - C


def build_sp_hamiltonian(P, ftilde, mu: float, eta: float, e_star: Fraction):
    """H_mu = -P + mu * diag(theta_eta(ftilde / |E*|)); symmetric since
    P is, sparse when P is. The theta arguments all land in [-1, 0]."""
    _, (E, *a) = clear_denominators([abs(Fraction(e_star)), *map(Fraction, ftilde)])
    return hamiltonian(P, mu, _theta_vector(np.array(a, dtype=object), E, eta))


def neighbours(spec, states):
    """(n, 2k) table: column 2j holds the index of state + h_j and column
    2j + 1 that of state - h_j, by dict lookup."""
    index = {s: i for i, s in enumerate(states)}
    table = np.empty((len(states), 2 * len(spec.generators)), dtype=np.intp)
    for j, h in enumerate(spec.generators):
        for c, sign in enumerate((1, -1)):
            for i, s in enumerate(states):
                y = tuple((a + sign * g) % m for a, g, m in zip(s, h, spec.moduli))
                if y not in index:
                    raise ValueError("state set is not closed under the generators")
                table[i, 2 * j + c] = index[y]
    return table


def dense_counts(spec, states):
    """(counts, den): the n x n int64 walk matrix over one denominator,
    checked symmetric and doubly stochastic."""
    n, k = len(states), len(spec.generators)
    move_w = (1 - spec.laziness) / (2 * k)
    den = math.lcm(spec.laziness.denominator, move_w.denominator)
    counts = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(counts, int(spec.laziness * den))
    nb = neighbours(spec, states)
    np.add.at(counts, (np.arange(n).repeat(2 * k), nb.ravel()), int(move_w * den))
    if not np.array_equal(counts, counts.T):
        raise CertificateError("Cayley walk matrix must be symmetric")
    if not (np.all(counts.sum(axis=0) == den) and np.all(counts.sum(axis=1) == den)):
        raise CertificateError("Cayley walk matrix must be doubly stochastic")
    return counts, den


def pseudo_lipschitz_exact(values, spec, states):
    """max_x E_y[(f(x) - f(y))^2] over one walk step, in Fractions."""
    nb = neighbours(spec, states)
    den = math.lcm(*(v.denominator for v in values))
    iv = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)
    diff = iv[:, None] - iv[nb]
    move_w = (1 - spec.laziness) / (2 * len(spec.generators))
    return move_w * Fraction(int((diff * diff).sum(axis=1).max()), den * den)


def theta_vector(ftilde, eta, e_star):
    abs_e = abs(Fraction(e_star))
    theta = np.empty(len(ftilde))
    for i, v in enumerate(ftilde):
        x = Fraction(v) / abs_e
        if not -1 <= x <= 0:
            raise CertificateError("shifted cost left the normalized range")
        theta[i] = theta_eta(float(x), eta)
    return theta


def hamiltonian(P, mu, theta):
    if isinstance(P, np.ndarray):
        return -P + np.diag(mu * theta)
    return (-P + sp.diags_array(mu * theta)).tocsr()


def sp_diagnose(grd, fc, params: SPParams, kstar_order: Optional[int] = None) -> SPReport:
    kb = fc.basis
    if kb.kernel_order > params.dense_limit:
        raise DenseLimitExceeded(
            f"|K| = {kb.kernel_order} exceeds dense limit {params.dense_limit}")
    states = list(enumerate_coset(fc, params.dense_limit))
    n = len(states)
    values = [grd.cost(s) for s in states]
    C, e_star = shifted_cost(values)
    f_max = C - 1
    ftilde = [v - C for v in values]
    fmin = min(values)
    kstar_idx = [i for i, v in enumerate(values) if v == fmin]
    if kstar_order is None:
        kstar_order = len(kstar_idx)
    degenerate = kstar_order == kb.kernel_order

    spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli)
    weights = grd.cbold
    norms_max = cyclic_norm_max(kb.generators, weights, kb.moduli)
    omega = log_sobolev_lower(kb)
    c1, c2 = speedup_conditions(kb, weights, e_star, kstar_order)

    if n == 1 or not kb.generators:
        P = np.eye(n)
        delta = 1.0
        plip = Fraction(0)
    else:
        counts, den = dense_counts(spec, states)
        P = sp.csr_array(counts) / den
        delta = character_gap(kb, spec.laziness)
        plip = pseudo_lipschitz_exact(values, spec, states)

    abs_e = float(abs(e_star))
    eta = params.eta
    pi_ratio = kb.kernel_order / kstar_order
    gamma_plain = gamma_trunc = mu_star_ls = mu = alpha_hat = None
    mu_star_gap = delta / 4
    mean_ft = sum(ftilde, Fraction(0)) / n
    trunc_vals = [abs_e * theta_eta(float(ft) / abs_e, eta) for ft in ftilde]
    mean_trunc = sum(trunc_vals) / n
    sublevel = sum(1 for ft in ftilde if float(ft) <= (1 - eta) * float(e_star)) / n
    if not degenerate:
        logpi = math.log(pi_ratio)
        denom = float(plip) * logpi if plip > 0 else None
        num_plain = -(1 - eta) * float(e_star) - float(mean_ft)
        num_trunc = -(1 - eta) * float(e_star) - mean_trunc
        if denom:
            gamma_plain = float(omega) * num_plain**2 / denom
            gamma_trunc = float(omega) * num_trunc**2 / denom
            mu_star_ls = (2.0 / 3.0) * gamma_trunc * float(omega) * logpi
            mu = 0.9 * min(mu_star_ls, mu_star_gap)
            dp = float(norms_max)
            if dp > 0 and mu > 0:
                alpha_hat = eta * (1 - eta) * abs_e * mu / (2 * dp * logpi)
                alpha_hat = min(alpha_hat, 0.5 - 1e-12)
    elif n >= 1:
        alpha_hat = 0.0

    sweep_top = mu if mu else mu_star_gap
    overlap_curve = []
    lambda_curve = []
    steps = max(params.mu_sweep, 1)
    theta = theta_vector(ftilde, eta, e_star)
    for i in range(steps):
        mu_i = sweep_top * i / steps
        lam1, ov = ground_overlap(hamiltonian(P, mu_i, theta), kstar_idx)
        overlap_curve.append((mu_i, ov))
        lambda_curve.append((mu_i, lam1))
    if not abs(overlap_curve[0][1] - len(kstar_idx) / n) < 1e-10:
        raise CertificateError("mu = 0 overlap differs from |K*|/|K|")

    return SPReport(
        k_order=kb.kernel_order, kstar_order=kstar_order, g_order=kb.range_order,
        e_star=e_star, shift_c=C, f_max=f_max, cyclic_norm_max=norms_max,
        omega_hat=omega, delta=delta, gamma_plain=gamma_plain,
        gamma_trunc=gamma_trunc, mu_star_ls=mu_star_ls, mu_star_gap=mu_star_gap,
        mu=mu, alpha_hat=alpha_hat, condition_26a=c1, condition_26b=c2,
        degenerate=degenerate, sublevel_mass=sublevel,
        pseudo_lipschitz_exact=plip, overlap_curve=overlap_curve,
        lambda_curve=lambda_curve)
