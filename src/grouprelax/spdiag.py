"""Short-path spectral diagnostics at desk scale.

Everything the quantum short-path analysis needs, computed exactly or
from certified sparse solves: shifted cost, the truncation theta_eta,
the short-path Hamiltonian H_mu = -P + mu * diag(theta) on the sparse
walk matrix, its ground state by Lanczos with residual and Perron
certificates, the ground-state overlap with the optimal set, the walk
gap from the characters of K, gamma / mu* / alpha estimates, and the
two dimensionless super-quadratic condition ratios with a Theta(1)
proxy band. No full spectrum is computed. scipy is imported inside the
functions that use it, so ``import grouprelax`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CertificateError, DenseLimitExceeded, DiagnosticUnavailable
from .kernel import FeasibleCoset, KernelBasis, enumerate_coset
from .relax import GroupRelaxationData
from .walks import (DENSE_LIMIT_DEFAULT, CayleyWalkSpec, character_gap,
                    cyclic_norm_max, log_sobolev_lower, pseudo_lipschitz,
                    transition_matrix)

BAND_DEFAULT = (0.25, 4.0)  # closed Theta(1) proxy band, both ends inclusive


@dataclass
class SPParams:
    eta: float = 0.5
    mu: Optional[float] = None       # default chosen from mu* and the gap
    dense_limit: int = DENSE_LIMIT_DEFAULT
    mu_sweep: int = 8
    band: tuple[float, float] = BAND_DEFAULT
    expander_c: float = 8.0

    def __post_init__(self):
        if not (0 < self.eta < 1):
            raise ValueError("eta must be in (0, 1)")


def shifted_cost(values: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """Shift constant C = f_max + 1 and ground energy E* = f_min - C.
    All shifted values lie in [E*, -1], so E* < 0 always."""
    fmax = max(values)
    fmin = min(values)
    C = fmax + 1
    return C, fmin - C


def theta_eta(x, eta):
    """Piecewise-linear truncation: -1 at x = -1, 0 for x >= eta - 1,
    linear slope 1/eta in between."""
    return min(0, (x + 1 - eta) / eta)


def _theta_vector(ftilde: Sequence[Fraction], eta: float,
                  e_star: Fraction) -> np.ndarray:
    """theta_eta(ftilde / |E*|) per state; the arguments must land in
    [-1, 0] exactly and the values in [-1, 0]."""
    abs_e = abs(Fraction(e_star))
    theta = np.empty(len(ftilde))
    for i, v in enumerate(ftilde):
        x = Fraction(v) / abs_e
        if not -1 <= x <= 0:
            raise CertificateError("shifted cost left the normalized range")
        th = theta_eta(float(x), eta)
        if not -1 - 1e-12 <= th <= 0:
            raise CertificateError(f"theta_eta value {th} outside [-1, 0]")
        theta[i] = th
    return theta


def _hamiltonian(P, mu: float, theta: np.ndarray):
    """-P + diag(mu * theta): dense for a numpy P, CSR for a sparse P."""
    if isinstance(P, np.ndarray):
        return -P + np.diag(mu * theta)
    import scipy.sparse as sp
    return (-P + sp.diags_array(mu * theta)).tocsr()


def build_sp_hamiltonian(P, ftilde: Sequence[Fraction], mu: float,
                         eta: float, e_star: Fraction):
    """H_mu = -P + mu * diag(theta_eta(ftilde / |E*|)); symmetric since
    P is, sparse when P is. The theta arguments all land in [-1, 0]."""
    return _hamiltonian(P, mu, _theta_vector(ftilde, eta, e_star))


def ground_overlap(H, kstar_idx: Sequence[int]) -> tuple[float, float]:
    """Lowest eigenpair of the symmetric stoquastic H (dense or sparse;
    every off-diagonal entry <= 0, ValueError otherwise) by Lanczos;
    overlap is the squared mass of the ground state on the optimal
    index set.

    Certificates (CertificateError): the residual |H psi - lam psi| is
    at most 1e-10 max(1, |lam|), and psi, up to sign, has every entry
    > 0. By Perron-Frobenius on cI - H >= 0, a positive eigenvector of
    a stoquastic H belongs to its smallest eigenvalue, so the second
    check certifies that the solver found the ground state; it needs
    an irreducible H (a connected walk), as every diagnose H is."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh
    n = H.shape[0]
    C = sp.coo_array(H)
    if np.any(C.data[C.row != C.col] > 0):
        raise ValueError("H has a positive off-diagonal entry: not stoquastic")
    if n == 1:
        lam0, psi = float(H.diagonal()[0]), np.ones(1)
    else:
        # a fixed start vector makes the solve repeat bit for bit
        lam, Q = eigsh(H, k=1, which="SA", v0=np.ones(n), tol=0)
        lam0, psi = float(lam[0]), Q[:, 0]
    if psi.sum() < 0:
        psi = -psi
    resid = np.linalg.norm(H @ psi - lam0 * psi)
    if not resid <= 1e-10 * max(1.0, abs(lam0)):
        raise CertificateError(f"ground eigenpair residual {resid:.3g} too large")
    if not np.all(psi > 0):
        raise CertificateError(
            "Lanczos eigenvector has a non-positive entry: not the ground state")
    overlap = float(np.sum(psi[list(kstar_idx)] ** 2))
    return lam0, overlap


@dataclass
class ConditionCheck:
    ratio: float
    in_band: bool


@dataclass
class SPReport:
    k_order: int
    kstar_order: int
    g_order: int
    e_star: Fraction
    shift_c: Fraction
    f_max: Fraction
    cyclic_norm_max: Fraction         # also the one-step bound delta_p
    omega_hat: Fraction
    delta: Optional[float]
    gamma_plain: Optional[float]      # E_pi[ftilde] numerator variant
    gamma_trunc: Optional[float]      # E_pi[truncated ftilde] variant
    mu_star_ls: Optional[float]
    mu_star_gap: Optional[float]
    mu: Optional[float]
    alpha_hat: Optional[float]
    condition_26a: ConditionCheck
    condition_26b: ConditionCheck
    degenerate: bool                  # every feasible point optimal
    sublevel_mass: Optional[float]    # pi(E <= (1-eta) E*), reported only
    pseudo_lipschitz_exact: Optional[Fraction]
    overlap_curve: list[tuple[float, float]] = field(default_factory=list)
    lambda_curve: list[tuple[float, float]] = field(default_factory=list)


def speedup_conditions(kb: KernelBasis, weights: Sequence, e_star: Fraction,
                       kstar_order: int,
                       band: tuple[float, float] = BAND_DEFAULT
                       ) -> tuple[ConditionCheck, ConditionCheck]:
    """Dimensionless ratios for the two super-quadratic conditions, with
    log base 2 and a closed band as the Theta(1) proxy:
      R1 = max_j cyclic_norm(h_j, c) * log2(|K|/|K*|) / |E*|
      R2 = u_max^2 * k / log2(|K|/|K*|)
    The expander variant drops the second condition and keeps R1.
    """
    if not 1 <= kstar_order <= kb.kernel_order:
        raise DiagnosticUnavailable(f"|K*| = {kstar_order} must lie in [1, |K|]")
    # the optimal set is not a subgroup coset, so |K*| need not divide |K|
    logr = math.log2(kb.kernel_order) - math.log2(kstar_order)
    if logr == 0:
        degenerate = ConditionCheck(float("nan"), False)
        return degenerate, degenerate
    maxcyc = float(cyclic_norm_max(kb.generators, weights, kb.moduli))
    k = len(kb.generators)
    u_max = max(kb.orders, default=1)
    r1 = maxcyc * logr / float(abs(e_star))
    r2 = u_max * u_max * k / logr
    lo, hi = band
    return ConditionCheck(r1, lo <= r1 <= hi), ConditionCheck(r2, lo <= r2 <= hi)


def sp_diagnose(grd: GroupRelaxationData, fc: FeasibleCoset,
                params: SPParams,
                kstar_order: Optional[int] = None) -> SPReport:
    """Full diagnostic up to the dense limit: enumerates the coset,
    builds the exact walk matrix (checked symmetric and doubly
    stochastic) and keeps it as a sparse P, takes the gap delta from
    the characters of K, sweeps mu in [0, mu_chosen) with a Lanczos
    ground state of each sparse H_mu, and evaluates every estimate.
    kstar_order defaults to the brute-force count."""
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
    c1, c2 = speedup_conditions(kb, weights, e_star, kstar_order, params.band)

    if n == 1 or not kb.generators:
        P = np.eye(n)
        delta = 1.0
        plip = Fraction(0)
    else:
        import scipy.sparse as sp
        dt = transition_matrix(spec, states, params.dense_limit)
        P = sp.csr_array(dt.counts) / dt.den
        delta = character_gap(kb, spec.laziness)
        plip, _ = pseudo_lipschitz(grd.cost, spec, states, weights)

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

    # mu sweep: overlap and ground energy from 0 up to the chosen mu
    # (or the gap bound when mu is unavailable)
    sweep_top = mu if mu else mu_star_gap
    overlap_curve = []
    lambda_curve = []
    steps = max(params.mu_sweep, 1)
    theta = _theta_vector(ftilde, eta, e_star)
    for i in range(steps):
        mu_i = sweep_top * i / steps
        lam1, ov = ground_overlap(_hamiltonian(P, mu_i, theta), kstar_idx)
        overlap_curve.append((mu_i, ov))
        lambda_curve.append((mu_i, lam1))
    # mu = 0 ground state is uniform, overlap must equal |K*|/|K|
    if not abs(overlap_curve[0][1] - len(kstar_idx) / n) < 1e-10:
        raise CertificateError(
            f"mu = 0 overlap {overlap_curve[0][1]} differs from |K*|/|K| = {len(kstar_idx)}/{n}")

    return SPReport(
        k_order=kb.kernel_order,
        kstar_order=kstar_order,
        g_order=kb.range_order,
        e_star=e_star,
        shift_c=C,
        f_max=f_max,
        cyclic_norm_max=norms_max,
        omega_hat=omega,
        delta=delta,
        gamma_plain=gamma_plain,
        gamma_trunc=gamma_trunc,
        mu_star_ls=mu_star_ls,
        mu_star_gap=mu_star_gap,
        mu=mu,
        alpha_hat=alpha_hat,
        condition_26a=c1,
        condition_26b=c2,
        degenerate=degenerate,
        sublevel_mass=sublevel,
        pseudo_lipschitz_exact=plip,
        overlap_curve=overlap_curve,
        lambda_curve=lambda_curve,
    )
