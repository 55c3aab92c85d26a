"""Short-path spectral diagnostics at desk scale.

Everything the quantum short-path analysis needs, computed exactly or
from certified sparse solves: shifted cost, the truncation theta_eta,
the short-path Hamiltonian H_mu = -P + mu * diag(theta) on the sparse
walk matrix, its ground state by Lanczos with residual and Perron
certificates, the ground-state overlap with the optimal set, the walk
gap from the characters of K, gamma / mu* / alpha estimates, and the
two dimensionless super-quadratic condition ratios with a Theta(1)
proxy band. No full spectrum and no n x n array is computed:
``SPParams.dense_limit`` caps the number of coset states, and memory is
O(|K| k). scipy is imported inside the functions that use it, so
``import grouprelax`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CertificateError, DenseLimitExceeded, DiagnosticUnavailable
from .exact import int_dtype
from .kernel import FeasibleCoset, KernelBasis, coset_array
from .relax import GroupRelaxationData
from .walks import (DENSE_LIMIT_DEFAULT, CayleyWalkSpec, character_gap,
                    check_coset_table, coset_table, cyclic_norm_max,
                    log_sobolev_lower, max_move_variation, transition_counts)

BAND_DEFAULT = (0.25, 4.0)  # closed Theta(1) proxy band, both ends inclusive


@dataclass
class SPParams:
    eta: float = 0.5
    dense_limit: int = DENSE_LIMIT_DEFAULT   # cap on |K|, the states diagnosed
    mu_sweep: int = 8
    expander_c: float = 8.0   # not read; benchmark workloads still pass it

    def __post_init__(self):
        if not (0 < self.eta < 1):
            raise ValueError("eta must be in (0, 1)")


def theta_eta(x, eta):
    """Piecewise-linear truncation: -1 at x = -1, 0 for x >= eta - 1,
    linear slope 1/eta in between."""
    return min(0, (x + 1 - eta) / eta)


def _exact_quotients(a: np.ndarray, d: int, bound: int) -> np.ndarray:
    """float(a_i / d) per integer a_i, rounded once, as float(Fraction)
    rounds it, for d > 0 and bound >= max(d, max |a_i|): numpy divides
    while bound <= 2^53 (a float then holds every a_i and d exactly),
    Python ints divide beyond."""
    if bound <= 2**53:
        return a.astype(np.float64) / float(d)
    return np.array([v / d for v in a.tolist()], dtype=np.float64)


def _theta_vector(a: np.ndarray, E: int, eta: float) -> np.ndarray:
    """theta_eta(a_i / E) per state, for integers a_i (den * ftilde)
    and E = den * |E*| > 0. Each quotient must land in [-1, 0] exactly,
    checked on the integers, and is rounded once (``_exact_quotients``).
    The values must lie in [-1, 0]."""
    if np.any(a < -E) or np.any(a > 0):
        raise CertificateError("shifted cost left the normalized range")
    theta = _theta_eta_array(_exact_quotients(a, E, E), float(eta))
    if not np.all((-1 - 1e-12 <= theta) & (theta <= 0)):
        raise CertificateError("a theta_eta value lies outside [-1, 0]")
    return theta


def _theta_eta_array(x: np.ndarray, eta: float) -> np.ndarray:
    """theta_eta elementwise, with theta_eta's float operations."""
    v = (x + 1 - eta) / eta
    return np.where(v < 0, v, 0.0)


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
    if sp.issparse(H):
        # the stored entries of a CSR H in place: only positive ones are
        # looked up, by row
        C = H if H.format == "csr" else sp.csr_array(H)
        pos = np.flatnonzero(C.data > 0)
        positive_off = np.any(C.indices[pos] != np.searchsorted(C.indptr, pos, "right") - 1)
    else:
        positive_off = np.any((H > 0) & ~np.eye(n, dtype=bool))
    if positive_off:
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
                       kstar_order: int) -> tuple[ConditionCheck, ConditionCheck]:
    """Dimensionless ratios for the two super-quadratic conditions, with
    log base 2 and the closed band BAND_DEFAULT as the Theta(1) proxy:
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
    lo, hi = BAND_DEFAULT
    return ConditionCheck(r1, lo <= r1 <= hi), ConditionCheck(r2, lo <= r2 <= hi)


def sp_diagnose(grd: GroupRelaxationData, fc: FeasibleCoset,
                params: SPParams,
                kstar_order: Optional[int] = None) -> SPReport:
    """Full diagnostic on at most dense_limit states, in memory
    O(|K| k): enumerates the coset in mixed radix, prices each point by
    the integer numerator const + w·x of grd.cost (``scaled_rows``),
    reads the walk's (|K|, 2k) neighbour table off the generator orders
    and certifies it (moved states, distinct points, symmetry, double
    stochasticity), keeps the walk matrix as canonical sparse counts,
    takes the gap delta from the characters of K, and sweeps mu in
    [0, mu_chosen) with a Lanczos ground state of each sparse H_mu,
    rewriting only its diagonal. Every figure is rounded as the Fraction-per-state
    reference in the tests rounds it. kstar_order defaults to the
    brute-force count."""
    kb = fc.basis
    n = kb.kernel_order
    if n > params.dense_limit:
        raise DenseLimitExceeded(f"|K| = {n} exceeds dense limit {params.dense_limit}")
    cost, moduli = grd.cost, kb.moduli
    den = cost.den
    X = coset_array(fc, params.dense_limit)
    iv = cost.scaled_rows(X, moduli)
    bound = cost.bound(moduli)
    lo, hi = int(iv.min()), int(iv.max())
    C, e_star = Fraction(hi + den, den), Fraction(lo - hi - den, den)
    f_max = C - 1
    E = hi + den - lo                        # den * |E*|
    a = iv.astype(int_dtype(2 * bound + den), copy=False) - (hi + den)  # den * ftilde in [-E, -den]
    kstar_idx = np.flatnonzero(iv == lo)
    if kstar_order is None:
        kstar_order = len(kstar_idx)
    degenerate = kstar_order == n

    spec = CayleyWalkSpec(generators=kb.generators, moduli=moduli)
    weights = grd.cbold
    norms_max = cyclic_norm_max(kb.generators, weights, moduli)
    omega = log_sobolev_lower(kb)
    c1, c2 = speedup_conditions(kb, weights, e_star, kstar_order)

    import scipy.sparse as sp
    if n == 1:
        # P = [[1]]: one state, held by every move
        delta = 1.0
        plip = Fraction(0)
        H = sp.csr_array(np.array([[-1.0]]))
    else:
        nb = coset_table(kb.orders)
        check_coset_table(spec, X, nb)
        del X
        delta = character_gap(kb, spec.laziness)
        move_w = (1 - spec.laziness) / (2 * len(kb.generators))
        plip = move_w * Fraction(max_move_variation(iv, nb), den * den)
        counts, cden = transition_counts(spec, nb)
        del nb
        # -P with P = counts / cden as scipy divides it, counts.astype(float)
        # * (1 / cden), with no copy of the index arrays
        data = counts.data.astype(np.float64)
        data *= 1 / cden
        H = sp.csr_array((np.negative(data, out=data), counts.indices, counts.indptr),
                         shape=counts.shape)
        del counts, data

    abs_e = float(abs(e_star))
    eta = params.eta
    pi_ratio = kb.kernel_order / kstar_order
    gamma_plain = gamma_trunc = mu_star_ls = mu = alpha_hat = None
    mu_star_gap = delta / 4
    mean_ft = Fraction(int(a.astype(int_dtype(n * E + 1), copy=False).sum()), den * n)
    ft = _exact_quotients(a, den, E)          # float(ftilde); |a_i| <= E, den <= E
    trunc_vals = abs_e * _theta_eta_array(ft / abs_e, float(eta))
    mean_trunc = sum(trunc_vals.tolist()) / n   # left to right, as Python sums
    sublevel = int(np.count_nonzero(ft <= (1 - eta) * float(e_star))) / n
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
    theta = _theta_vector(a, E, eta)
    # H_mu differs from -P only on the diagonal, where it adds mu * theta
    # as -P + diags(mu * theta) does: the sum rounds the same either way
    # round, and a zero term leaves -P_ii as it is
    rows = np.repeat(np.arange(n, dtype=H.indices.dtype), np.diff(H.indptr))
    diag_pos = np.flatnonzero(H.indices == rows)
    minus_p_diag = H.data[diag_pos]
    del rows
    for i in range(steps):
        mu_i = sweep_top * i / steps
        H.data[diag_pos] = minus_p_diag + mu_i * theta
        lam1, ov = ground_overlap(H, kstar_idx)
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
