"""Acceptance gate: thirteen end-to-end criteria covering planted-family
exactness, the bound chain, kernel/compression oracles, the SNF
contract, report arithmetic, walk laws, expander gaps, pseudo-Lipschitz
validity, spectral diagnostics, condition discrimination, Metropolis
stationarity, and byte-deterministic cutting-stock reports."""

import itertools
import math
import random
import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from grouprelax import (IntMatrix, PipelineConfig, SearchConfig,
                        brute_force_group, det_exact, emit_report,
                        expander_generation, feasible_coset,
                        gomory_shortest_path, markov_chain_search,
                        run_pipeline, snf, solve_group, sp_diagnose,
                        spectral_gap, transition_matrix)
from grouprelax.gen import CutStockSpec, cutgen, planted
from grouprelax.kernel import KernelBasis, _group_residual
from grouprelax.spdiag import SPParams, speedup_conditions
from grouprelax.walks import CayleyWalkSpec, cyclic_norm_max, pseudo_lipschitz, step
from tests.compress_oracle import span
from tests.conftest import build, report_row_from_values
from tests.coset_oracle import enumerate_coset
from tests.snf_oracle import diag_matrix
from tests.spdiag_oracle import shifted_cost
from tests.walk_oracle import metropolis_matrix, tv_to_uniform


# 1. planted-family exactness for (t, m) in {2,3} x {1..6}

def test_criterion_1_planted_exactness():
    t0 = time.monotonic()
    for t, m in itertools.product((2, 3), range(1, 7)):
        inst, meta = planted(t, m, 1)
        _, bs, grd, fc = build(inst)
        kb = fc.basis
        assert kb.kernel_order == t**m
        assert kb.range_order == t**m

        dj = gomory_shortest_path(grd)
        assert dj.objective == m and dj.certified_optimal

        br = solve_group(grd, fc, SearchConfig(method="brute", cap=10**6))
        assert br.objective == m and br.certified_optimal

        budget = math.ceil(32 * kb.kernel_order * math.log(kb.kernel_order)) or 1
        cfg = SearchConfig(method="mcs", seed=t * 100 + m, max_samples=budget,
                           stop_at=Fraction(m))
        mc = markov_chain_search(fc, grd.cost, cfg, grd)
        assert mc.objective == m
        assert mc.samples_used <= budget
    assert time.monotonic() - t0 < 30


# 2. bound chain on 200 seeded random feasible instances

def test_criterion_2_bound_chain(random_suite):
    assert len(random_suite["cases"]) == 200
    for case in random_suite["cases"]:
        assert case["bs"].opt_lp <= case["opt_b"] <= case["opt_ilp"]
    assert random_suite["elapsed"] < 120


# 3. kernel generator span equals the exhaustively enumerated kernel

def test_criterion_3_kernel_oracle(random_suite):
    checked = 0
    for case in random_suite["cases"]:
        grd, kb = case["grd"], case["fc"].basis
        if grd.d == 0 or grd.r_max**grd.d > 10**5:
            continue
        oracle = {
            x for x in itertools.product(range(grd.r_max), repeat=grd.d)
            if not any(_group_residual(grd.Abold, grd.r, x))
        }
        got = span(kb)
        assert got == oracle
        assert prod(kb.orders) == len(got) == kb.kernel_order
        checked += 1
    assert checked >= 50


# 4. compression preserves brute-force optima and order bookkeeping

def test_criterion_4_compression_preserves_optima(random_suite):
    checked = 0
    for case in random_suite["cases"]:
        grd, fc = case["grd"], case["fc"]
        if fc.basis.kernel_order > 3000:
            continue
        f = grd.cost
        fc2 = feasible_coset(grd, compress=True)
        assert prod(fc2.basis.moduli) == fc2.basis.kernel_order * fc2.basis.range_order
        v1 = brute_force_group(fc, f, cap=10**4).objective
        v2 = brute_force_group(fc2, f, cap=10**4).objective
        assert v1 == v2 == case["opt_b"]
        checked += 1
    assert checked >= 150


# 5. SNF contract on 500 random matrices

def test_criterion_5_snf_contract():
    rng = random.Random(2024)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        fact = snf(M)
        assert fact.U @ diag_matrix(fact.D, m, n) @ fact.V == M
        assert abs(det_exact(fact.U)) == 1
        assert abs(det_exact(fact.V)) == 1
        nz = [d for d in fact.D if d]
        assert fact.D[: len(nz)] == nz
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        if m == n:
            det = abs(det_exact(M))
            if det:
                assert prod(fact.D) == det


# 6. Table-1-style report arithmetic from supplied optima

def test_criterion_6_report_arithmetic():
    rows = {
        "qap10": (Fraction("332.57"), Fraction("336.00"), Fraction("340.00")),
        "gen02": (Fraction("-4840.54"), Fraction("-4817.32"), Fraction("-4783.73")),
        "ex10": (Fraction(100), Fraction(100), Fraction(100)),
        "supp19": (Fraction(12677206), Fraction(12677206), Fraction(12677552)),
    }
    got = {k: report_row_from_values(k, *v) for k, v in rows.items()}
    assert abs(float(got["qap10"].r_pct) - 46.2) < 0.05
    assert abs(float(got["gen02"].r_pct) - 40.9) < 0.05
    assert abs(float(got["supp19"].r_pct) - 0.0) < 0.05
    assert got["ex10"].r_pct is None
    assert abs(float(got["qap10"].delta_lp_ilp) - 7.43) < 0.05
    assert abs(float(got["qap10"].delta_b) - 4.00) < 0.05
    assert abs(float(got["qap10"].r_abs) - 3.43) < 0.05
    text = emit_report(list(got.values()))
    line = next(l for l in text.splitlines() if l.startswith("ex10"))
    assert ",NA," in line


# 7. walk laws: coset preservation, exact P, TV mixing bound

def test_criterion_7_walk_laws():
    # 100k steps spread over several instances, feasibility after each
    instances = [planted(2, 3, 1)[0], planted(3, 2, 1)[0],
                 planted(2, 2, 1, seed=2, style="random-lower-unit")[0]]
    per = 100_000 // len(instances) + 1
    for inst in instances:
        _, _, grd, fc = build(inst)
        kb = fc.basis
        spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli,
                              rng=random.Random(42))
        target = [grd.bbold[i] % grd.r[i] for i in range(grd.m)]
        state = fc.x_hat
        for _ in range(per):
            state = step(state, spec)
            assert _group_residual(grd.Abold, grd.r, state) == target

    # dense matrix laws and the eigenvalue mixing bound
    for t, m in [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4)]:
        inst, _ = planted(t, m, 1)
        _, _, grd, fc = build(inst)
        kb = fc.basis
        assert kb.kernel_order <= 1024
        spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli)
        states = list(enumerate_coset(fc, 1024))
        dt = transition_matrix(spec, states)
        assert dt.is_symmetric() and dt.is_doubly_stochastic()
        delta = spectral_gap(dt.P)
        tmix = math.ceil(math.log(2 * kb.kernel_order) / delta)
        assert tv_to_uniform(dt.P, tmix) <= 2 * (1 - delta) ** tmix + 1e-12


# 8. expander sampling on Z2^10: generation and gap >= 0.1

def test_criterion_8_expander_gap():
    t0 = time.monotonic()
    n = 10
    gens = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
    kb = KernelBasis(generators=gens, orders=(2,) * n, moduli=(2,) * n,
                     kernel_order=2**n, range_order=1)
    states = list(itertools.product((0, 1), repeat=n))
    ok = 0
    for seed in range(100):
        sampled = expander_generation(kb, C=8.0, rng=random.Random(seed))
        # GF(2) rank check: the sample generates Z2^10 iff rank = 10
        rows = np.array(sampled, dtype=np.int64) % 2
        rank = 0
        work = rows.copy()
        for col in range(n):
            piv = next((r for r in range(rank, len(work)) if work[r, col]), None)
            if piv is None:
                continue
            work[[rank, piv]] = work[[piv, rank]]
            for r in range(len(work)):
                if r != rank and work[r, col]:
                    work[r] ^= work[rank]
            rank += 1
        if rank < n:
            continue
        spec = CayleyWalkSpec(generators=tuple(map(tuple, sampled)),
                              moduli=(2,) * n)
        dt = transition_matrix(spec, states)
        if spectral_gap(dt.P) >= 0.1:
            ok += 1
    assert ok >= 90
    assert time.monotonic() - t0 < 60


# 9. pseudo-Lipschitz bound validity on dense instances

def test_criterion_9_pseudo_lipschitz_bound(random_suite):
    checked = 0
    for case in random_suite["cases"]:
        grd, fc = case["grd"], case["fc"]
        kb = fc.basis
        if not kb.generators or kb.kernel_order > 512:
            continue
        spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli)
        states = list(enumerate_coset(fc, 512))
        exact, bound = pseudo_lipschitz(grd.cost, spec, states,
                                        grd.cbold)
        maxcyc = cyclic_norm_max(kb.generators, grd.cbold, kb.moduli)
        assert exact <= bound == maxcyc**2
        # square root form of the same bound, in floats
        assert math.sqrt(float(exact)) <= float(maxcyc) + 1e-12
        checked += 1
    assert checked >= 30


# 10. short-path simulation sanity on planted t=2, m=3

def test_criterion_10_sp_sanity():
    t0 = time.monotonic()
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    rep = sp_diagnose(grd, fc, SPParams(mu_sweep=4))
    mus = [mu for mu, _ in rep.overlap_curve]
    assert mus[0] == 0
    assert abs(rep.overlap_curve[0][1] - 1 / 8) < 1e-10
    overlaps = [ov for _, ov in rep.overlap_curve]
    assert all(b >= a - 1e-9 for a, b in zip(overlaps, overlaps[1:]))
    lams = [lam for _, lam in rep.lambda_curve]
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
    assert time.monotonic() - t0 < 10


# 11. condition ratios: planted family inside the band, dense
#     counterexample outside

def test_criterion_11_condition_discrimination():
    for m in range(2, 9):
        inst, _ = planted(2, m, 1)
        _, _, grd, fc = build(inst)
        kb = fc.basis
        values = [grd.cost(pt) for pt in enumerate_coset(fc, 4096)]
        _, e_star = shifted_cost(values)
        c1, c2 = speedup_conditions(kb, grd.cbold, e_star, kstar_order=1)
        assert c1.in_band, f"R1 = {c1.ratio} at m = {m}"
        assert c2.in_band, f"R2 = {c2.ratio} at m = {m}"

    d = 12
    dense = KernelBasis(generators=((2,) * d,), orders=(2,),
                        moduli=(4,) * d, kernel_order=2,
                        range_order=4**d // 2)
    c1, _ = speedup_conditions(dense, [1] * d, Fraction(-3), 1)
    assert not c1.in_band


# 12. Metropolis stationary law on planted t=2, m=2 at beta=2

def test_criterion_12_metropolis_stationary():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    kb = fc.basis
    f = grd.cost
    states = list(enumerate_coset(fc, 100))
    spec = CayleyWalkSpec(generators=kb.generators, moduli=kb.moduli)
    beta = 2.0
    P = metropolis_matrix(spec, states, f, beta)
    lam, vecs = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(lam - 1.0)))
    pi_hat = np.real(vecs[:, i])
    pi_hat /= pi_hat.sum()
    pi = np.array([math.exp(-beta * float(f(s))) for s in states])
    pi /= pi.sum()
    assert np.abs(pi_hat - pi).sum() < 1e-10


# 13. cutting-stock end-to-end with byte-identical CSV under a fixed seed

def test_criterion_13_cutgen_end_to_end():
    from grouprelax import emit_mps
    spec = CutStockSpec(m=4, v2=0.8, dbar=2.0, L=10, seed=5)
    inst = cutgen(spec)
    twin = cutgen(CutStockSpec(m=4, v2=0.8, dbar=2.0, L=10, seed=5))
    assert emit_mps(inst) == emit_mps(twin)

    def render():
        cfg = PipelineConfig(search=SearchConfig(method="dijkstra", seed=5),
                             record_wall=False)
        row = run_pipeline(inst, cfg)
        assert row.certified
        assert row.opt_ilp is not None and row.r_pct is not None
        return emit_report([row]).encode()

    a = render()
    b = render()
    assert a == b
