"""Cayley walk laws: step moves, exact transition matrices, spectral
quantities, cyclic metric, Metropolis filter, expander sampling."""

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

import grouprelax
from grouprelax import (CutStockSpec, cutgen, cyclic_metric, expander_generation,
                        feasible_coset, log_sobolev_lower, metropolis_step,
                        pseudo_lipschitz, spectral_gap, step, transition_matrix)
from grouprelax.errors import CertificateError, DenseLimitExceeded
from grouprelax.gen import planted
from grouprelax.kernel import FeasibleCoset, KernelBasis, coset_array
from grouprelax.relax import LinearCost
from grouprelax.walks import (CayleyWalkSpec, _neighbours, check_coset_table, coset_table,
                              cyclic_norm_max, transition_counts, walk)
from tests import walk_oracle
from tests.compress_oracle import span
from tests.coset_oracle import enumerate_coset
from tests.conftest import build
from tests.walk_oracle import metropolis_matrix, tv_to_uniform


def simple_spec(generators, moduli, seed=0):
    return CayleyWalkSpec(generators=tuple(generators), moduli=tuple(moduli),
                          rng=random.Random(seed))


def test_step_reaches_only_neighbors():
    spec = simple_spec([(2, 0)], (4, 4), seed=1)
    seen = set()
    state = (1, 1)
    for _ in range(200):
        nxt = step(state, spec)
        seen.add(nxt)
        assert nxt in {(1, 1), (3, 1)}  # +-(2,0) coincide mod 4
    assert seen == {(1, 1), (3, 1)}


def test_step_wraparound():
    spec = simple_spec([(2, 0)], (4, 4), seed=2)
    moves = {step((3, 1), spec) for _ in range(100)}
    assert moves == {(3, 1), (1, 1)}


def test_step_reduces_unreduced_state():
    # every coordinate comes back as a residue, as the old per-move
    # (x + a*g) % m did, also along a zero generator
    spec = simple_spec([(2, 0), (0, 0)], (4, 4), seed=5)
    seen = {step((7, 9), spec) for _ in range(100)}
    assert seen == {(3, 1), (1, 1)}


def test_walk_checks_state_length():
    # zip() would cut a long state to the moduli's length
    spec = simple_spec([(1, 1, 0)], (3, 3, 3))
    for state in ((1, 2, 0, 5, 6), (1,)):
        with pytest.raises(ValueError, match="length"):
            step(state, spec)


def test_step_laziness_frequency():
    spec = simple_spec([(1,)], (5,), seed=3)
    holds = sum(step((0,), spec) == (0,) for _ in range(30000))
    assert abs(holds / 30000 - 1 / 3) < 0.02


def test_transition_matrix_z2():
    spec = simple_spec([(1,)], (2,))
    dt = transition_matrix(spec, [(0,), (1,)])
    # +1 and -1 coincide mod 2, so the flip carries the full 2/3 move mass
    assert dt.counts.tolist() == [[1, 2], [2, 1]]
    assert dt.den == 3
    assert dt.is_symmetric() and dt.is_doubly_stochastic()
    assert abs(spectral_gap(dt.P) - 2 / 3) < 1e-12


def test_transition_matrix_single_state():
    spec = simple_spec([], (4,))
    dt = transition_matrix(spec, [(0,)])
    assert dt.P.tolist() == [[1.0]]
    assert spectral_gap(dt.P) == 1.0


def test_transition_matrix_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    spec = simple_spec(fc.basis.generators, fc.basis.moduli)
    states = list(enumerate_coset(fc, 100))
    dt = transition_matrix(spec, states)
    assert dt.counts.shape == (4, 4)
    assert dt.is_symmetric() and dt.is_doubly_stochastic()
    # each row: 1/3 hold on the diagonal, 1/3 to each of two neighbors
    # (order-2 generators, so the +- moves per generator coincide)
    for i in range(4):
        row = sorted(dt.counts[i].tolist())
        assert row == [0, 2, 2, 2] and dt.den == 6


def test_transition_matrix_dense_limit():
    spec = simple_spec([(1,)], (8,))
    with pytest.raises(DenseLimitExceeded):
        transition_matrix(spec, [(i,) for i in range(8)], dense_limit=4)


def test_spectral_gap_vs_log_sobolev():
    for t, m in [(2, 2), (2, 3), (3, 2)]:
        inst, _ = planted(t, m, 1)
        _, _, grd, fc = build(inst)
        kb = fc.basis
        spec = simple_spec(kb.generators, kb.moduli)
        dt = transition_matrix(spec, list(enumerate_coset(fc, 2000)))
        delta = spectral_gap(dt.P)
        omega = log_sobolev_lower(kb)
        assert 0 < float(omega) <= delta <= 1


def test_log_sobolev_values():
    kb = KernelBasis(((2,),), (2,), (4,), 2, 2)
    assert log_sobolev_lower(kb) == Fraction(1, 8)


def test_cyclic_metric_examples():
    assert cyclic_metric((1, 3), (2, 1), (4, 5)) == 9
    # t*e_j in moduli t^2 with unit weights: t^2 - t
    for t in (2, 3, 5):
        v = (t, 0)
        assert cyclic_metric(v, (1, 1), (t * t, t * t)) == t * t - t
    assert cyclic_metric((0, 0), (1, 1), (4, 4)) == 0
    # symmetry under negation
    v, w, a = (1, 3), (2, 1), (4, 5)
    neg = tuple((-x) % m for x, m in zip(v, a))
    assert cyclic_metric(v, w, a) == cyclic_metric(neg, w, a)


def test_pseudo_lipschitz_constant_f():
    spec = simple_spec([(2,)], (4,))
    exact, bound = pseudo_lipschitz(lambda s: Fraction(7), spec,
                                    [(0,), (2,)], weights=(1,))
    assert exact == 0
    assert bound == 4


def test_pseudo_lipschitz_planted_bound():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    kb = fc.basis
    spec = simple_spec(kb.generators, kb.moduli)
    states = list(enumerate_coset(fc, 100))
    exact, bound = pseudo_lipschitz(grd.cost, spec, states, grd.cbold)
    assert 0 < exact <= bound
    assert bound == cyclic_norm_max(kb.generators, grd.cbold, kb.moduli) ** 2


def test_metropolis_beta0_is_plain_walk():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    kb = fc.basis
    f = grd.cost
    spec_a = simple_spec(kb.generators, kb.moduli, seed=9)
    spec_b = simple_spec(kb.generators, kb.moduli, seed=9)
    x = y = fc.x_hat
    for _ in range(500):
        x = step(x, spec_a)
        y = metropolis_step(y, 0.0, spec_b, f)
        assert x == y


def test_metropolis_downhill_always_accepted():
    # two-state chain with a strict downhill move: the walker must reach
    # and eventually hold near the minimum under a huge beta
    spec = simple_spec([(2,)], (4,), seed=4)
    f = LinearCost(1, 0, (1,))
    state = (2,)
    visits = {(0,): 0, (2,): 0}
    for _ in range(2000):
        state = metropolis_step(state, 50.0, spec, f)
        visits[state] += 1
    assert visits[(0,)] > 1900


def test_metropolis_stationary_law():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    kb = fc.basis
    f = grd.cost
    states = list(enumerate_coset(fc, 100))
    spec = simple_spec(kb.generators, kb.moduli)
    beta = 2.0
    P = metropolis_matrix(spec, states, f, beta)
    pi = np.array([math.exp(-beta * float(f(s))) for s in states])
    pi /= pi.sum()
    # detailed balance target is a left fixed point
    assert np.abs(pi @ P - pi).sum() < 1e-12
    assert np.allclose(P.sum(axis=1), 1.0)


def oracle_cosets():
    """The three cosets of the pinned MCS runs and a compressed coset."""
    for inst in (planted(2, 8, 1)[0], planted(3, 6, 1, style="random-lower-unit")[0],
                 cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35))):
        _, _, grd, fc = build(inst)
        yield grd, fc
    grd = build(cutgen(CutStockSpec(m=6, L=40, v2=0.5, dbar=4.0, seed=3)))[2]
    yield grd, feasible_coset(grd, compress=True)


def random_costs(d, rng):
    """Linear costs with negative, zero and huge weights over small and
    huge denominators; weights near 2^62 over a den of the same size
    keep each delta small but not a float exactly."""
    yield LinearCost(1, 0, [rng.choice((-3, -1, 0, 0, 2, 5)) for _ in range(d)])
    yield LinearCost(7, rng.randint(-50, 50), [rng.randint(-9, 9) for _ in range(d)])
    yield LinearCost(2**62 + 3, rng.randint(-2**70, 2**70),
                     [rng.choice((0, -1, 1)) * rng.randint(2**61, 2**63) for _ in range(d)])
    yield LinearCost(3, 0, [rng.choice((0, 1)) * rng.randint(2**60, 2**64) for _ in range(d)])


def test_walk_matches_oracle():
    # the integer walk against the Fraction-callable oracle: same final
    # state, cost and counts, and the same RNG state afterwards
    rng = random.Random(11)
    for grd, fc in oracle_cosets():
        kb = fc.basis
        costs = [grd.cost, -grd.cost, *random_costs(grd.d, rng)]
        for beta in (0.0, 0.3, 1.0, 3.0, 50.0):
            for seed in (1, 2, 3):
                for cost in costs:
                    runs = []
                    for run in (walk_oracle.walk, walk):
                        spec = simple_spec(kb.generators, kb.moduli, seed=seed)
                        x, fx, proposals, accepted = run(spec, fc.x_hat, 300, cost, beta)
                        runs.append((x, fx, proposals, accepted, spec.rng.getstate()))
                    assert runs[0] == runs[1], (grd.d, beta, seed, cost)
                    assert type(runs[1][1]) is Fraction


def test_walk_matches_oracle_on_other_generator_sets():
    # expander sets (k not a power of two, so some generator draws are
    # redrawn), one generator, a generator with empty support, no cost,
    # walks long enough to redraw many times, and a den so large that
    # every delta underflows to 0.0
    rng = random.Random(12)
    for grd, fc in oracle_cosets():
        kb = fc.basis
        expander = tuple(expander_generation(kb, 8.0, random.Random(grd.d)))
        assert len(expander) & (len(expander) - 1)
        null = tuple(0 if rng.random() < 0.5 else m for m in kb.moduli)
        gen_sets = (expander, kb.generators[:1], kb.generators[:2] + (null,) + kb.generators[2:])
        tiny = LinearCost(2**1100, 0, grd.cost.weights)
        for gens in gen_sets:
            for cost, beta in ((None, 0.0), (grd.cost, 0.0), (grd.cost, 1.0), (-grd.cost, 0.5),
                               (tiny, 1.0)):
                runs = []
                for run in (walk_oracle.walk, walk):
                    spec = simple_spec(gens, kb.moduli, seed=len(gens))
                    x, fx, proposals, accepted = run(spec, fc.x_hat, 6000, cost, beta)
                    runs.append((x, fx, proposals, accepted, spec.rng.getstate()))
                assert runs[0] == runs[1], (grd.d, len(gens), cost, beta)


def test_walk_needs_a_linear_cost():
    spec = simple_spec([(1,)], (3,))
    with pytest.raises(TypeError):
        walk(spec, (0,), 5, lambda x: Fraction(x[0]), 1.0)
    with pytest.raises(TypeError):
        metropolis_step((0,), 1.0, spec, lambda x: Fraction(x[0]))


def test_linear_cost_checks_length():
    # map() would stop at the shorter input and return a truncated sum
    inst, _ = planted(2, 8, 1)
    _, _, grd, fc = build(inst)
    assert grd.d == 8 and grd.cost(fc.x_hat) == 8
    for x in ((1,), (1,) * 20, ()):
        with pytest.raises(ValueError, match="length"):
            grd.cost(x)
    with pytest.raises(ValueError):
        walk(simple_spec(fc.basis.generators, fc.basis.moduli), (1,) * 8, 5,
             LinearCost(1, 0, (1,) * 7), 1.0)


def test_linear_cost_values():
    c = LinearCost(6, -4, [3, -2, 0])
    assert c.weights == (3, -2, 0)
    assert c((2, 1, 9)) == Fraction(0) and c((4, 0, 1)) == Fraction(4, 3)
    assert (-c)((4, 0, 1)) == Fraction(-4, 3) and -(-c) == c
    with pytest.raises(ValueError):
        LinearCost(0, 0, (1,))


def test_expander_counts():
    kb = KernelBasis(((2, 0), (0, 2)), (2, 2), (4, 4), 4, 4)
    out = expander_generation(kb, C=8.0, rng=random.Random(0))
    assert len(out) == math.ceil(8 * math.log(4)) == 12
    for g in out:
        assert g in span(kb)
    trivial = KernelBasis((), (), (4,), 1, 4)
    assert expander_generation(trivial) == []


def test_tv_bound_small_walks():
    for t, m in [(2, 1), (2, 3), (3, 2)]:
        inst, _ = planted(t, m, 1)
        _, _, grd, fc = build(inst)
        kb = fc.basis
        spec = simple_spec(kb.generators, kb.moduli)
        states = list(enumerate_coset(fc, 2000))
        dt = transition_matrix(spec, states)
        delta = spectral_gap(dt.P)
        k = kb.kernel_order
        tmix = math.ceil(math.log(2 * k) / delta)
        assert tv_to_uniform(dt.P, tmix) <= 2 * (1 - delta) ** tmix + 1e-12


class ScriptedRng:
    """random() replays the given values; the generator draw always
    picks 0."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)

    def randrange(self, k):
        return 0

    def getrandbits(self, k):
        return 0


def test_hold_threshold_exact():
    # random() returns k / 2^53; the walk holds exactly when that is
    # below the rational laziness, also for k next to the cut
    for lazy in (Fraction(1, 3), Fraction(2, 7)):
        cut = math.ceil(lazy * 2**53)
        for k in range(cut - 3, cut + 3):
            u = k / 2**53
            spec = CayleyWalkSpec(((1,),), (5,), laziness=lazy,
                                  rng=ScriptedRng([u, 0.0]))
            held = step((0,), spec) == (0,)
            assert held == (Fraction(k, 2**53) < lazy), (lazy, k)


# plain Python definitions of the dense walk quantities, move by move

def reference_counts(spec, states):
    k = len(spec.generators)
    move_w = (1 - spec.laziness) / (2 * k)
    den = math.lcm(spec.laziness.denominator, move_w.denominator)
    index = {s: i for i, s in enumerate(states)}
    counts = [[0] * len(states) for _ in states]
    for i, s in enumerate(states):
        counts[i][i] += int(spec.laziness * den)
        for h in spec.generators:
            for a in (1, -1):
                t = tuple((x + a * g) % m for x, g, m in zip(s, h, spec.moduli))
                counts[i][index[t]] += int(move_w * den)
    return counts, den


def reference_pseudo_lipschitz(f, spec, states):
    move_w = (1 - spec.laziness) / (2 * len(spec.generators))
    best = Fraction(0)
    for s in states:
        acc = Fraction(0)
        for h in spec.generators:
            for a in (1, -1):
                t = tuple((x + a * g) % m for x, g, m in zip(s, h, spec.moduli))
                acc += move_w * (Fraction(f(s)) - Fraction(f(t))) ** 2
        best = max(best, acc)
    return best


def neighbour_table_cases():
    for t, m, style in [(2, 3, "identity"), (3, 2, "identity"),
                        (2, 4, "random-lower-unit"), (3, 3, "random-lower-unit")]:
        inst, _ = planted(t, m, 1, seed=2, style=style)
        _, _, grd, fc = build(inst)
        kb = fc.basis
        states = list(enumerate_coset(fc, 1000))
        yield simple_spec(kb.generators, kb.moduli), states, grd.cost
        gens = expander_generation(kb, C=2.0, rng=random.Random(t * m))
        yield simple_spec(gens, kb.moduli), states, grd.cost
    # one coordinate whose modulus and residues exceed int64
    big = 3 * 2**62
    yield (simple_spec([(2**62,)], (big,)), [(0,), (2**62,), (2**63,)],
           lambda s: Fraction(s[0], 7))


def test_transition_matrix_matches_reference():
    for spec, states, _ in neighbour_table_cases():
        counts, den = reference_counts(spec, states)
        dt = transition_matrix(spec, states)
        assert dt.counts.tolist() == counts and dt.den == den


def test_pseudo_lipschitz_matches_reference():
    for spec, states, f in neighbour_table_cases():
        exact, bound = pseudo_lipschitz(f, spec, states)
        assert exact == reference_pseudo_lipschitz(f, spec, states)
        assert bound is None


def test_transition_counts_match_dense_reference():
    # canonical CSR: scipy's own conversion of the dense n x n counts
    for spec, states, _ in neighbour_table_cases():
        counts, den = transition_counts(spec, _neighbours(spec, states))
        ref_counts, ref_den = reference_counts(spec, states)
        ref = scipy.sparse.csr_array(np.array(ref_counts, dtype=np.int64))
        assert den == ref_den
        assert counts.dtype == np.int64 and counts.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(counts, attr), getattr(ref, attr))


def test_transition_counts_certificates():
    spec = simple_spec([(1,)], (3,))
    nb = np.array([[1, 2], [2, 0], [0, 1]])
    counts, den = transition_counts(spec, nb)
    assert den == 3 and counts.toarray().tolist() == [[1, 1, 1]] * 3
    for bad, match in [([[1, 2], [2, 0], [0, 2]], "doubly stochastic"),
                       ([[1, 1], [2, 2], [0, 0]], "involution"),
                       ([[1, 2], [2, 0], [0, 3]], "does not index")]:
        with pytest.raises(CertificateError, match=match):
            transition_counts(spec, np.array(bad))


def coset_cases():
    for t, m, style in [(2, 3, "identity"), (3, 3, "random-lower-unit"), (5, 2, "identity")]:
        yield build(planted(t, m, 1, seed=2, style=style)[0])[3]
    grd, fc = build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))[2:]
    yield fc
    yield feasible_coset(grd, compress=True)


def test_coset_table_matches_neighbours():
    for fc in coset_cases():
        kb = fc.basis
        spec = simple_spec(kb.generators, kb.moduli)
        nb = coset_table(kb.orders)
        assert np.array_equal(nb, _neighbours(spec, list(enumerate_coset(fc, 1000))))
        check_coset_table(spec, coset_array(fc, 1000), nb)


def test_check_coset_table_certificates():
    fc = build(planted(3, 3, 1, seed=2, style="random-lower-unit")[0])[3]
    kb = fc.basis
    spec = simple_spec(kb.generators, kb.moduli)
    X, nb = coset_array(fc, 100), coset_table(kb.orders)
    bad = nb.copy()
    bad[3, 1] = bad[3, 0]  # order 3: the -h_0 neighbour is not the +h_0 one
    with pytest.raises(CertificateError, match="column 1 does not hold the moved states"):
        check_coset_table(spec, X, bad)
    with pytest.raises(CertificateError, match="does not index"):
        check_coset_table(spec, X, nb[:, :2])
    # order 2 claimed as 4: every move lands right, but the points repeat
    kb4 = KernelBasis(((2,),), (4,), (4,), 4, 1)
    fc4 = FeasibleCoset((1,), kb4)
    with pytest.raises(CertificateError, match="repeats a point"):
        check_coset_table(simple_spec(kb4.generators, kb4.moduli),
                          coset_array(fc4, 10), coset_table(kb4.orders))


def test_neighbour_table_needs_closed_state_set():
    # (1, 0) + (1, 0) = (2, 0) is missing; the second set takes the
    # Python-int path of a modulus >= 2^62
    for spec, states in [(simple_spec([(1, 0)], (3, 2)), [(0, 0), (1, 0)]),
                         (simple_spec([(1,)], (2**62,)), [(0,), (1,)])]:
        with pytest.raises(ValueError, match="not closed"):
            transition_matrix(spec, states)
        with pytest.raises(ValueError, match="not closed"):
            pseudo_lipschitz(lambda s: Fraction(0), spec, states)


def test_certificates_fire_under_python_O():
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "from grouprelax.errors import CertificateError\n"
        "from grouprelax.walks import CayleyWalkSpec, DenseTransition, transition_matrix\n"
        "DenseTransition.is_doubly_stochastic = lambda self: False\n"
        "spec = CayleyWalkSpec(((1,),), (3,))\n"
        "try:\n"
        "    transition_matrix(spec, [(0,), (1,), (2,)])\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # a former assert in gomory_shortest_path: the lifted objective
        # must equal the path length
        "from grouprelax import planted, relax_ilp, search\n"
        "lift = search.lift_to_ilp\n"
        "def off_by_one(grd, x):\n"
        "    sol = lift(grd, x)\n"
        "    sol.objective += 1\n"
        "    return sol\n"
        "search.lift_to_ilp = off_by_one\n"
        "try:\n"
        "    search.gomory_shortest_path(relax_ilp(planted(2, 2, 1)[0]))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # compression: a generator that breaks the congruence
        "from grouprelax import kernel\n"
        "eliminate = kernel._eliminate\n"
        "def shifted(B, p, e, sp):\n"
        "    x, gens = eliminate(B, p, e, sp)\n"
        "    own, g, order = gens[0]\n"
        "    gens[0] = (own, {**g, own: g[own] + 1}, order)\n"
        "    return x, gens\n"
        "from grouprelax import CutStockSpec, cutgen\n"
        "grd = relax_ilp(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))\n"
        "fc = kernel.feasible_coset(grd)\n"
        "kernel._eliminate = shifted\n"
        "try:\n"
        "    kernel.compress_coset(grd, fc)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # the LP: a pivot that corrupts the adjugate breaks adj·A_B = det·I
        "from grouprelax import lp\n"
        "pivot = lp._pivot\n"
        "def corrupted(adj, xb, a, r, det):\n"
        "    det = pivot(adj, xb, a, r, det)\n"
        "    adj[0][0] += 1\n"
        "    return det\n"
        "lp._pivot = corrupted\n"
        "try:\n"
        "    relax_ilp(planted(2, 2, 1)[0])\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # the walk: a cost that prices the final state one above the
        # carried cost
        "from grouprelax import LinearCost, walks\n"
        "class Skewed(LinearCost):\n"
        "    calls = 0\n"
        "    def scaled(self, x):\n"
        "        Skewed.calls += 1\n"
        "        return super().scaled(x) + (Skewed.calls > 1)\n"
        "try:\n"
        "    walks.walk(CayleyWalkSpec(((1,),), (3,)), (0,), 50, Skewed(1, 0, (1,)), 1.0)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # the basis SNF: a corrupted Uinv breaks Uinv·A_B·Vinv = diag(r)
        "lp._pivot = pivot\n"
        "from grouprelax import relax\n"
        "basis_snf = relax.snf\n"
        "def corrupted_uinv(M):\n"
        "    fact = basis_snf(M)\n"
        "    fact.Uinv.data[0][0] += 1\n"
        "    return fact\n"
        "relax.snf = corrupted_uinv\n"
        "try:\n"
        "    relax_ilp(planted(2, 2, 1)[0])\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # the diagnose neighbour table: an entry that does not hold the
        # moved state
        "relax.snf = basis_snf\n"
        "from grouprelax import SPParams, feasible_coset, sp_diagnose, spdiag\n"
        "table = spdiag.coset_table\n"
        "def corrupted_table(orders):\n"
        "    nb = table(orders)\n"
        "    nb[0, 0] = 0\n"
        "    return nb\n"
        "spdiag.coset_table = corrupted_table\n"
        "grd = relax_ilp(planted(2, 3, 1)[0])\n"
        "try:\n"
        "    sp_diagnose(grd, feasible_coset(grd), SPParams())\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        # a pairing that is not an involution: the -h column repeats the +h one
        "neighbours = walks._neighbours\n"
        "def unpaired(spec, states):\n"
        "    nb = neighbours(spec, states)\n"
        "    nb[:, 1] = nb[:, 0]\n"
        "    return nb\n"
        "walks._neighbours = unpaired\n"
        "try:\n"
        "    transition_matrix(CayleyWalkSpec(((1,),), (3,)), [(0,), (1,), (2,)])\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    src = str(Path(grouprelax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n" * 8
