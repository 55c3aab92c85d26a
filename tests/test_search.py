"""Group-relaxation solvers: MCS variants, Dijkstra over the range
group, and the brute-force oracles."""

import hashlib
import heapq
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import grouprelax
from grouprelax import (CutStockSpec, ILPInstance, IntMatrix, SearchConfig,
                        brute_force_group, brute_force_ilp, cutgen,
                        gomory_shortest_path, markov_chain_search, relax_ilp,
                        search, solve_group)
from grouprelax.errors import CapExceeded, CertificateError, Infeasible
from grouprelax.gen import planted
from grouprelax.kernel import FeasibleCoset, KernelBasis, feasible_coset
from grouprelax.relax import LinearCost
from grouprelax.search import default_mix_steps
from grouprelax.walks import CayleyWalkSpec, walk
from tests import coset_oracle, walk_oracle
from tests.conftest import build, random_feasible_instance, sample_budget, stub_grd
from tests.coset_oracle import enumerate_coset


def test_mcs_planted_finds_optimum():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    cfg = SearchConfig(method="mcs", seed=1, max_samples=64)
    res = markov_chain_search(fc, grd.cost, cfg, grd)
    assert res.objective == 2
    assert res.best_point == (1, 1)
    assert not res.certified_optimal
    assert res.solution is not None and res.solution.ilp_feasible


def test_mcs_d0_instance():
    inst = ILPInstance(
        name="d0",
        A=IntMatrix([[1, 0], [0, 1]]),
        b=[3, 5],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    _, _, grd, fc = build(inst)
    res = markov_chain_search(fc, grd.cost, SearchConfig(seed=0), grd)
    assert res.objective == grd.shift == 8
    assert res.samples_used == 0


def test_mcs_max_samples_one():
    inst, _ = planted(3, 2, 1)
    _, _, grd, fc = build(inst)
    cfg = SearchConfig(method="mcs", seed=5, max_samples=1)
    res = markov_chain_search(fc, grd.cost, cfg, grd)
    assert res.samples_used == 1
    assert res.objective <= grd.cost(fc.x_hat)


def test_mcs_descends_from_suboptimal_start():
    # feasible point (1,1,1) but the cost rewards the far corner, so the
    # search has to actually move; trace must improve monotonically
    grd = stub_grd([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [4, 4, 4], [2, 2, 2])
    fc = feasible_coset(grd)
    assert fc.x_hat == (1, 1, 1)
    f = LinearCost(1, 9, (-1, -1, -1))  # sum of 3 - v

    cfg = SearchConfig(method="mcs", seed=2, max_samples=300, mix_steps=30,
                       stop_at=Fraction(0))
    res = markov_chain_search(fc, f, cfg)
    assert res.objective == 0
    assert res.best_point == (3, 3, 3)
    vals = [v for _, v in res.trace]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert len(vals) >= 2


def test_mcs_variants_agree_on_planted():
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    for method, beta in [("mcs", 0.0), ("mcs-expander", 0.0),
                         ("mcs-metropolis", 1.5)]:
        cfg = SearchConfig(method=method, seed=3, max_samples=200, beta=beta,
                           stop_at=Fraction(3))
        res = solve_group(grd, fc, cfg)
        assert res.objective == 3


def test_dijkstra_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, _ = build(inst)
    res = gomory_shortest_path(grd)
    assert res.objective == 2
    assert res.certified_optimal
    assert res.samples_used <= 4  # visits at most |G| nodes
    assert res.best_point == (1, 1)


def test_dijkstra_node_cap():
    # |G| = 4096 range residues; the target needs 12 steps
    grd = build(planted(2, 12, 1)[0])[2]
    with pytest.raises(CapExceeded, match="more than 100 residues"):
        gomory_shortest_path(grd, cap=100)
    with pytest.raises(CapExceeded):
        solve_group(grd, None, SearchConfig(method="dijkstra", cap=100))
    res = solve_group(grd, None, SearchConfig(method="dijkstra"))
    assert res.objective == 12 and res.certified_optimal


def x_n_digest(x_n):
    return hashlib.sha256(",".join(map(str, x_n)).encode()).hexdigest()[:16]


def test_dijkstra_pinned():
    # x_N and the settled count on the benchmark's cutgen ladder and on the
    # first 50 instances of the random suite's law: the nodes are residues
    # over the rows with r_i > 1, the trivial rows' zeros left out
    for (m, seed), pin in zip(((6, 51), (8, 26), (10, 11)),
                              (("287d2493f98ed73e", 11, 14), ("22d7ab0edc92f9bb", 8, 25),
                               ("a4d5804c91a89a7b", 2, 39))):
        grd = relax_ilp(cutgen(CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed)))
        res = gomory_shortest_path(grd)
        assert (x_n_digest(res.best_point), res.samples_used, res.objective) == pin
    law = hashlib.sha256()
    for seed in range(50):
        res = gomory_shortest_path(relax_ilp(random_feasible_instance(seed)))
        law.update(f"{seed}:{x_n_digest(res.best_point)}:{res.samples_used};".encode())
    assert law.hexdigest()[:16] == "1c6192fcda224c73"


def inflated_heap(at):
    """heapq whose pop number at reports its distance one too high: the
    settled distance of that residue is then longer than its best edge."""
    pops = itertools.count()

    def heappop(heap):
        d, u = heapq.heappop(heap)
        return (d + 1, u) if next(pops) == at else (d, u)

    return SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def test_dijkstra_dual_certificate_fires(monkeypatch):
    grds = [relax_ilp(planted(2, 12, 1)[0]),
            relax_ilp(cutgen(CutStockSpec(m=8, L=1000, v2=0.5, dbar=10.0, seed=26)))]
    for grd in grds:
        for at in (1, 3):
            monkeypatch.setattr(search, "heapq", inflated_heap(at))
            with pytest.raises(CertificateError, match="dual certificate fails"):
                gomory_shortest_path(grd)
        monkeypatch.undo()
        assert gomory_shortest_path(grd).certified_optimal


def test_dijkstra_dual_certificate_fires_under_python_O():
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "import heapq\n"
        "from types import SimpleNamespace\n"
        "from grouprelax import planted, relax_ilp, search\n"
        "from grouprelax.errors import CertificateError\n"
        "def heappop(heap):\n"
        "    d, u = heapq.heappop(heap)\n"
        "    return (d + (u != 0), u)\n"
        "search.heapq = SimpleNamespace(heappush=heapq.heappush, heappop=heappop)\n"
        "try:\n"
        "    search.gomory_shortest_path(relax_ilp(planted(2, 12, 1)[0]))\n"
        "except CertificateError as exc:\n"
        "    print(str(exc).split(':')[0])\n"
    )
    src = str(Path(grouprelax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "dual certificate fails\n"


def single_constraint_inst(b):
    # basis column 4 gives the congruence 2*x2 = b (mod 4), unit cost
    return ILPInstance(
        name=f"one_{b}",
        A=IntMatrix([[4, 2]]),
        b=[b],
        c=[Fraction(0), Fraction(1)],
        row_sense=["="],
    )


def test_dijkstra_single_constraint():
    sf, bs, grd, _ = build(single_constraint_inst(2))
    assert grd.r == [4] and grd.bbold == [2]
    res = gomory_shortest_path(grd)
    assert res.objective - grd.shift == 1
    assert res.best_point == (1,)


def test_dijkstra_zero_target():
    inst = single_constraint_inst(4)
    sf, bs, grd, _ = build(inst)
    assert grd.bbold == [0]
    res = gomory_shortest_path(grd)
    assert res.objective == grd.shift
    assert res.best_point == (0,)


def test_dijkstra_unreachable():
    from grouprelax import build_group_relaxation, solve_lp_exact, to_standard_form
    # 2*x2 = 1 (mod 4) has no solution; build by hand since the coset
    # solve would already refuse
    inst = single_constraint_inst(1)
    sf = to_standard_form(inst)
    grd = build_group_relaxation(sf, solve_lp_exact(sf))
    with pytest.raises(Infeasible):
        gomory_shortest_path(grd)


def test_brute_force_group_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    res = brute_force_group(fc, grd.cost, cap=100, grd=grd)
    assert res.objective == 2
    assert res.argmin_points == [(1, 1)]
    assert res.certified_optimal

    inst, _ = planted(3, 2, 1)
    _, _, grd, fc = build(inst)
    res = brute_force_group(fc, grd.cost, cap=100, grd=grd)
    assert res.objective == 2
    # coordinates of every coset point lie in {1, 4, 7}
    for pt in [res.best_point]:
        assert all(v in (1, 4, 7) for v in pt)


def test_brute_force_group_constant_f():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    res = brute_force_group(fc, LinearCost(1, 5, (0,) * grd.d), cap=100)
    assert len(res.argmin_points) == fc.basis.kernel_order == 4


def test_brute_force_group_matches_oracle():
    """The coset_array brute force against the point-by-point Fraction
    oracle, field for field (types too, by repr), K* in coset order: the
    tier-1 law's seeds 0-299 and planted cosets, each uncompressed and
    compressed."""
    insts = [random_feasible_instance(seed) for seed in range(300)]
    insts += [planted(t, m, 1, seed=seed, style=style)[0]
              for t, m in ((2, 6), (3, 4), (2, 2), (5, 2)) for seed in range(3)
              for style in ("identity", "random-lower-unit")]
    cosets = several = 0
    for inst in insts:
        grd = relax_ilp(inst)
        for compress in (False, True):
            fc = feasible_coset(grd, compress)
            if fc.basis.kernel_order > 4096:
                continue
            new = brute_force_group(fc, grd.cost, 4096, grd)
            old = coset_oracle.brute_force_group(fc, grd.cost, 4096, grd)
            assert new == old and repr(new) == repr(old)
            cosets += 1
            several += len(new.argmin_points) > 1
    assert cosets >= 550 and several >= 50


def test_brute_force_group_cap():
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    with pytest.raises(CapExceeded):
        brute_force_group(fc, grd.cost, cap=2)


def test_brute_force_ilp():
    inst = ILPInstance(
        name="id",
        A=IntMatrix([[1, 0], [0, 1]]),
        b=[3, 5],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    val, x = brute_force_ilp(inst, box=6)
    assert val == 8 and x == [3, 5]

    p, _ = planted(2, 2, 1)
    val, _ = brute_force_ilp(p, box=4)
    assert val == 2

    bad = ILPInstance(
        name="nofit",
        A=IntMatrix([[1, 1]]),
        b=[99],
        c=[Fraction(1), Fraction(1)],
        row_sense=["="],
    )
    with pytest.raises(Infeasible):
        brute_force_ilp(bad, box=6)
    with pytest.raises(CapExceeded):
        brute_force_ilp(bad, box=6, cap=10)


def test_brute_force_ilp_rational_costs():
    inst = ILPInstance(
        name="frac",
        A=IntMatrix([[1, 1]]),
        b=[4],
        c=[Fraction(1, 3), Fraction(1, 2)],
        row_sense=["="],
    )
    val, x = brute_force_ilp(inst, box=6)
    assert val == Fraction(4, 3) and x == [4, 0]


def product_scan_ilp(inst, box):
    """The box optimum by a plain scan in Python ints, x_0 the fastest
    digit, keeping the first minimiser."""
    best = None
    for p in itertools.product(range(box + 1), repeat=inst.n_vars):
        x = list(reversed(p))
        lhs = [sum(a * v for a, v in zip(row, x)) for row in inst.A.data]
        if all(v <= b if s == "<=" else v >= b if s == ">=" else v == b
               for v, s, b in zip(lhs, inst.row_sense, inst.b)):
            val = sum(c * v for c, v in zip(inst.c, x))
            if best is None or val < best[0]:
                best = (val, x)
    if best is None:
        raise Infeasible("no feasible point in the box")
    return best


def test_brute_force_ilp_matches_product_scan(random_suite):
    # each instance is drawn around a point of {0..3}^n, so box 2 leaves
    # some of them infeasible
    def outcome(scan, inst):
        try:
            return scan(inst, 2)
        except Infeasible:
            return "infeasible"

    outcomes = [(outcome(brute_force_ilp, case["inst"]), outcome(product_scan_ilp, case["inst"]))
                for case in random_suite["cases"]]
    assert all(a == b for a, b in outcomes)
    assert 0 < sum(a == "infeasible" for a, _ in outcomes) < len(outcomes)


def test_brute_force_ilp_wide_sums():
    # 2^62 * 10 wraps in int64: the scan must not accept x_1 > 1
    inst = ILPInstance(name="wide", A=IntMatrix([[2**62, 0], [0, 1]]), b=[2**62, 3],
                       c=[Fraction(-1), Fraction(0)], row_sense=["<=", "<="])
    assert brute_force_ilp(inst, box=10) == (-1, [1, 0])
    # a right-hand side beyond int64, and costs whose sums are
    big = ILPInstance(name="big", A=IntMatrix([[1, 1]]), b=[2**70], c=[Fraction(2**61), Fraction(-3, 2**64)],
                      row_sense=["<="])
    assert brute_force_ilp(big, box=4) == product_scan_ilp(big, 4) == (Fraction(-12, 2**64), [0, 4])


def test_budget_helpers():
    assert sample_budget(8, 1, 0.01) >= 2 * 8
    inst, _ = planted(2, 2, 1)
    _, _, _, fc = build(inst)
    assert default_mix_steps(fc, 0.01) >= 1


def test_default_mix_steps_huge_kernel():
    # 110 cyclic factors of order 2^10: |K| = 2^1100 does not fit a float
    d, u = 110, 2**10
    unit = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    kb = KernelBasis(unit, (u,) * d, (u,) * d, u**d, 1)
    t = default_mix_steps(FeasibleCoset((0,) * d, kb), 0.01)
    assert t == pytest.approx(d * u * u * (1100 * math.log(2) - math.log(0.01)), abs=2)
    # walk lengths of cosets that fit a float are unchanged
    cases = [(planted(2, 8, 1)[0], 325),
             (planted(3, 6, 1, style="random-lower-unit")[0], 605),
             (cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)), 421)]
    for inst, t_mix in cases:
        assert default_mix_steps(build(inst)[3], 0.01) == t_mix


def test_default_method_is_dijkstra():
    assert SearchConfig().method == "dijkstra"


# Markov chain search outputs pinned run by run: same RNG draws in the
# same order, so the same points, objectives, sample counts and traces.
# Each planted coset starts at its optimum, so "-" runs also negate the
# group cost to make the walk climb away from it.
MCS_CASES = {
    "planted_2_8": lambda: planted(2, 8, 1)[0],
    "planted_3_6_rlu": lambda: planted(3, 6, 1, style="random-lower-unit")[0],
    "cutgen_m4_L20_s35": lambda: cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0,
                                                     seed=35)),
}
MCS_RUNS = [("mcs", 0.0), ("mcs-expander", 0.0), ("mcs-metropolis", 0.3),
            ("mcs-metropolis", 1.0), ("mcs-metropolis", 3.0)]


def mcs_golden_lines(max_samples=16):
    lines = []
    for case, make in MCS_CASES.items():
        _, _, grd, fc = build(make())
        for sign in "+-":
            f = grd.cost if sign == "+" else -grd.cost
            for method, beta in MCS_RUNS:
                for seed in (1, 2):
                    cfg = SearchConfig(method=method, seed=seed, beta=beta,
                                       max_samples=max_samples)
                    res = markov_chain_search(fc, f, cfg)
                    trace = " ".join(f"{i}:{v}" for i, v in res.trace)
                    lines.append(f"{case} {sign} {method} {beta} {seed} | "
                                 f"{' '.join(map(str, res.best_point))} | "
                                 f"{res.objective} | {res.samples_used} | {trace}")
    return lines


MCS_GOLDEN = """\
planted_2_8 + mcs 0.0 1 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs 0.0 2 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-expander 0.0 1 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-expander 0.0 2 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 0.3 1 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 0.3 2 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 1.0 1 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 1.0 2 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 3.0 1 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 + mcs-metropolis 3.0 2 | 1 1 1 1 1 1 1 1 | 8 | 16 | 0:8
planted_2_8 - mcs 0.0 1 | 3 3 3 3 3 3 3 1 | -22 | 16 | 0:-8 0:-16 2:-18 9:-22
planted_2_8 - mcs 0.0 2 | 3 1 3 3 3 3 3 3 | -22 | 16 | 0:-8 0:-16 3:-20 10:-22
planted_2_8 - mcs-expander 0.0 1 | 1 3 3 3 3 1 3 3 | -20 | 16 | 0:-8 0:-18 3:-20
planted_2_8 - mcs-expander 0.0 2 | 3 3 3 1 1 3 3 3 | -20 | 16 | 0:-8 0:-16 1:-18 5:-20
planted_2_8 - mcs-metropolis 0.3 1 | 3 3 3 3 1 3 3 3 | -22 | 16 | 0:-8 0:-18 3:-20 9:-22
planted_2_8 - mcs-metropolis 0.3 2 | 3 3 3 3 3 3 3 3 | -24 | 16 | 0:-8 0:-22 2:-24
planted_2_8 - mcs-metropolis 1.0 1 | 3 3 3 3 3 3 3 3 | -24 | 16 | 0:-8 0:-18 1:-24
planted_2_8 - mcs-metropolis 1.0 2 | 3 3 3 3 3 3 3 3 | -24 | 16 | 0:-8 0:-24
planted_2_8 - mcs-metropolis 3.0 1 | 3 3 3 3 3 3 3 3 | -24 | 16 | 0:-8 0:-24
planted_2_8 - mcs-metropolis 3.0 2 | 3 3 3 3 3 3 3 3 | -24 | 16 | 0:-8 0:-24
planted_3_6_rlu + mcs 0.0 1 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs 0.0 2 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-expander 0.0 1 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-expander 0.0 2 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 0.3 1 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 0.3 2 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 1.0 1 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 1.0 2 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 3.0 1 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu + mcs-metropolis 3.0 2 | 1 1 1 1 1 1 | 6 | 16 | 0:6
planted_3_6_rlu - mcs 0.0 1 | 7 7 7 4 4 4 | -33 | 16 | 0:-6 0:-30 6:-33
planted_3_6_rlu - mcs 0.0 2 | 7 7 7 4 7 4 | -36 | 16 | 0:-6 0:-21 1:-24 4:-27 7:-36
planted_3_6_rlu - mcs-expander 0.0 1 | 7 7 4 4 7 7 | -36 | 16 | 0:-6 0:-21 1:-30 12:-36
planted_3_6_rlu - mcs-expander 0.0 2 | 1 7 7 4 7 7 | -33 | 16 | 0:-6 0:-27 3:-33
planted_3_6_rlu - mcs-metropolis 0.3 1 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-30 2:-39 4:-42
planted_3_6_rlu - mcs-metropolis 0.3 2 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-39 12:-42
planted_3_6_rlu - mcs-metropolis 1.0 1 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-42
planted_3_6_rlu - mcs-metropolis 1.0 2 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-42
planted_3_6_rlu - mcs-metropolis 3.0 1 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-42
planted_3_6_rlu - mcs-metropolis 3.0 2 | 7 7 7 7 7 7 | -42 | 16 | 0:-6 0:-42
cutgen_m4_L20_s35 + mcs 0.0 1 | 0 0 1 1 | 4 | 16 | 0:5 9:4
cutgen_m4_L20_s35 + mcs 0.0 2 | 2 0 0 0 | 5 | 16 | 0:5
cutgen_m4_L20_s35 + mcs-expander 0.0 1 | 0 0 2 0 | 4 | 16 | 0:5 14:4
cutgen_m4_L20_s35 + mcs-expander 0.0 2 | 2 0 0 0 | 5 | 16 | 0:5
cutgen_m4_L20_s35 + mcs-metropolis 0.3 1 | 2 0 0 0 | 5 | 16 | 0:5
cutgen_m4_L20_s35 + mcs-metropolis 0.3 2 | 2 0 0 0 | 5 | 16 | 0:5
cutgen_m4_L20_s35 + mcs-metropolis 1.0 1 | 0 0 2 0 | 4 | 16 | 0:5 5:4
cutgen_m4_L20_s35 + mcs-metropolis 1.0 2 | 0 0 0 2 | 4 | 16 | 0:5 1:4
cutgen_m4_L20_s35 + mcs-metropolis 3.0 1 | 0 0 0 2 | 4 | 16 | 0:5 0:4
cutgen_m4_L20_s35 + mcs-metropolis 3.0 2 | 0 0 1 1 | 4 | 16 | 0:5 0:4
cutgen_m4_L20_s35 - mcs 0.0 1 | 2 3 1 2 | -8 | 16 | 0:-5 0:-6 6:-8
cutgen_m4_L20_s35 - mcs 0.0 2 | 3 3 3 1 | -9 | 16 | 0:-5 1:-8 4:-9
cutgen_m4_L20_s35 - mcs-expander 0.0 1 | 3 3 3 1 | -9 | 16 | 0:-5 0:-8 2:-9
cutgen_m4_L20_s35 - mcs-expander 0.0 2 | 3 3 3 1 | -9 | 16 | 0:-5 0:-6 4:-7 8:-9
cutgen_m4_L20_s35 - mcs-metropolis 0.3 1 | 3 3 1 3 | -9 | 16 | 0:-5 0:-9
cutgen_m4_L20_s35 - mcs-metropolis 0.3 2 | 3 3 3 1 | -9 | 16 | 0:-5 0:-6 1:-8 9:-9
cutgen_m4_L20_s35 - mcs-metropolis 1.0 1 | 3 3 1 3 | -9 | 16 | 0:-5 0:-9
cutgen_m4_L20_s35 - mcs-metropolis 1.0 2 | 3 3 1 3 | -9 | 16 | 0:-5 0:-9
cutgen_m4_L20_s35 - mcs-metropolis 3.0 1 | 3 3 2 2 | -9 | 16 | 0:-5 0:-9
cutgen_m4_L20_s35 - mcs-metropolis 3.0 2 | 3 3 3 1 | -9 | 16 | 0:-5 0:-8 1:-9
"""


def test_mcs_golden_runs():
    assert mcs_golden_lines() == MCS_GOLDEN.splitlines()


def test_mcs_counts_metropolis_proposals():
    inst, _ = planted(2, 3, 1)
    _, _, grd, fc = build(inst)
    res = markov_chain_search(fc, grd.cost, SearchConfig(
        method="mcs-metropolis", seed=3, beta=1.5, max_samples=20), grd)
    assert 0 < res.accepted <= res.proposals
    res = markov_chain_search(fc, grd.cost, SearchConfig(
        method="mcs", seed=3, max_samples=20), grd)
    assert res.proposals == res.accepted == 0


@pytest.mark.parametrize("method,beta", [("mcs", 0.0), ("mcs-metropolis", 1.0)])
def test_mcs_cost_lookup_table(method, beta):
    # the oracle walk reads its cost from a table keyed by coset tuples;
    # the integer walk on the same linear cost must make the same moves
    _, _, grd, fc = build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))
    table = {x: -grd.cost(x) for x in enumerate_coset(fc, cap=10**4)}
    kb = fc.basis
    n = default_mix_steps(fc, 0.01)
    runs = []
    for run, f in ((walk_oracle.walk, table.__getitem__), (walk, -grd.cost)):
        spec = CayleyWalkSpec(kb.generators, kb.moduli, rng=random.Random(2))
        x, fx, proposals, accepted = run(spec, fc.x_hat, n, f, beta)
        runs.append((x, fx, proposals, accepted, spec.rng.getstate()))
    assert runs[0] == runs[1]
    assert (runs[0][2] > 0) == (beta > 0)


@pytest.mark.parametrize("method", ["mcs", "mcs-expander", "mcs-metropolis"])
def test_mcs_step_cap(method):
    # the burn-in and 64 samples walk 65 x 100 steps: a cap one below
    # that stops the search before its last sample, one that small
    # before its burn-in
    _, _, grd, fc = build(planted(2, 8, 1)[0])

    def search(cap, mix_steps=100):
        return markov_chain_search(fc, grd.cost, SearchConfig(
            method=method, seed=5, beta=1.0, max_samples=64, mix_steps=mix_steps,
            cap=cap), grd)

    assert search(6500).samples_used == 64
    with pytest.raises(CapExceeded, match="walk 6500 steps, past the cap of 6499"):
        search(6499)
    with pytest.raises(CapExceeded, match="walk 100 steps, past the cap of 99"):
        search(99)


def test_mcs_needs_a_linear_cost():
    _, _, grd, fc = build(planted(2, 2, 1)[0])
    with pytest.raises(TypeError):
        markov_chain_search(fc, lambda x: grd.cost(x), SearchConfig(method="mcs"))
