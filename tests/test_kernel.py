"""Kernel coset machinery: feasible point, generator finding, column
orders, ambient compression, enumeration. Everything is cross-checked
against exhaustive enumeration oracles."""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import grouprelax.kernel
from grouprelax import (ILPInstance, IntMatrix, PipelineConfig, SearchConfig, column_orders,
                        emit_mps, feasible_coset, range_order, relax_ilp, run_pipeline)
from grouprelax.cli import main
from grouprelax.errors import CapExceeded, CertificateError, Infeasible
from grouprelax.gen import CutStockSpec, cutgen, planted
from grouprelax.kernel import _group_residual, compress_coset, coset_array
from tests.compress_oracle import (corrupted_elimination, element_order, eliminate_compress_kernel,
                                   snf_feasible_coset, span, two_call_compressed_coset,
                                   two_snf_compress_kernel)
from tests.coset_oracle import enumerate_coset
from tests.conftest import build, random_feasible_instance, stub_grd


def ambient_kernel(grd):
    """Exhaustive kernel of the congruence system (oracle)."""
    return {
        x for x in itertools.product(range(grd.r_max), repeat=grd.d)
        if not any(_group_residual(grd.Abold, grd.r, x))
    }


def test_feasible_point_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, _ = build(inst)
    x_hat = feasible_coset(grd).x_hat
    assert x_hat in {(1, 1), (1, 3), (3, 1), (3, 3)}


def test_feasible_point_infeasible():
    grd = stub_grd([[2]], [4], [1])
    with pytest.raises(Infeasible):
        feasible_coset(grd)


def test_feasible_point_homogeneous():
    grd = stub_grd([[2, 1], [0, 3]], [4, 4], [0, 0])
    assert feasible_coset(grd).x_hat == (0, 0)


def test_null_gen_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, _ = build(inst)
    kb = feasible_coset(grd).basis
    assert sorted(kb.orders) == [2, 2]
    assert kb.kernel_order == 4
    assert kb.range_order == 4
    assert span(kb) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_null_gen_single_constraint():
    grd = stub_grd([[2]], [4], [0])
    kb = feasible_coset(grd).basis
    assert kb.generators == ((2,),)
    assert kb.kernel_order == 2
    assert kb.range_order == 2


def test_null_gen_trivial_kernel():
    grd = stub_grd([[1]], [4], [0])
    kb = feasible_coset(grd).basis
    assert kb.generators == ()
    assert kb.kernel_order == 1
    assert kb.range_order == 4


def test_null_gen_matches_oracle_fuzz():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        m = rng.randint(1, 2)
        d = rng.randint(1, 3)
        r_max = rng.choice([2, 3, 4, 6, 8, 12])
        # divisibility chain for the row moduli
        divs = [v for v in range(1, r_max + 1) if r_max % v == 0]
        r = sorted(rng.choice(divs) for _ in range(m - 1)) + [r_max]
        A = [[rng.randrange(r[i]) for _ in range(d)] for i in range(m)]
        grd = stub_grd(A, r, [0] * m)
        if grd.r_max**grd.d > 10**5:
            continue
        kb = feasible_coset(grd).basis
        oracle = ambient_kernel(grd)
        got = span(kb)
        assert got == oracle
        assert prod(kb.orders) == len(got) == kb.kernel_order
        for h, u in zip(kb.generators, kb.orders):
            assert element_order(h, kb.moduli) == u
        checked += 1
    assert checked >= 40


def test_column_orders():
    assert column_orders(stub_grd([[2]], [4], [0])) == [2]
    assert column_orders(stub_grd([[1], [2]], [4, 4], [0, 0])) == [4]
    assert column_orders(stub_grd([[2, 1], [2, 3]], [4, 4], [0, 0])) == [2, 4]


def test_prime_powers():
    pp = grouprelax.kernel._prime_powers
    rng = random.Random(3)
    for n in [1, 2, 12, 997 * 991, 1009 * 1013, 2**64, 3**40 * 5, 2**61 - 1, 3215031751,
              1000003 * 10000019, 1048583**2 * 7, 1073741827 * 2147483659,
              *(rng.randrange(1, 10**9) for _ in range(200))]:
        got = pp(n)
        assert prod(p**e for p, e in got) == n
        assert [p for p, _ in got] == sorted({p for p, _ in got})
        for p, _ in got:  # every factor prime, by trial division up to 10^5
            assert p > 1 and all(p % f for f in range(2, min(isqrt(p), 10**5) + 1))
    assert pp(2**61 - 1) == [(2**61 - 1, 1)]
    assert pp(3215031751) == [(151, 1), (751, 1), (28351, 1)]  # a strong pseudoprime to 2, 3, 5, 7
    with pytest.raises(CapExceeded, match="cannot prove"):
        pp(2**89 - 1)
    with pytest.raises(CapExceeded, match="could not factor"):
        pp(1099511627791 * 2199023255579)  # two 41-bit primes: past the rho budget


def test_enumerate_coset_planted():
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    pts = set(enumerate_coset(fc, 10))
    assert pts == {(1, 1), (3, 1), (1, 3), (3, 3)}
    with pytest.raises(CapExceeded):
        list(enumerate_coset(fc, 2))


def test_enumerate_coset_trivial():
    grd = stub_grd([[1]], [4], [3])
    fc = feasible_coset(grd)
    assert list(enumerate_coset(fc, 10)) == [(3,)]


def test_coset_array_matches_enumerate_coset():
    # numpy mixed radix against the itertools order: planted, cutgen, a
    # compressed coset (per-column moduli), a trivial kernel, and a
    # modulus past 2^62 (Python ints)
    fcs = [build(planted(3, 3, 1, style="random-lower-unit")[0])[3],
           build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))[3],
           feasible_coset(stub_grd([[1]], [4], [3]))]
    grd = build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))[2]
    fcs.append(feasible_coset(grd, compress=True))
    fcs.append(feasible_coset(stub_grd([[2]], [2**64], [2])))
    for fc in fcs:
        assert coset_array(fc, 1000).tolist() == [list(p) for p in enumerate_coset(fc, 1000)]
    assert coset_array(fcs[-1], 1000).dtype == object
    with pytest.raises(CapExceeded):
        coset_array(fcs[0], 26)


def test_compress_planted_t2_m2():
    # column orders s = (2, 2); the image of K = {0,2}^2 under reduction
    # mod 2 is trivial, so the compressed kernel has order 1 and the
    # whole coset collapses to the single point (1, 1)
    inst, _ = planted(2, 2, 1)
    _, _, grd, fc = build(inst)
    fc2 = feasible_coset(grd, compress=True)
    kb2 = fc2.basis
    assert kb2.moduli == (2, 2)
    assert kb2.kernel_order == 1
    assert prod(kb2.moduli) == kb2.kernel_order * kb2.range_order
    assert set(enumerate_coset(fc2, 10)) == {(1, 1)}
    f = grd.cost
    assert min(map(f, enumerate_coset(fc, 10))) == f((1, 1)) == 2


def test_compress_single_constraint_6_mod_12():
    # K = {0,2,4,6,8,10} in Z12, s = 2; the image mod 2 is {0}: trivial
    grd = stub_grd([[6]], [12], [0])
    kb = feasible_coset(grd).basis
    assert span(kb) == {(0,), (2,), (4,), (6,), (8,), (10,)}
    kb2 = feasible_coset(grd, compress=True).basis
    assert kb2.moduli == (2,)
    assert kb2.kernel_order == 1
    assert prod(kb2.moduli) == kb2.kernel_order * kb2.range_order == 2


def test_compress_trivial_kernel():
    grd = stub_grd([[1]], [4], [0])
    kb2 = feasible_coset(grd, compress=True).basis
    assert kb2.generators == ()
    assert kb2.kernel_order == 1


def test_compress_splits_dependent_torsion(monkeypatch):
    # x0 + x1 + 2 x2 = 0, 2 x1 + 2 x2 = 0 (mod 4), s = (4, 4, 2): the free
    # column gives g = (1, 1, 1) and the second pivot the torsion element
    # (2, 2, 0) = 2g, so K' is cyclic of order 4, not Z_2 + Z_2
    grd = stub_grd([[1, 1, 2], [0, 2, 2]], [4, 4], [0, 0])
    kb = feasible_coset(grd).basis
    split = grouprelax.kernel._split_torsion
    calls = []
    monkeypatch.setattr(grouprelax.kernel, "_split_torsion",
                        lambda *args: calls.append(1) or split(*args))
    kb2 = feasible_coset(grd, compress=True).basis
    assert calls and kb2.moduli == (4, 4, 2) and kb2.orders == (4,)
    assert span(kb2) == {(0, 0, 0), (1, 1, 1), (2, 2, 0), (3, 3, 1)}
    assert span(kb2) == {tuple(v % s for v, s in zip(x, kb2.moduli)) for x in span(kb)}


def test_diagonal_relations_take_one_round(monkeypatch):
    # planted (2,12): A = 2I mod 4, so the elimination and the torsion
    # split each see 12 pivots that are alone in their columns, and each
    # takes all 12 in one round of the pivot search
    grd = relax_ilp(planted(2, 12, 1)[0])
    first_hits = grouprelax.kernel._first_hits
    rounds = []
    monkeypatch.setattr(grouprelax.kernel, "_first_hits",
                        lambda M, hit: rounds.append(hit.shape) or first_hits(M, hit))
    assert feasible_coset(grd).basis.orders == (2,) * 12
    assert rounds == [(12, 13), (12, 12)]  # the rows with b's column, then the relations


def test_torsion_cosets_match_snf_oracle():
    # all-torsion planted cosets, with diagonal relations (identity: 2I
    # mod 4 and 3I mod 9) or coupled ones (random-lower-unit), and the
    # coupled torsion of test_compress_splits_dependent_torsion, against
    # the SNF coset, uncompressed and compressed
    grds = [relax_ilp(planted(t, m, 1, seed=7, style=style)[0])
            for t, m in ((2, 8), (3, 6), (2, 12)) for style in ("identity", "random-lower-unit")]
    grds.append(stub_grd([[1, 1, 2], [0, 2, 2]], [4, 4], [0, 0]))
    for grd in grds:
        assert assert_coset_matches_oracle(grd)
        old = snf_feasible_coset(grd)
        new = assert_matches_oracle(grd, old.basis)
        x_hat = feasible_coset(grd, compress=True).x_hat
        diff = tuple((a - b) % s for a, b, s in zip(x_hat, old.x_hat, new.moduli))
        assert not any(_group_residual(grd.Abold, grd.r, diff))
        if new.kernel_order <= 10**4:
            assert diff in span(new)


def test_compress_image_oracle_fuzz():
    """Compressed kernel must equal the exact image of K in the product
    of the column-order cyclic groups, with matching order bookkeeping."""
    rng = random.Random(41)
    checked = 0
    for _ in range(80):
        m = rng.randint(1, 2)
        d = rng.randint(1, 3)
        r_max = rng.choice([2, 4, 6, 8, 12])
        divs = [v for v in range(1, r_max + 1) if r_max % v == 0]
        r = sorted(rng.choice(divs) for _ in range(m - 1)) + [r_max]
        A = [[rng.randrange(r[i]) for _ in range(d)] for i in range(m)]
        if any(not any(col) for col in zip(*A)):
            continue  # zero columns are dropped upstream in real runs
        grd = stub_grd(A, r, [0] * m)
        if grd.r_max**grd.d > 10**4:
            continue
        kb = feasible_coset(grd).basis
        s = column_orders(grd)
        kb2 = feasible_coset(grd, compress=True).basis
        image = {tuple(v % sj for v, sj in zip(x, s)) for x in span(kb)}
        assert span(kb2) == image
        assert kb2.kernel_order == len(image)
        assert prod(s) == kb2.kernel_order * kb2.range_order
        checked += 1
    assert checked >= 40


def test_feasible_coset_runs_no_snf(monkeypatch):
    """x_hat and K come from one elimination per prime power of r_max,
    with no SNF: planted (prime 2), a two-row stub and a ladder cutgen
    (r_max = 6 and 22, primes 2 and 3, 2 and 11)."""
    grds = [build(planted(2, 3, 1)[0])[2], stub_grd([[1, 1], [0, 3]], [2, 6], [1, 3]),
            relax_ilp(cutgen(CutStockSpec(m=6, L=1000, v2=0.5, dbar=10.0, seed=51)))]

    def no_snf(M):
        raise RuntimeError("the coset must not call snf")

    monkeypatch.setattr(grouprelax.exact, "snf", no_snf)
    monkeypatch.setattr(grouprelax.relax, "snf", no_snf)
    assert not hasattr(grouprelax.kernel, "snf")
    eliminate = grouprelax.kernel._eliminate
    calls = []
    monkeypatch.setattr(grouprelax.kernel, "_eliminate",
                        lambda B, p, e, sp: calls.append((p, e)) or eliminate(B, p, e, sp))
    for grd in grds:
        calls.clear()
        fc = feasible_coset(grd)
        assert calls == grouprelax.kernel._prime_powers(grd.r_max)
        assert fc.basis.kernel_order > 1


def assert_matches_oracle(grd, kb, span_limit=10**4):
    """Same moduli, |K'|, |G| and sorted orders as both references (the
    two-SNF compression and the k x d elimination of K's generators), and
    the same subgroup where it is small enough to enumerate."""
    new = feasible_coset(grd, compress=True).basis
    assert list(new.orders) == sorted(new.orders)
    assert all(b % a == 0 for a, b in zip(new.orders, new.orders[1:]))
    for old in (two_snf_compress_kernel(grd, kb), eliminate_compress_kernel(grd, kb)):
        assert new.moduli == old.moduli
        assert new.kernel_order == old.kernel_order
        assert new.range_order == old.range_order
        assert sorted(new.orders) == sorted(old.orders)
        if new.kernel_order <= span_limit:
            assert span(new) == span(old)
    return new


def test_compress_matches_oracle_random_suite(random_suite):
    for case in random_suite["cases"]:
        assert_matches_oracle(case["grd"], case["fc"].basis)


def test_compress_matches_oracle_cutgen():
    # 48 small draws, then the benchmark's L=1000 ladder (d = 110, 127, 53;
    # r_max = 22, 64 and r = (.., 2, 4))
    specs = [CutStockSpec(m=m, L=20, v2=0.8, dbar=2.0, seed=seed)
             for m in (3, 4, 5) for seed in range(16)]
    specs += [CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed)
              for m, seed in ((6, 51), (8, 26), (10, 11))]
    nontrivial = 0
    for spec in specs:
        _, _, grd, fc = build(cutgen(spec))
        nontrivial += assert_matches_oracle(grd, fc.basis).kernel_order > 1
    assert nontrivial >= 40


def test_compress_object_dtype_matches_oracle():
    # r_max >= 2^31 runs the elimination on Python ints (object dtype);
    # column entries near multiples of r_i / c make some column orders small
    rng = random.Random(5)
    for r in ([3 * 2**31], [2**31, 3 * 2**32], [5**14], [7, 7 * 3**20]):
        r_max = r[-1]
        for _ in range(12):
            d = rng.randint(1, 4)
            A = [[(r_i // rng.choice([2, 3, 4, 5, 6, 7, 9])) * rng.randrange(1, 12) % r_i
                  for _ in range(d)] for r_i in r]
            if any(not any(col) for col in zip(*A)):
                continue
            grd = stub_grd(A, r, [0] * len(r))
            assert r_max >= 2**31
            kb2 = assert_matches_oracle(grd, feasible_coset(grd).basis)
            assert all(type(v) is int for g in kb2.generators for v in g)


def test_compress_runs_no_snf(monkeypatch):
    def no_snf(M):
        raise RuntimeError("compression must not call snf")

    _, _, grd, fc = build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))
    monkeypatch.setattr(grouprelax.exact, "snf", no_snf)
    assert feasible_coset(grd, compress=True).basis.kernel_order == 64


def corrupt_elimination(monkeypatch, how):
    monkeypatch.setattr(grouprelax.kernel, "_eliminate",
                        corrupted_elimination(grouprelax.kernel._eliminate, how))


CERTIFICATES = [
    ("shift", "fails the congruence"),
    ("order", "does not have order"),
    ("drop", "bookkeeping broke"),
    # congruence, element orders and the order count all still hold
    ("repeat", "not independent"),
]


@pytest.mark.parametrize("how, message", CERTIFICATES)
def test_compress_certificates_fire(monkeypatch, how, message):
    # cutgen m=4 L=20 s35: r_max = 4, three generators of order 4
    _, _, grd, fc = build(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))
    corrupt_elimination(monkeypatch, how)
    with pytest.raises(CertificateError, match=message):
        feasible_coset(grd, compress=True)


@pytest.mark.parametrize("how, message", CERTIFICATES + [("x", "substitution check failed")])
def test_coset_certificates_fire(monkeypatch, how, message):
    grd = relax_ilp(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))
    assert grd.Abold.data[-1][0] % 2
    corrupt_elimination(monkeypatch, how)
    with pytest.raises(CertificateError, match=message):
        feasible_coset(grd)


def test_independence_check_fires_under_python_O():
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "from grouprelax import CutStockSpec, cutgen, feasible_coset, kernel\n"
        "from grouprelax.errors import CertificateError\n"
        "from grouprelax.relax import relax_ilp\n"
        "from tests.compress_oracle import corrupted_elimination\n"
        "grd = relax_ilp(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))\n"
        "kernel._eliminate = corrupted_elimination(kernel._eliminate, 'repeat')\n"
        "try:\n"
        "    feasible_coset(grd, compress=True)\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n"
    )
    assert run_under_python_O(script) == "kernel generators are not independent mod 2\n"


def test_coset_certificates_fire_under_python_O():
    # each certificate of feasible_coset, with an elimination corrupted
    # as in corrupt_elimination
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "from grouprelax import CutStockSpec, cutgen, feasible_coset, kernel\n"
        "from grouprelax.errors import CertificateError\n"
        "from grouprelax.relax import relax_ilp\n"
        "grd = relax_ilp(cutgen(CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35)))\n"
        "from tests.compress_oracle import corrupted_elimination\n"
        "eliminate = kernel._eliminate\n"
        "for how in ('shift', 'order', 'drop', 'repeat', 'x'):\n"
        "    kernel._eliminate = corrupted_elimination(eliminate, how)\n"
        "    try:\n"
        "        feasible_coset(grd)\n"
        "    except CertificateError as exc:\n"
        "        print(how, exc)\n"
    )
    lines = run_under_python_O(script).splitlines()
    assert [line.split()[0] for line in lines] == ["shift", "order", "drop", "repeat", "x"]
    for line, (_, message) in zip(lines, CERTIFICATES + [("x", "substitution check failed")]):
        assert message in line, line


def run_under_python_O(script):
    """stdout of script run by a fresh interpreter under python -O, with
    the package and the tests importable."""
    src, root = Path(grouprelax.__file__).resolve().parents[1:3]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(root)])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_compress_reads_no_generator_of_k():
    # compress_coset reads only |G| off the coset it is given: any other
    # field would raise here
    for spec in (CutStockSpec(m=4, L=20, v2=0.8, dbar=2.0, seed=35),
                 CutStockSpec(m=8, L=1000, v2=0.5, dbar=10.0, seed=26)):
        _, _, grd, fc = build(cutgen(spec))
        got = compress_coset(grd, SimpleNamespace(
            basis=SimpleNamespace(range_order=fc.basis.range_order)))
        assert got == feasible_coset(grd, compress=True)


def test_compressed_coset_is_one_elimination(monkeypatch, tmp_path):
    """feasible_coset(grd, compress=True), one _coset call with the column
    orders as moduli and bbold as the right-hand side, equals the two-call
    construction (K' with a zero right-hand side, x_hat of Z_{r_max}^d
    reduced mod s) and compress_coset's result; and kernel --compress and
    an MCS row of run_pipeline(compress=True) run _eliminate once per prime
    power of r_max, so they build no coset of Z_{r_max}^d, and factor
    r_max once."""
    insts = [random_feasible_instance(seed) for seed in range(400)]
    insts += [planted(t, m, 1, seed=seed, style=style)[0]
              for t, m in ((2, 8), (3, 6), (2, 12), (3, 7), (2, 2), (2, 3))
              for seed in range(5) for style in ("identity", "random-lower-unit")]
    insts += [cutgen(CutStockSpec(m=m, L=1000, v2=v2, dbar=10.0, seed=3))
              for m, v2 in ((6, 0.5), (8, 0.5), (10, 0.5), (10, 0.4), (12, 0.5))]
    shrunk = 0
    for inst in insts:
        grd = relax_ilp(inst)
        one = feasible_coset(grd, compress=True)
        assert one == two_call_compressed_coset(grd) == compress_coset(grd, feasible_coset(grd))
        shrunk += one.basis.moduli != (grd.r_max,) * grd.d
    assert shrunk >= 100

    eliminate, prime_powers = grouprelax.kernel._eliminate, grouprelax.kernel._prime_powers
    calls, factored = [], []
    monkeypatch.setattr(grouprelax.kernel, "_eliminate",
                        lambda B, p, e, sp: calls.append((p, e)) or eliminate(B, p, e, sp))
    monkeypatch.setattr(grouprelax.kernel, "_prime_powers",
                        lambda n: factored.append(n) or prime_powers(n))
    # r_max = 810 = 2 3^4 5 (G = Z_6 x Z_810), 290 = 2 5 29 and 9 = 3^2;
    # cutgen m=6 seed 51 runs the MCS rows of the benchmark's ladder
    ladder = cutgen(CutStockSpec(m=6, L=1000, v2=0.5, dbar=10.0, seed=51))
    for inst, n_pe in ((insts[-1], 3), (insts[-5], 3), (planted(3, 3, 1)[0], 1), (ladder, 2)):
        grd = relax_ilp(inst)
        want = prime_powers(grd.r_max)
        assert len(want) == n_pe
        calls.clear()
        factored.clear()
        mcs = SearchConfig(method="mcs", seed=0, max_samples=1, mix_steps=1)
        run_pipeline(inst, PipelineConfig(search=mcs, compress=True, record_wall=False))
        assert calls == want
        # r_max is factored once per compressed coset
        assert factored == [grd.r_max]
        path = tmp_path / f"{inst.name}.mps"
        path.write_text(emit_mps(inst))
        calls.clear()
        factored.clear()
        res = CliRunner().invoke(main, ["kernel", "--compress", str(path)])
        assert res.exit_code == 0, res.output
        assert calls == want and factored == [grd.r_max]
        factored.clear()
        compress_coset(grd, feasible_coset(grd))
        assert factored == [grd.r_max] * 2


# sha256 of (r, Abold, bbold, kept, dropped, orders, compressed basis) on
# the benchmark's L=1000 cutgen ladder and on the 997-pattern cutgen m=10
# v2=0.4 (d = 991); x_hat and K's generators are checked against the SNF
# oracle in test_feasible_coset_matches_snf_oracle
PINNED_COSETS = [
    ((6, 51, 0.5), "5170558d256b89a9eb3fd44b2ecb2a1171ec558ef7ae6de11c3bceddaf669bf4"),
    ((8, 26, 0.5), "c63e4e6fff66b88554cd100b799e829a0dc57bbf10153272ac3c0c58fd99f393"),
    ((10, 11, 0.5), "160f6584e318dd91ec90acb8d1c784058856365c1fa4df581d9168cc9d7473f6"),
    ((10, 3, 0.4), "633d0d66abbc8dd9722d13ac19d4b70a02e858dd86780d3905378479da841ab0"),
]


@pytest.mark.parametrize("m, seed, v2, digest", [(*k, d) for k, d in PINNED_COSETS],
                         ids=[f"m{m}_s{s}_v{v}" for (m, s, v), _ in PINNED_COSETS])
def test_relaxation_and_coset_pinned(m, seed, v2, digest):
    grd = relax_ilp(cutgen(CutStockSpec(m=m, L=1000, v2=v2, dbar=10.0, seed=seed)))
    fc = feasible_coset(grd)
    key = (grd.r, grd.Abold.data, grd.bbold, grd.kept_cols, grd.dropped_cols,
           fc.basis.orders, feasible_coset(grd, compress=True).basis)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


@functools.cache
def oracle_grds():
    """The tier-1 law's seeds 0-999, the pinned cutgens, planted (2,12)
    and (3,7), and the huge-coefficient model (r_max = 2^61 - 1)."""
    grds = [relax_ilp(random_feasible_instance(seed)) for seed in range(1000)]
    grds += [relax_ilp(cutgen(CutStockSpec(m=m, L=1000, v2=v2, dbar=10.0, seed=seed)))
             for (m, seed, v2), _ in PINNED_COSETS]
    grds += [relax_ilp(planted(t, m, 1)[0]) for t, m in ((2, 12), (3, 7))]
    big = 2**61 - 1  # one >= row big·x1 + 3·x2 >= 1
    grds.append(relax_ilp(ILPInstance(name="huge", A=IntMatrix([[big, 3]]), b=[1],
                                      c=[Fraction(1), Fraction(1)], row_sense=[">="])))
    assert grds[-1].r_max == big
    return grds


def random_stub_systems(seed, rhs):
    """Random systems of 1 to 3 nontrivial rows, r_1 | r_2 | r_3, that
    include columns repeating a residue; with rhs, a random right-hand
    side, else a zero one."""
    rng = random.Random(seed)
    for _ in range(300):
        r = [rng.choice((1, 2, 3))]
        for _ in range(rng.randint(0, 2)):
            r.append(r[-1] * rng.choice((1, 2, 3, 4)))
        d = rng.randint(0, 4)
        cols = [[rng.randrange(r_i) for r_i in r] for _ in range(d)]
        cols += cols[:rng.randint(0, d)]
        b = [rng.randrange(r_i) if rhs else 0 for r_i in r]
        yield stub_grd([list(row) for row in zip(*cols)] if cols else [[] for _ in r], r, b)


def assert_coset_matches_oracle(grd, span_limit=10**4):
    """Same moduli, orders, |K| and |G| as the SNF coset, K's generators
    in the kernel, the same subgroup where |K| <= span_limit, and
    x_hat - x_hat_oracle in K; Infeasible exactly when the oracle raises
    it. Returns whether the system is feasible."""
    try:
        old = snf_feasible_coset(grd)
    except Infeasible:
        with pytest.raises(Infeasible):
            feasible_coset(grd)
        return False
    new = feasible_coset(grd)
    kb = new.basis
    assert (kb.moduli, kb.orders, kb.kernel_order, kb.range_order) == (
        old.basis.moduli, old.basis.orders, old.basis.kernel_order, old.basis.range_order)
    for h, u in zip(kb.generators, kb.orders):
        assert not any(_group_residual(grd.Abold, grd.r, h))
        assert element_order(h, kb.moduli) == u
    diff = tuple((a - b) % m for a, b, m in zip(new.x_hat, old.x_hat, kb.moduli))
    assert not any(_group_residual(grd.Abold, grd.r, diff))
    if kb.kernel_order <= span_limit:
        got = span(kb)
        assert got == span(old.basis) and diff in got
    return True


def test_feasible_coset_matches_snf_oracle():
    for grd in oracle_grds():
        assert assert_coset_matches_oracle(grd)
    feasible = [assert_coset_matches_oracle(grd) for grd in random_stub_systems(11, rhs=True)]
    assert 50 <= sum(feasible) < len(feasible)
    # 4x = 2 (mod 8), and a system that fails only mod 3 (r_max = 6):
    # x1 + x2 = 1 (mod 2) and 3x1 + 3x2 = 1 (mod 6): mod 2 the rows
    # agree, mod 3 the second reads 0 = 1
    for grd in (stub_grd([[4]], [8], [2]), stub_grd([[1, 1], [3, 3]], [2, 6], [1, 1])):
        assert not assert_coset_matches_oracle(grd)
    with pytest.raises(Infeasible, match="mod 3"):
        feasible_coset(stub_grd([[1, 1], [3, 3]], [2, 6], [1, 1]))


def subgroup_order(grd):
    """|G| by closure: every sum of columns mod r over the rows r_i > 1
    (oracle for small groups)."""
    rows = [(row, r_i) for row, r_i in zip(grd.Abold.data, grd.r) if r_i > 1]
    cols = list(zip(*(row for row, _ in rows)))
    seen, todo = {(0,) * len(rows)}, [(0,) * len(rows)]
    while todo:
        u = todo.pop()
        for col in cols:
            v = tuple((a + b) % r_i for a, b, (_, r_i) in zip(u, col, rows))
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen)


def test_range_order_matches_the_coset():
    # the residue lattice's |G| against the coset SNF's r_max^d / |K|
    multi = 0
    for grd in oracle_grds():
        assert range_order(grd) == snf_feasible_coset(grd).basis.range_order
        multi += sum(r_i > 1 for r_i in grd.r) > 1
    assert multi >= 20  # the law has groups of several nontrivial rows


def test_range_order_matches_closure():
    # random systems against the closure of the columns
    for grd in random_stub_systems(7, rhs=False):
        assert range_order(grd) == subgroup_order(grd) == snf_feasible_coset(grd).basis.range_order


def test_coset_order_count_fires(monkeypatch):
    # |K| |G| = r_max^d checks the elimination's |K| against the lattice's |G|
    grd = relax_ilp(cutgen(CutStockSpec(m=8, L=1000, v2=0.5, dbar=10.0, seed=26)))
    g = range_order(grd)
    monkeypatch.setattr(grouprelax.kernel, "range_order", lambda grd: 2 * g)
    with pytest.raises(CertificateError, match="do not multiply"):
        feasible_coset(grd)
    monkeypatch.undo()
    corrupt_elimination(monkeypatch, "drop")
    with pytest.raises(CertificateError, match="do not multiply"):
        feasible_coset(grd)


def test_coset_order_count_fires_under_python_O():
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "from grouprelax import feasible_coset, kernel, planted, relax_ilp\n"
        "from grouprelax.errors import CertificateError\n"
        "lattice = kernel.range_order\n"
        "kernel.range_order = lambda grd: lattice(grd) + 1\n"
        "grd = relax_ilp(planted(2, 3, 1)[0])\n"
        "try:\n"
        "    feasible_coset(grd)\n"
        "except CertificateError as exc:\n"
        "    print(str(exc).split(' do not')[0])\n"
    )
    assert run_under_python_O(script) == "|K| = 8 and |G| = 9\n"
