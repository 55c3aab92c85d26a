"""Exact integer linear algebra: SNF factorization contract and the
eager SNF oracle, extended gcd, linear congruences, determinants."""

import random
from math import gcd

import pytest

from grouprelax import IntMatrix, det_exact, ext_gcd, relax_ilp, snf, solve_mod
from grouprelax.errors import Infeasible
from grouprelax.gen import CutStockSpec, cutgen
from tests.snf_oracle import diag_matrix, eager_snf, is_unimodular


def test_int_matrix_builders_make_fresh_int_rows():
    A = IntMatrix([[1, 2, 3], [4, 5, 6]])
    B = IntMatrix([[1, 0], [0, 1], [1, 1]])
    for M, rows in [(IntMatrix.identity(2), [[1, 0], [0, 1]]),
                    (A.select_columns([2, 0]), [[3, 1], [6, 4]]),
                    (A @ B, [[4, 5], [10, 11]])]:
        assert M.data == rows and (M.rows, M.cols) == (len(rows), len(rows[0]))
        assert all(type(v) is int for row in M.data for v in row)
        M.data[0][0] = 99  # no row is shared with an input
    assert A == IntMatrix([[1, 2, 3], [4, 5, 6]]) and B.data[0] == [1, 0]
    # outside input is still copied and checked
    rows = [[1.0, True]]
    C = IntMatrix(rows)
    assert C.data == [[1, 1]] and all(type(v) is int for v in C.data[0])
    assert C.data[0] is not rows[0]
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])


def assert_matches_eager_oracle(M):
    """D, Uinv, Vinv and the on-demand U and V equal the eager SNF's."""
    fact, ref = snf(M), eager_snf(M)
    assert fact.D == ref.D
    assert fact.Uinv == ref.Uinv
    assert fact.Vinv == ref.Vinv
    assert fact.U == ref.U
    assert fact.V == ref.V
    return fact


def check_snf_contract(M):
    fact = assert_matches_eager_oracle(M)
    m, n = M.rows, M.cols
    assert fact.U @ diag_matrix(fact.D, m, n) @ fact.V == M
    assert fact.U @ fact.Uinv == IntMatrix.identity(m)
    assert fact.V @ fact.Vinv == IntMatrix.identity(n)
    assert abs(det_exact(fact.U)) == 1
    assert abs(det_exact(fact.V)) == 1
    D = fact.D
    assert all(d >= 0 for d in D)
    nz = [d for d in D if d]
    assert D[: len(nz)] == nz, "zero factors must trail"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return fact


def test_snf_identity():
    fact = check_snf_contract(IntMatrix.identity(2))
    assert fact.D == [1, 1]


def test_snf_small_known_factors():
    # gcd of k-by-k minors: d1 = 2, d1*d2 = |det| = 8
    fact = check_snf_contract(IntMatrix([[2, 4], [6, 8]]))
    assert fact.D == [2, 4]


def test_snf_zero_matrix():
    fact = check_snf_contract(IntMatrix([[0, 0], [0, 0]]))
    assert fact.D == [0, 0]


def test_snf_rectangular():
    check_snf_contract(IntMatrix([[2, 4, 6]]))
    check_snf_contract(IntMatrix([[3], [6], [9]]))


def test_ext_gcd_cases():
    for a, b in [(4, 6), (0, 5), (240, 46), (-8, 12), (0, 0), (7, -3)]:
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
    assert ext_gcd(0, 5) == (5, 0, 1)


def test_solve_mod_examples():
    assert solve_mod(4, 2, 6) == (2, 2)
    assert solve_mod(1, 3, 7) == (3, 1)
    with pytest.raises(Infeasible):
        solve_mod(2, 1, 4)


def test_solve_mod_against_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        r = rng.randint(1, 60)
        t = rng.randint(-2 * r, 2 * r)
        b = rng.randint(-2 * r, 2 * r)
        sols = [y for y in range(r) if (t * y - b) % r == 0]
        if not sols:
            with pytest.raises(Infeasible):
                solve_mod(t, b, r)
            continue
        particular, count = solve_mod(t, b, r)
        assert particular == min(sols)
        assert count == len(sols)
        step = r // count
        assert sols == [particular + k * step for k in range(count)]


def test_is_unimodular():
    assert is_unimodular(IntMatrix.identity(3))
    assert not is_unimodular(IntMatrix([[2, 0], [0, 2]]))
    assert is_unimodular(IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        is_unimodular(IntMatrix([[1, 2]]))


def test_det_exact_matches_cofactor_expansion():
    rng = random.Random(3)

    def det_ref(a):
        n = len(a)
        if n == 1:
            return a[0][0]
        return sum(
            (-1) ** j * a[0][j] * det_ref([row[:j] + row[j + 1:] for row in a[1:]])
            for j in range(n)
        )

    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(IntMatrix(a)) == det_ref(a)


def test_snf_random_fuzz():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        fact = check_snf_contract(M)
        if m == n:
            det = abs(det_exact(M))
            if det:
                prod = 1
                for d in fact.D:
                    prod *= d
                assert prod == det


def test_snf_matches_eager_oracle_on_ladder_coset_matrices():
    # the scaled matrices diag(r_max / r_i) Abold that feasible_coset
    # factors on the benchmark's L=1000 cutgen ladder (d = 110, 127, 53)
    for m, seed in ((6, 51), (8, 26), (10, 11)):
        grd = relax_ilp(cutgen(CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed)))
        scale = [grd.r_max // r_i for r_i in grd.r]
        M = IntMatrix([[s * v for v in row] for s, row in zip(scale, grd.Abold.data)])
        fact = assert_matches_eager_oracle(M)
        assert fact.U @ diag_matrix(fact.D, M.rows, M.cols) @ fact.V == M


def test_snf_matches_eager_oracle_past_int64():
    rng = random.Random(63)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = IntMatrix([[rng.randint(-9, 9) * 2**rng.choice((0, 64, 90)) + rng.randint(-3, 3)
                        for _ in range(n)] for _ in range(m)])
        check_snf_contract(M)
    fact = check_snf_contract(IntMatrix([[1, 2**64 + 1], [3, 2**70]]))
    assert max(abs(v) for row in fact.Vinv.data for v in row) > 2**63
