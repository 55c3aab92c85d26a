"""Property tests (hypothesis): the SNF contract, linear congruences,
compression against the two-SNF reference, the revised simplex
against the tableau simplex, and the fraction-free row-rank repair
against the Fraction one. Examples are derandomized
and bounded so the suite stays fast and repeatable."""

from fractions import Fraction
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grouprelax import (ILPInstance, IntMatrix, feasible_coset, snf, solve_lp_exact, solve_mod,
                        to_standard_form)
from grouprelax.errors import Infeasible
from grouprelax.kernel import span
from tests.conftest import stub_grd
from tests.lp_oracle import tableau_solve_lp_exact
from tests.test_exact import check_snf_contract
from tests.test_kernel import assert_matches_oracle
from tests.test_lp import assert_eliminations_match_fraction_oracle, lp_outcome

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def int_matrices(draw, max_dim=5, bound=12):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    cell = st.integers(-bound, bound)
    return IntMatrix(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                   min_size=m, max_size=m)))


@PROPERTY
@given(int_matrices())
def test_snf_contract_property(M):
    check_snf_contract(M)


@PROPERTY
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60))
def test_solve_mod_property(t, b, r):
    g = gcd(t, r)
    try:
        y, count = solve_mod(t, b, r)
    except Infeasible:
        assert b % g != 0
        return
    assert b % g == 0
    assert count == g
    assert 0 <= y < r // g
    assert (t * y - b) % r == 0
    # exactly count solutions in [0, r), spaced r // g apart
    assert [v for v in range(r) if (t * v - b) % r == 0] == [y + i * (r // g) for i in range(g)]


@st.composite
def congruence_systems(draw):
    """Row moduli r_1 | ... | r_m and a matrix with no zero column."""
    r_max = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 18, 30, 36]))
    divisors = [v for v in range(1, r_max + 1) if r_max % v == 0]
    m = draw(st.integers(1, 3))
    r = sorted(draw(st.lists(st.sampled_from(divisors), min_size=m - 1, max_size=m - 1)))
    r.append(r_max)
    d = draw(st.integers(1, 4))
    A = [[draw(st.integers(0, r_i - 1)) for _ in range(d)] for r_i in r]
    for j in range(d):
        if not any(row[j] for row in A):
            A[-1][j] = draw(st.integers(1, r_max - 1))
    return stub_grd(A, r, [0] * m)


@PROPERTY
@given(congruence_systems())
def test_compress_matches_oracle_property(grd):
    kb = feasible_coset(grd).basis
    kb2 = assert_matches_oracle(grd, kb)
    # and K' is the image of K, where K is small enough to enumerate
    if kb.kernel_order <= 2000:
        image = {tuple(v % s for v, s in zip(x, kb2.moduli)) for x in span(kb)}
        assert span(kb2) == image


@st.composite
def small_lps(draw):
    """Mixed-sense LPs with signed data and costs, so that infeasible and
    unbounded outcomes are drawn as well as optimal ones."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    A = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    sense = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    c = [Fraction(p, q) for p, q in draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=n, max_size=n))]
    return ILPInstance(name="lp", A=IntMatrix(A), b=b, c=c, row_sense=sense)


@PROPERTY
@given(small_lps())
def test_revised_matches_tableau_property(inst):
    try:
        sf = to_standard_form(inst)
    except Infeasible:
        return
    assert lp_outcome(solve_lp_exact, sf) == lp_outcome(tableau_solve_lp_exact, sf)


@st.composite
def dependent_equality_rows(draw):
    """Mixed-sense rows, at least one of them nonzero, with equality rows
    planted among them that are integer combinations of the rows drawn
    (of every sense) and whose b is consistent or off by one."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    A = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    if not any(map(any, A)):
        A[0][0] = 1
    b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    sense = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.lists(st.integers(-2, 2), min_size=len(A), max_size=len(A)))
        row = [sum(l * r[j] for l, r in zip(lam, A)) for j in range(n)]
        rhs = sum(l * v for l, v in zip(lam, b)) + draw(st.sampled_from([0, 0, 1]))
        at = draw(st.integers(0, len(A)))
        A.insert(at, row)
        b.insert(at, rhs)
        sense.insert(at, "=")
    c = [Fraction(draw(st.integers(0, 3))) for _ in range(n)]
    return ILPInstance(name="dep", A=IntMatrix(A), b=b, c=c, row_sense=sense)


@PROPERTY
@given(dependent_equality_rows())
def test_rank_repair_matches_fraction_oracle_property(inst):
    assert_eliminations_match_fraction_oracle(inst)
