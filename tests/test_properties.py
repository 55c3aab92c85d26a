"""Property tests (hypothesis): the SNF contract, the oracle's linear congruences,
compression against the two-SNF reference, the revised simplex
against the tableau simplex, the fraction-free row-rank repair
against the Fraction one, MPS round trips, number tokens and malformed
input, and integral lifts of coset points. Examples are derandomized
and bounded so the suite stays fast and repeatable."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from grouprelax import (ILPInstance, IntMatrix, compress_coset, emit_mps, enumerate_coset,
                        feasible_coset, lift_to_ilp, parse_mps, relax_ilp, snf,
                        solve_lp_exact, to_standard_form)
from grouprelax.errors import GroupRelaxError, Infeasible, MalformedMPS, NotPureILP
from grouprelax.mps import _num
from tests.compress_oracle import solve_mod, span
from tests.conftest import random_feasible_instance, stub_grd
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


@st.composite
def mps_instances(draw):
    """Signed integer rows of every sense, zero rows and columns included,
    and rational costs."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    A = [draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-50, 50), min_size=m, max_size=m))
    sense = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    c = [Fraction(p, q) for p, q in draw(st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, 12)), min_size=n, max_size=n))]
    return ILPInstance(name="prop", A=IntMatrix(A), b=b, c=c, row_sense=sense)


@PROPERTY
@given(mps_instances())
def test_mps_round_trip_property(inst):
    again = parse_mps(emit_mps(inst))
    assert (again.name, again.A, again.b, again.c, again.row_sense, again.var_names) == (
        inst.name, inst.A, inst.b, inst.c, inst.row_sense, inst.var_names)


MPS_TOKENS = ["ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE", "MAX",
              "N", "L", "G", "E", "UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "XX",
              "'MARKER'", "'INTORG'", "'INTEND'", "MARKER", "COST", "R1", "R2", "x1", "x2",
              "RHS", "BND", "0", "-1", "3", "2.5", "-0.5", "1/0", "1/3", "nan", "inf", "1e3",
              "two", "*", ""]


@st.composite
def malformed_mps(draw):
    """An emitted model with lines deleted, repeated, replaced by random
    tokens, or with single tokens swapped for others."""
    lines = emit_mps(draw(mps_instances())).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["delete", "repeat", "insert", "token"]))
        if op == "insert" or not lines or i == len(lines):
            toks = draw(st.lists(st.sampled_from(MPS_TOKENS), max_size=5))
            indent = draw(st.sampled_from(["", " ", "    "]))
            lines.insert(i, indent + " ".join(toks))
        elif op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(MPS_TOKENS))
            lead = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
            lines[i] = lead + " ".join(toks)
    return "\n".join(lines) + "\n"


# digits of several scripts (Arabic-Indic, Devanagari, fullwidth), signs,
# separators, exponents, hex and whitespace
NUMBER_CHARS = "0123456789" "\u0663\u0967\uff11" "+-._/eExX" " \t\u2003"
NUMBER_TOKENS = ["1_000", "+5", "-0", "07", "1e3", ".5", "5.", "0x10", "\u0663\u0661",
                 "\uff11_\uff12", "1__0", "_1", "3/4", "1/0", "1_000/3", " 12 "]


def check_number_token(tok):
    # the reader's ints are the values Fraction() reads, and it rejects
    # what Fraction() rejects
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MalformedMPS):
            _num(tok, 1)
        return
    got = _num(tok, 1)
    assert got == want
    assert type(got) in (int, Fraction)


@pytest.mark.parametrize("tok", NUMBER_TOKENS)
def test_mps_number_tokens(tok):
    check_number_token(tok)


@PROPERTY
@given(st.one_of(st.text(NUMBER_CHARS, max_size=8),
                 st.fractions().map(str), st.integers().map(str),
                 st.decimals(allow_nan=False, allow_infinity=False).map(str)))
def test_mps_number_token_property(tok):
    check_number_token(tok)


@PROPERTY
@given(mps_instances())
def test_mps_round_trip_value_types_property(inst):
    again = parse_mps(emit_mps(inst))
    assert all(type(v) is int for row in again.A.data for v in row)
    assert all(type(v) is int for v in again.b)
    assert all(type(v) is Fraction for v in again.c)


@settings(PROPERTY, max_examples=1000)
@given(malformed_mps())
def test_malformed_mps_raises_library_errors_property(text):
    try:
        parse_mps(text)
    except (MalformedMPS, NotPureILP):
        pass


@PROPERTY
@given(small_lps(), st.booleans())
def test_lift_accepts_every_coset_point_property(inst, compress):
    try:
        grd = relax_ilp(inst)
        fc = feasible_coset(grd)
    except GroupRelaxError:
        assume(False)
    if compress:
        fc = compress_coset(grd, fc)
    assume(fc.basis.kernel_order <= 500)
    sf = grd.sf
    for x_n in enumerate_coset(fc, 500):
        x = lift_to_ilp(grd, x_n).lifted_x
        assert [x[j] for j in grd.kept_cols] == list(x_n)
        assert all(x[j] == 0 for j in grd.dropped_cols)
        assert [sum(a * v for a, v in zip(row, x)) for row in sf.A.data] == sf.b


@PROPERTY
@given(st.integers(0, 2**32))
def test_coset_satisfies_every_row_property(seed):
    # the coset checks skip the rows with r_i = 1; on relaxations with
    # such rows, x_hat and every generator still satisfy all m rows of
    # Abold by a full matvec, and x_hat + h lifts through the original rows
    try:
        grd = relax_ilp(random_feasible_instance(seed))
        fc = feasible_coset(grd)
    except GroupRelaxError:
        assume(False)
    assume(1 in grd.r and grd.r_max > 1 and grd.d)
    r = grd.r

    def residual(x):
        return [v % r_i for v, r_i in zip(grd.Abold.matvec(list(x)), r)]

    assert residual(fc.x_hat) == [v % r_i for v, r_i in zip(grd.bbold, r)]
    for h in fc.basis.generators:
        assert not any(residual(h))
        lift_to_ilp(grd, [(a + b) % grd.r_max for a, b in zip(fc.x_hat, h)])
