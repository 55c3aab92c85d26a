"""Standard-form conversion, the exact revised simplex and the
fraction-free eliminations, against the Fraction references of
``tests/lp_oracle.py``."""

import hashlib
from fractions import Fraction

import pytest

from grouprelax import (BasisSolution, ILPInstance, IntMatrix, StandardFormILP,
                        gomory_shortest_path, relax_ilp, solve_lp_exact, to_standard_form)
from grouprelax.errors import GroupRelaxError, Infeasible, Unbounded
from grouprelax.exact import solve_rational
from grouprelax.gen import CutStockSpec, cutgen, planted
from tests.conftest import dependent_row_instance, random_feasible_instance
from tests.lp_oracle import (check_asymptotic_sufficiency, fraction_solve, fraction_sufficiency,
                             fraction_to_standard_form, reduced_costs, tableau_solve_lp_exact)
from tests.snf_oracle import det_exact


def inst_4I_2I(b=(2, 2)):
    return ILPInstance(
        name="blk",
        A=IntMatrix([[4, 0, 2, 0], [0, 4, 0, 2]]),
        b=list(b),
        c=[Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )


def test_standard_form_equality_unchanged():
    inst = inst_4I_2I()
    sf = to_standard_form(inst)
    assert sf.slack_map == {}
    assert sf.A == inst.A
    assert sf.b == inst.b


def test_standard_form_slack_and_surplus():
    inst = ILPInstance(
        name="mix",
        A=IntMatrix([[1, 1], [1, 0]]),
        b=[3, 1],
        c=[Fraction(1), Fraction(1)],
        row_sense=["<=", ">="],
    )
    sf = to_standard_form(inst)
    assert sf.A.cols == 4
    assert [row[2] for row in sf.A.data] == [1, 0]   # slack of row 1
    assert [row[3] for row in sf.A.data] == [0, -1]  # surplus of row 2
    assert sf.slack_map == {2: 0, 3: 1}
    assert sf.c[2] == sf.c[3] == 0


def test_standard_form_drops_redundant_rows():
    inst = ILPInstance(
        name="dup",
        A=IntMatrix([[1, 1], [2, 2]]),
        b=[3, 6],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    sf = to_standard_form(inst)
    assert sf.A.rows == 1


def test_standard_form_inconsistent_rows():
    inst = ILPInstance(
        name="bad",
        A=IntMatrix([[1, 1], [2, 2]]),
        b=[3, 7],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    with pytest.raises(Infeasible):
        to_standard_form(inst)


def test_lp_identity_constraints():
    inst = ILPInstance(
        name="id",
        A=IntMatrix([[1, 0], [0, 1]]),
        b=[3, 5],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    bs = solve_lp_exact(to_standard_form(inst))
    assert bs.opt_lp == 8
    assert sorted(bs.basis) == [0, 1]
    assert bs.x_lp == [Fraction(3), Fraction(5)]
    assert not bs.degenerate_primal


def test_lp_block_instance_kkt():
    bs = solve_lp_exact(to_standard_form(inst_4I_2I()))
    assert bs.opt_lp == 0
    assert sorted(bs.basis) == [0, 1]
    assert bs.x_lp[:2] == [Fraction(1, 2), Fraction(1, 2)]
    assert reduced_costs(bs) == {2: Fraction(1), 3: Fraction(1)}


def test_lp_unbounded():
    inst = ILPInstance(
        name="unb",
        A=IntMatrix([[1, -1]]),
        b=[1],
        c=[Fraction(-1), Fraction(0)],
        row_sense=["="],
    )
    with pytest.raises(Unbounded):
        solve_lp_exact(to_standard_form(inst))


def test_lp_infeasible_phase1():
    inst = ILPInstance(
        name="inf",
        A=IntMatrix([[1, 1]]),
        b=[-1],
        c=[Fraction(1), Fraction(1)],
        row_sense=["="],
    )
    with pytest.raises(Infeasible):
        solve_lp_exact(to_standard_form(inst))


def test_lp_dependent_rows_raise_value_error():
    # full row rank is the precondition, and to_standard_form never builds
    # such a form: feasible at (1, 0), it is refused, not called infeasible
    sf = StandardFormILP(A=IntMatrix([[1, 1], [2, 2]]), b=[1, 2],
                         c=[Fraction(1), Fraction(1)], slack_map={})
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_lp_exact(sf)


def test_instance_without_rows_is_one_zero_row():
    c = [Fraction(1), Fraction(2)]
    assert ILPInstance(name="e", A=IntMatrix([]), b=[], c=c, row_sense=[]) == \
        ILPInstance(name="e", A=IntMatrix([[0, 0]]), b=[0], c=c, row_sense=["<="])


def test_lp_invariants_on_solutions():
    for inst in [inst_4I_2I(), planted(2, 3, 1)[0], planted(3, 2, 1)[0]]:
        sf = to_standard_form(inst)
        bs = solve_lp_exact(sf)
        assert all(v >= 0 for v in reduced_costs(bs).values())
        assert all(v >= 0 for v in bs.x_lp)
        # A_B x_B = b exactly
        for i in range(sf.A.rows):
            assert sum(Fraction(sf.A.data[i][j]) * bs.x_lp[j]
                       for j in range(sf.A.cols)) == sf.b[i]


def test_lp_permuted_columns_same_value():
    inst = inst_4I_2I()
    perm = [2, 0, 3, 1]
    inst2 = ILPInstance(
        name="perm",
        A=inst.A.select_columns(perm),
        b=inst.b,
        c=[inst.c[j] for j in perm],
        row_sense=inst.row_sense,
    )
    v1 = solve_lp_exact(to_standard_form(inst)).opt_lp
    v2 = solve_lp_exact(to_standard_form(inst2)).opt_lp
    assert v1 == v2


def test_asymptotic_sufficiency():
    # no nonbasic columns: vacuously true
    inst_id = ILPInstance(
        name="id",
        A=IntMatrix([[1, 0], [0, 1]]),
        b=[3, 5],
        c=[Fraction(1), Fraction(1)],
        row_sense=["=", "="],
    )
    sf = to_standard_form(inst_id)
    bs = solve_lp_exact(sf)
    assert check_asymptotic_sufficiency(sf, bs)

    sf = to_standard_form(inst_4I_2I())
    bs = solve_lp_exact(sf)
    assert not check_asymptotic_sufficiency(sf, bs)  # x_B = 1/2 < (1/2)*16

    sf = to_standard_form(inst_4I_2I(b=(2 * 10**6, 2 * 10**6)))
    bs = solve_lp_exact(sf)
    assert check_asymptotic_sufficiency(sf, bs)


def test_sufficiency_implies_a_feasible_lift():
    # Gomory: where x_B >= |det A_B|·max |A_B^-1 A_N|, a shortest path of at
    # most |G| - 1 <= |det| - 1 unit steps cannot drive x_B negative
    held = 0
    for seed in range(1000):
        grd = relax_ilp(random_feasible_instance(seed))
        if check_asymptotic_sufficiency(grd.sf, grd.bs):
            held += abs(grd.bs.det) > 1
            assert gomory_shortest_path(grd).solution.ilp_feasible, seed
    assert held >= 50


def lp_outcome(solve, sf):
    """Every Fraction view of the basis (every TableauSolution field), or
    the type of the library error raised."""
    try:
        bs = solve(sf)
    except GroupRelaxError as e:
        return type(e)
    costs = reduced_costs(bs) if isinstance(bs, BasisSolution) else bs.reduced_costs
    return (bs.basis, bs.nonbasic, bs.x_lp, costs, bs.opt_lp,
            bs.degenerate_primal)


def assert_revised_matches_tableau(inst):
    sf = to_standard_form(inst)
    assert lp_outcome(solve_lp_exact, sf) == lp_outcome(tableau_solve_lp_exact, sf), inst.name


def test_revised_matches_tableau_oracle():
    # same basis, in the same order, so the same K, G and CLI bytes
    for seed in range(2000):
        assert_revised_matches_tableau(random_feasible_instance(seed))
    for t, m in ((2, 3), (2, 8), (3, 4), (3, 6), (4, 4), (5, 2), (4, 5), (2, 12)):
        for style in ("identity", "random-lower-unit"):
            assert_revised_matches_tableau(planted(t, m, 1, seed=0, style=style)[0])
    specs = [CutStockSpec(m=m, L=20, v2=0.8, dbar=2.0, seed=seed)
             for m in (3, 4, 5, 6) for seed in range(12)]
    # the benchmark's L=1000 ladder, and 336 columns
    specs += [CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed)
              for m, seed in ((6, 51), (8, 26), (10, 11), (10, 3))]
    for spec in specs:
        assert_revised_matches_tableau(cutgen(spec))


def test_revised_matches_tableau_oracle_dependent_rows():
    # a planted dependent equality row: dropped when its b is consistent,
    # Infeasible when b is off by one
    for seed in range(500):
        inst, rows = dependent_row_instance(seed)
        assert to_standard_form(inst).A.rows == rows, inst.name
        assert_revised_matches_tableau(inst)
        with pytest.raises(Infeasible):
            to_standard_form(dependent_row_instance(seed, off=1)[0])


def test_lp_pinned_basis_1000_columns():
    # cutgen m=10 L=1000 v2=0.4 dbar=10 seed 3 (997 patterns): the tableau
    # simplex takes about 10 s here, so its basis and value are pinned
    sf = to_standard_form(cutgen(CutStockSpec(m=10, L=1000, v2=0.4, dbar=10.0, seed=3)))
    bs = solve_lp_exact(sf)
    assert hashlib.sha256(repr(bs.basis).encode()).hexdigest() == (
        "0cd0f31e3e802c04715d42cd61682cebc8ed2f0b55948ab0fc55aad53880cb63")
    assert bs.opt_lp == Fraction(3826, 181)



def outcome(fn, *args):
    """The result, or the type of the library error raised."""
    try:
        return fn(*args)
    except GroupRelaxError as e:
        return type(e)


def assert_eliminations_match_fraction_oracle(inst):
    """to_standard_form, then solve_rational and det_exact on the optimal
    A_B and check_asymptotic_sufficiency, against the Fraction references."""
    sf = outcome(to_standard_form, inst)
    assert sf == outcome(fraction_to_standard_form, inst), inst.name
    if isinstance(sf, type) or isinstance(bs := outcome(solve_lp_exact, sf), type):
        return
    x, det = fraction_solve(sf.A, bs.basis, sf.b)
    assert solve_rational(sf.A, bs.basis, sf.b) == x
    assert det_exact(sf.A.select_columns(bs.basis)) == det
    rhs = [Fraction(v + 1, i + 2) for i, v in enumerate(sf.b)]
    assert solve_rational(sf.A, bs.basis, rhs) == fraction_solve(sf.A, bs.basis, rhs)[0]
    assert check_asymptotic_sufficiency(sf, bs) == fraction_sufficiency(sf, bs), inst.name


def test_eliminations_match_fraction_oracle():
    # the instance families of test_revised_matches_tableau_oracle
    for seed in range(2000):
        assert_eliminations_match_fraction_oracle(random_feasible_instance(seed))
    for t, m in ((2, 3), (2, 8), (3, 4), (3, 6), (4, 4), (5, 2), (4, 5), (2, 12)):
        for style in ("identity", "random-lower-unit"):
            assert_eliminations_match_fraction_oracle(planted(t, m, 1, seed=0, style=style)[0])
    specs = [CutStockSpec(m=m, L=20, v2=0.8, dbar=2.0, seed=seed)
             for m in (3, 4, 5, 6) for seed in range(12)]
    specs += [CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed)
              for m, seed in ((6, 51), (8, 26), (10, 11), (10, 3))]
    for spec in specs:
        assert_eliminations_match_fraction_oracle(cutgen(spec))


def test_eliminations_match_fraction_oracle_dependent_rows():
    for seed in range(500):
        for off in (0, 1):
            assert_eliminations_match_fraction_oracle(dependent_row_instance(seed, off)[0])


def rows_instance(rows, b, sense):
    n = len(rows[0])
    return ILPInstance(name="rows", A=IntMatrix(rows), b=b,
                       c=[Fraction(j + 1) for j in range(n)], row_sense=sense)


@pytest.mark.parametrize("rows, b, sense, kept", [
    # duplicated, scaled and summed equality rows
    ([[1, 2, 0], [1, 2, 0]], [4, 4], ["=", "="], 1),
    ([[1, 2, 0], [-3, -6, 0]], [4, -12], ["=", "="], 1),
    ([[1, 2, 0], [0, 1, 3], [1, 3, 3], [2, 5, 3]], [4, 5, 9, 13], ["="] * 4, 2),
    # a redundant row first: the later copy is the one dropped
    ([[2, 4, 0], [1, 2, 0], [0, 0, 1]], [8, 4, 2], ["=", "=", "="], 2),
    # inconsistent combinations
    ([[1, 2, 0], [1, 2, 0]], [4, 5], ["=", "="], None),
    ([[1, 2, 0], [0, 1, 3], [1, 3, 3]], [4, 5, 8], ["="] * 3, None),
    ([[0, 0, 0]], [1], ["="], None),
    # equality rows between <= and >= rows: the inequality rows, with
    # their slacks, take part in no dependency
    ([[1, 2, 0], [1, 2, 0], [1, 2, 0], [2, 4, 0], [0, 1, 1]], [4, 4, 4, 8, 1],
     ["<=", "=", ">=", "=", "<="], 4),
    ([[1, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 1], [2, 1, 2]], [3, 2, 1, 3, 5],
     ["<=", "=", "=", ">=", "="], 4),
    ([[1, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 1], [2, 1, 2]], [3, 2, 1, 3, 6],
     [">=", "=", "=", "<=", "="], None),
])
def test_standard_form_rank_repair_cases(rows, b, sense, kept):
    inst = rows_instance(rows, b, sense)
    assert_eliminations_match_fraction_oracle(inst)
    if kept is None:
        with pytest.raises(Infeasible):
            to_standard_form(inst)
    else:
        assert to_standard_form(inst).A.rows == kept
