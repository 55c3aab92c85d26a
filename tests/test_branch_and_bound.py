"""The certified ILP optimum: branch and bound with group bounds against
the box scan (``brute_force_ilp``) and HiGHS (``scipy.optimize.milp``)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from grouprelax import (ILPInstance, IntMatrix, PipelineConfig,
                        branch_and_bound, brute_force_ilp, gomory_shortest_path,
                        relax_ilp, run_pipeline)
from grouprelax.errors import CapExceeded, Infeasible
from grouprelax.search import _node_instance
from tests.conftest import random_feasible_instance
from tests.test_properties import PROPERTY


def instance(A, b, sense, c):
    return ILPInstance(name="hand", A=IntMatrix(A), b=b, c=[Fraction(v) for v in c],
                       row_sense=sense)


def milp_value(inst):
    """HiGHS MILP optimum in floats, or None when it reports infeasible."""
    lo = [b if s in ("=", ">=") else -np.inf for s, b in zip(inst.row_sense, inst.b)]
    hi = [b if s in ("=", "<=") else np.inf for s, b in zip(inst.row_sense, inst.b)]
    res = milp([float(c) for c in inst.c],
               constraints=LinearConstraint(np.array(inst.A.data, dtype=float), lo, hi),
               integrality=np.ones(inst.n_vars), bounds=Bounds(0, np.inf))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun


def test_box_scan_bounds_branch_and_bound(random_suite):
    # the box optimum is an upper bound on OPT, and OPT when the B&B
    # argmin lies in the box; it is above OPT on rand30, rand182 and rand188
    above = []
    for case in random_suite["cases"]:
        ilp = case["ilp"]
        try:
            box, _ = brute_force_ilp(case["inst"], box=10)
        except Infeasible:
            box = None
        assert box is None or box >= ilp.value
        if max(ilp.x) <= 10:
            assert box == ilp.value
        if box != ilp.value:
            above.append((case["inst"].name, box, ilp.value))
    assert above == [("rand30", 4, 0), ("rand182", 5, 0), ("rand188", 7, 4)]


def test_branch_and_bound_matches_milp(random_suite):
    # the 200 suite instances, then 200 more of the same law (the
    # benchmark corpus's), each without a root from the pipeline
    insts = [case["inst"] for case in random_suite["cases"]]
    insts += [random_feasible_instance(seed) for seed in range(200, 400)]
    for k, inst in enumerate(insts):
        ilp = random_suite["cases"][k]["ilp"] if k < 200 else branch_and_bound(inst)
        ref = milp_value(inst)
        assert ref is not None and abs(float(ilp.value) - ref) < 1e-6, inst.name


def test_rand169_substitutes_fixed_variable():
    # with x1 = 0 substituted out, the down node's group relaxation is
    # infeasible at once (3 does not divide 1)
    inst = instance([[4, 3, -3]], [1], ["="], [5, 4, 1])
    grd = relax_ilp(inst)
    res = gomory_shortest_path(grd)
    assert not res.solution.ilp_feasible
    for root in (None, (grd, res)):
        ilp = branch_and_bound(inst, root=root)
        assert (ilp.value, ilp.x, ilp.nodes) == (6, [1, 0, 1], 3)


def test_node_instance_substitution():
    inst = instance([[0, 2, 0], [1, 1, 1]], [5, 4], ["<=", "="], [1, 1, 1])
    # every variable fixed: no node instance, only the constant c·lo
    assert _node_instance(inst, [1, 2, 1], [1, 2, 1]) == (None, [], 4)
    with pytest.raises(Infeasible):
        _node_instance(inst, [1, 2, 0], [1, 2, 0])
    # x2 fixed at 2 empties row 1, which holds (4 <= 5) and is dropped; x1
    # is shifted by 1 and bounded by 3 - 1, x3 stays free
    node, free, const = _node_instance(inst, [1, 2, 0], [3, 2, None])
    assert free == [0, 2] and const == 3
    assert node.A.data == [[1, 1], [1, 0]]
    assert node.b == [1, 2] and node.row_sense == ["=", "<="]
    # x2 fixed at 3 empties row 1, which fails (6 > 5)
    with pytest.raises(Infeasible):
        _node_instance(inst, [0, 3, 0], [None, 3, None])


def test_row_emptied_by_substitution():
    # the down branch x1 <= 0 fixes x1 and so empties row 1
    inst = instance([[3, 0], [1, 3]], [1, 4], ["<=", "="], [-1, 3])
    with pytest.raises(Infeasible):  # 3 x2 = 4 is left
        branch_and_bound(inst)
    assert milp_value(inst) is None
    inst = instance([[3, 2], [-1, 0]], [1, 1], [">=", "<="], [1, 1])
    ilp = branch_and_bound(inst)
    assert ilp.value == 1 == milp_value(inst)


def test_lp_feasible_ilp_infeasible():
    # 2x1 - 2x2 = 1: the group relaxation itself is infeasible
    inst = instance([[2, -2]], [1], ["="], [1, 1])
    with pytest.raises(Infeasible):
        branch_and_bound(inst)
    # 3x1 + 5x2 = 7: the group optimum x1 = 4 lifts to x2 = -1; the pipeline
    # reports the bounds and opt_ilp NA
    inst = instance([[3, 5]], [7], ["="], [1, 1])
    with pytest.raises(Infeasible):
        branch_and_bound(inst)
    row = run_pipeline(inst, PipelineConfig(record_wall=False))
    assert row.opt_b == 3 and row.opt_ilp is None and row.r_pct is None


def test_node_cap():
    # rand169 needs 3 nodes
    inst = instance([[4, 3, -3]], [1], ["="], [5, 4, 1])
    with pytest.raises(CapExceeded):
        branch_and_bound(inst, cap=2)
    row = run_pipeline(inst, PipelineConfig(ilp_cap=2, record_wall=False))
    assert row.opt_b == 2 and row.opt_ilp is None
    assert run_pipeline(inst, PipelineConfig(record_wall=False)).opt_ilp == 6


@st.composite
def boxed_ilps(draw):
    """Rows with signed data and costs, and x_j <= 3 for every j as rows
    of the instance, so the box {0..3}^n holds every feasible point."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    A = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-6, 8), min_size=m, max_size=m))
    sense = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    A += [[int(i == j) for i in range(n)] for j in range(n)]
    b += [3] * n
    sense += ["<="] * n
    c = [Fraction(p, q) for p, q in draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 2)), min_size=n, max_size=n))]
    return instance(A, b, sense, c)


@PROPERTY
@given(boxed_ilps())
def test_branch_and_bound_matches_box_property(inst):
    try:
        box, _ = brute_force_ilp(inst, box=3)
    except Infeasible:
        box = None
    try:
        ilp = branch_and_bound(inst)
    except Infeasible:
        assert box is None
        return
    assert ilp.value == box
