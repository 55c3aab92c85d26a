"""MPS reader/writer: exact decimals, integer markers, bounds, ranges,
round trips, and the reader against the dict-per-column oracle
(``tests/mps_oracle.py``)."""

import random
import sys
import time
from fractions import Fraction

import pytest

from grouprelax import emit_mps, parse_mps
from grouprelax.errors import MalformedMPS, NotPureILP
from grouprelax.gen import CutStockSpec, cutgen, planted
from tests import mps_oracle
from tests.conftest import random_feasible_instance


def reading(parse, text):
    """What a reader makes of text: every field of the instance with the
    type of each value, or the error's type, message and line."""
    try:
        inst = parse(text, name_hint="hint")
    except (MalformedMPS, NotPureILP) as e:
        return type(e), str(e), getattr(e, "line", None)
    values = [inst.A.data, inst.b, inst.c]
    return (inst.name, inst.A.data, inst.A.rows, inst.A.cols, inst.b, inst.c, inst.row_sense,
            inst.var_names, [[type(v) for v in row] for vs in values for row in
                             (vs if vs is inst.A.data else [vs])])


def assert_reads_as_oracle(text):
    got = reading(parse_mps, text)
    assert got == reading(mps_oracle.parse_mps, text)
    return got

MINIMAL = """NAME tiny
ROWS
 N COST
 L r1
 G r2
COLUMNS
    M1 'MARKER' 'INTORG'
    x1 COST 1
    x1 r1 2
    x1 r2 1
    x2 COST 2.5
    x2 r1 1
    M1 'MARKER' 'INTEND'
RHS
    RHS r1 10
    RHS r2 1
ENDATA
"""


def test_parse_minimal():
    inst = parse_mps(MINIMAL)
    assert inst.name == "tiny"
    assert inst.var_names == ["x1", "x2"]
    assert inst.A.data == [[2, 1], [1, 0]]
    assert inst.b == [10, 1]
    assert inst.row_sense == ["<=", ">="]
    assert inst.c == [Fraction(1), Fraction(5, 2)]  # 2.5 stored exactly


def test_round_trip():
    inst = parse_mps(MINIMAL)
    again = parse_mps(emit_mps(inst), name_hint="tiny")
    assert again.A == inst.A
    assert again.b == inst.b
    assert again.c == inst.c
    assert again.row_sense == inst.row_sense
    assert again.var_names == inst.var_names


def test_round_trip_generated_instances():
    for inst in [planted(2, 3, 1)[0],
                 planted(3, 2, 1, seed=4, style="random-lower-unit")[0],
                 cutgen(CutStockSpec(m=3, v2=0.8, dbar=2.0, L=10, seed=1))]:
        again = parse_mps(emit_mps(inst), name_hint=inst.name)
        assert again.A == inst.A
        assert again.b == inst.b
        assert again.c == inst.c
        assert again.row_sense == inst.row_sense


def test_round_trip_value_types():
    # A and b hold ints and c Fractions, also after clearing a rational row
    rational = MINIMAL.replace("    x1 r1 2", "    x1 r1 0.5")
    for inst in [parse_mps(MINIMAL), parse_mps(rational), planted(2, 3, 1)[0],
                 cutgen(CutStockSpec(m=3, v2=0.8, dbar=2.0, L=10, seed=1))]:
        again = parse_mps(emit_mps(inst), name_hint=inst.name)
        assert all(type(v) is int for row in again.A.data for v in row)
        assert all(type(v) is int for v in again.b)
        assert all(type(v) is Fraction for v in again.c)


def test_continuous_column_rejected():
    text = MINIMAL.replace("    M1 'MARKER' 'INTORG'\n", "")
    with pytest.raises(NotPureILP):
        parse_mps(text)


def test_free_variable_rejected():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n FR BND x1\nENDATA")
    with pytest.raises(NotPureILP):
        parse_mps(text)


def test_malformed_reports_line():
    text = MINIMAL.replace("    x1 r1 2", "    x1 r1 two")
    with pytest.raises(MalformedMPS) as exc:
        parse_mps(text)
    assert exc.value.line == 9

    with pytest.raises(MalformedMPS):
        parse_mps("COLUMNS\n x r 1\n")  # unknown row, no ROWS section

    with pytest.raises(MalformedMPS):
        parse_mps(" x r 1\nROWS\n")  # data before any header


@pytest.mark.parametrize("exponent", ["100000000", "-100000000"])
def test_huge_exponent_rejected_fast(exponent):
    # Fraction('1e100000000') would compute 10**100000000
    text = MINIMAL.replace("RHS r1 10", f"RHS r1 1e{exponent}")
    t0 = time.monotonic()
    with pytest.raises(MalformedMPS, match="exponent") as exc:
        parse_mps(text)
    assert time.monotonic() - t0 < 0.5 and exc.value.line == 15
    # at the limit the value is read exactly; x2's coefficient in r1 is 1
    e = sys.get_int_max_str_digits() * (-1 if exponent[0] == "-" else 1)
    inst = parse_mps(MINIMAL.replace("RHS r1 10", f"RHS r1 2e{e}"))
    assert Fraction(inst.b[0], inst.A.data[0][1]) == 2 * Fraction(10) ** e


def test_upper_bound_becomes_row():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n UI BND x1 3\nENDATA")
    inst = parse_mps(text)
    assert inst.n_rows == 3
    assert inst.A.data[2] == [1, 0]
    assert inst.row_sense[2] == "<="
    assert inst.b[2] == 3


def test_fx_bound_becomes_two_rows():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n FX BND x2 2\nENDATA")
    inst = parse_mps(text)
    assert inst.n_rows == 4
    assert inst.row_sense[2:] == [">=", "<="]
    assert inst.b[2:] == [2, 2]


def test_negative_lower_bound_rejected():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n LI BND x1 -2\nENDATA")
    with pytest.raises(NotPureILP):
        parse_mps(text)


def test_ranges_expand():
    text = MINIMAL.replace("ENDATA", "RANGES\n    RNG r1 4\nENDATA")
    inst = parse_mps(text)
    # L row 10 with range 4 adds the G row at 10 - 4 = 6
    assert inst.n_rows == 3
    assert inst.row_sense[2] == ">="
    assert inst.b[2] == 6
    assert inst.A.data[2] == inst.A.data[0]


def test_rational_row_cleared_to_integers():
    text = MINIMAL.replace("    x1 r1 2", "    x1 r1 0.5")
    inst = parse_mps(text)
    assert inst.A.data[0] == [1, 2]  # row scaled by 2
    assert inst.b[0] == 20


def test_missing_objective_row():
    with pytest.raises(MalformedMPS):
        parse_mps("ROWS\n L r1\nCOLUMNS\n x1 r1 1\nRHS\nENDATA\n")


def test_matches_oracle_on_generated_instances():
    insts = [planted(2, 3, 1)[0], planted(2, 12, 1)[0],
             planted(3, 6, 1, seed=4, style="random-lower-unit")[0],
             cutgen(CutStockSpec(m=3, v2=0.8, dbar=2.0, L=10, seed=1)),
             cutgen(CutStockSpec(m=6, v2=0.5, dbar=10.0, L=1000, seed=51)),
             cutgen(CutStockSpec(m=12, v2=0.5, dbar=10.0, L=1000, seed=3))]
    assert insts[-1].n_vars >= 1000
    for inst in insts:
        got = assert_reads_as_oracle(emit_mps(inst))
        assert got[1:8] == (inst.A.data, inst.n_rows, inst.n_vars, inst.b, inst.c,
                            inst.row_sense, inst.var_names)


def test_matches_oracle_on_the_corpus_law():
    for seed in range(300):
        assert_reads_as_oracle(emit_mps(random_feasible_instance(seed)))


def test_matches_oracle_with_bounds_on_many_columns():
    # every column of a 147-column cutgen gets a bound, some two, some a
    # rational or empty domain; rows carry ranges and rational entries
    inst = cutgen(CutStockSpec(m=6, v2=0.5, dbar=10.0, L=1000, seed=51))
    text = emit_mps(inst).replace("ENDATA\n", "")
    rng = random.Random(5)
    lines = ["RANGES", "    RNG R1 4", "    RNG R2 -2.5", "    RNG R1 3 R3 1/2", "BOUNDS"]
    for j, name in enumerate(inst.var_names):
        typ = rng.choice(["UP", "UI", "LO", "LI", "FX", "BV", "PL"])
        lines.append(f" {typ} BND {name}" + ("" if typ in ("BV", "PL") else
                                              f" {rng.choice(['0', '1', '3', '2.5', '7/3'])}"))
        if j % 3 == 0:
            lines.append(f" UP BND {name} {rng.choice(['4', '9/2'])}")
    text += "\n".join(lines) + "\nENDATA\n"
    got = assert_reads_as_oracle(text)
    assert got[2] > inst.n_rows + inst.n_vars // 2
    # an upper bound below a lower one: the same error from both
    assert assert_reads_as_oracle(text.replace("ENDATA", " LO BND p7 5\n UP BND p7 4\nENDATA"))[
        :2] == (NotPureILP, "column 'p7' has an empty domain")


def test_matches_oracle_on_rational_rows():
    text = MINIMAL.replace("    x1 r1 2", "    x1 r1 0.5\n    x1 r1 0.5 r2 1/3").replace(
        "RHS r2 1", "RHS r2 1.25")
    got = assert_reads_as_oracle(text)
    # r1: 0.5 + 0.5 = 1 keeps x2's 1; r2: 1 + 1/3 and RHS 1.25 over 12
    assert got[1] == [[1, 1], [16, 0]] and got[4] == [10, 15]


@pytest.mark.parametrize("sense", ["MAX", "MAXIMIZE", "max"])
def test_objsense_max_rejected_on_either_line(sense):
    for text in [MINIMAL.replace("ROWS", f"OBJSENSE {sense}\nROWS"),
                 MINIMAL.replace("ROWS", f"OBJSENSE\n    {sense}\nROWS")]:
        for parse in (parse_mps, mps_oracle.parse_mps):
            with pytest.raises(NotPureILP, match="only minimization"):
                parse(text)
    for text in [MINIMAL.replace("ROWS", "OBJSENSE MIN\nROWS"),
                 MINIMAL.replace("ROWS", "OBJSENSE\n    MINIMIZE\nROWS")]:
        assert assert_reads_as_oracle(text) == reading(parse_mps, MINIMAL)


def test_objective_constant_rejected():
    # an RHS entry on the N row is minus a constant term of the objective
    text = MINIMAL.replace("    RHS r2 1", "    RHS r2 1 COST 5")
    for parse in (parse_mps, mps_oracle.parse_mps):
        with pytest.raises(NotPureILP, match="RHS 5 on objective row 'COST'"):
            parse(text)
    for zero in ["0", "0.0", "-0"]:
        text = MINIMAL.replace("    RHS r2 1", f"    RHS COST {zero}\n    RHS r2 1")
        assert assert_reads_as_oracle(text) == reading(parse_mps, MINIMAL)
