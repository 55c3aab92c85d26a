"""MPS reader/writer: exact decimals, integer markers, bounds, ranges,
round trips."""

import sys
import time
from fractions import Fraction

import pytest

from grouprelax import emit_mps, parse_mps
from grouprelax.errors import MalformedMPS, NotPureILP
from grouprelax.gen import CutStockSpec, cutgen, planted

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
