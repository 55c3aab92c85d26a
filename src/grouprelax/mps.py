"""MPS reading and writing for pure integer programs.

Handles fixed and free layout uniformly (whitespace tokens), INTORG /
INTEND integer markers, exact decimal coefficients, RANGES expansion,
and finite bounds turned into rows. Continuous variables or negative
domains are rejected: the downstream machinery needs x integer >= 0.
Integer tokens are read as ints and only other tokens as Fractions; row
data is cleared to integers per row; objective costs stay rational.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import MalformedMPS, NotPureILP
from .exact import IntMatrix
from .lp import EQ, GE, ILPInstance, LE

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE"}


def _num(tok: str, lineno: int) -> int | Fraction:
    """The value Fraction(tok) reads from a number token: an int for an
    integer token, else a Fraction. Raises MalformedMPS on a token that
    Fraction() rejects, and on a decimal exponent past
    sys.get_int_max_str_digits() in magnitude, the bound Python puts on
    a string of digits: Fraction() would spend minutes on 10**exponent."""
    if "_" not in tok:  # Fraction() reads no underscores before 3.11
        try:
            return int(tok)
        except ValueError:
            pass
    _, e, exponent = tok.upper().partition("E")
    limit = sys.get_int_max_str_digits()
    try:
        if e and limit and abs(int(exponent)) > limit:
            raise MalformedMPS(f"exponent of {tok!r} is past {limit} in magnitude", lineno)
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise MalformedMPS(f"bad number {tok!r}", lineno)


def parse_mps(text: str, name_hint: str = "instance") -> ILPInstance:
    name = name_hint
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    obj_row: str | None = None
    cols: dict[str, dict[str, int | Fraction]] = {}
    col_order: list[str] = []
    integer_cols: set[str] = set()
    rhs: dict[str, int | Fraction] = {}
    ranges: dict[str, int | Fraction] = {}
    lower: dict[str, int | Fraction] = {}
    upper: dict[str, int | Fraction | None] = {}
    in_int = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0][0] == "*":
            continue
        if raw[0] not in " \t" and toks[0].upper() in _SECTIONS:
            section = toks[0].upper()
            if section == "NAME" and len(toks) > 1:
                name = toks[1]
            if section == "ENDATA":
                break
            continue
        if section is None:
            raise MalformedMPS("data before any section header", lineno)
        if section == "NAME":
            continue
        if section == "OBJSENSE":
            if toks[0].upper() not in ("MIN", "MINIMIZE"):
                raise NotPureILP("only minimization is supported")
            continue
        if section == "ROWS":
            if len(toks) != 2:
                raise MalformedMPS("ROWS line needs a type and a name", lineno)
            typ, rname = toks[0].upper(), toks[1]
            if typ == "N":
                if obj_row is None:
                    obj_row = rname
                continue
            sense = {"L": LE, "G": GE, "E": EQ}.get(typ)
            if sense is None:
                raise MalformedMPS(f"unknown row type {typ!r}", lineno)
            if rname in row_sense:
                raise MalformedMPS(f"duplicate row {rname!r}", lineno)
            row_sense[rname] = sense
            row_order.append(rname)
            continue
        if section == "COLUMNS":
            if "'MARKER'" in toks or "MARKER" in toks:
                joined = " ".join(toks).upper()
                if "INTORG" in joined:
                    in_int = True
                elif "INTEND" in joined:
                    in_int = False
                else:
                    raise MalformedMPS("marker line without INTORG/INTEND", lineno)
                continue
            if len(toks) not in (3, 5):
                raise MalformedMPS("COLUMNS line needs 1 or 2 (row, value) pairs", lineno)
            cname = toks[0]
            if cname not in cols:
                cols[cname] = {}
                col_order.append(cname)
                if in_int:
                    integer_cols.add(cname)
            for i in range(1, len(toks), 2):
                rname, val = toks[i], _num(toks[i + 1], lineno)
                if rname != obj_row and rname not in row_sense:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
                cols[cname][rname] = cols[cname].get(rname, 0) + val
            continue
        if section == "RHS":
            if len(toks) not in (3, 5):
                raise MalformedMPS("RHS line needs 1 or 2 (row, value) pairs", lineno)
            for i in range(1, len(toks), 2):
                rname, val = toks[i], _num(toks[i + 1], lineno)
                if rname not in row_sense and rname != obj_row:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
                if rname != obj_row:
                    rhs[rname] = val
            continue
        if section == "RANGES":
            if len(toks) not in (3, 5):
                raise MalformedMPS("RANGES line needs 1 or 2 (row, value) pairs", lineno)
            for i in range(1, len(toks), 2):
                rname, val = toks[i], _num(toks[i + 1], lineno)
                if rname not in row_sense:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
                ranges[rname] = val
            continue
        if section == "BOUNDS":
            btyp = toks[0].upper()
            if btyp in ("FR", "MI", "PL", "BV") and len(toks) == 3:
                cname, val = toks[2], None
            elif len(toks) == 4:
                cname, val = toks[2], _num(toks[3], lineno)
            else:
                raise MalformedMPS("bad BOUNDS line", lineno)
            if cname not in cols:
                raise MalformedMPS(f"bound on unknown column {cname!r}", lineno)
            if btyp in ("UP", "UI"):
                upper[cname] = val
                if btyp == "UI":
                    integer_cols.add(cname)
            elif btyp in ("LO", "LI"):
                lower[cname] = val
                if btyp == "LI":
                    integer_cols.add(cname)
            elif btyp == "FX":
                lower[cname] = val
                upper[cname] = val
            elif btyp == "BV":
                integer_cols.add(cname)
                lower[cname] = 0
                upper[cname] = 1
            elif btyp in ("FR", "MI"):
                raise NotPureILP(f"column {cname!r} has an unbounded-below domain")
            elif btyp == "PL":
                upper[cname] = None
            else:
                raise MalformedMPS(f"unknown bound type {btyp!r}", lineno)
            continue
        raise MalformedMPS(f"data in unsupported section {section!r}", lineno)

    if obj_row is None:
        raise MalformedMPS("no objective (N) row", 0)
    for cname in col_order:
        if cname not in integer_cols:
            raise NotPureILP(f"column {cname!r} is continuous")
        lo = lower.get(cname, 0)
        if lo < 0:
            raise NotPureILP(f"column {cname!r} has a negative lower bound")

    # assemble rows of ints and Fractions, then clear denominators per row
    sense_list = [row_sense[r] for r in row_order]
    b_list = [rhs.get(r, 0) for r in row_order]
    col_data = [cols[c] for c in col_order]
    A_rows = [[cd.get(r, 0) for cd in col_data] for r in row_order]
    # RANGES: second inequality per ranged row
    for r, rv in ranges.items():
        i = row_order.index(r)
        s = row_sense[r]
        if s == LE:
            A_rows.append(list(A_rows[i]))
            sense_list.append(GE)
            b_list.append(b_list[i] - abs(rv))
        elif s == GE:
            A_rows.append(list(A_rows[i]))
            sense_list.append(LE)
            b_list.append(b_list[i] + abs(rv))
        else:  # E row becomes an interval
            A_rows.append(list(A_rows[i]))
            if rv >= 0:
                sense_list[i] = GE
                sense_list.append(LE)
                b_list.append(b_list[i] + rv)
            else:
                sense_list[i] = LE
                sense_list.append(GE)
                b_list.append(b_list[i] + rv)
    # bound rows
    for j, cname in enumerate(col_order):
        lo = lower.get(cname, 0)
        up = upper.get(cname)
        unit = [0] * len(col_order)
        unit[j] = 1
        if lo > 0:
            A_rows.append(list(unit))
            sense_list.append(GE)
            b_list.append(lo)
        if up is not None:
            if up < lo:
                raise NotPureILP(f"column {cname!r} has an empty domain")
            A_rows.append(list(unit))
            sense_list.append(LE)
            b_list.append(up)

    # IntMatrix and ILPInstance make ints of the cleared rows and b, and
    # Fractions of c
    int_rows = []
    int_b = []
    for row, bv in zip(A_rows, b_list):
        den = math.lcm(*(x.denominator for x in row), bv.denominator)
        if den == 1:
            int_rows.append(row)
            int_b.append(bv)
        else:
            int_rows.append([x * den for x in row])
            int_b.append(bv * den)
    c = [cd.get(obj_row, 0) for cd in col_data]
    return ILPInstance(
        name=name,
        A=IntMatrix(int_rows) if int_rows else IntMatrix([[0] * len(col_order)]),
        b=int_b if int_rows else [0],
        c=c,
        row_sense=sense_list if int_rows else [LE],
        var_names=list(col_order),
    )


def _fmt(v) -> str:
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def emit_mps(inst: ILPInstance) -> str:
    """Writer inverse of parse_mps for pure ILPs; all columns are
    wrapped in one INTORG/INTEND block and bounds are left at the
    default x >= 0 integer."""
    out = [f"NAME {inst.name}", "ROWS", " N COST"]
    rnames = [f"R{i+1}" for i in range(inst.n_rows)]
    for rn, s in zip(rnames, inst.row_sense):
        typ = {LE: "L", GE: "G", EQ: "E"}[s]
        out.append(f" {typ} {rn}")
    out.append("COLUMNS")
    out.append("    M1 'MARKER' 'INTORG'")
    for j, vn in enumerate(inst.var_names):
        wrote = False
        if inst.c[j]:
            out.append(f"    {vn} COST {_fmt(inst.c[j])}")
            wrote = True
        for i, rn in enumerate(rnames):
            if inst.A.data[i][j]:
                out.append(f"    {vn} {rn} {inst.A.data[i][j]}")
                wrote = True
        if not wrote:  # keep all-zero columns alive across a round trip
            out.append(f"    {vn} COST 0")
    out.append("    M1 'MARKER' 'INTEND'")
    out.append("RHS")
    for i, rn in enumerate(rnames):
        if inst.b[i]:
            out.append(f"    RHS {rn} {inst.b[i]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
