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
_MARKERS = {"'MARKER'", "MARKER"}
_ROW_TYPES = {"L": LE, "G": GE, "E": EQ}


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


def _minimize(tok: str) -> None:
    if tok.upper() not in ("MIN", "MINIMIZE"):
        raise NotPureILP("only minimization is supported")


def parse_mps(text: str, name_hint: str = "instance") -> ILPInstance:
    """The pure ILP of an MPS text, in one pass over its lines.

    A one-pair COLUMNS line on a known row with an integer value, the
    bulk of a file, is the first and cheapest case; every other line
    takes the general path. The nonzeros are kept as (row, column,
    value) and summed into the dense rows once, at the end; a bound
    makes a row only for its own column, and only a row or RHS entry
    that holds a Fraction is cleared by an lcm. Raises MalformedMPS
    (with the line) on bad syntax, and NotPureILP on a maximization, an
    objective constant, a continuous column or a domain other than a
    nonempty one of integers >= 0."""
    name = name_hint
    section = None
    senses: list[str] = []
    row_index: dict[str, int] = {}
    obj_row: str | None = None
    # row names a one-pair line may use: a constraint row's index, or -1
    # for the objective; not a name that is both, nor a marker word
    fast_rows: dict[str, int] = {}
    col_index: dict[str, int] = {}
    integer: list[bool] = []
    entries: list[tuple[int, int, int | Fraction]] = []  # (row, -1 for c; column; value)
    frac_rows: set[int] = set()
    rhs: dict[int, int | Fraction] = {}
    ranges: dict[int, int | Fraction] = {}
    lower: dict[int, int | Fraction] = {}
    upper: dict[int, int | Fraction | None] = {}
    in_int = columns = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if columns and len(toks) == 3 and raw[0] in " \t":
            cname, rname, tok = toks
            i = fast_rows.get(rname)
            if i is not None and "_" not in tok and (
                    cname in col_index or cname[0] != "*" and cname not in _MARKERS):
                try:
                    v = int(tok)
                except ValueError:
                    pass
                else:
                    j = col_index.get(cname)
                    if j is None:
                        j = col_index[cname] = len(integer)
                        integer.append(in_int)
                    entries.append((i, j, v))
                    continue
        if not toks or toks[0][0] == "*":
            continue
        if raw[0] not in " \t" and toks[0].upper() in _SECTIONS:
            section = toks[0].upper()
            columns = section == "COLUMNS"
            if section == "NAME" and len(toks) > 1:
                name = toks[1]
            if section == "OBJSENSE" and len(toks) > 1:
                _minimize(toks[1])
            if section == "ENDATA":
                break
            continue
        if section is None:
            raise MalformedMPS("data before any section header", lineno)
        if section == "NAME":
            continue
        if section == "OBJSENSE":
            _minimize(toks[0])
            continue
        if section == "ROWS":
            if len(toks) != 2:
                raise MalformedMPS("ROWS line needs a type and a name", lineno)
            typ, rname = toks[0].upper(), toks[1]
            if typ == "N":
                if obj_row is None:
                    obj_row = rname
                    if rname in row_index:
                        fast_rows.pop(rname, None)
                    elif rname not in _MARKERS:
                        fast_rows[rname] = -1
                continue
            sense = _ROW_TYPES.get(typ)
            if sense is None:
                raise MalformedMPS(f"unknown row type {typ!r}", lineno)
            if rname in row_index:
                raise MalformedMPS(f"duplicate row {rname!r}", lineno)
            row_index[rname] = len(senses)
            senses.append(sense)
            if rname == obj_row:
                fast_rows.pop(rname, None)
            elif rname not in _MARKERS:
                fast_rows[rname] = row_index[rname]
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
            j = col_index.get(toks[0])
            if j is None:
                j = col_index[toks[0]] = len(integer)
                integer.append(in_int)
            for k in range(1, len(toks), 2):
                rname, val = toks[k], _num(toks[k + 1], lineno)
                i = row_index.get(rname)
                if rname == obj_row:
                    entries.append((-1, j, val))
                elif i is None:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
                if i is not None:
                    entries.append((i, j, val))
                    if type(val) is not int:
                        frac_rows.add(i)
            continue
        if section == "RHS":
            if len(toks) not in (3, 5):
                raise MalformedMPS("RHS line needs 1 or 2 (row, value) pairs", lineno)
            for k in range(1, len(toks), 2):
                rname, val = toks[k], _num(toks[k + 1], lineno)
                if rname == obj_row:
                    if val:  # MPS reads it as minus a constant term of the objective
                        raise NotPureILP(f"RHS {val} on objective row {rname!r} is an "
                                         f"objective constant; only 0 is supported")
                elif rname in row_index:
                    rhs[row_index[rname]] = val
                else:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
            continue
        if section == "RANGES":
            if len(toks) not in (3, 5):
                raise MalformedMPS("RANGES line needs 1 or 2 (row, value) pairs", lineno)
            for k in range(1, len(toks), 2):
                rname, val = toks[k], _num(toks[k + 1], lineno)
                if rname not in row_index:
                    raise MalformedMPS(f"unknown row {rname!r}", lineno)
                ranges[row_index[rname]] = val
            continue
        if section == "BOUNDS":
            btyp = toks[0].upper()
            if btyp in ("FR", "MI", "PL", "BV") and len(toks) == 3:
                cname, val = toks[2], None
            elif len(toks) == 4:
                cname, val = toks[2], _num(toks[3], lineno)
            else:
                raise MalformedMPS("bad BOUNDS line", lineno)
            j = col_index.get(cname)
            if j is None:
                raise MalformedMPS(f"bound on unknown column {cname!r}", lineno)
            if btyp in ("UP", "UI"):
                upper[j] = val
                if btyp == "UI":
                    integer[j] = True
            elif btyp in ("LO", "LI"):
                lower[j] = val
                if btyp == "LI":
                    integer[j] = True
            elif btyp == "FX":
                lower[j] = upper[j] = val
            elif btyp == "BV":
                integer[j] = True
                lower[j], upper[j] = 0, 1
            elif btyp in ("FR", "MI"):
                raise NotPureILP(f"column {cname!r} has an unbounded-below domain")
            elif btyp == "PL":
                upper[j] = None
            else:
                raise MalformedMPS(f"unknown bound type {btyp!r}", lineno)
            continue
        raise MalformedMPS(f"data in unsupported section {section!r}", lineno)

    if obj_row is None:
        raise MalformedMPS("no objective (N) row", 0)
    names = list(col_index)
    if not all(integer) or any(lo < 0 for lo in lower.values()):
        for j, cname in enumerate(names):
            if not integer[j]:
                raise NotPureILP(f"column {cname!r} is continuous")
            if lower.get(j, 0) < 0:
                raise NotPureILP(f"column {cname!r} has a negative lower bound")

    n, m = len(names), len(senses)
    A = [[0] * n for _ in range(m)]
    c = [0] * n
    A.append(c)  # row -1
    for i, j, v in entries:
        A[i][j] += v
    A.pop()
    b = [rhs.get(i, 0) for i in range(m)]
    # RANGES: a second inequality per ranged row
    for i, rv in ranges.items():
        if i in frac_rows:
            frac_rows.add(len(A))
        A.append(A[i][:])
        if senses[i] == LE:
            senses.append(GE)
            b.append(b[i] - abs(rv))
        elif senses[i] == GE:
            senses.append(LE)
            b.append(b[i] + abs(rv))
        else:  # an E row becomes an interval
            senses[i], s2 = (GE, LE) if rv >= 0 else (LE, GE)
            senses.append(s2)
            b.append(b[i] + rv)
    # bound rows, made only for a column with a bound
    for j in sorted(lower.keys() | upper.keys()):
        lo, up = lower.get(j, 0), upper.get(j)
        bounds = [(GE, lo)] if lo > 0 else []
        if up is not None:
            if up < lo:
                raise NotPureILP(f"column {names[j]!r} has an empty domain")
            bounds.append((LE, up))
        for sense, bound in bounds:
            row = [0] * n
            row[j] = 1
            A.append(row)
            senses.append(sense)
            b.append(bound)
    for k in frac_rows.union(k for k, v in enumerate(b) if type(v) is not int):
        row, bv = A[k], b[k]
        den = math.lcm(*(x.denominator for x in row), bv.denominator)
        A[k] = [x.numerator * (den // x.denominator) for x in row]
        b[k] = bv.numerator * (den // bv.denominator)
    # the rows are ints already; ILPInstance makes Fractions of c and
    # reads a model without rows as one zero row
    return ILPInstance(name=name, A=IntMatrix._of(A), b=b, c=c, row_sense=senses,
                       var_names=names)


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
