"""End-to-end runs: instance -> exact LP -> group relaxation -> kernel
(-> optional compression) -> solve -> report row, plus CSV emission with
the gap-closure histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .errors import CapExceeded, Infeasible
from .kernel import column_orders, feasible_coset, range_order
from .lp import ILPInstance
from .relax import BoundChain, bound_chain, relax_ilp
from .search import SearchConfig, branch_and_bound, solve_group

CSV_HEADER = ("instance,opt_lp,opt_b,opt_ilp,delta_lp_ilp,delta_b,"
              "r_abs,r_pct,certified,degenerate_lp,k_order,g_order,"
              "method,seed,wall_ms")


@dataclass
class PipelineConfig:
    search: SearchConfig = field(default_factory=SearchConfig)
    compress: bool = False
    ilp_cap: int = 1000  # branch-and-bound nodes; past it opt_ilp is NA
    record_wall: bool = True  # False pins wall_ms to 0 for byte-stable CSV


@dataclass
class ReportRow:
    instance: str
    opt_lp: Fraction
    opt_b: Fraction
    opt_ilp: Optional[Fraction]
    delta_lp_ilp: Optional[Fraction]
    delta_b: Optional[Fraction]
    r_abs: Fraction
    r_pct: Optional[Fraction]  # None renders as NA
    certified: bool
    degenerate_lp: bool
    k_order: int
    g_order: int
    method: str
    seed: Optional[int]
    wall_ms: int


def _row(name: str, chain: BoundChain, **rest) -> ReportRow:
    """The row of a bound chain; rest names the fields past r_pct."""
    return ReportRow(name, chain.opt_lp, chain.opt_group, chain.opt_ilp, chain.delta_lp_ilp,
                     chain.delta_b, chain.r_abs, chain.r_pct, **rest)


def run_pipeline(inst: ILPInstance, cfg: Optional[PipelineConfig] = None) -> ReportRow:
    """One report row. The feasible coset is built only for a solver that
    walks it (MCS or brute force). A Dijkstra row reads |G| off the
    residue lattice (``kernel.range_order``) and |K| = prod(s) / |G| with
    s the column orders under ``cfg.compress`` and r_max per column
    otherwise, the orders the coset certifies; both before the solve, so
    an r_max that compression cannot factor stops the row at once."""
    cfg = cfg or PipelineConfig()
    t0 = time.monotonic()
    grd = relax_ilp(inst)
    if cfg.search.method == "dijkstra":
        fc, g_order = None, range_order(grd)
        k_order = (prod(column_orders(grd)) if cfg.compress else grd.r_max**grd.d) // g_order
    else:
        fc = feasible_coset(grd, cfg.compress)
        k_order, g_order = fc.basis.kernel_order, fc.basis.range_order
    res = solve_group(grd, fc, cfg.search)

    # opt_ilp is certified or NA: on a certified group optimum, the branch
    # and bound rooted at it (no second LP or Dijkstra at the root). An
    # MCS lift certifies nothing.
    opt_ilp = None
    certified = res.certified_optimal
    if certified:
        try:
            opt_ilp = branch_and_bound(inst, cfg.ilp_cap, root=(grd, res),
                                       group_cap=cfg.search.cap).value
        except (CapExceeded, Infeasible):
            pass
    chain = bound_chain(grd.bs.opt_lp, res.objective, opt_ilp)
    wall = int((time.monotonic() - t0) * 1000) if cfg.record_wall else 0
    return _row(inst.name, chain, certified=certified, degenerate_lp=grd.bs.degenerate_primal,
                k_order=k_order, g_order=g_order,
                method=cfg.search.method, seed=cfg.search.seed, wall_ms=wall)


def _decimal_digits(d: int) -> Optional[int]:
    """Digits after the point of n / d in lowest terms, d >= 1: the larger
    multiplicity of 2 and 5 in d; None when d has another prime factor."""
    twos = fives = 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    return max(twos, fives) if d == 1 else None


def fmt_int(n: int) -> str:
    """Decimal digits of n, also past sys.get_int_max_str_digits(), which
    bounds str(int) (a guard for parsing, kept for the MPS reader): |K|
    has about 17000 digits at 5636 columns."""
    return str(Decimal(n))


def fmt_rational(v: Optional[Fraction]) -> str:
    """Exact decimal when it terminates, else 6 significant digits."""
    if v is None:
        return ""
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    digits = _decimal_digits(v.denominator)
    if digits is not None:
        scaled = v.numerator * 10**digits // v.denominator  # exact by construction
        sign = "-" if scaled < 0 else ""
        whole, frac = divmod(abs(scaled), 10**digits)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"
    return f"{float(v):.6g}"


def fmt_pct(v: Optional[Fraction]) -> str:
    if v is None:
        return "NA"
    return f"{float(v):.1f}"


def emit_report(rows: Sequence[ReportRow]) -> str:
    """CSV with the fixed header, then a gap-closure histogram: bins of
    width 10 over [0, 100] (last bin closed) plus an exact-100 marker."""
    if not rows:
        raise ValueError("no rows")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.instance,
            fmt_rational(r.opt_lp),
            fmt_rational(r.opt_b),
            fmt_rational(r.opt_ilp),
            fmt_rational(r.delta_lp_ilp),
            fmt_rational(r.delta_b),
            fmt_rational(r.r_abs),
            fmt_pct(r.r_pct),
            "true" if r.certified else "false",
            "true" if r.degenerate_lp else "false",
            fmt_int(r.k_order),
            fmt_int(r.g_order),
            r.method,
            "" if r.seed is None else str(r.seed),
            str(r.wall_ms),
        ]))
    lines.append("")
    lines.append("bin_start,count")
    pcts = [r.r_pct for r in rows if r.r_pct is not None]
    for b in range(0, 100, 10):
        if b < 90:
            n = sum(1 for p in pcts if b <= p < b + 10)
        else:
            n = sum(1 for p in pcts if 90 <= p <= 100)
        lines.append(f"{b},{n}")
    lines.append(f"100,{sum(1 for p in pcts if p == 100)}")
    return "\n".join(lines) + "\n"
