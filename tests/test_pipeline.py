"""End-to-end pipeline rows, rational/percent formatting, CSV and
histogram emission."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import grouprelax
from grouprelax import (CutStockSpec, PipelineConfig, cutgen, emit_report, feasible_coset,
                        pipeline, relax_ilp, run_pipeline)
from grouprelax.gen import planted
from grouprelax.pipeline import CSV_HEADER, fmt_int, fmt_pct, fmt_rational
from grouprelax.search import SearchConfig
from tests.conftest import random_feasible_instance, report_row_from_values


def test_fmt_int_past_the_str_digit_limit():
    n = 10 ** (sys.get_int_max_str_digits() + 1) - 1  # str(n) raises ValueError
    assert fmt_int(n) == "9" * (sys.get_int_max_str_digits() + 1)
    assert [fmt_int(v) for v in (0, 7, -12, 3135)] == ["0", "7", "-12", "3135"]


def test_fmt_rational():
    assert fmt_rational(Fraction(3)) == "3"
    assert fmt_rational(Fraction(-7, 2)) == "-3.5"
    assert fmt_rational(Fraction(1, 4)) == "0.25"
    assert fmt_rational(Fraction(743, 100)) == "7.43"
    assert fmt_rational(Fraction(1, 8)) == "0.125"
    assert fmt_rational(Fraction(1, 3)) == "0.333333"
    assert fmt_rational(None) == ""


def test_fmt_pct():
    assert fmt_pct(None) == "NA"
    assert fmt_pct(Fraction(100)) == "100.0"
    assert fmt_pct(Fraction(4617, 100)) == "46.2"


def test_table_style_rows():
    qap = report_row_from_values("qap10", Fraction("332.57"),
                                 Fraction("336.00"), Fraction("340.00"))
    assert qap.delta_lp_ilp == Fraction("7.43")
    assert qap.delta_b == Fraction("4.00")
    assert qap.r_abs == Fraction("3.43")
    assert abs(float(qap.r_pct) - 46.2) < 0.05

    ex10 = report_row_from_values("ex10", 100, 100, 100)
    assert ex10.r_pct is None

    text = emit_report([qap, ex10])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("qap10,332.57,336,340,7.43,4,3.43,46.2,")
    assert ",NA," in lines[2]
    assert "bin_start,count" in lines
    hist = lines[lines.index("bin_start,count") + 1:]
    assert hist[4] == "40,1"  # qap10 at 46.2
    assert hist[-1] == "100,0"


def test_histogram_full_closure():
    rows = [report_row_from_values(f"p{i}", 0, 2, 2) for i in range(3)]
    text = emit_report(rows)
    lines = text.splitlines()
    hist = lines[lines.index("bin_start,count") + 1:]
    assert hist[9] == "90,3"  # [90, 100] closed bin
    assert hist[10] == "100,3"  # exact-closure marker


def test_emit_report_empty():
    with pytest.raises(ValueError):
        emit_report([])


def test_run_pipeline_planted_row():
    inst, _ = planted(2, 3, 1)
    cfg = PipelineConfig(search=SearchConfig(method="dijkstra"),
                         record_wall=False)
    row = run_pipeline(inst, cfg)
    assert row.opt_lp == 0
    assert row.opt_b == 3
    assert row.opt_ilp == 3
    assert row.r_pct == 100
    assert row.certified
    assert row.k_order == row.g_order == 8
    assert row.wall_ms == 0
    assert row.method == "dijkstra"


def test_report_and_group_cost_pinned():
    # the Dijkstra report of the random suite's law, seeds 0-199, and the
    # group cost (den, const, weights) there and on the benchmark's cutgen
    # ladder: the LP's certified integers must reproduce both bit for bit
    insts = [random_feasible_instance(seed) for seed in range(200)]
    rows = [run_pipeline(inst, PipelineConfig(record_wall=False)) for inst in insts]
    assert hashlib.sha256(emit_report(rows).encode()).hexdigest() == (
        "9a07909c12d9e920b29a5959a547e317a5eae7b508be56550064e0fb78ff98ef")
    insts += [cutgen(CutStockSpec(m=m, L=1000, v2=0.5, dbar=10.0, seed=seed))
              for m, seed in ((6, 51), (8, 26), (10, 11))]
    costs = hashlib.sha256()
    for inst in insts:
        c = relax_ilp(inst).cost
        costs.update(repr((c.den, c.const, c.weights)).encode() + b";")
    assert costs.hexdigest() == (
        "1cbbf93bc89c77bfc4ec2f485c809ad51b98def03447af10b009618597f65261")


def test_dijkstra_row_builds_no_coset(monkeypatch):
    # |K| and |G| of a Dijkstra row come from the residue lattice and the
    # column orders, equal to the coset's with and without compression; the
    # coset is built only for a solver that walks it, once
    insts = [random_feasible_instance(seed) for seed in range(40)]
    insts += [planted(2, 3, 1)[0], cutgen(CutStockSpec(m=6, L=1000, v2=0.5, dbar=10.0, seed=51))]
    want = {}
    for compress in (False, True):
        kbs = [feasible_coset(relax_ilp(inst), compress).basis for inst in insts]
        want[compress] = [(kb.kernel_order, kb.range_order) for kb in kbs]
    assert want[False] != want[True]
    built = []

    def counted(grd, compress=False):
        built.append(grd)
        return feasible_coset(grd, compress)

    monkeypatch.setattr(pipeline, "feasible_coset", counted)
    for compress in (False, True):
        cfg = PipelineConfig(compress=compress, record_wall=False)
        assert [(row.k_order, row.g_order) for row in
                (run_pipeline(inst, cfg) for inst in insts)] == want[compress]
    assert not built
    for method in ("mcs", "brute"):
        for compress in (False, True):
            built.clear()
            run_pipeline(insts[-2], PipelineConfig(search=SearchConfig(method=method, seed=0),
                                                   compress=compress, record_wall=False))
            assert len(built) == 1


def test_run_pipeline_bytes_deterministic():
    inst, _ = planted(2, 2, 1, seed=3, style="random-lower-unit")

    def once():
        cfg = PipelineConfig(search=SearchConfig(method="brute", seed=9),
                             record_wall=False)
        return emit_report([run_pipeline(inst, cfg)])

    assert once() == once()


def test_run_pipeline_compressed_matches():
    inst, _ = planted(2, 3, 1)
    plain = run_pipeline(inst, PipelineConfig(
        search=SearchConfig(method="brute"), record_wall=False))
    comp = run_pipeline(inst, PipelineConfig(
        search=SearchConfig(method="brute"), compress=True, record_wall=False))
    assert plain.opt_b == comp.opt_b == 3


def test_mcs_row_reports_no_ilp_optimum():
    # an MCS lift certifies nothing: opt_ilp is NA, though a Dijkstra row
    # of the same instance certifies 2
    inst, _ = planted(2, 2, 1)
    search = SearchConfig(method="mcs", seed=1)
    row = run_pipeline(inst, PipelineConfig(search=search, record_wall=False))
    assert row.opt_b == 2 and row.opt_ilp is None and row.r_pct is None
    row = run_pipeline(inst, PipelineConfig(record_wall=False))
    assert row.opt_ilp == 2 and row.r_pct == 100


def test_bad_ilp_certificate_raises_under_python_O():
    # a lift corrupted after Dijkstra's own checks reaches the branch and
    # bound's final check; the pipeline must raise, not report NA
    script = (
        "assert False\n"  # stripped by -O, so this line shows -O is on
        "from grouprelax import PipelineConfig, planted, run_pipeline, search\n"
        "from grouprelax.errors import CertificateError\n"
        "lift = search.lift_to_ilp\n"
        "def shifted(grd, x):\n"
        "    sol = lift(grd, x)\n"
        "    sol.lifted_x[0] += 1\n"
        "    return sol\n"
        "search.lift_to_ilp = shifted\n"
        "try:\n"
        "    run_pipeline(planted(2, 3, 1)[0], PipelineConfig())\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(grouprelax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "branch and bound returned a point outside the ILP\n"
