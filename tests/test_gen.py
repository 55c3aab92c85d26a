"""Instance generators: cutting stock over maximal patterns and the
planted family with known group structure."""

import pytest

from grouprelax import brute_force_ilp, emit_mps, gomory_shortest_path
from grouprelax.errors import CapExceeded, EmptyWidthBand
from grouprelax.gen import CutStockSpec, _demand_split, _maximal_patterns, cutgen, planted
from tests.conftest import build

import random


def test_maximal_patterns_by_hand():
    # widths (6, 4), L = 10: only (1,1) and (0,2) are maximal
    assert set(_maximal_patterns([6, 4], 10, 100)) == {(1, 1), (0, 2)}


def test_maximal_patterns_are_maximal():
    widths = [7, 5, 3]
    pats = _maximal_patterns(widths, 15, 1000)
    for p in pats:
        used = sum(a * w for a, w in zip(p, widths))
        assert used <= 15
        assert 15 - used < min(widths)
    assert len(set(pats)) == len(pats)


def test_pattern_cap():
    with pytest.raises(CapExceeded, match="^enumerated 6 patterns, cap is 5$"):
        _maximal_patterns([1, 2, 3], 30, 5)


def test_empty_width_band():
    with pytest.raises(EmptyWidthBand):
        cutgen(CutStockSpec(m=2, v1=0.91, v2=0.94, dbar=2.0, L=10))


def test_demand_split_sums():
    rng = random.Random(0)
    for m, total in [(2, 4), (4, 8), (5, 5), (3, 17)]:
        d = _demand_split(m, total, rng)
        assert sum(d) == total
        assert all(v >= 1 for v in d)


def test_cutgen_determinism_and_shape():
    spec = CutStockSpec(m=3, v2=0.8, dbar=2.0, L=10, seed=7)
    a = cutgen(spec)
    b = cutgen(CutStockSpec(m=3, v2=0.8, dbar=2.0, L=10, seed=7))
    assert emit_mps(a) == emit_mps(b)
    assert a.row_sense == [">="] * 3
    assert all(c == 1 for c in a.c)
    assert sum(a.b) == round(3 * 2.0)


def test_cutgen_solvable_end_to_end():
    inst = cutgen(CutStockSpec(m=2, v2=0.8, dbar=2.0, L=10, seed=1))
    sf, bs, grd, fc = build(inst)
    res = gomory_shortest_path(grd)
    opt_ilp, _ = brute_force_ilp(inst, box=10)
    assert bs.opt_lp <= res.objective <= opt_ilp


def test_planted_parameters_validated():
    with pytest.raises(ValueError):
        planted(1, 2, 1)
    with pytest.raises(ValueError):
        planted(2, 0, 1)
    with pytest.raises(ValueError):
        planted(2, 2, 2)  # ell must stay below t
    with pytest.raises(ValueError):
        planted(2, 2, 1, style="nope")


def test_planted_metadata_against_oracles():
    for t, m, style, seed in [(2, 2, "identity", 0),
                              (3, 2, "identity", 0),
                              (2, 1, "identity", 0),
                              (2, 2, "random-lower-unit", 3),
                              (3, 2, "random-lower-unit", 11)]:
        inst, meta = planted(t, m, 1, seed=seed, style=style)
        sf, bs, grd, fc = build(inst)
        assert bs.opt_lp == meta["opt_lp"] == 0
        assert fc.basis.kernel_order == meta["k_order"] == t**m
        assert fc.basis.range_order == meta["g_order"] == t**m
        res = gomory_shortest_path(grd)
        assert res.objective == meta["opt_b"] == m
        opt_ilp, _ = brute_force_ilp(inst, box=2 * t * t)
        assert res.objective <= opt_ilp


def test_planted_examples():
    inst, meta = planted(2, 2, 1)
    assert meta["opt_b"] == 2 and meta["k_order"] == 4
    inst, meta = planted(3, 2, 1)
    assert meta["opt_b"] == 2 and meta["k_order"] == 9
    inst, meta = planted(2, 1, 1)
    assert meta["opt_b"] == 1 and meta["k_order"] == 2


def test_planted_deterministic_per_seed():
    a, _ = planted(2, 3, 1, seed=5, style="random-lower-unit")
    b, _ = planted(2, 3, 1, seed=5, style="random-lower-unit")
    assert emit_mps(a) == emit_mps(b)
