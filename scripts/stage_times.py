"""Wall time of each exact stage on one cutting-stock instance, as JSON.

    PYTHONPATH=src python3 scripts/stage_times.py --m 10 --L 1000 --v2 0.5 --dbar 10 --seed 3

Past 5000 patterns, raise the cap: --pattern-cap 20000.

Runs cutgen's instance through standard form, the exact LP, the
relaxation (its basis SNF), |G| from the residue lattice, the feasible
coset, compression of that coset, the compressed coset in one call
(``feasible_coset(grd, compress=True)``) and the Dijkstra solve, and
prints one JSON object with each stage's ``perf_counter`` seconds, the
best over ``--repeat`` runs of the whole chain, and the process's peak
RSS (``ru_maxrss``, MB) after each stage of the first run. The
compressed coset's own time and peak RSS come from a second process that
runs the relaxation and then only that stage (``--compressed-alone``),
as ``kernel --compress`` does; it starts before this process builds any
coset, since a child's ru_maxrss starts at its parent's RSS. It calls the library through its module
functions only, so it also times older trees of the package (point
PYTHONPATH at their src); a tree without ``kernel.range_order`` reports
no group_order stage, and one whose ``feasible_coset`` takes no compress
argument no compressed_coset stage.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from grouprelax import gen, kernel, lp, relax, search

STAGES = ("standard_form", "lp", "relaxation_snf", "group_order", "coset", "compression",
          "compressed_coset", "dijkstra")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux


def has_compressed_coset() -> bool:
    return "compress" in inspect.signature(kernel.feasible_coset).parameters


def run_chain(inst, alone: bool = False) -> tuple[dict, dict, dict]:
    """Every stage; with alone, the relaxation and then only the
    compressed coset."""
    times, rss = {}, {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        times[name] = time.perf_counter() - t0
        rss[name] = peak_rss_mb()
        return out

    sf = timed("standard_form", lp.to_standard_form, inst)
    bs = timed("lp", lp.solve_lp_exact, sf)
    grd = timed("relaxation_snf", relax.build_group_relaxation, sf, bs)
    if alone:
        timed("compressed_coset", kernel.feasible_coset, grd, True)
        return times, rss, {}
    if hasattr(kernel, "range_order"):
        timed("group_order", kernel.range_order, grd)
    fc = timed("coset", kernel.feasible_coset, grd)
    fc2 = timed("compression", kernel.compress_coset, grd, fc)
    if has_compressed_coset():
        timed("compressed_coset", kernel.feasible_coset, grd, True)
    res = timed("dijkstra", search.gomory_shortest_path, grd)
    facts = {
        "patterns": inst.n_vars, "d": grd.d, "r_max": grd.r_max,
        "nontrivial_rows": sum(r > 1 for r in grd.r),
        "k_generators": len(fc.basis.generators),
        "compressed_generators": len(fc2.basis.generators),
        # equal digests mean equal sorted invariant-factor orders
        "compressed_orders_sha256": hashlib.sha256(
            repr(sorted(fc2.basis.orders)).encode()).hexdigest()[:16],
        "compressed_k_order_bits": fc2.basis.kernel_order.bit_length(),
        "g_order": fc.basis.range_order,
        "opt_lp": str(bs.opt_lp), "opt_b": str(res.objective),
        "nodes_settled": res.samples_used,
    }
    return times, rss, facts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--L", type=int, default=1000)
    ap.add_argument("--v2", type=float, default=0.5)
    ap.add_argument("--dbar", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pattern-cap", type=int, default=gen.PATTERN_CAP_DEFAULT,
                    help="cap on enumerated patterns (default %(default)s)")
    ap.add_argument("--repeat", type=int, default=1, help="runs of the chain; best time per stage")
    ap.add_argument("--compressed-alone", action="store_true",
                    help="run the relaxation and the compressed coset only")
    args = ap.parse_args()
    spec = gen.CutStockSpec(m=args.m, L=args.L, v2=args.v2, dbar=args.dbar, seed=args.seed,
                            pattern_cap=args.pattern_cap)
    inst = gen.cutgen(spec)
    alone = {}
    if has_compressed_coset() and not args.compressed_alone:
        out = subprocess.run([sys.executable, __file__, *sys.argv[1:], "--compressed-alone"],
                             capture_output=True, text=True, check=True)
        alone = {"compressed_coset_alone": json.loads(out.stdout)}
    best: dict[str, float] = {}
    peak_rss = None
    for _ in range(max(1, args.repeat)):
        times, rss, facts = run_chain(inst, args.compressed_alone)
        peak_rss = peak_rss or rss
        for k, v in times.items():
            best[k] = min(best.get(k, v), v)
    if args.compressed_alone:
        print(json.dumps({"stages_s": {k: round(v, 6) for k, v in best.items()},
                          "peak_rss_mb_after": {k: round(v, 1) for k, v in peak_rss.items()}}))
        return
    print(json.dumps({
        "spec": {"m": args.m, "L": args.L, "v2": args.v2, "dbar": args.dbar, "seed": args.seed,
                 "pattern_cap": args.pattern_cap},
        "repeat": max(1, args.repeat),
        "stages_s": {k: round(best[k], 6) for k in STAGES if k in best},
        "total_s": round(sum(best.values()), 6),
        "peak_rss_mb_after": {k: round(peak_rss[k], 1) for k in STAGES if k in peak_rss},
        **alone,
        **facts,
        "python": platform.python_version(), "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
