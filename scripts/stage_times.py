"""Wall time of each exact stage on one cutting-stock instance, as JSON.

    PYTHONPATH=src python3 scripts/stage_times.py --m 10 --L 1000 --v2 0.5 --dbar 10 --seed 3

Past 5000 patterns, raise the cap: --pattern-cap 20000.

Runs cutgen's instance through standard form, the exact LP, the
relaxation (its basis SNF), |G| from the residue lattice, the feasible
coset, compression and the Dijkstra solve, and prints one JSON object
with each stage's ``perf_counter`` seconds, the best over ``--repeat``
runs of the whole chain, and the process's peak RSS (``ru_maxrss``, MB)
after each stage of the first run. It calls the library through its
module functions only, so it also times older trees of the package
(point PYTHONPATH at their src); a tree without ``kernel.range_order``
reports no group_order stage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import time

import numpy as np

from grouprelax import gen, kernel, lp, relax, search

STAGES = ("standard_form", "lp", "relaxation_snf", "group_order", "coset", "compression",
          "dijkstra")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux


def run_chain(inst) -> tuple[dict, dict, dict]:
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
    if hasattr(kernel, "range_order"):
        timed("group_order", kernel.range_order, grd)
    fc = timed("coset", kernel.feasible_coset, grd)
    fc2 = timed("compression", kernel.compress_coset, grd, fc)
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
    args = ap.parse_args()
    spec = gen.CutStockSpec(m=args.m, L=args.L, v2=args.v2, dbar=args.dbar, seed=args.seed,
                            pattern_cap=args.pattern_cap)
    inst = gen.cutgen(spec)
    best: dict[str, float] = {}
    peak_rss = None
    for _ in range(max(1, args.repeat)):
        times, rss, facts = run_chain(inst)
        peak_rss = peak_rss or rss
        for k, v in times.items():
            best[k] = min(best.get(k, v), v)
    print(json.dumps({
        "spec": {"m": args.m, "L": args.L, "v2": args.v2, "dbar": args.dbar, "seed": args.seed,
                 "pattern_cap": args.pattern_cap},
        "repeat": max(1, args.repeat),
        "stages_s": {k: round(best[k], 6) for k in STAGES if k in best},
        "total_s": round(sum(best.values()), 6),
        "peak_rss_mb_after": {k: round(peak_rss[k], 1) for k in STAGES if k in peak_rss},
        **facts,
        "python": platform.python_version(), "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
