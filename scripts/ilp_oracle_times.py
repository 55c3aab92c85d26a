"""The ILP oracle of ``run_pipeline``, before and after the branch and
bound, as JSON.

    PYTHONPATH=src python3 scripts/ilp_oracle_times.py --corpus-seed 9 --repeat 3

Corpus: the 200 instances of the benchmark's ``corpus`` workload at
``--corpus-seed``, each through ``relax_ilp`` and Dijkstra as in the
pipeline, then timed in two oracles: the box-10 scan ``brute_force_ilp``
(the pipeline's former ``opt_ilp``, its smaller value taken with a
feasible group lift), and ``branch_and_bound`` rooted at that group
optimum. Each oracle's time is the best over ``--repeat`` runs of the
whole corpus. Ladder: the three cutgen L=1000 instances of the benchmark's
``ladder`` workload through ``branch_and_bound`` from scratch.
``group_pruned`` counts the nodes the group bound pruned, and
``group_capped`` those whose Dijkstra passed its cap and kept the LP bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import (CORPUS_SIZE, CUT_LADDER, CUT_SPEC,  # noqa: E402
                                 corpus_shapes, random_feasible_instance)

from grouprelax import gen, relax_ilp, search  # noqa: E402
from grouprelax.errors import CapExceeded, Infeasible  # noqa: E402


def corpus(seed: int) -> list:
    """The corpus workload's instances, as its set-up draws them."""
    rng = random.Random(seed)
    shapes = corpus_shapes(CORPUS_SIZE)
    rng.shuffle(shapes)
    return [random_feasible_instance(rng, m, n, f"rand{i:03d}") for i, (m, n) in enumerate(shapes)]


def box_value(inst, res):
    """The former pipeline value: the box-10 optimum, or the group
    optimum when it lifts feasibly and is smaller."""
    try:
        value, _ = search.brute_force_ilp(inst, 10, 2 * 10**6)
    except (CapExceeded, Infeasible):
        value = None
    if res.solution.ilp_feasible and (value is None or res.objective < value):
        value = res.objective
    return value


def bnb(inst, root=None):
    try:
        return search.branch_and_bound(inst, root=root)
    except (CapExceeded, Infeasible) as exc:
        return type(exc).__name__


def best_time(fn, repeat: int):
    best, out = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus-seed", type=int, default=9)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    insts = corpus(args.corpus_seed)
    roots = []
    for inst in insts:
        grd = relax_ilp(inst)
        roots.append((grd, search.gomory_shortest_path(grd)))
    box_s, box = best_time(lambda: [box_value(i, r[1]) for i, r in zip(insts, roots)], args.repeat)
    bnb_s, opt = best_time(lambda: [bnb(i, r) for i, r in zip(insts, roots)], args.repeat)
    solved = [o for o in opt if not isinstance(o, str)]
    moved = [{"instance": i.name, "box": str(b), "branch_and_bound": str(getattr(o, "value", o))}
             for i, b, o in zip(insts, box, opt) if b != getattr(o, "value", None)]
    out = {
        "corpus": {
            "seed": args.corpus_seed, "instances": len(insts), "repeat": args.repeat,
            "box_scan_s": round(box_s, 4), "branch_and_bound_s": round(bnb_s, 4),
            "solved_at_root": sum(o.nodes == 1 for o in solved),
            "nodes_total": sum(o.nodes for o in solved),
            "nodes_max": max(o.nodes for o in solved),
            "group_pruned_total": sum(o.group_pruned for o in solved),
            "group_capped_total": sum(o.group_capped for o in solved),
            "not_certified": [{"instance": i.name, "outcome": o}
                              for i, o in zip(insts, opt) if isinstance(o, str)],
            "value_differs_from_box": moved,
        },
        "ladder": [],
        "machine": {"python": platform.python_version(), "numpy": np.__version__},
    }
    for m, s in CUT_LADDER:
        inst = gen.cutgen(gen.CutStockSpec(m=m, seed=s, **CUT_SPEC))
        t0 = time.perf_counter()
        o = bnb(inst)
        out["ladder"].append({
            "case": f"cutgen m={m} L={CUT_SPEC['L']} v2={CUT_SPEC['v2']} dbar={CUT_SPEC['dbar']} seed={s}",
            "patterns": inst.n_vars, "opt_ilp": str(getattr(o, "value", o)),
            "nodes": getattr(o, "nodes", None), "group_pruned": getattr(o, "group_pruned", None),
            "group_capped": getattr(o, "group_capped", None),
            "seconds": round(time.perf_counter() - t0, 3),
        })
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
