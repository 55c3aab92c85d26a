"""Per-step cost of the MCS walks, and the cost-lowering single moves from x_hat, as JSON.

    PYTHONPATH=src python3 scripts/mcs_times.py --repeat 5
    PYTHONPATH=src python3 scripts/mcs_times.py --repeat 1 --seed 7

Walk times. The benchmark ladder's three walk instances (planted (2,8)
identity, planted (3,6) random-lower-unit, whose ell and generator
seeds ``--seed`` draws as the ladder's setup does, and the small cutgen
m=4 L=20 seed 35 v2=0.8 dbar=2) each get the feasible coset and the
walk length t_mix that ``markov_chain_search`` plans. Each walk kind
then runs (samples + 1) calls of ``walks.walk`` of t_mix steps, each
from the last call's state, as one MCS solve does: the plain walk on
K's generators, the plain walk on an expander set
(``expander_generation``), and the Metropolis walk on K's generators
at beta 1, all with the group cost. Reported per kind: ns per step,
best over ``--repeat`` runs, each run on the same RNG stream; for
Metropolis also the proposals and accepted moves.

Single moves. On the cutgens L=1000 dbar=10 m=6/8/10 v2=0.5 (the
ladder's seeds 51, 26, 11, and seed 3) and m=10 v2=0.4 seed 3, the
compressed coset's 2k moves x_hat +- h_j are priced with the group
cost, and the number that lower it below cost(x_hat) is reported
beside cost(x_hat), the lowest cost of one move and the certified
OPT_B from Dijkstra.
``--skip-moves`` leaves this part out.

It calls the library through its module functions only, so it also
times older trees of the package (point PYTHONPATH at their src).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time

import numpy as np

from grouprelax import gen, kernel, lp, relax, search, walks

# the benchmark ladder's walk instances (perfbench/workloads.py)
PLANTED = ((2, 8, "identity"), (3, 6, "random-lower-unit"))
WALK_CUTGEN = {"m": 4, "L": 20, "seed": 35, "v2": 0.8, "dbar": 2.0}
# the ladder's cutgens, m=10 v2=0.4 seed 3, and ROADMAP's Baseline MCS
# cases (seed 3), where x_hat is not always at OPT_B
MOVE_CUTGENS = ({"m": 6, "seed": 51, "v2": 0.5}, {"m": 8, "seed": 26, "v2": 0.5},
                {"m": 10, "seed": 11, "v2": 0.5}, {"m": 10, "seed": 3, "v2": 0.4},
                {"m": 6, "seed": 3, "v2": 0.5}, {"m": 8, "seed": 3, "v2": 0.5},
                {"m": 10, "seed": 3, "v2": 0.5})


def relaxation(inst):
    sf = lp.to_standard_form(inst)
    return relax.build_group_relaxation(sf, lp.solve_lp_exact(sf))


def walk_instances(seed: int) -> list[tuple[str, object]]:
    rng = random.Random(seed)
    out = []
    for t, m, style in PLANTED:
        ell = rng.randint(1, t - 1)
        inst, _ = gen.planted(t, m, ell, seed=rng.randrange(1 << 30), style=style)
        out.append((f"planted_{t}_{m}_{style}", inst))
    out.append(("cutgen_4_20_35", gen.cutgen(gen.CutStockSpec(**WALK_CUTGEN))))
    return out


def time_walks(name: str, inst, samples: int, repeat: int) -> dict:
    grd = relaxation(inst)
    fc = kernel.feasible_coset(grd)
    kb = fc.basis
    t_mix = search.default_mix_steps(fc, search.SearchConfig().epsilon)
    expander = tuple(walks.expander_generation(kb, rng=random.Random(0)))
    plan = {"plain": (kb.generators, 0.0), "expander": (expander, 0.0),
            "metropolis": (kb.generators, 1.0)}
    steps = (samples + 1) * t_mix
    ns, counts = {}, {}
    for kind, (gens, beta) in plan.items():
        best = None
        for _ in range(max(1, repeat)):
            spec = walks.CayleyWalkSpec(generators=gens, moduli=kb.moduli, rng=random.Random(0))
            z, proposals, accepted = fc.x_hat, 0, 0
            t0 = time.perf_counter()
            for _ in range(samples + 1):
                z, _, p, a = walks.walk(spec, z, t_mix, grd.cost, beta)
                proposals += p
                accepted += a
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        ns[kind] = round(best / steps * 1e9, 1)
        if kind == "metropolis":
            counts = {"proposals": proposals, "accepted": accepted}
    return {"instance": name, "d": grd.d, "k": len(kb.generators),
            "expander_k": len(expander), "t_mix": t_mix, "steps": steps,
            "ns_per_step": ns, "metropolis": counts}


def lowering_moves(spec: dict) -> dict:
    inst = gen.cutgen(gen.CutStockSpec(L=1000, dbar=10.0, **spec))
    grd = relaxation(inst)
    fc = kernel.feasible_coset(grd, True)
    kb = fc.basis
    here = grd.cost(fc.x_hat)
    costs = [grd.cost(tuple((x + a * g) % m for x, g, m in zip(fc.x_hat, h, kb.moduli)))
             for h in kb.generators for a in (1, -1)]
    return {"spec": {"L": 1000, "dbar": 10.0, **spec}, "patterns": inst.n_vars, "d": grd.d,
            "k_compressed": len(kb.generators), "moves": len(costs),
            "lowering": sum(c < here for c in costs), "x_hat_cost": str(here),
            "best_move_cost": str(min(costs, default=here)),
            "opt_b": str(search.gomory_shortest_path(grd).objective)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1,
                    help="benchmark seed that draws the planted instances (default %(default)s)")
    ap.add_argument("--samples", type=int, default=64,
                    help="MCS samples per solve; walks are samples + 1 calls (default %(default)s)")
    ap.add_argument("--repeat", type=int, default=5, help="runs per walk kind; best time")
    ap.add_argument("--skip-moves", action="store_true", help="time the walks only")
    args = ap.parse_args()
    out = {"seed": args.seed, "samples": args.samples, "repeat": max(1, args.repeat),
           "walks": [time_walks(name, inst, args.samples, args.repeat)
                     for name, inst in walk_instances(args.seed)]}
    if not args.skip_moves:
        out["single_moves"] = [lowering_moves(spec) for spec in MOVE_CUTGENS]
    out.update(python=platform.python_version(), numpy=np.__version__)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
