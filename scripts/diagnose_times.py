"""Wall time and peak RSS of ``sp_diagnose`` on planted cosets, as JSON.

    PYTHONPATH=src python3 scripts/diagnose_times.py
    PYTHONPATH=src python3 scripts/diagnose_times.py --case 2,12 --case 10,5

Each case (t, m) is planted(t, m, 1, seed=7) in identity style, |K| = t^m,
diagnosed with dense_limit = |K| and the CLI's defaults (eta 0.5, an
8-point mu sweep), on one BLAS thread, with scipy imported before the
clock starts; with --repeat N the best of N runs is reported. Every
case runs in its own child process under a 4000-MB address-space
limit, so its peak RSS (``ru_maxrss``) is its own, and a tree that
would need more memory fails with MemoryError instead of exhausting
the host. It prints one JSON object
per case and then a summary object. The script calls the library
through its module functions only, so it also times older trees of the
package (point PYTHONPATH at their src).
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time

CASES = ((2, 12), (4, 6), (2, 17), (10, 5))
SEED = 7
MEM_LIMIT_MB = 4000


def run_case(t: int, m: int, repeat: int) -> dict:
    limit = MEM_LIMIT_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import numpy as np
    import scipy.sparse.linalg  # noqa: F401  imported before the clock starts

    from grouprelax import gen, kernel, lp, relax, spdiag

    out = {"t": t, "m": m, "seed": SEED, "mem_limit_mb": MEM_LIMIT_MB, "repeat": repeat}
    inst, _ = gen.planted(t, m, 1, seed=SEED)
    sf = lp.to_standard_form(inst)
    grd = relax.build_group_relaxation(sf, lp.solve_lp_exact(sf))
    fc = kernel.feasible_coset(grd)
    out["k_order"] = fc.basis.kernel_order
    params = spdiag.SPParams(eta=0.5, dense_limit=fc.basis.kernel_order, mu_sweep=8)
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        try:
            rep = spdiag.sp_diagnose(grd, fc, params)
        except MemoryError:
            out["error"] = "MemoryError"
        else:
            out["delta"] = rep.delta
            out["overlap_mu0"] = rep.overlap_curve[0][1]
        best = min(best, time.perf_counter() - t0)
        if "error" in out:
            break
    out["diagnose_s"] = round(best, 4)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    out["numpy"] = np.__version__
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", default=[],
                    help="t,m of a planted case; repeatable (default: 2,12 4,6 2,17 10,5)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="diagnose runs per case; the best time is kept (default %(default)s)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    cases = [tuple(map(int, c.split(","))) for c in args.case] or list(CASES)
    if args.child:
        (t, m), = cases
        print(json.dumps(run_case(t, m, max(1, args.repeat))))
        return
    results = []
    for t, m in cases:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--case", f"{t},{m}", "--repeat", str(args.repeat)],
            capture_output=True, text=True, env=os.environ)
        if proc.returncode:
            res = {"t": t, "m": m, "seed": SEED, "error": f"exit {proc.returncode}",
                   "stderr_tail": proc.stderr.strip().splitlines()[-1:]}
        else:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(res), flush=True)
        results.append(res)
    print(json.dumps({"cases": len(results), "python": platform.python_version(),
                      "machine": platform.machine()}))


if __name__ == "__main__":
    main()
