"""grouprelax benchmark.

    python3 perfbench/run.py --workload {ladder,corpus} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One process drives the library in-process
(a closed loop with one client): whole passes over the workload's ops run
until the time is spent, each after a timed set-up, then every output of
the first pass is checked against independent oracles and every later pass
against the first.

Times are best-of-passes: each op's time is its fastest over the run's
passes, and a pass, an instance or a command kind costs the sum of its ops'
best times (plus, for a pass, the fastest of its work outside ops). On a
shared 2-vCPU VM whose speed swings by up to 1.6x, for seconds to minutes
at a time, the median over a run's passes follows the swings; the best
time of an op sampled once a pass across the run is what the op costs when
the host is least loaded, and moves much less.

On the ladder workload every reported time is then scaled to a fixed host
speed: multiplied by the workload's ref_s over the run's best time of a
fixed pure-Python reference op that calls no grouprelax code, timed once
after every pass. When the host stays slow for a whole run, the reference
slows with it: on that VM, over five 60-s ladder runs, the quartile spread
of the best-of pass time was 35% raw and 7% scaled. Corpus times are not
scaled (see workloads.Corpus). Raw times, pass medians and reference times
are kept in the run record; per-layer times from --trace 1 are raw.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The line before it is the run record:
run conditions, the named per-workload figures, failures by exception
type, and the layer -> end-to-end predictions.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes, reports per-layer self times and counts from the traced
ones, and writes every span once at the end to perfbench/out/.
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
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 3          # untraced run
MIN_PASSES_TRACED = 2   # each of untraced and traced, in a traced run

# layer metric -> the end-to-end figures (workload) it should move
PREDICTIONS = {
    "lp.to_standard_form.self_s": "relax_s, kernel_s (ladder); instance_s_p50 (corpus)",
    "lp.solve_lp_exact.self_s": "relax_s, kernel_s (ladder); instance_s_p50 (corpus)",
    "exact.snf.self_s": "kernel_s (ladder); one call per coset fewer after ROADMAP item 1",
    "exact.solve_rational.self_s": "relax_s (ladder); instance_s_p50 (corpus)",
    "relax.build_group_relaxation.self_s": "relax_s (ladder)",
    "relax.lift_to_ilp.self_s": "relax_s (ladder)",
    "kernel.feasible_coset.self_s": "kernel_s (ladder)",
    "kernel.compress_coset.self_s": "kernel_s (ladder)",
    "kernel.enumerate_coset.points": "diagnose_s (ladder)",
    "search.gomory_shortest_path.self_s": "relax_s (ladder); instance_s_p50 (corpus)",
    "search.markov_chain_search.self_s": "mcs_s (ladder)",
    "search.brute_force_ilp.self_s": "instance_s_p50, instance_s_p95, report_s, peak_rss_mb (corpus)",
    "walks.step.self_s": "mcs_s (ladder)",
    "walks.metropolis_step.self_s": "mcs_s (ladder)",
    "walks.expander_generation.self_s": "mcs_s (ladder)",
    "walks.transition_matrix.self_s": "diagnose_s (ladder)",
    "walks.pseudo_lipschitz.self_s": "diagnose_s (ladder)",
    "walks.spectral_gap.self_s": "diagnose_s (ladder)",
    "spdiag.ground_overlap.self_s": "diagnose_s (ladder)",
    "spdiag.sp_diagnose.self_s": "diagnose_s (ladder)",
    "mps.parse_mps.self_s": "report_s (corpus)",
    "mps.emit_mps.self_s": "setup_s (all)",
    "gen.cutgen.self_s": "setup_s (all)",
    "gen.planted.self_s": "setup_s (all)",
    "pipeline.run_pipeline.self_s": "report_s (corpus)",
    "pipeline.emit_report.self_s": "report_s (corpus)",
}
# end-to-end metric: unit
END_TO_END = {"setup_s": "s", "pass_s": "s", "instance_s_p50": "s",
              "instance_s_p95": "s", "opt_rate": "ratio", "peak_rss_mb": "MB"}


@dataclass(slots=True)
class Op:
    kind: str
    name: str
    seconds: float
    error: str | None   # exception type name when the op raised
    text: str | None    # CLI-style output, or the exception message
    data: dict | None   # objects for the output checks (first pass only)


class Runner:
    """Times each op and records its failure by exception type."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []

    def __call__(self, kind, name, fn) -> Op:
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.op(kind):
                    text, data = fn()
            else:
                text, data = fn()
            err = None
        except Exception as exc:  # counted against ops attempted, never dropped
            text, data, err = str(exc), None, type(exc).__name__
        op = Op(kind, name, perf_counter() - t0, err, text, data)
        self.ops.append(op)
        return op


def best_of_passes(passes: list[list[Op]], pass_s: list[float]):
    """Each op's fastest time over the passes, keyed by (kind, name), and
    the fastest of a pass's time outside its ops (file reads, report
    writing). Failed ops have no time."""
    best: dict[tuple[str, str], float] = {}
    for ops in passes:
        for op in ops:
            if op.error is None:
                key = (op.kind, op.name)
                best[key] = min(best.get(key, math.inf), op.seconds)
    outside = min(dt - sum(op.seconds for op in ops) for ops, dt in zip(passes, pass_s))
    return best, outside


def time_import() -> float:
    """Seconds to import grouprelax in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import grouprelax; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "grouprelax" / "__init__.py").is_file():
        print(f"error: no grouprelax package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import grouprelax
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(parents=True, exist_ok=True)
    inst_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None

    setup_s = []

    def setup() -> None:
        """One timed set-up: a fresh interpreter's import of grouprelax, then
        instance generation, MPS writes and a BLAS warm-up in this process.
        Runs before every pass, so its median samples the whole run."""
        imp = time_import()
        if tracer:
            tracer.install()
            tracer.begin("setup", len(setup_s))
        t0 = perf_counter()
        wl.setup(args.seed, inst_dir)
        np.linalg.eigh(np.eye(64) + 1e-3)
        setup_s.append(imp + perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    try:
        inst_dir.mkdir(parents=True, exist_ok=True)
        setup()
        probe = wl.probe(args.seed) if hasattr(wl, "probe") else None

        passes: list[list[Op]] = []
        times = {"untraced": [], "traced": []}
        ref_s: list[float] = []
        with workloads.Capture() as capture:
            t_start = perf_counter()
            while True:
                if passes:
                    setup()
                traced = tracer is not None and len(passes) % 2 == 1
                runner = Runner(tracer if traced else None)
                if traced:
                    tracer.install()
                    tracer.begin("pass", len(passes))
                t0 = perf_counter()
                wl.run_pass(runner, capture)
                dt = perf_counter() - t0
                if traced:
                    tracer.uninstall()
                times["traced" if traced else "untraced"].append(dt)
                if wl.reference_op is not None:
                    r0 = perf_counter()
                    wl.reference_op()
                    ref_s.append(perf_counter() - r0)
                if passes:  # only the first pass's outputs are checked in full
                    for op in runner.ops:
                        op.data = None
                passes.append(runner.ops)
                enough = (min(len(v) for v in times.values()) >= MIN_PASSES_TRACED
                          if tracer else len(passes) >= MIN_PASSES)
                spent = perf_counter() - t_start
                if enough and spent + statistics.median(times["untraced"] + times["traced"]) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wrong: list[tuple[str, str]] = []
        detail = wl.check(passes[0], wrong)
        workloads.check_determinism(passes, wrong)
    finally:
        shutil.rmtree(inst_dir, ignore_errors=True)

    all_ops = [op for ops in passes for op in ops]
    failures = Counter(op.error for op in all_ops if op.error is not None)
    untraced = [ops for i, ops in enumerate(passes) if tracer is None or i % 2 == 0]
    best, outside = best_of_passes(untraced, times["untraced"])
    # an instance's latency: all of its ops, as a user running the commands
    # on that one file would wait for them. p95 is by nearest rank, so with
    # 200 instances it has 10 beyond it, and with a handful it is the
    # slowest one. An instance with a failed op has no latency.
    per_inst = Counter()
    for (kind, name), t in best.items():
        per_inst[name.split(":")[0]] += t
    failed = {op.name.split(":")[0] for op in all_ops if op.error is not None}
    lat = sorted(v for k, v in per_inst.items() if k not in failed)
    named = {}
    for kind in sorted({op.kind for op in all_ops}):
        named[f"{kind}_s"] = sum(t for (k, _), t in best.items() if k == kind)

    raw = {
        "setup_s": statistics.median(setup_s),
        "pass_s": sum(best.values()) + outside,
        "instance_s_p50": statistics.median(lat),
        "instance_s_p95": lat[math.ceil(0.95 * len(lat)) - 1],
    }
    scale = wl.ref_s / min(ref_s) if ref_s else 1.0
    e2e = {k: v * scale for k, v in raw.items()}
    e2e.update(opt_rate=detail.pop("opt_rate"), peak_rss_mb=peak_rss_mb)
    named = {k: v * scale for k, v in named.items()}
    if args.workload == "corpus":
        named = {"report_s": e2e["pass_s"]}
    if args.workload == "ladder":
        named["mcs_opt_rate"] = e2e["opt_rate"]

    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "conditions": {
            "process": "single process, closed loop, one client",
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "grouprelax": grouprelax.__version__,
        },
        "passes": {k: len(v) for k, v in times.items()},
        "time_scale": ({"ref_s": wl.ref_s, "ref_best_s": min(ref_s), "factor": scale,
                        "ref_s_each": ref_s} if ref_s else None),
        "raw_s": raw,
        "pass_s_each": times,
        "pass_s_median": statistics.median(times["untraced"]),
        "setup_s_each": setup_s,
        "ops_per_pass": len(passes[0]),
        "first_pass_ops": [(op.kind, op.name, op.seconds, op.error) for op in passes[0]],
        "op_best_raw_s": {f"{kind} {name}": t for (kind, name), t in best.items()},
        "instances_per_pass": len(lat),
        "named": {k: {"value": v, "unit": "ratio" if k.endswith("rate") else "s"}
                  for k, v in named.items()},
        "failures_by_type": dict(failures),
        "failure_examples": [(op.name, op.error, op.text) for op in all_ops if op.error][:10],
        "wrong": len(wrong), "wrong_first": wrong[:20],
        **detail,
        "predictions": PREDICTIONS,
    }
    if probe is not None:
        record["probe"] = probe

    if tracer:
        layers = tracer.per_layer(times["traced"], times["untraced"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.per_layer_names()}
        record["stage_table"] = tracer.stage_table()
        record["self_share_by_op"] = tracer.self_share_by_op()
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"record": record, "per_layer": layers,
                                          "spans": tracer.span_records()}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": not wrong and not failures,
        "attempted": len(all_ops),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
