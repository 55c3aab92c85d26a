"""In-memory span tracer that wraps grouprelax's public functions from the
benchmark's side, without touching the package.

Each caller inside the package imported the functions it uses by name
(``from .exact import snf``), so wrapping means replacing that name in
every grouprelax module that holds the same function object. ``uninstall``
puts the originals back.

A span is (id, parent id, name, start, end). A layer's self time is its
span's duration minus the part covered by its child spans; the wrapper's
own bookkeeping is charged to neither. Hot leaf functions (one call per
walk step) are aggregated into counts and times only, so a traced run does
not keep millions of spans. Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter

from grouprelax.errors import CapExceeded


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


# counter hooks: hook(counts, args, result) after a call returns

def _lp(c, args, res):
    c["lp.columns"] = c.get("lp.columns", 0) + args[0].A.cols


def _snf(c, args, res):
    M = args[0]
    c["exact.snf.max_dim"] = max(c.get("exact.snf.max_dim", 0), M.rows, M.cols)
    bits = max(_max_bits(M.data), _max_bits([res.D]), _max_bits(res.U.data),
               _max_bits(res.V.data), _max_bits(res.Uinv.data), _max_bits(res.Vinv.data))
    c["exact.snf.max_entry_bits"] = max(c.get("exact.snf.max_entry_bits", 0), bits)


def _relax(c, args, res):
    c["relax.d"] = c.get("relax.d", 0) + res.d
    c["relax.dropped"] = c.get("relax.dropped", 0) + len(res.dropped_cols)


def _coset(c, args, res):
    kb = res.basis
    c["kernel.generators"] = c.get("kernel.generators", 0) + len(kb.generators)
    log2k = math.log2(kb.kernel_order) if kb.kernel_order > 1 else 0.0
    c["kernel.log2_k_order"] = max(c.get("kernel.log2_k_order", 0.0), log2k)
    c["kernel.g_order"] = max(c.get("kernel.g_order", 0), kb.range_order)


def _compress(c, args, res):
    c["kernel.compressed_generators"] = (c.get("kernel.compressed_generators", 0)
                                         + len(res.basis.generators))


def _dijkstra(c, args, res):
    c["search.gomory_shortest_path.nodes_settled"] = (
        c.get("search.gomory_shortest_path.nodes_settled", 0) + res.samples_used)


def _mcs(c, args, res):
    c["search.mcs.samples"] = c.get("search.mcs.samples", 0) + res.samples_used


def _mix(c, args, res):
    c["search.mcs.mix_steps"] = c.get("search.mcs.mix_steps", 0) + res


def _brute(c, args, res):
    inst, box = args[0], args[1]
    c["search.brute_force_ilp.points_scanned"] = (
        c.get("search.brute_force_ilp.points_scanned", 0) + (box + 1) ** inst.n_vars)


# (module, function, counter hook, hot); module names are grouprelax.<module>
TRACED = (
    ("lp", "to_standard_form", None, False),
    ("lp", "solve_lp_exact", _lp, False),
    ("exact", "snf", _snf, False),
    ("exact", "solve_rational", None, False),
    ("relax", "build_group_relaxation", _relax, False),
    ("relax", "lift_to_ilp", None, False),
    ("kernel", "feasible_coset", _coset, False),
    ("kernel", "compress_coset", _compress, False),
    ("search", "gomory_shortest_path", _dijkstra, False),
    ("search", "markov_chain_search", _mcs, False),
    ("search", "default_mix_steps", _mix, False),
    ("search", "brute_force_ilp", _brute, False),
    ("walks", "step", None, True),
    ("walks", "metropolis_step", None, True),
    ("walks", "expander_generation", None, False),
    ("walks", "transition_matrix", None, False),
    ("walks", "pseudo_lipschitz", None, False),
    ("walks", "spectral_gap", None, False),
    ("spdiag", "ground_overlap", None, False),
    ("spdiag", "sp_diagnose", None, False),
    ("mps", "parse_mps", None, False),
    ("mps", "emit_mps", None, False),
    ("gen", "cutgen", None, False),
    ("gen", "planted", None, False),
    ("pipeline", "run_pipeline", None, False),
    ("pipeline", "emit_report", None, False),
)

# ROADMAP's baseline stage columns, as inclusive times of these spans
STAGES = (
    ("standard_form", ("lp.to_standard_form",)),
    ("lp", ("lp.solve_lp_exact",)),
    ("relaxation_snf", ("relax.build_group_relaxation",)),
    ("coset", ("kernel.feasible_coset",)),
    ("compression", ("kernel.compress_coset",)),
    ("solve", ("search.gomory_shortest_path", "search.markov_chain_search")),
    ("oracle_scan", ("search.brute_force_ilp",)),
    ("diagnostics", ("spdiag.sp_diagnose",)),
)

SETUP_LAYERS = ("mps.emit_mps", "gen.cutgen", "gen.planted")

# per-layer metrics besides self times and stages, with units; the *.calls
# come from the call aggregates, accept_ratio from the Metropolis tallies
SELF_TIMED = [f"{mod}.{fn}" for mod, fn, _, _ in TRACED if fn != "default_mix_steps"]
COUNTED = {
    "lp.solve_lp_exact.calls": "count", "lp.columns": "count",
    "exact.snf.calls": "count", "exact.snf.max_dim": "count",
    "exact.snf.max_entry_bits": "bits",
    "relax.d": "count", "relax.dropped": "count",
    "kernel.generators": "count", "kernel.log2_k_order": "bits",
    "kernel.g_order": "count", "kernel.compressed_generators": "count",
    "kernel.enumerate_coset.points": "count",
    "search.gomory_shortest_path.nodes_settled": "count",
    "search.mcs.samples": "count", "search.mcs.mix_steps": "count",
    "search.brute_force_ilp.points_scanned": "count",
    "search.brute_force_ilp.cap_exceeded": "count",
    "walks.step.calls": "count", "walks.metropolis_step.calls": "count",
    "walks.metropolis_step.accept_ratio": "ratio",
}
CALLS_FROM_AGG = ("lp.solve_lp_exact", "exact.snf", "walks.step", "walks.metropolis_step")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{name}.self_s", "s") for name in SELF_TIMED]
    out += list(COUNTED.items())
    out += [(f"stage.{stage}_s", "s") for stage, _ in STAGES]
    out += [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    return out


class Segment:
    """Aggregates of one setup repetition or one pass."""

    def __init__(self, kind: str, index: int):
        self.kind = kind
        self.index = index
        self.agg: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.by_op: dict[str, dict[str, float]] = {}  # op kind -> name -> self_s
        self.counts: dict[str, float] = {}
        self.proposals = 0               # non-lazy Metropolis proposals
        self.accepted = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.segments: list[Segment] = []
        self.seg: Segment | None = None
        self._stack = [[0.0, 0]]  # frames: [child-covered seconds, span id]
        self._next_id = 1
        self._patched: list[tuple] = []
        self._last_step = None
        self.op_kind: str | None = None  # kind of the benchmark op running

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "grouprelax" or n.startswith("grouprelax.")]
        for modname, fn, hook, hot in TRACED:
            orig = getattr(sys.modules[f"grouprelax.{modname}"], fn)
            self._patch(mods, fn, orig, self._wrap(f"{modname}.{fn}", orig, hook, hot))
        orig = sys.modules["grouprelax.kernel"].enumerate_coset
        self._patch(mods, "enumerate_coset", orig,
                    self._wrap_generator("kernel.enumerate_coset.points", orig))

    def _patch(self, mods, fn, orig, replacement) -> None:
        """Replace the name in every module that imported this function."""
        for m in mods:
            if getattr(m, fn, None) is orig:
                self._patched.append((m, fn, orig))
                setattr(m, fn, replacement)

    def uninstall(self) -> None:
        for m, fn, orig in reversed(self._patched):
            setattr(m, fn, orig)
        self._patched.clear()

    def begin(self, kind: str, index: int) -> None:
        self.seg = Segment(kind, index)
        self.segments.append(self.seg)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, hook, hot):
        stack = self._stack
        tracer = self
        is_step = name == "walks.step"
        is_metropolis = name == "walks.metropolis_step"

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                tracer._account(name, span_id, t0, t1, frame[0], hot)
                if isinstance(exc, CapExceeded):
                    c = tracer.seg.counts
                    c[f"{name}.cap_exceeded"] = c.get(f"{name}.cap_exceeded", 0) + 1
                stack[-1][0] += perf_counter() - t_enter
                raise
            t1 = perf_counter()
            stack.pop()
            tracer._account(name, span_id, t0, t1, frame[0], hot)
            if is_step:
                tracer._last_step = result
            elif is_metropolis:
                proposal = tracer._last_step
                if proposal != args[0]:
                    tracer.seg.proposals += 1
                    if result == proposal:
                        tracer.seg.accepted += 1
            if hook is not None:
                hook(tracer.seg.counts, args, result)
            stack[-1][0] += perf_counter() - t_enter
            return result

        return wrapper

    def _wrap_generator(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                c = tracer.seg.counts
                c[counter] = c.get(counter, 0) + 1
                yield item

        return wrapper

    def _account(self, name, span_id, t0, t1, child, hot):
        a = self.seg.agg.get(name)
        if a is None:
            a = self.seg.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += t1 - t0
        a[2] += (t1 - t0) - child
        if self.op_kind is not None:
            d = self.seg.by_op.setdefault(self.op_kind, {})
            d[name] = d.get(name, 0.0) + (t1 - t0) - child
        if not hot:
            self.spans.append((span_id, self._stack[-1][1], name, t0, t1,
                               self.seg.kind, self.seg.index))

    def op(self, name: str):
        """Root span around one benchmark op; its self time is the op's
        work outside every traced layer."""
        return _OpSpan(self, name)

    # -- reading -------------------------------------------------------------

    def segment_metrics(self, seg: Segment) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = seg.agg.get(name, [0, 0.0, 0.0])[2]
        for name, _ in COUNTED.items():
            out[name] = seg.counts.get(name, 0)
        for name in CALLS_FROM_AGG:
            out[f"{name}.calls"] = seg.agg.get(name, [0])[0]
        out["walks.metropolis_step.accept_ratio"] = (
            seg.accepted / seg.proposals if seg.proposals else 0.0)
        for stage, names in STAGES:
            out[f"stage.{stage}_s"] = sum(seg.agg.get(n, [0, 0.0])[1] for n in names)
        return out

    def per_layer(self, traced_pass_s, untraced_pass_s) -> dict[str, float]:
        """Medians over traced passes; setup-only layers use the medians
        over setup repetitions. The overhead compares the fastest traced
        and untraced passes."""
        passes = [self.segment_metrics(s) for s in self.segments if s.kind == "pass"]
        setups = [self.segment_metrics(s) for s in self.segments if s.kind == "setup"]
        out = {}
        for name, _ in per_layer_names():
            src = setups if name.rsplit(".", 1)[0] in SETUP_LAYERS else passes
            vals = [m[name] for m in src if name in m]
            out[name] = statistics.median(vals) if vals else 0.0
        t, u = min(traced_pass_s), min(untraced_pass_s)
        out["trace.overhead_s"] = t - u
        out["trace.overhead_share"] = (t - u) / u
        return out

    def self_share_by_op(self, top: int = 5) -> dict[str, dict]:
        """Per op kind, over the traced passes: the layers with the largest
        share of self time, and the share of walks.* and spdiag.* layers."""
        out = {}
        for kind in sorted({k for s in self.segments for k in s.by_op}):
            tot: dict[str, float] = {}
            for s in self.segments:
                if s.kind == "pass":
                    for name, v in s.by_op.get(kind, {}).items():
                        tot[name] = tot.get(name, 0.0) + v
            whole = sum(tot.values()) or 1.0
            ranked = sorted(tot.items(), key=lambda kv: -kv[1])[:top]
            out[kind] = {"top": {n: v / whole for n, v in ranked},
                         "walks_spdiag": sum(v for n, v in tot.items()
                                             if n.startswith(("walks.", "spdiag."))) / whole}
        return out

    def stage_table(self) -> list[dict]:
        rows = []
        for s in self.segments:
            if s.kind != "pass":
                continue
            m = self.segment_metrics(s)
            rows.append({"pass": s.index,
                         **{stage: m[f"stage.{stage}_s"] for stage, _ in STAGES}})
        return rows

    def span_records(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "start": a, "end": b,
                 "segment": f"{k}{x}"} for i, p, n, a, b, k, x in self.spans]


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.frame = [0.0, self.id]
        tr._stack.append(self.frame)
        tr.op_kind = self.name
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr._account(f"op.{self.name}", self.id, self.t0, t1, self.frame[0], False)
        tr.op_kind = None
        return False
