"""Command line interface.

Exit codes: 0 ok, 2 infeasible, 3 unbounded, 4 not a pure ILP,
5 cap or dense/pattern limit exceeded, 1 anything else.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .errors import (CapExceeded, DenseLimitExceeded, GroupRelaxError,
                     Infeasible, NotPureILP, PatternLimitExceeded, Unbounded)
from .gen import PATTERN_CAP_DEFAULT, CutStockSpec, cutgen, planted
from .kernel import feasible_coset
from .mps import emit_mps, parse_mps
from .pipeline import PipelineConfig, emit_report, fmt_int, fmt_rational, run_pipeline
from .relax import relax_ilp
from .search import METHODS, SearchConfig, gomory_shortest_path
from .spdiag import SPParams, sp_diagnose
from .walks import DENSE_LIMIT_DEFAULT


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, Infeasible):
        return 2
    if isinstance(exc, Unbounded):
        return 3
    if isinstance(exc, NotPureILP):
        return 4
    if isinstance(exc, (CapExceeded, DenseLimitExceeded, PatternLimitExceeded)):
        return 5
    return 1


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GroupRelaxError, ValueError) as exc:  # ValueError: a bad option value
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))
    return wrapper


class _Names(dict):
    """str(v) for each int v, made on first use."""

    def __missing__(self, v: int) -> str:
        s = self[v] = str(v)
        return s


def _load(path: str):
    p = Path(path)
    return parse_mps(p.read_text(), name_hint=p.stem)


seed_option = click.option("--seed", type=int, default=None, envvar="GROUPRELAX_SEED",
                           help="random seed (env GROUPRELAX_SEED)")


@click.group()
def main():
    """Exact group relaxations of pure integer programs."""


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(METHODS), default="dijkstra")
@seed_option
@click.option("--max-samples", type=int, default=64)
@click.option("--beta", type=float, default=0.0)
@click.option("--compress", is_flag=True)
@_handle_errors
def solve(file, method, seed, max_samples, beta, compress):
    """Solve the group relaxation of FILE (MPS)."""
    inst = _load(file)
    cfg = PipelineConfig(
        search=SearchConfig(method=method, seed=seed, max_samples=max_samples,
                            beta=beta),
        compress=compress,
    )
    row = run_pipeline(inst, cfg)
    click.echo(f"instance {row.instance}")
    click.echo(f"opt_lp {fmt_rational(row.opt_lp)}")
    click.echo(f"opt_b {fmt_rational(row.opt_b)}")
    if row.opt_ilp is not None:
        click.echo(f"opt_ilp {fmt_rational(row.opt_ilp)}")
    click.echo(f"k_order {fmt_int(row.k_order)}")
    click.echo(f"g_order {fmt_int(row.g_order)}")
    click.echo(f"certified {'true' if row.certified else 'false'}")


@main.command()
@click.argument("file", type=click.Path(exists=True))
@_handle_errors
def relax(file):
    """Bound chain only: exact OPT_LP and certified OPT_B."""
    grd = relax_ilp(_load(file))
    bs = grd.bs
    res = gomory_shortest_path(grd)
    click.echo(f"opt_lp {fmt_rational(bs.opt_lp)}")
    click.echo(f"opt_b {fmt_rational(res.objective)}")
    click.echo(f"r_abs {fmt_rational(res.objective - bs.opt_lp)}")
    click.echo(f"degenerate_lp {'true' if bs.degenerate_primal else 'false'}")


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--compress", is_flag=True)
@_handle_errors
def kernel(file, compress):
    """Kernel generators, orders, |K|, |G|."""
    grd = relax_ilp(_load(file))
    fc = feasible_coset(grd, compress)
    kb = fc.basis
    # the text is built once and written once; a generator row is mostly
    # zeros, so each distinct entry is formatted once (at d = 5636 the
    # 5354 rows hold 30 million entries)
    name = _Names().__getitem__
    click.echo("\n".join([
        f"moduli {' '.join(map(str, kb.moduli))}",
        f"x_hat {' '.join(map(str, fc.x_hat))}",
        *(f"gen {' '.join(map(name, h))} order {u}" for h, u in zip(kb.generators, kb.orders)),
        f"k_order {fmt_int(kb.kernel_order)}",
        f"g_order {fmt_int(kb.range_order)}",
    ]))


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--eta", type=float, default=0.5)
@click.option("--dense-limit", type=int, default=DENSE_LIMIT_DEFAULT,
              help="cap on |K|, the coset states diagnosed; memory is O(|K| k)")
@click.option("--mu-sweep", type=int, default=8)
@_handle_errors
def diagnose(file, eta, dense_limit, mu_sweep):
    """Short-path spectral diagnostics on at most --dense-limit coset
    states (sparse Lanczos ground states, gap from characters)."""
    grd = relax_ilp(_load(file))
    fc = feasible_coset(grd)
    rep = sp_diagnose(grd, fc, SPParams(eta=eta, dense_limit=dense_limit,
                                        mu_sweep=mu_sweep))
    def emit(k, v):
        click.echo(f"{k},{v}")
    emit("k_order", rep.k_order)
    emit("kstar_order", rep.kstar_order)
    emit("g_order", rep.g_order)
    emit("e_star", fmt_rational(rep.e_star))
    emit("shift_c", fmt_rational(rep.shift_c))
    emit("cyclic_norm_max", fmt_rational(rep.cyclic_norm_max))
    # the one-step cost-change bound delta_p is max_j cyclic_norm(h_j)
    emit("delta_p_bound", fmt_rational(rep.cyclic_norm_max))
    emit("omega_hat", float(rep.omega_hat))
    emit("delta", rep.delta)
    emit("gamma_plain", rep.gamma_plain)
    emit("gamma_trunc", rep.gamma_trunc)
    emit("mu_star_ls", rep.mu_star_ls)
    emit("mu_star_gap", rep.mu_star_gap)
    emit("mu", rep.mu)
    emit("alpha_hat", rep.alpha_hat)
    emit("r1", rep.condition_26a.ratio)
    emit("r1_in_band", rep.condition_26a.in_band)
    emit("r2", rep.condition_26b.ratio)
    emit("r2_in_band", rep.condition_26b.in_band)
    emit("degenerate", rep.degenerate)
    emit("sublevel_mass", rep.sublevel_mass)
    for mu_i, ov in rep.overlap_curve:
        emit("overlap", f"{mu_i:.6g}:{ov:.10g}")


@main.group()
def gen():
    """Instance generators."""


@gen.command("cutgen")
@click.option("--m", "m_", type=int, required=True)
@click.option("--v1", type=float, default=0.01)
@click.option("--v2", type=float, required=True)
@click.option("--l", "--L", "length", type=int, default=1000)
@click.option("--dbar", type=float, required=True)
@seed_option
@click.option("--pattern-cap", type=int, default=PATTERN_CAP_DEFAULT, show_default=True,
              help="Most maximal patterns to enumerate (exit 5 past it).")
@click.option("--out", type=click.Path(), required=True)
@_handle_errors
def gen_cutgen(m_, v1, v2, length, dbar, seed, pattern_cap, out):
    """Cutting-stock instance over all maximal patterns."""
    spec = CutStockSpec(m=m_, v1=v1, v2=v2, L=length, dbar=dbar,
                        seed=seed if seed is not None else 0, pattern_cap=pattern_cap)
    inst = cutgen(spec)
    Path(out).write_text(emit_mps(inst))
    click.echo(f"wrote {out} ({inst.n_vars} patterns)")


@gen.command("planted")
@click.option("--t", "t_", type=int, required=True)
@click.option("--m", "m_", type=int, required=True)
@click.option("--ell", type=int, default=1)
@seed_option
@click.option("--style", type=click.Choice(["identity", "random-lower-unit"]),
              default="identity")
@click.option("--out", type=click.Path(), required=True)
@_handle_errors
def gen_planted(t_, m_, ell, seed, style, out):
    """Instance with known group-relaxation structure."""
    inst, meta = planted(t_, m_, ell, seed=seed if seed is not None else 0,
                         style=style)
    Path(out).write_text(emit_mps(inst))
    click.echo(f"wrote {out} (opt_b {meta['opt_b']}, |K| {meta['k_order']})")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--out", type=click.Path(), default="report.csv")
@click.option("--method", type=click.Choice(METHODS), default="dijkstra")
@seed_option
@click.option("--compress", is_flag=True)
@click.option("--fixed-wall", is_flag=True, help="pin wall_ms to 0 for reproducible bytes")
@_handle_errors
def report(directory, out, method, seed, compress, fixed_wall):
    """Run the pipeline over every .mps file in DIRECTORY."""
    paths = sorted(Path(directory).glob("*.mps"))
    if not paths:
        raise ValueError(f"no .mps file in {directory}")
    rows = []
    for path in paths:
        inst = parse_mps(path.read_text(), name_hint=path.stem)
        cfg = PipelineConfig(
            search=SearchConfig(method=method, seed=seed),
            compress=compress,
            record_wall=not fixed_wall,
        )
        rows.append(run_pipeline(inst, cfg))
    rows.sort(key=lambda r: r.instance)
    text = emit_report(rows)
    Path(out).write_text(text)
    click.echo(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
