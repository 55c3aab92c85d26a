"""CLI surface: subcommands, exit codes, reproducible report bytes."""

import pytest
import scipy.sparse.linalg
from click.testing import CliRunner

from grouprelax import search, spdiag
from grouprelax.cli import main
from tests.test_spdiag import second_eigenpair


def run(args, **kw):
    return CliRunner().invoke(main, args, **kw)


def write_planted(tmp_path, t=2, m=2, name="p.mps"):
    path = tmp_path / name
    res = run(["gen", "planted", "--t", str(t), "--m", str(m),
               "--ell", "1", "--out", str(path)])
    assert res.exit_code == 0, res.output
    return path


def test_solve_dijkstra(tmp_path):
    path = write_planted(tmp_path)
    res = run(["solve", str(path), "--method", "dijkstra"])
    assert res.exit_code == 0, res.output
    assert "opt_b 2" in res.output
    assert "opt_ilp 2" in res.output
    assert "certified true" in res.output


def test_solve_mcs_prints_no_ilp_optimum(tmp_path):
    path = write_planted(tmp_path)
    res = run(["solve", str(path), "--method", "mcs", "--seed", "1"])
    assert res.exit_code == 0, res.output
    assert "opt_b 2" in res.output
    assert "opt_ilp" not in res.output
    assert "certified false" in res.output


def test_relax_and_kernel(tmp_path):
    path = write_planted(tmp_path)
    res = run(["relax", str(path)])
    assert res.exit_code == 0
    assert "opt_lp 0" in res.output and "opt_b 2" in res.output

    res = run(["kernel", str(path)])
    assert res.exit_code == 0
    assert "k_order 4" in res.output and "g_order 4" in res.output

    res = run(["kernel", str(path), "--compress"])
    assert res.exit_code == 0
    assert "k_order 1" in res.output


def test_solve_brute_bytes_pinned(tmp_path):
    # planted t=3 m=4 ell=2 seed 5, random-lower-unit: |K| = 81, and the
    # compressed coset is one point
    path = tmp_path / "p.mps"
    res = run(["gen", "planted", "--t", "3", "--m", "4", "--ell", "2", "--seed", "5",
               "--style", "random-lower-unit", "--out", str(path)])
    assert res.exit_code == 0, res.output
    head = "instance planted_t3_m4_l2_random-lower-unit_s5\nopt_lp 0\nopt_b 8\nopt_ilp 8\n"
    for flags, k_order in (([], 81), (["--compress"], 1)):
        res = run(["solve", str(path), "--method", "brute", *flags])
        assert res.exit_code == 0, res.output
        assert res.output == head + f"k_order {k_order}\ng_order 81\ncertified true\n"


def test_diagnose(tmp_path):
    path = write_planted(tmp_path, m=3)
    res = run(["diagnose", str(path), "--mu-sweep", "4"])
    assert res.exit_code == 0, res.output
    assert "k_order,8" in res.output
    assert "r2,4.0" in res.output


def test_infeasible_exit_code(tmp_path):
    path = tmp_path / "bad.mps"
    path.write_text(
        "NAME bad\nROWS\n N COST\n E r1\nCOLUMNS\n"
        "    M 'MARKER' 'INTORG'\n    x1 COST 1\n    x1 r1 2\n"
        "    M 'MARKER' 'INTEND'\nRHS\n    RHS r1 1\nENDATA\n"
    )
    res = run(["solve", str(path)])
    assert res.exit_code == 2


def test_dijkstra_cap_exit_code(tmp_path, monkeypatch):
    # |G| = 4096 on planted (2,12); relax runs Dijkstra with the default cap
    monkeypatch.setattr(search.gomory_shortest_path, "__defaults__", (100,))
    path = write_planted(tmp_path, m=12)
    res = run(["relax", str(path)])
    assert res.exit_code == 5
    assert "error: Dijkstra reached more than 100 residues" in res.output


def test_mcs_cap_exit_code(tmp_path):
    # default_mix_steps plans 3267173 steps a walk here, 2.1e8 in all;
    # the default cap of 10^6 stops the search before its burn-in
    path = tmp_path / "c.mps"
    res = run(["gen", "cutgen", "--m", "3", "--l", "30", "--v2", "0.8", "--dbar", "2",
               "--seed", "2", "--out", str(path)])
    assert res.exit_code == 0, res.output
    res = run(["solve", str(path), "--method", "mcs", "--seed", "1"])
    assert res.exit_code == 5, res.output
    assert "error: MCS would walk 3267173 steps, past the cap of 1000000" in res.output


def test_huge_exponent_exits_1(tmp_path):
    path = tmp_path / "big.mps"
    path.write_text("NAME big\nROWS\n N COST\n L R1\nCOLUMNS\n    M1 'MARKER' 'INTORG'\n"
                    "    x1 COST 1\n    x1 R1 1\n    M1 'MARKER' 'INTEND'\n"
                    "RHS\n    RHS R1 1e100000000\nENDATA\n")
    res = run(["relax", str(path)])
    assert res.exit_code == 1 and "exponent" in res.output, res.output


def huge_coefficient_model(tmp_path, a):
    """One >= row a·x1 + 3·x2 >= 1: r_max = a, a prime."""
    path = tmp_path / "huge.mps"
    path.write_text("NAME huge\nROWS\n N COST\n G R1\nCOLUMNS\n    M1 'MARKER' 'INTORG'\n"
                    f"    x1 COST 1\n    x1 R1 {a}\n    x2 COST 1\n    x2 R1 3\n"
                    "    M1 'MARKER' 'INTEND'\nRHS\n    RHS R1 1\nENDATA\n")
    return path


def test_compress_factors_a_61_bit_prime(tmp_path):
    # the column orders divide r_max = 2^61 - 1, which trial division to
    # its square root would take minutes to factor
    res = run(["kernel", "--compress", str(huge_coefficient_model(tmp_path, 2**61 - 1))])
    assert res.exit_code == 0, res.output
    assert f"k_order {2**61 - 1}\ng_order {2**61 - 1}\n" in res.output


def test_compress_uncertified_prime_exits_5(tmp_path):
    # 2^89 - 1 is prime, but past the bound where Miller–Rabin proves it
    res = run(["kernel", "--compress", str(huge_coefficient_model(tmp_path, 2**89 - 1))])
    assert res.exit_code == 5 and "cannot prove" in res.output, res.output


def test_coset_uncertified_prime_exits_5(tmp_path):
    # the coset's elimination factors r_max as compression does, so the
    # uncompressed kernel and the coset's other readers stop there too
    path = str(huge_coefficient_model(tmp_path, 2**89 - 1))
    for args in (["kernel", path], ["solve", path, "--method", "mcs"],
                 ["solve", path, "--method", "brute"]):
        res = run(args)
        assert res.exit_code == 5 and "cannot prove" in res.output, (args, res.output)


def test_group_infeasible_coset_exits_2(tmp_path):
    # 2 x1 = 1: the LP is feasible, the group system mod 2 is not
    path = tmp_path / "bad.mps"
    path.write_text(
        "NAME bad\nROWS\n N COST\n E r1\nCOLUMNS\n"
        "    M 'MARKER' 'INTORG'\n    x1 COST 1\n    x1 r1 2\n"
        "    M 'MARKER' 'INTEND'\nRHS\n    RHS r1 1\nENDATA\n"
    )
    res = run(["kernel", str(path)])
    assert res.exit_code == 2, res.output
    assert "error: Abold x = bbold has no solution mod 2^1" in res.output


def test_not_pure_ilp_exit_code(tmp_path):
    path = tmp_path / "cont.mps"
    path.write_text(
        "NAME cont\nROWS\n N COST\n L r1\nCOLUMNS\n"
        "    x1 COST 1\n    x1 r1 1\nRHS\n    RHS r1 3\nENDATA\n"
    )
    res = run(["solve", str(path)])
    assert res.exit_code == 4


def redundant_row_model(tmp_path, cost_x):
    """One equality row 0·x + 0·y = 0: the rank repair drops it."""
    path = tmp_path / "red.mps"
    path.write_text(
        "NAME red\nROWS\n N COST\n E R1\nCOLUMNS\n"
        f"    M 'MARKER' 'INTORG'\n    x COST {cost_x}\n    x R1 0\n"
        "    y COST 2\n    y R1 0\n    M 'MARKER' 'INTEND'\nENDATA\n"
    )
    return path


def test_all_rows_redundant(tmp_path):
    # read as the one zero <= row of a model without rows
    path = redundant_row_model(tmp_path, 1)
    for cmd in ("relax", "solve"):
        res = run([cmd, str(path)])
        assert res.exit_code == 0, res.output
        assert "opt_lp 0\nopt_b 0\n" in res.output
    res = run(["relax", str(redundant_row_model(tmp_path, -1))])
    assert res.exit_code == 3, res.output


@pytest.mark.parametrize("args, message", [
    (["solve", "{p}", "--max-samples", "0"], "max_samples must be >= 1"),
    (["diagnose", "{p}", "--eta", "1.5"], "eta must be in (0, 1)"),
    (["solve", "{p}", "--method", "mcs-metropolis", "--beta", "-1"], "beta must be >= 0"),
    (["report", "{d}"], "no .mps file in"),
])
def test_bad_option_values_exit_1(tmp_path, args, message):
    path = write_planted(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    res = run([a.format(p=path, d=empty) for a in args])
    assert res.exit_code == 1, res.output
    assert f"error: {message}" in res.output


def test_report_fixed_wall_deterministic(tmp_path):
    for m in (1, 2):
        write_planted(tmp_path, m=m, name=f"p{m}.mps")

    def render(out_name):
        out = tmp_path / out_name
        res = run(["report", str(tmp_path), "--out", str(out),
                   "--method", "dijkstra", "--fixed-wall"])
        assert res.exit_code == 0, res.output
        return out.read_bytes()

    a = render("a.csv")
    b = render("b.csv")
    assert a == b
    assert a.splitlines()[0].startswith(b"instance,opt_lp,opt_b,opt_ilp")


def test_gen_cutgen(tmp_path):
    out = tmp_path / "c.mps"
    res = run(["gen", "cutgen", "--m", "3", "--v2", "0.8", "--dbar", "2",
               "--l", "10", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = run(["solve", str(out), "--method", "brute"])
    assert res.exit_code == 0, res.output
    assert "certified true" in res.output


def test_gen_cutgen_pattern_cap(tmp_path):
    # cutgen m=12 L=1000 v2=0.4 seed 3 has 5641 maximal patterns, past
    # the default cap of 5000
    args = ["gen", "cutgen", "--m", "12", "--v2", "0.4", "--dbar", "10",
            "--seed", "3", "--out", str(tmp_path / "c.mps")]
    res = run(args)
    assert res.exit_code == 5, res.output
    assert "cap is 5000" in res.output
    assert not (tmp_path / "c.mps").exists()
    res = run(args + ["--pattern-cap", "20000"])
    assert res.exit_code == 0, res.output
    assert "(5641 patterns)" in res.output
    res = run(["gen", "cutgen", "--m", "3", "--v2", "0.8", "--dbar", "2", "--l", "10",
               "--pattern-cap", "1", "--out", str(tmp_path / "small.mps")])
    assert res.exit_code == 5, res.output


# Byte-exact stdout of the commands that print exact values. Any change
# to these bytes is a change of the reported relaxation.
GOLDEN = {
    "planted": {
        "relax": "opt_lp 0\nopt_b 3\nr_abs 3\ndegenerate_lp false\n",
        "kernel": "moduli 2 2 2\nx_hat 1 1 1\nk_order 1\ng_order 8\n",
    },
    "cutgen": {
        "relax": "opt_lp 3.5\nopt_b 4\nr_abs 0.5\ndegenerate_lp true\n",
        "kernel": ("moduli 4 4 4 4\nx_hat 2 0 0 0\n"
                   "gen 3 1 0 0 order 4\ngen 1 0 1 0 order 4\ngen 1 0 0 1 order 4\n"
                   "k_order 64\ng_order 4\n"),
    },
}

GOLDEN_REPORT = (
    "instance,opt_lp,opt_b,opt_ilp,delta_lp_ilp,delta_b,r_abs,r_pct,certified,"
    "degenerate_lp,k_order,g_order,method,seed,wall_ms\n"
    "cutgen_m4_L20_v0.8_d2.0_s35,3.5,4,4,0.5,0,0.5,100.0,true,true,64,4,dijkstra,,0\n"
    "planted_t2_m3_l1_identity_s0,0,3,3,3,0,3,100.0,true,false,8,8,dijkstra,,0\n"
    "\nbin_start,count\n"
    + "".join(f"{b},0\n" for b in range(0, 90, 10))
    + "90,2\n100,2\n"
)

DIAGNOSE_KEYS = (
    ["k_order", "kstar_order", "g_order", "e_star", "shift_c", "cyclic_norm_max",
     "delta_p_bound", "omega_hat", "delta", "gamma_plain", "gamma_trunc",
     "mu_star_ls", "mu_star_gap", "mu", "alpha_hat", "r1", "r1_in_band", "r2",
     "r2_in_band", "degenerate", "sublevel_mass"] + ["overlap"] * 8
)


def write_golden_instances(tmp_path):
    """planted (2,3) and cutgen m=4, L=20, seed 35, as the CLI writes them."""
    paths = {"planted": tmp_path / "planted.mps", "cutgen": tmp_path / "cutgen.mps"}
    res = run(["gen", "planted", "--t", "2", "--m", "3", "--ell", "1",
               "--out", str(paths["planted"])])
    assert res.exit_code == 0, res.output
    res = run(["gen", "cutgen", "--m", "4", "--l", "20", "--v2", "0.8", "--dbar", "2",
               "--seed", "35", "--out", str(paths["cutgen"])])
    assert res.exit_code == 0, res.output
    return paths


def test_relax_kernel_golden_bytes(tmp_path):
    for name, path in write_golden_instances(tmp_path).items():
        res = run(["relax", str(path)])
        assert res.exit_code == 0, res.output
        assert res.output == GOLDEN[name]["relax"]
        res = run(["kernel", "--compress", str(path)])
        assert res.exit_code == 0, res.output
        assert res.output == GOLDEN[name]["kernel"]


def test_report_fixed_wall_golden_bytes(tmp_path):
    write_golden_instances(tmp_path)
    out = tmp_path / "out" / "r.csv"
    out.parent.mkdir()
    res = run(["report", str(tmp_path), "--out", str(out), "--fixed-wall"])
    assert res.exit_code == 0, res.output
    assert out.read_text() == GOLDEN_REPORT


def test_diagnose_cutgen_optimal_set_not_dividing_k(tmp_path):
    # 3 cost minimisers among |K| = 64 coset points
    path = write_golden_instances(tmp_path)["cutgen"]
    res = run(["diagnose", str(path)])
    assert res.exit_code == 0, res.output
    assert "k_order,64\nkstar_order,3\n" in res.output


def test_certificate_failure_exits_1(tmp_path, monkeypatch):
    table = spdiag.coset_table

    def corrupted(orders):
        nb = table(orders)
        nb[0, 0] = 0  # a move that stays put
        return nb

    monkeypatch.setattr(spdiag, "coset_table", corrupted)
    path = write_golden_instances(tmp_path)["planted"]
    res = run(["diagnose", str(path)])
    assert res.exit_code == 1
    assert "error: neighbour table column 0 does not hold the moved states" in res.output


def test_perron_certificate_failure_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", second_eigenpair)
    path = write_golden_instances(tmp_path)["planted"]
    res = run(["diagnose", str(path)])
    assert res.exit_code == 1
    assert "error: Lanczos eigenvector has a non-positive entry" in res.output


def test_diagnose_key_list(tmp_path):
    path = write_golden_instances(tmp_path)["planted"]
    res = run(["diagnose", str(path)])
    assert res.exit_code == 0, res.output
    assert [line.split(",", 1)[0] for line in res.output.splitlines()] == DIAGNOSE_KEYS
