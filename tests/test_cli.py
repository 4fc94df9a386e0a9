"""Command-line behavior: envelopes, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pointnull
from pointnull import cli
from pointnull.cli import FORMAT_VERSION, main
from pointnull.normal import (
    AlternativePrior,
    NormalProblem,
    bayes_factor_conjugate,
    p_value,
    t_statistic,
)
from pointnull.severity import warranted_discrepancy


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


def run_capped(argv):
    """pointnull in a child process whose address space is capped at 64 GiB,
    so an oversized array is refused whatever the host's overcommit policy."""
    src = str(Path(pointnull.__file__).resolve().parents[1])
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 1 << 36 if hard == resource.RLIM_INFINITY else min(1 << 36, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from pointnull.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def csv_rows(out):
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestEnvelope:
    def test_format_version_everywhere(self, capsys):
        env = run_json(capsys, ["report", "--t", "1.0", "--n", "4"])
        assert env["format_version"] == FORMAT_VERSION == "1"
        assert env["command"] == "report"
        assert set(env) == {"format_version", "command", "inputs", "results", "provenance"}

    def test_csv_carries_version_comment(self, capsys):
        code, out, _ = run(capsys, ["paradox", "--t", "1.96"])
        assert code == 0
        assert out.startswith("# format_version=1 command=paradox\n")
        assert "\r" not in out
        assert out.endswith("\n")

    def test_inputs_echoed(self, capsys):
        env = run_json(capsys, ["report", "--xbar", "0.3", "--n", "7", "--sigma", "2.0"])
        assert env["inputs"]["xbar"] == 0.3
        assert env["inputs"]["n"] == 7
        assert env["inputs"]["sigma"] == 2.0


class TestReport:
    def test_paradox_point_values(self, capsys):
        env = run_json(capsys, ["report", "--t", "1.96", "--n", "16818"])
        res = env["results"]
        assert abs(res["bf01"] - 19.0) < 1e-3
        assert abs(res["post_prob0"] - 0.95) < 1e-4
        assert abs(res["p_value"] - 0.05) < 1e-4
        assert res["reject_frequentist"] and res["favor_null_bayes"] and res["paradoxical"]

    def test_json_round_trips_through_library(self, capsys):
        # full-precision JSON: recomputing from the echoed inputs
        # reproduces every derived value bit for bit
        env = run_json(capsys, ["report", "--t", "2.2", "--n", "50", "--tau", "0.7"])
        inp = env["inputs"]
        problem = NormalProblem(inp["theta0"], inp["sigma"], inp["n"], inp["xbar"])
        prior = AlternativePrior.conjugate(inp["tau"])
        assert env["results"]["t"] == t_statistic(problem)
        assert env["results"]["p_value"] == p_value(t_statistic(problem))
        assert env["results"]["bf01"] == bayes_factor_conjugate(problem, prior)

    def test_savage_dickey_agrees(self, capsys):
        env = run_json(capsys, ["report", "--t", "1.5", "--n", "30"])
        res = env["results"]
        assert math.isclose(res["bf01"], res["bf01_savage_dickey"], rel_tol=1e-10)

    def test_tau_defaults_to_sigma(self, capsys):
        env = run_json(capsys, ["report", "--t", "1.0", "--n", "9", "--sigma", "3.0"])
        assert env["inputs"]["tau"] == 3.0
        env2 = run_json(
            capsys,
            ["report", "--t", "1.0", "--n", "9", "--sigma", "3.0", "--tau-equals-sigma"],
        )
        assert env2["results"] == env["results"]

    def test_t_and_xbar_are_exclusive(self, capsys):
        code, _, err = run(capsys, ["report", "--t", "1.0", "--xbar", "0.5", "--n", "4"])
        assert code == 2
        assert "not allowed with" in err
        code, _, _ = run(capsys, ["report", "--n", "4"])
        assert code == 2

    def test_xbar_path_matches_t_path(self, capsys):
        env_t = run_json(capsys, ["report", "--t", "2.0", "--n", "4"])
        env_x = run_json(capsys, ["report", "--xbar", "1.0", "--n", "4"])
        assert env_t["results"] == env_x["results"]

    def test_bad_sigma_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["report", "--t", "1.0", "--n", "4", "--sigma", "-1"])
        assert code == 2
        assert "sigma" in err

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_t_form_with_bad_n_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, ["report", "--t", "1", "--n", n])
        assert (code, out, err) == (2, "", "error: n must be at least 1\n")

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
    def test_bad_alpha_is_usage_error(self, capsys, alpha):
        code, out, err = run(capsys, ["report", "--t", "1.0", "--n", "4", "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err == "error: alpha must lie strictly between 0 and 1\n"


def report_results(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())["results"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-900, 900),
    st.floats(-8.0, 8.0),
    st.integers(1, 10**9),
    st.tuples(st.floats(0.125, 8.0), st.floats(1e-3, 1e3), st.floats(-4.0, 4.0)),
)
def test_report_is_invariant_under_power_of_two_scaling(k, t, n, base):
    # 2^k times sigma, tau and theta0 at fixed t scales sem, tau and
    # xbar - theta0 alike, exactly, so every verdict reads the same bits
    sigma, tau_ratio, theta0 = base

    def report(j):
        scaled = (math.ldexp(sigma, j), math.ldexp(sigma * tau_ratio, j), math.ldexp(theta0, j))
        flags = [f"--{name}={value!r}" for name, value in zip(("sigma", "tau", "theta0"), scaled)]
        return report_results(["report", f"--t={t!r}", f"--n={n}", *flags])

    want, got = report(0), report(k)
    for name in ("bf01", "post_prob0", "t", "p_value"):
        assert got[name] == want[name], name
    assert math.isclose(got["bf01_savage_dickey"], got["bf01"], rel_tol=1e-12)


class TestParadox:
    def test_equal_weights_crossing(self, capsys):
        env = run_json(capsys, ["paradox", "--t", "1.96"])
        assert env["results"]["crossing_n"] == 16818
        assert abs(env["results"]["required_bf"] - 19.0) < 1e-9

    def test_ten_to_one_crossing(self, capsys):
        env = run_json(capsys, ["paradox", "--t", "1.96", "--rho0", str(10.0 / 11.0)])
        assert env["results"]["crossing_n"] == 164

    def test_rows_bracket_the_crossing(self, capsys):
        env = run_json(capsys, ["paradox", "--t", "1.96"])
        rows = env["results"]["rows"]
        ns = [r["n"] for r in rows]
        assert ns == sorted(ns)
        assert 16818 in ns and 16817 in ns
        by_n = {r["n"]: r for r in rows}
        assert by_n[16817]["post_prob0"] < 0.95 <= by_n[16818]["post_prob0"]

    def test_csv_table_shape(self, capsys):
        code, out, _ = run(capsys, ["paradox", "--t", "1.96"])
        assert code == 0
        assert "# result crossing_n=16818" in out
        rows = csv_rows(out)
        assert [r["n"] for r in rows] == ["168", "1681", "16817", "16818", "168180"]
        assert all(r["paradoxical"] in ("true", "false") for r in rows)

    def test_unreachable_target_exits_1(self, capsys):
        code, out, err = run(capsys, ["paradox", "--t", "1.96", "--target", "0.1"])
        assert code == 1
        assert out == ""
        assert "unreachable" in err

    def test_bad_target_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["paradox", "--t", "1.96", "--target", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("t", ["1e200", "1e154"])
    def test_crossing_beyond_float_range_exits_1(self, capsys, t):
        code, out, err = run(capsys, ["paradox", "--t", t])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: unreachable target: at |t| = {float(t):.6g} ")


class TestSeverity:
    ARGS = ["severity", "--theta0", "0", "--sigma", "1", "--n", "100", "--xbar", "0.25"]

    def test_severity_at_xbar_is_half(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        rows = csv_rows(out)
        at_xbar = [r for r in rows if float(r["theta1"]) == 0.25]
        assert at_xbar and float(at_xbar[0]["severity"]) == 0.5

    def test_footer_row_is_warranted_point(self, capsys):
        env = run_json(capsys, self.ARGS + ["--level", "0.9"])
        problem = NormalProblem(0.0, 1.0, 100, 0.25)
        g = warranted_discrepancy(problem, 0.9)
        assert env["results"]["warranted_gamma"] == g
        footer = env["results"]["rows"][-1]
        assert footer["gamma"] == g
        assert footer["severity"] == 0.9

    def test_gamma_column_is_offset_from_null(self, capsys):
        env = run_json(capsys, self.ARGS + ["--theta0", "0.1"])
        for row in env["results"]["rows"]:
            assert math.isclose(row["gamma"], row["theta1"] - 0.1, abs_tol=1e-15)

    def test_single_point_grid(self, capsys):
        env = run_json(
            capsys, self.ARGS + ["--grid-points", "1", "--grid-lo", "0.25"]
        )
        rows = env["results"]["rows"]
        assert len(rows) == 2  # the one grid point plus the footer
        assert rows[0]["severity"] == 0.5

    def test_saturated_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, self.ARGS + ["--grid-lo", "30", "--grid-hi", "40"])
        assert code == 2
        assert "saturates" in err

    def test_zero_grid_points_is_usage_error(self, capsys):
        code, _, _ = run(capsys, self.ARGS + ["--grid-points", "0"])
        assert code == 2

    @pytest.mark.parametrize("xbar", ["1e17", "-1e300"])
    def test_collapsed_default_grid_names_the_grid_flags(self, capsys, xbar):
        code, out, err = run(capsys, ["severity", "--n", "4", "--xbar", xbar])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the default grid xbar +/- 3*sem collapses at |xbar| = "
            f"{abs(float(xbar)):.6g} (sem = 0.5); pass --grid-lo and --grid-hi\n"
        )


class TestBinomial:
    STONE = ["binomial", "--n", "527135", "--x", "106298", "--theta0", "0.2"]

    def test_stone_anchors(self, capsys):
        env = run_json(capsys, self.STONE)
        res = env["results"]
        assert abs(res["p_value"] - 0.0027) < 2e-4
        assert abs(res["bf_flat"] - 8.115) < 0.05
        assert abs(res["bf_laplace"] - res["bf_flat"]) < 1e-4

    def test_tiny_sample_flat_bf_is_one(self, capsys):
        env = run_json(capsys, ["binomial", "--n", "1", "--x", "0", "--theta0", "0.5"])
        assert math.isclose(env["results"]["bf_flat"], 1.0, rel_tol=1e-12)
        assert env["results"]["bf_laplace"] is None
        tags = dict(env["provenance"])
        assert "unavailable" in tags["bf_laplace"]

    def test_x_above_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["binomial", "--n", "5", "--x", "9", "--theta0", "0.5"])
        assert code == 2
        assert "x must lie" in err


class TestScore:
    def test_hyvarinen_flat_null_example(self, capsys):
        env = run_json(
            capsys, ["score", "--rule", "hyvarinen", "--t", "0", "--n", "10", "--alt", "flat"]
        )
        res = env["results"]
        assert res["diff"] == -20.0
        assert res["selection"] == "H0" and res["select_null"] and not res["tie"]
        assert res["c_dependent"] is False

    def test_log_rule_reproduces_bayes_factor(self, capsys):
        env = run_json(
            capsys,
            ["score", "--rule", "log", "--t", "1.96", "--n", "16818", "--tau-equals-sigma"],
        )
        problem = NormalProblem.from_t(1.96, 16818)
        bf = bayes_factor_conjugate(problem, AlternativePrior.conjugate(1.0))
        assert abs(env["results"]["diff"] + math.log(bf)) < 1e-12

    def test_sprenger_anchor(self, capsys):
        env = run_json(
            capsys,
            ["score", "--rule", "sprenger-kl", "--theta0", "0", "--sigma", "1",
             "--n", "25", "--tau", "1", "--xbar", "0.5"],
        )
        res = env["results"]
        assert math.isclose(res["s0"], 3.3700073964497041, rel_tol=1e-12)
        assert res["s1"] == 0.0 and res["selection"] == "H1"

    def test_sprenger_rejects_flat(self, capsys):
        code, _, err = run(
            capsys, ["score", "--rule", "sprenger-kl", "--t", "1", "--n", "5", "--alt", "flat"]
        )
        assert code == 2
        assert "conjugate" in err

    def test_tau_flag_conflicts(self, capsys):
        code, _, _ = run(
            capsys,
            ["score", "--rule", "log", "--t", "1", "--n", "5", "--tau", "2",
             "--tau-equals-sigma"],
        )
        assert code == 2
        code, _, err = run(
            capsys,
            ["score", "--rule", "log", "--t", "1", "--n", "5", "--alt", "flat",
             "--tau", "2"],
        )
        assert code == 2
        assert "conflicts" in err

    def test_c_only_moves_flat_log_scores(self, capsys):
        base = run_json(capsys, ["score", "--rule", "log", "--t", "1", "--n", "5"])
        doubled = run_json(capsys, ["score", "--rule", "log", "--t", "1", "--n", "5",
                                    "--c", "2"])
        assert base["results"]["c_dependent"] is True
        assert math.isclose(
            doubled["results"]["diff"] - base["results"]["diff"], math.log(2.0),
            rel_tol=1e-12,
        )
        code, _, err = run(
            capsys,
            ["score", "--rule", "log", "--t", "1", "--n", "5", "--tau", "1", "--c", "2"],
        )
        assert code == 2
        assert "flat" in err


class TestSimulate:
    def test_uniformity_frozen_distance(self, capsys):
        code, out, _ = run(
            capsys, ["simulate", "--kind", "uniformity", "--reps", "10000", "--seed", "42"]
        )
        assert code == 0
        row = csv_rows(out)[0]
        # frozen draw for Philox seed 42, stream 0
        assert math.isclose(float(row["ks_distance"]), 0.0085484532366224, rel_tol=1e-5)

    def test_seed_is_echoed(self, capsys):
        env = run_json(
            capsys, ["simulate", "--kind", "uniformity", "--reps", "200", "--seed", "7"]
        )
        assert env["inputs"]["seed"] == 7

    def test_consistency_csv_is_byte_deterministic(self, capsys):
        argv = ["simulate", "--kind", "consistency", "--reps", "100",
                "--n-grid", "100,1000", "--seed", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        _, other, _ = run(capsys, argv[:-1] + ["4"])
        assert other != first

    def test_consistency_medians_grow(self, capsys):
        env = run_json(
            capsys,
            ["simulate", "--kind", "consistency", "--reps", "200",
             "--n-grid", "100,10000", "--seed", "5"],
        )
        rows = env["results"]["rows"]
        assert rows[0]["median_log_bf"] < rows[1]["median_log_bf"]

    def test_score_consistency_rates_sum_to_one(self, capsys):
        env = run_json(
            capsys,
            ["simulate", "--kind", "score-consistency", "--reps", "300",
             "--n-grid", "100", "--seed", "9"],
        )
        row = env["results"]["rows"][0]
        total = row["select_null_rate"] + row["select_alt_rate"] + row["tie_rate"]
        assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_zero_reps_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["simulate", "--kind", "consistency", "--reps", "0"])
        assert code == 2
        assert "reps" in err

    def test_uniformity_needs_100_reps(self, capsys):
        code, _, _ = run(capsys, ["simulate", "--kind", "uniformity", "--reps", "50"])
        assert code == 2

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["simulate", "--kind", "consistency", "--reps", "10", "--n-grid", "10,abc"],
        )
        assert code == 2
        assert "n-grid" in err

    @pytest.mark.parametrize("kind", ["uniformity", "consistency", "score-consistency"])
    def test_reps_beyond_memory_is_one_error_line(self, kind):
        # numpy refuses 1e12 doubles (7.3 TiB) before it touches memory
        code, out, err = run_capped(
            ["simulate", "--kind", kind, "--n-grid", "10", "--reps", "1000000000000"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --reps 1000000000000 is too large: ")
        assert err.count("\n") == 1


class TestPaperCheck:
    def test_fresh_run_passes(self, capsys):
        code, out, _ = run(capsys, ["paper-check"])
        assert code == 0
        lines = [ln.rstrip() for ln in out.splitlines()]
        assert not any(ln.endswith("fail") for ln in lines)
        assert len([ln for ln in lines if ln.endswith("pass")]) == 11

    def test_json_rows(self, capsys):
        env = run_json(capsys, ["paper-check"])
        assert env["results"]["all_pass"] is True
        rows = env["results"]["rows"]
        assert len(rows) == 11
        by_name = {r["anchor"]: r for r in rows}
        assert by_name["crossing_equal_weights"]["got"] == 16818
        assert by_name["crossing_ten_to_one"]["got"] == 164
        assert by_name["crossing_t_zero"]["got"] == 360
        assert all(r["status"] == "pass" for r in rows)

    def test_demo_fail_exits_1(self, capsys):
        code, out, _ = run(capsys, ["paper-check", "--demo-fail", "--format", "json"])
        assert code == 1
        env = json.loads(out)
        assert env["results"]["all_pass"] is False
        failed = [r["anchor"] for r in env["results"]["rows"] if r["status"] == "fail"]
        assert failed == ["stone_binomial_bf_flat"]


class TestPlumbing:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "crossing.csv"
        code, out, _ = run(capsys, ["paradox", "--t", "1.96", "--out", str(target)])
        assert code == 0
        assert out == ""
        _, direct, _ = run(capsys, ["paradox", "--t", "1.96"])
        assert target.read_text(encoding="utf-8") == direct

    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["report", "--t", "1", "--n", "4", "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write --out {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_digits_control_csv_not_json(self, capsys):
        _, narrow, _ = run(capsys, ["paradox", "--t", "1.96", "--digits", "3"])
        # bf column rounds 19.0001 to 3 significant digits, printed as 19
        assert "16818,0.05,19,0.95,true" in narrow
        env3 = run_json(capsys, ["paradox", "--t", "1.96", "--digits", "3"])
        env6 = run_json(capsys, ["paradox", "--t", "1.96"])
        assert env3 == env6

    def test_digits_bounds(self, capsys):
        code, _, err = run(capsys, ["paradox", "--t", "1.96", "--digits", "0"])
        assert code == 2 and "digits" in err
        code, _, _ = run(capsys, ["paradox", "--t", "1.96", "--digits", "18"])
        assert code == 2

    def test_seed_bounds(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--kind", "uniformity", "--reps", "200", "--seed", "-1"]
        )
        assert code == 2 and "seed" in err
        code, _, _ = run(
            capsys,
            ["simulate", "--kind", "uniformity", "--reps", "200", "--seed", str(2**64)],
        )
        assert code == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["paradox", "--help"]) == 0
        capsys.readouterr()

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag,value", [("--theta0", "-3.1e-05"), ("--t", "-2e-3"), ("--t", "-1E+0")]
    )
    def test_negative_exponent_value_is_not_a_flag(self, capsys, flag, value):
        base = ["report", "--n", "10", "--format", "csv"] + (["--t", "2"] if flag != "--t" else [])
        joined = run(capsys, base + [f"{flag}={value}"])
        assert joined[0] == 0
        assert run(capsys, base + [flag, value]) == joined

    def test_table_format_renders_rows(self, capsys):
        code, out, _ = run(capsys, ["paradox", "--t", "1.96", "--format", "table"])
        assert code == 0
        assert "crossing_n = 16818" in out
        assert "post_prob0" in out


# The flag table's parser against argparse over the same table. A draw is a
# valid call, its flags in any order and in either form, with at most one
# change that argparse may refuse or read otherwise. Plain values include
# forms int and float read loosely: nan, -inf, 1_000, " 7 ", 1e999.
PLAIN = {
    "int": ["3", "100", " 7 ", "1_000", "-2", "12"],
    "float": ["0.5", "nan", "-inf", "1_000", " 7 ", "1e3", "-2.5", "-3.1e-05", "1e999"],
    "str": ["a=b", "x", "100,1000", ""],
}
ODD = ["0x10", "2.5", "", "-", "--", "a=b", "bogus", "-x", "--t", "1.5.2"]
DASHED = ["-", "--", "-x", "--t", "-3", "--out"]
CHANGES = ["none"] * 4 + ["odd value", "dashed --out", "switch", "drop", "group", "abbreviate"]
CHANGES += ["repeat", "-h", "--help", "--", "x"]
PARSER = cli._build_parser()


@st.composite
def table_argvs(draw):
    command = draw(st.sampled_from(list(cli._SUBCOMMANDS)))

    def pair(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    def chunk(flag):
        name, kind, _, _, choices, _ = flag
        return [name] if kind is None else pair(name, draw(st.sampled_from(choices or PLAIN[kind])))

    chunks, groups, switches = [], [], []
    for entry in cli._SUBCOMMANDS[command][2]:
        if isinstance(entry[0], bool):
            groups.append(entry[1:])
            switches += [flag[0] for flag in entry[1:] if flag[1] is None]
            if entry[0] or draw(st.booleans()):
                chunks.append(chunk(draw(st.sampled_from(entry[1:]))))
        elif entry[3] or draw(st.integers(0, 2)) == 0:
            chunks.append(chunk(entry))
        switches += [entry[0]] if entry[1] is None else []
    change = draw(st.sampled_from(CHANGES))
    i = draw(st.integers(0, len(chunks) - 1)) if chunks else None
    name = chunks[i][0].partition("=")[0] if chunks else None
    if change == "odd value" and chunks:
        chunks[i] = pair(name, draw(st.sampled_from(ODD)))
    elif change == "dashed --out" or change == "switch" and switches:
        name = "--out" if change == "dashed --out" else draw(st.sampled_from(switches))
        chunks = [c for c in chunks if c[0].partition("=")[0] != name]
        chunks.append(pair(name, draw(st.sampled_from(DASHED if name == "--out" else ODD))))
    elif change == "drop" and chunks:
        del chunks[i]
    elif change == "group" and groups:
        chunks.append(chunk(draw(st.sampled_from(draw(st.sampled_from(groups))))))
    elif change == "abbreviate" and chunks:
        short = name[: draw(st.integers(3, max(3, len(name) - 1)))]
        chunks[i] = [short + chunks[i][0][len(name) :], *chunks[i][1:]]
    elif change == "repeat" and chunks:
        chunks.append(list(chunks[i]))
    elif change in ("-h", "--help", "--", "x"):
        chunks.append([change])
    order = draw(st.permutations(range(len(chunks))))
    return cli._join_negative_values([command, *(t for j in order for t in chunks[j])])


def argparse_namespace(argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def table_parse(argv):
    """The flag table's namespace for argv, checked against argparse's:
    argparse never exits where the table's parser answers, and sets the same
    values (compared by repr, so nan equals nan)."""
    fast = cli._parse(argv)
    if fast is not None:
        slow = argparse_namespace(argv)
        assert slow is not None, argv
        as_repr = lambda ns: {k: repr(v) for k, v in vars(ns).items()}  # noqa: E731
        assert as_repr(fast) == as_repr(slow), argv
    return fast


def test_flag_table_parser_matches_argparse():
    taken = []

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(table_argvs())
    def check(argv):
        taken.append(table_parse(argv) is not None)

    check()
    # both paths are well exercised
    assert 0.2 < sum(taken) / len(taken) < 0.8, sum(taken) / len(taken)


REPORT = ["report", "--t", "1", "--n", "4"]
UNIFORMITY = ["simulate", "--kind", "uniformity", "--reps", "100"]


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["report", "--t=nan", "--n", " 7 ", "--sigma=1_000", "--theta0=-inf", "--tau", "1e999"], True),
        ([*UNIFORMITY, "--n-grid=a=b", "--out", ""], True),
        ([*REPORT, "--tau-equals-sigma"], True),
        (["paper-check", "--demo-fail"], True),
        ([*REPORT, "--out=--"], False),  # argparse stores []
        ([*REPORT, "--out", "--"], False),
        ([*REPORT, "--out", "-"], False),
        ([*REPORT, "--out=-x"], True),
        ([*REPORT, "--tau-equals-sigma=x"], False),
        ([*REPORT, "--tau-equals-sigma="], False),
        (["paper-check", "--demo-fail", "x"], False),
        ([*REPORT, "--rh", "0.5"], False),
        ([*REPORT, "--th", "1"], False),
        ([*UNIFORMITY, "--n", "10"], False),
        ([*REPORT, "--xbar", "2"], False),
        ([*REPORT, "--tau", "2", "--tau-equals-sigma"], False),
        (["report", "--n", "4"], False),
        (["report", "--t", "1"], False),
        ([*REPORT, "--t", "2"], False),
        (["report", "--t", "0x10", "--n", "4"], False),
        (["report", "--t", "1", "--n", "2.5"], False),
        ([*REPORT, "--format", "xml"], False),
        ([*REPORT, "-h"], False),
        ([*REPORT, "--"], False),
        (["--t", "1", "--n", "4"], False),
        ([], False),
    ],
    ids=lambda a: " ".join(map(repr, a)) if isinstance(a, list) else None,
)
def test_flag_table_parser_edges(argv, taken):
    assert (table_parse(cli._join_negative_values(argv)) is not None) is taken
