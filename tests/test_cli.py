"""Command-line behavior: envelopes, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull
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
