import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cpflow import cli, nonlinear, spectral, spectrum, verify
from cpflow.cli import main
from cpflow.errors import ConfigError
from cpflow.forcing import compile_expression
from cpflow.spectrum import os_spectrum


def run_cli(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    return exc.value.code or 0


def load_payload(path):
    with open(path) as fh:
        data = json.load(fh)
    meta = data.pop("meta")
    return data, meta


class TestForcingGrammar:
    def test_basic_expression(self):
        fn = compile_expression("sin(pi*y) + 0.5*x**2")
        import numpy as np

        out = fn(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
        assert out == pytest.approx([1.0, np.sin(-np.pi / 2) + 0.5])

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os').system('true')",
            "y.__class__",
            "lambda: 1",
            "open('x')",
            "z + 1",
            "sin(x, y)",
        ],
    )
    def test_rejects_non_whitelisted(self, bad):
        with pytest.raises(ConfigError):
            compile_expression(bad)


class TestSolveMode:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "mode.json"
        code = run_cli(
            ["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1",
             "--N", "64", "--h", "sin(pi*y)", "--output", str(out)]
        )
        assert code == 0
        data, meta = load_payload(out)
        assert data["schema"] == "cpflow-result/1"
        assert data["results"]["residual_norm"] <= 1e-8
        assert data["results"]["numerics"]["N"] == 64
        assert "timestamp" in meta

    def test_payload_idempotent_across_runs(self, tmp_path):
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                ["solve-mode", "--profile", "poiseuille", "--flux", "4", "--xi", "1",
                 "--N", "48", "--output", str(out)]
            ) == 0
            data, _ = load_payload(out)
            data["config"].pop("output")
            payloads.append(json.dumps(data, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_threads_option_is_gone(self, tmp_path):
        code = run_cli(
            ["solve-mode", "--profile", "poiseuille", "--xi", "1", "--threads", "2",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_missing_profile_is_config_error(self, tmp_path):
        code = run_cli(["solve-mode", "--xi", "1", "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_bad_expression_is_config_error(self, tmp_path):
        code = run_cli(
            ["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1",
             "--h", "open('x')", "--output", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_unwritable_output_is_config_error(self):
        code = run_cli(
            ["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1",
             "--output", "/nonexistent-dir/x.json"]
        )
        assert code == 2

    def test_negative_numerics_rejected(self, tmp_path):
        code = run_cli(
            ["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1",
             "--N", "-8", "--output", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_default_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CPFLOW_OUTPUT_DIR", str(tmp_path))
        code = run_cli(["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1"])
        assert code == 0
        assert (tmp_path / "solve-mode.json").exists()


PROFILE_KEYS = {"A", "B", "C", "profile", "flux", "shear"}
FORCE_KEYS = {"f", "g"}


def common_keys(command):
    """The keys every command parses, plus the numerics its table row reads."""
    return {"command", "config", "output"} | set(cli.NUMERICS[command])


class TestParser:
    # each command's argv with its required flags, and the namespace it parses to
    NAMESPACES = {
        ("solve-mode", "--xi", "1"): PROFILE_KEYS | common_keys("solve-mode") | {"xi", "h"},
        ("solve-linear",): PROFILE_KEYS | common_keys("solve-linear") | FORCE_KEYS,
        ("solve-nonlinear",): PROFILE_KEYS | common_keys("solve-nonlinear") | FORCE_KEYS
        | {"delta", "symmetry"},
        ("spectrum", "--A", "-0.2", "--T", "1"): common_keys("spectrum") | {"A", "T"},
        ("neutral-search",): common_keys("neutral-search")
        | {"reA_min", "reA_max", "T_min", "T_max", "N_check"},
        ("verify-estimates",): PROFILE_KEYS | common_keys("verify-estimates"),
        ("symmetry-check",): PROFILE_KEYS | common_keys("symmetry-check"),
        ("regression", "--baseline", "b.json"): PROFILE_KEYS | common_keys("regression")
        | {"baseline", "record"},
    }

    @pytest.mark.parametrize("argv", list(NAMESPACES), ids=lambda argv: argv[0])
    def test_one_subparser_per_command(self, argv):
        ap = cli.build_parser(argv)
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [argv[0]]
        assert set(vars(ap.parse_args(argv))) == self.NAMESPACES[argv]
        assert vars(ap.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_help_lists_every_command(self, capsys):
        assert run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(cmd in out for cmd in cli.COMMANDS) and len(cli.COMMANDS) == 8

    def test_command_help_lists_its_flags(self, capsys):
        assert run_cli(["spectrum", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--A A" in out and "--T T" in out and "--flux" not in out

    def test_version_exits_zero(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"cpflow {cli.__version__}"

    def test_bad_command_lists_every_command(self, capsys):
        assert run_cli(["bogus", "--N", "8"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and all(cmd in err for cmd in cli.COMMANDS)


# every numerics flag a command may take, and --format, each with a value a value check rejects
SHARED_FLAGS = {"N": "4", "K": "0", "xi0": "1e100", "tol": "inf", "max_iter": "0", "seed": "-1",
                 "format": "csv"}
UNREAD = [(argv, name) for argv in TestParser.NAMESPACES for name in SHARED_FLAGS
          if name not in cli.NUMERICS[argv[0]]]


class TestUnreadFlags:
    def test_unread_flag_count(self):
        assert len(UNREAD) == 34

    @pytest.mark.parametrize("argv, name", UNREAD, ids=[f"{a[0]}-{n}" for a, n in UNREAD])
    def test_flag_the_command_does_not_read_is_unrecognized(self, tmp_path, capsys, argv, name):
        flag = "--" + name.replace("_", "-")
        out = tmp_path / "x.json"
        assert run_cli([*argv, flag, SHARED_FLAGS[name], "--output", str(out)]) == 2
        assert f"unrecognized arguments: {flag} {SHARED_FLAGS[name]}" in capsys.readouterr().err
        assert not out.exists()


class TestWorkCounts:
    """Solver builds and grid builds per command, counted at the class and function."""

    @pytest.fixture()
    def built(self, monkeypatch):
        solvers = []

        class Counting(nonlinear.LinearizedChannelSolver):
            def __init__(self, *args, **kwargs):
                solvers.append(args[2])  # K
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(nonlinear, "LinearizedChannelSolver", Counting)
        monkeypatch.setattr(cli, "LinearizedChannelSolver", Counting)
        return solvers

    def test_one_solver_per_solve_nonlinear(self, tmp_path, built):
        argv = ["solve-nonlinear", "--profile", "poiseuille", "--N", "32", "--K", "4",
                "--f", "0.01*sin(x)", "--output", str(tmp_path / "nl.json")]
        assert run_cli(argv) == 0
        assert built == [4]

    def test_one_solver_per_regression(self, tmp_path, built):
        argv = ["regression", "--baseline", str(tmp_path / "b.json"), "--record", "--N", "40",
                "--K", "4", "--output", str(tmp_path / "reg.json")]
        assert run_cli(argv) == 0
        assert built == [4]

    def test_spectrum_builds_no_grid(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--A", "-0.2", "--T", "1.0", "--N", "40", "--output", str(tmp_path / "s.json")]
        assert run_cli(argv) == 0  # fills the per-degree operator cache
        calls = []

        def counting(N):
            calls.append(N)
            return spectral.build_grid(N)

        for module in (cli, spectrum):
            monkeypatch.setattr(module, "build_grid", counting)
        assert run_cli(argv) == 0
        assert calls == []


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=48\nxi=2.0\nh=sin(pi*y)\nA=-1\nB=0\nC=3\n")
        out = tmp_path / "m.json"
        code = run_cli(["solve-mode", "--config", str(cfg), "--xi", "1", "--output", str(out)])
        assert code == 0
        data, _ = load_payload(out)
        assert data["config"]["N"] == 48  # from file
        assert data["config"]["xi"] == 1.0  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run_cli(["solve-mode", "--config", str(cfg), "--xi", "1",
                        "--A", "-1", "--B", "0", "--C", "3"])
        assert code == 2

    def test_key_the_command_does_not_read_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=4\n")
        out = tmp_path / "s.json"
        code = run_cli(["spectrum", "--A", "-0.2", "--T", "1", "--config", str(cfg), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: unknown config keys: ['K']")
        assert not out.exists()

    def test_unconvertible_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=abc\n")
        code = run_cli(["spectrum", "--A", "-0.2", "--T", "1", "--config", str(cfg),
                        "--output", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config value N='abc'")

    @pytest.mark.parametrize("line", ["help=1", "config=x"])
    def test_parser_only_keys_are_unknown(self, tmp_path, capsys, line):
        # help=1 used to exit 0 with "help": "1" in the payload's config block
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "s.json"
        code = run_cli(["spectrum", "--A", "-0.2", "--T", "1", "--N", "32", "--config", str(cfg),
                        "--output", str(out)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()

    def test_required_flags_from_the_file(self, tmp_path):
        # the file's A and T used to leave "the following arguments are required: --A, --T", exit 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("A=-0.2\nT=1.0\n")
        out = tmp_path / "s.json"
        assert run_cli(["spectrum", "--config", str(cfg), "--N", "32", "--output", str(out)]) == 0
        data, _ = load_payload(out)
        assert (data["config"]["A"], data["config"]["T"]) == (-0.2, 1.0)

    def test_value_outside_choices_is_config_error(self, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("solver built before the config check")

        monkeypatch.setattr(cli, "NonlinearChannelSolver", not_reached)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("symmetry=X2\n")
        code = run_cli(["solve-nonlinear", "--profile", "poiseuille", "--N", "16", "--K", "2",
                        "--config", str(cfg), "--output", str(tmp_path / "n.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config value symmetry='X2'")


def not_reached(*args, **kwargs):
    raise AssertionError("work started before the output check")


class TestOutputPaths:
    """Output paths are resolved and checked before any work."""

    @pytest.mark.parametrize("argv, output, solver", [
        (["solve-linear", "--profile", "poiseuille", "--N", "16", "--K", "2"], "sl.csv",
         "LinearizedChannelSolver"),
        (["spectrum", "--A", "-0.2", "--T", "1", "--N", "32"], "s.csv", "os_spectrum"),
        (["solve-nonlinear", "--profile", "poiseuille", "--N", "16", "--K", "2"], "n_trace.csv",
         "NonlinearChannelSolver"),
    ], ids=["solve-linear", "spectrum", "solve-nonlinear"])
    def test_output_equal_to_its_data_path_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                           argv, output, solver):
        # the JSON payload used to overwrite the data CSV, exit 0
        monkeypatch.setattr(cli, solver, not_reached)
        assert run_cli(argv + ["--output", str(tmp_path / output)]) == 2
        assert "collides with its data file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_is_checked_before_the_solve(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "LinearizedChannelSolver", not_reached)
        argv = ["solve-linear", "--profile", "poiseuille", "--output", str(tmp_path / "none" / "x.json")]
        assert run_cli(argv) == 2


class TestSolveLinear:
    def test_writes_field_and_header(self, tmp_path):
        out = tmp_path / "lin.json"
        code = run_cli(
            ["solve-linear", "--profile", "poiseuille", "--flux", "4", "--N", "40",
             "--K", "4", "--f", "sin(x)*(1-y**2)", "--g", "cos(x)*y", "--output", str(out)]
        )
        assert code == 0
        data, _ = load_payload(out)
        assert data["results"]["header"]["residual_rel"] <= 1e-8
        csv_path = tmp_path / data["results"]["field_csv"]
        header = csv_path.read_text().splitlines()[0]
        assert header == "x,y,v,w,qx,qy"

    def test_inadmissible_profile_is_solver_error(self, tmp_path):
        code = run_cli(
            ["solve-linear", "--A", "-1", "--B", "0", "--C", "1",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 3


class TestSpectrumCommand:
    def test_csv_and_leading(self, tmp_path):
        out = tmp_path / "eigs.json"
        code = run_cli(["spectrum", "--A", "-0.2", "--T", "1.0", "--N", "96",
                        "--output", str(out)])
        assert code == 0
        data, _ = load_payload(out)
        assert data["results"]["leading"]["re"] < 0.0
        lines = (tmp_path / "eigs.csv").read_text().splitlines()
        assert lines[0] == "re,im,resolved"
        assert len(lines) > 50

    def test_csv_rows_are_the_raw_spectrum(self, tmp_path):
        # one row per raw eigenvalue, even block then odd block, written as
        # a per-row f-string writer would
        out = tmp_path / "eigs.json"
        assert run_cli(["spectrum", "--A", "-0.3", "--T", "0.8", "--N", "48",
                        "--output", str(out)]) == 0
        res = os_spectrum(-0.3, 0.8, 48, with_vectors=False)
        want = "re,im,resolved\n" + "".join(
            f"{lam.real:.17g},{lam.imag:.17g},{int(ok)}\n"
            for lam, ok in zip(res.raw, res.resolved_mask))
        assert (tmp_path / "eigs.csv").read_text() == want
        assert len(res.raw) == 47


class TestVerifyAndSymmetry:
    def test_verify_estimates_green(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run_cli(["verify-estimates", "--profile", "poiseuille", "--flux", "4",
                        "--N", "64", "--output", str(out)])
        assert code == 0
        data, _ = load_payload(out)
        assert data["results"]["all_green"]

    def test_symmetry_check(self, tmp_path):
        out = tmp_path / "sym.json"
        code = run_cli(["symmetry-check", "--A", "-1", "--B", "0", "--C", "3.5",
                        "--N", "32", "--output", str(out)])
        assert code == 0

    def test_symmetry_check_needs_even_profile(self, tmp_path):
        code = run_cli(["symmetry-check", "--A", "-1", "--B", "1", "--C", "5",
                        "--output", str(tmp_path / "x.json")])
        assert code == 2


class TestGatePaths:
    """A failed gate writes its JSON and summary, then exits 3 (4 for regression, above)."""

    def test_failing_estimate_battery_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(verify, "poincare_ratio", lambda f: 0.0)
        out = tmp_path / "v.json"
        argv = ["verify-estimates", "--profile", "poiseuille", "--N", "16", "--output", str(out)]
        assert run_cli(argv) == 3
        res = load_payload(out)[0]["results"]
        assert res["all_green"] is False and res["checks"]["poincare_equality"] is False
        captured = capsys.readouterr()
        assert captured.out == f"verify-estimates: FAILED -> {out}\n"
        assert captured.err == "solver error: CpflowError: estimate verification failed; see report\n"

    def test_symmetry_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(verify, "check_symmetry_cancellation", lambda p, fld: (1e-3, 0.0))
        out = tmp_path / "s.json"
        argv = ["symmetry-check", "--A", "-1", "--B", "0", "--C", "3.5", "--N", "16", "--K", "2"]
        assert run_cli(argv + ["--output", str(out)]) == 3
        res = load_payload(out)[0]["results"]
        assert res["ok"] is False and res["worst_cancellation"] >= 1e-10
        assert "symmetry cancellation violated" in capsys.readouterr().err

    def test_commands_do_not_write_print_or_exit(self):
        # main writes the JSON, prints the summary and maps the failure to an exit code
        tree = ast.parse(inspect.getsource(cli))
        commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
        assert len(commands) == len(cli.COMMANDS)
        calls = {(f.name, ast.unparse(node.func)) for f in commands for node in ast.walk(f)
                 if isinstance(node, ast.Call)}
        assert {c for c in calls if c[1] in ("write_json", "print", "sys.exit")} == set()


class TestSolveNonlinear:
    def test_small_force_converges(self, tmp_path):
        out = tmp_path / "nl.json"
        code = run_cli(
            ["solve-nonlinear", "--profile", "poiseuille", "--flux", "4", "--N", "32",
             "--K", "4", "--f", "0.01*sin(x)", "--g", "0.01*cos(x)*y",
             "--tol", "1e-8", "--output", str(out)]
        )
        assert code == 0
        data, _ = load_payload(out)
        assert data["results"]["converged"]
        trace = (tmp_path / "nl_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,increment,norm"

    def test_y1_symmetry_class(self, tmp_path):
        out = tmp_path / "nl.json"
        code = run_cli(
            ["solve-nonlinear", "--A", "-1", "--B", "0", "--C", "3.5", "--N", "32", "--K", "4",
             "--f", "0.01*cos(x)*(1-y**2)", "--g", "0.01*sin(x)*y", "--symmetry", "Y1",
             "--tol", "1e-8", "--output", str(out)]
        )
        assert code == 0
        data, _ = load_payload(out)
        assert data["results"]["converged"]

    @pytest.mark.parametrize("argv", [
        ["--A=-1", "--B=0.5", "--C=3.5", "--f=0.01*cos(x)*(1-y**2)", "--g=0.01*sin(x)*y"],
        ["--profile=poiseuille", "--flux=4", "--f=0.01*sin(x)*y", "--g=0.0*y"],
    ], ids=["odd-profile", "y-odd-f"])
    def test_y1_symmetry_class_outside_the_class_is_config_error(self, tmp_path, monkeypatch, argv):
        # both exited 0: converged false at residual 1.5e-2, and residual 1.0 at H2 1.1e-12
        def measured_ball(*args):
            raise AssertionError("ball measured before the config check")

        monkeypatch.setattr(verify, "measured_ball", measured_ball)
        out = tmp_path / "nl.json"
        assert run_cli(["solve-nonlinear", *argv, "--symmetry=Y1", f"--output={out}"]) == 2
        assert not out.exists()

    def test_pressure_includes_quadratic_term(self, tmp_path):
        # the recovered gradient is curl-free only with the self-advection
        # (2.5e-6 without it, 1.7e-9 with it)
        out = tmp_path / "nl.json"
        code = run_cli(
            ["solve-nonlinear", "--profile", "poiseuille", "--flux", "4", "--N", "48",
             "--K", "8", "--f", "0.05*sin(x)*(1-y**2)", "--g", "0.05*cos(x)*y",
             "--output", str(out)]
        )
        assert code == 0
        res = load_payload(out)[0]["results"]
        assert res["converged"]
        assert res["curl_residual"] <= 1e-7

    def test_x1_symmetry_class_with_a_force_is_config_error(self, tmp_path, monkeypatch):
        # the F d/dx term of every forced linear solve leaves X1, so the projected
        # iteration stalled (exit 0, converged false, residual 3.2e-2)
        def measured_ball(*args):
            raise AssertionError("ball measured before the config check")

        monkeypatch.setattr(verify, "measured_ball", measured_ball)
        code = run_cli(
            ["solve-nonlinear", "--profile", "poiseuille", "--flux", "2", "--N", "32",
             "--K", "4", "--symmetry", "X1", "--f", "0.02*cos(x)*(1-y**2)", "--g", "0.0*y",
             "--output", str(tmp_path / "nl.json")]
        )
        assert code == 2
        assert not (tmp_path / "nl.json").exists()

    def test_x1_symmetry_class_without_a_force_converges(self, tmp_path):
        out = tmp_path / "nl.json"
        code = run_cli(
            ["solve-nonlinear", "--profile", "poiseuille", "--flux", "2", "--N", "32",
             "--K", "4", "--symmetry", "X1", "--f", "0.0*y", "--g", "0.0*cos(x)",
             "--output", str(out)]
        )
        assert code == 0
        assert load_payload(out)[0]["results"]["converged"]

    def test_y2_symmetry_class_is_gone(self, tmp_path):
        # the map sends Y2 data into Y1, so a Y2-projected iteration cannot converge
        code = run_cli(
            ["solve-nonlinear", "--profile", "poiseuille", "--flux", "4", "--N", "32",
             "--K", "4", "--f", "0.05*sin(x)*(1-y**2)", "--g", "0.05*cos(x)*y",
             "--symmetry", "Y2", "--output", str(tmp_path / "nl.json")]
        )
        assert code == 2
        assert not (tmp_path / "nl.json").exists()


class TestRegression:
    def test_record_compare_tamper_cycle(self, tmp_path):
        base = tmp_path / "base.json"
        args = ["regression", "--baseline", str(base), "--N", "40", "--K", "4",
                "--output", str(tmp_path / "reg.json")]
        assert run_cli(args + ["--record"]) == 0
        assert run_cli(args) == 0
        data = json.loads(base.read_text())
        data["values"]["kappa0"] *= 1.5
        base.write_text(json.dumps(data))
        assert run_cli(args) == 4
        failures = load_payload(tmp_path / "reg.json")[0]["results"]["failures"]
        assert [f.split(":")[0] for f in failures] == ["kappa0"]

    def test_missing_baseline_is_config_error(self, tmp_path, monkeypatch):
        # the file is checked before anything is measured
        self.no_measurement(monkeypatch)
        code = run_cli(["regression", "--baseline", str(tmp_path / "none.json")])
        assert code == 2

    @staticmethod
    def no_measurement(monkeypatch):
        def measure_baseline(*args):
            raise AssertionError("measured before checking the baseline")

        monkeypatch.setattr(verify, "measure_baseline", measure_baseline)

    @pytest.mark.parametrize("record", [False, True], ids=["compare", "record"])
    def test_output_naming_the_baseline_is_config_error(self, tmp_path, monkeypatch, record):
        self.no_measurement(monkeypatch)
        base = tmp_path / "b.json"
        base.write_text('{"values": {}}\n')
        before = base.read_bytes()
        argv = ["regression", "--baseline", str(base), "--output", str(tmp_path / "." / "b.json")]
        assert run_cli(argv + ["--record"] if record else argv) == 2
        assert base.read_bytes() == before

    def test_record_into_new_baseline_named_by_output_is_config_error(self, tmp_path, monkeypatch):
        self.no_measurement(monkeypatch)
        base = tmp_path / "b.json"
        assert run_cli(["regression", "--baseline", str(base), "--output", str(base), "--record"]) == 2
        assert not base.exists()

    @staticmethod
    def baseline_text(kappa0="1.0", tolerances=None):
        values = ('{"kappa0": %s, "c1": 2.0, "contraction_ratio": 0.5, "apriori_ratio_bound": 1.0,'
                  ' "neutral_minus3A": 5772.2, "neutral_T0": 1.02, "neutral_im_over_T0": 0.26}' % kappa0)
        return '{"values": %s%s}' % (values, "" if tolerances is None else ', "tolerances": ' + tolerances)

    @pytest.mark.parametrize("text", [
        "not json {",
        "[1, 2]",
        '{"schema": "cpflow-baseline/1"}',
        '{"values": {"kappa0": 1.0, "c1": 2.0}}',
        baseline_text('"1.0"'),
        baseline_text(tolerances="[1e-6]"),
        # a negative tolerance made math.isclose raise a ValueError traceback (exit 1)
        baseline_text(tolerances='{"kappa0": -1e-6}'),
        baseline_text(tolerances='{"kappa0": NaN}'),
        baseline_text(tolerances='{"kappa0": Infinity}'),
        baseline_text(tolerances='{"kappa0": true}'),
        baseline_text("true"),
        baseline_text("NaN"),
        baseline_text("-1e400"),
    ], ids=["not-json", "not-a-dict", "no-values", "missing-key", "not-a-number", "bad-tolerances",
            "negative-tolerance", "nan-tolerance", "inf-tolerance", "boolean-tolerance",
            "boolean-value", "nan-value", "inf-value"])
    def test_incomplete_baseline_is_config_error(self, tmp_path, monkeypatch, text):
        self.no_measurement(monkeypatch)
        base = tmp_path / "b.json"
        base.write_text(text)
        before = base.read_bytes()
        out = tmp_path / "reg.json"
        assert run_cli(["regression", "--baseline", str(base), "--output", str(out)]) == 2
        assert base.read_bytes() == before
        assert not out.exists()

    def test_unreadable_baseline_is_config_error(self, tmp_path, monkeypatch):
        self.no_measurement(monkeypatch)
        (tmp_path / "b.json").mkdir()
        code = run_cli(["regression", "--baseline", str(tmp_path / "b.json"),
                        "--output", str(tmp_path / "reg.json")])
        assert code == 2

    MEASURED = dict.fromkeys(verify.BASELINE_TOLERANCES, 1.0)

    def fake_measurement(self, monkeypatch):
        monkeypatch.setattr(verify, "measure_baseline", lambda *args: dict(self.MEASURED))

    def test_config_file_supplies_baseline_and_record(self, tmp_path, monkeypatch):
        # --baseline is required, and a file that set it used to exit 2
        self.fake_measurement(monkeypatch)
        base, cfg = tmp_path / "b.json", tmp_path / "reg.cfg"
        cfg.write_text(f"baseline={base}\nrecord=true\n")
        assert run_cli(["regression", "--config", str(cfg), "--output", str(tmp_path / "reg.json")]) == 0
        assert json.loads(base.read_text())["values"] == self.MEASURED

    def test_record_false_in_config_compares(self, tmp_path, monkeypatch, capsys):
        # the raw string "false" was truthy: the run recorded over the tampered baseline, exit 0
        self.fake_measurement(monkeypatch)
        base, cfg, out = tmp_path / "b.json", tmp_path / "reg.cfg", tmp_path / "reg.json"
        verify.record_baseline(base, {**self.MEASURED, "kappa0": 1.5})
        before = base.read_bytes()
        cfg.write_text("record=false\n")
        argv = ["regression", "--baseline", str(base), "--config", str(cfg), "--output", str(out)]
        assert run_cli(argv) == 4
        assert base.read_bytes() == before
        res = load_payload(out)[0]["results"]
        assert res["failures"] == ["kappa0: measured 1.0 vs baseline 1.5 (tol 1e-06)"]
        assert res["numerics"] == {"N": 48, "K": 8, "xi0": 1.0}
        assert capsys.readouterr().out.startswith("regression FAILED:\n  kappa0: measured 1.0")

    def test_switch_value_other_than_true_or_false_is_config_error(self, tmp_path, monkeypatch, capsys):
        self.no_measurement(monkeypatch)
        base, cfg = tmp_path / "b.json", tmp_path / "reg.cfg"
        cfg.write_text("record=maybe\n")
        assert run_cli(["regression", "--baseline", str(base), "--config", str(cfg),
                        "--output", str(tmp_path / "reg.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: config value record='maybe'")
        assert not base.exists()


class TestNeutralSearchCommand:
    def test_quick_search(self, tmp_path):
        out = tmp_path / "neutral.json"
        code = run_cli(["neutral-search", "--N", "96", "--N-check", "144", "--tol", "1e-3",
                        "--output", str(out)])
        assert code == 0
        with open(out) as fh:
            raw = json.load(fh, parse_constant=lambda c: pytest.fail(f"non-finite {c}"))
        res = raw["results"]
        assert res["reversal_confirmed"]
        assert res["minus3A1"] == pytest.approx(5772.22, abs=2e-3)
        for i, entry in enumerate(res["trace"]):
            assert set(entry) == {"iterate", "A", "T", "re", "im", "N"} and entry["iterate"] == i
        assert abs(res["trace"][-1]["re"]) <= 1e-3


class TestInputGuards:
    def test_overflowing_force_is_config_error(self, tmp_path):
        code = run_cli(["solve-linear", "--profile", "poiseuille", "--f", "exp(1000*y)",
                        "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_singular_source_is_config_error(self, tmp_path):
        code = run_cli(["solve-mode", "--profile", "poiseuille", "--xi", "1",
                        "--h", "1/(y-y)", "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_too_few_collocation_points_is_config_error(self, tmp_path):
        code = run_cli(["solve-mode", "--profile", "poiseuille", "--xi", "1", "--N", "4",
                        "--output", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--A=nan", "--T=1", "--N=32"],
        ["spectrum", "--A=-0.2", "--T=1e200", "--N=32"],
        ["solve-mode", "--profile", "poiseuille", "--xi", "1e200"],
        ["symmetry-check", "--profile", "poiseuille", "--xi0", "1e100"],
        ["solve-nonlinear", "--profile", "poiseuille", "--tol", "inf"],
    ], ids=["nan-A", "huge-T", "huge-xi", "huge-xi0", "inf-tol"])
    def test_non_finite_or_overflowing_flag_is_config_error(self, tmp_path, argv):
        assert run_cli(argv + ["--output", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("argv", [
        ["solve-mode", "--profile", "poiseuille", "--xi", "0"],
        ["spectrum", "--A", "-0.2", "--T", "0", "--N", "32"],
        ["spectrum", "--A", "-0.2", "--T", "-1", "--N", "32"],
        ["neutral-search", "--T-min", "0", "--T-max", "1.3", "--N", "32", "--N-check", "48"],
        ["neutral-search", "--T-min", "0.8", "--T-max", "-1", "--N", "32", "--N-check", "48"],
    ], ids=["zero-xi", "zero-T", "negative-T", "zero-T-min", "negative-T-max"])
    def test_zero_or_negative_wavenumber_is_config_error(self, tmp_path, argv):
        assert run_cli(argv + ["--output", str(tmp_path / "x.json")]) == 2

    def test_overflowing_force_energy_is_named(self, tmp_path, capsys):
        # finite samples whose mode energies overflow: one error line, no numpy warning
        out = tmp_path / "x.json"
        argv = ["solve-linear", "--profile", "poiseuille", "--N", "12", "--K", "3",
                "--f", "1e300*sin(3*x)*exp(y)", "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "force energy overflows" in err[0]
        assert not out.exists()

    def test_symmetry_check_overflowing_scale_is_solver_error(self, tmp_path):
        # K * xi0 = 8e70 passes the flag guard, but the H2 scale overflows
        out = tmp_path / "x.json"
        argv = ["symmetry-check", "--profile", "poiseuille", "--xi0", "1e70", "--output", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(argv) == 3
        assert not out.exists()

    def test_non_finite_result_is_not_written(self, tmp_path):
        # a zero source has no Poincare ratio (int |sigma|^2 = 0 gives inf)
        out = tmp_path / "x.json"
        argv = ["solve-mode", "--profile", "poiseuille", "--xi", "1", "--h", "0*y", "--output", str(out)]
        assert run_cli(argv) == 3
        assert not out.exists()


README_COMMANDS = [
    ["solve-mode", "--A", "-1", "--B", "0", "--C", "3", "--xi", "1", "--N", "64", "--h", "sin(pi*y)"],
    ["solve-linear", "--profile", "poiseuille", "--flux", "4", "--N", "48", "--K", "8",
     "--f", "sin(x)*(1-y**2)", "--g", "cos(x)*y"],
    ["solve-nonlinear", "--profile", "poiseuille", "--flux", "4",
     "--f", "0.01*sin(x)", "--g", "0.0*y"],
    ["spectrum", "--A", "-0.2", "--T", "1.0", "--N", "120"],
    # the README search at a quick resolution: the same code path, a fraction of the time
    ["neutral-search", "--reA-min", "5000", "--reA-max", "6500", "--tol", "1e-3",
     "--N", "96", "--N-check", "144"],
    ["verify-estimates", "--profile", "poiseuille", "--flux", "4"],
    ["symmetry-check", "--A", "-1", "--B", "0", "--C", "3.5"],
    ["regression", "--baseline", "baseline.json", "--record", "--N", "40", "--K", "4"],
]

HYGIENE_SCRIPT = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import cpflow, cpflow.cli
after_import = scipy_modules()
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        cpflow.cli.main(argv)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"import": after_import, "commands": scipy_modules(), "codes": codes}))
"""


class TestImportHygiene:
    def test_no_scipy_on_the_import_path(self, tmp_path):
        # the package runs on numpy alone: importing scipy.linalg costs
        # about 0.3 s and 28 MB of RSS in every one-shot command
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("CPFLOW_OUTPUT_DIR", None)
        proc = subprocess.run([sys.executable, "-c", HYGIENE_SCRIPT, json.dumps(README_COMMANDS)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(README_COMMANDS), proc.stderr[-2000:]
        assert report["import"] == [] and report["commands"] == []


def _finite(obj):
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


class TestAdversarialSweep:
    """Seeded random draws over the numeric flags and the forcing grammar.

    Each flag takes an adversarial value (non-finite, overflowing, zero,
    negative, out of range) with probability P_BAD, else an ordinary one.
    Every draw must end in a documented exit code, and exit 0 must mean a
    finite payload.  solve-nonlinear's ``converged`` flag is not a gate here.
    """

    P_BAD = 0.12
    BAD_FLOATS = ("nan", "inf", "-inf", "1e400", "1e200", "-1e200", "1e100", "1e-300",
                  "0", "-0.0", "-1", "1e6")
    X = ("sin(x)", "cos(2*x)", "sin(3*x)")
    Y = ("1", "y", "(1-y**2)", "y**3", "sin(pi*y)", "exp(y)")

    def num(self, rng, lo, hi):
        if rng.random() < self.P_BAD:
            return str(rng.choice(self.BAD_FLOATS))
        return repr(float(rng.uniform(lo, hi)))

    def force(self, rng, x=True):
        terms = []
        for _ in range(rng.integers(1, 3)):
            bad = rng.random() < self.P_BAD
            c = str(rng.choice(("1e300", "-1e250", "1e-300", "0.0"))) if bad else self.num(rng, -0.05, 0.05)
            terms.append(f"{c}*{rng.choice(self.X)}*{rng.choice(self.Y)}" if x else f"{c}*{rng.choice(self.Y)}")
        return " + ".join(terms)

    def profile(self, rng, even=False):
        if rng.random() < 0.4:
            return ["--profile", "poiseuille", "--flux", self.num(rng, 0.5, 6.0)]
        if rng.random() < 0.2 and not even:
            return ["--profile", "couette", "--shear", self.num(rng, 0.1, 3.0)]
        return ["--A", self.num(rng, -1.5, 0.0), "--B", "0" if even else self.num(rng, -0.5, 0.5),
                "--C", self.num(rng, 2.0, 4.0)]

    def common(self, rng):
        bad = rng.random() < self.P_BAD
        return ["--N", str(rng.choice((-8, 0, 7) if bad else (8, 12, 16))),
                "--K", str(rng.choice((-1, 0) if bad else (1, 2, 3))),
                "--max-iter", str(rng.choice((-1, 0) if bad else (1, 5, 40))),
                "--xi0", self.num(rng, 0.3, 2.0), "--tol", self.num(rng, 1e-12, 1e-4),
                "--seed", str(rng.integers(0, 5))]

    def draw(self, rng):
        cmd = str(rng.choice(("solve-mode", "solve-linear", "solve-nonlinear", "spectrum",
                              "verify-estimates", "symmetry-check")))
        common = self.common(rng)
        reads = {"--" + name.replace("_", "-") for name in cli.NUMERICS[cmd]}
        argv = [cmd] + [a for flag, value in zip(common[::2], common[1::2]) if flag in reads
                        for a in (flag, value)]
        if cmd == "solve-mode":
            argv += self.profile(rng) + ["--xi", self.num(rng, 0.1, 5.0), "--h", self.force(rng, x=False)]
        elif cmd in ("solve-linear", "solve-nonlinear"):
            argv += self.profile(rng) + ["--f", self.force(rng), "--g", self.force(rng)]
            if cmd == "solve-nonlinear" and rng.random() < 0.7:
                argv += ["--delta", self.num(rng, 0.1, 10.0)]
            if cmd == "solve-nonlinear" and rng.random() < 0.3:
                argv += ["--symmetry", str(rng.choice(("X1", "Y1")))]
        elif cmd == "spectrum":
            argv += ["--A", self.num(rng, -2.0, 0.0), "--T", self.num(rng, 0.1, 3.0)]
        else:
            argv += self.profile(rng, even=cmd == "symmetry-check")
        return argv

    def test_exit_codes_and_finite_payloads(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        out = tmp_path / "out.json"
        codes = []
        for _ in range(300):
            argv = self.draw(rng) + ["--output", str(out)]
            out.unlink(missing_ok=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to exit 3
                code = run_cli(argv)
            codes.append(code)
            assert code in (0, 2, 3), argv
            if code == 0:
                with open(out) as fh:
                    assert _finite(json.load(fh)["results"]), argv
        capsys.readouterr()
        assert {0, 2, 3} <= set(codes)
