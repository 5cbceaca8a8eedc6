import json

import pytest

from cpflow import cli
from cpflow.cli import main
from cpflow.errors import ConfigError
from cpflow.forcing import compile_expression


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
            run_cli(
                ["solve-mode", "--profile", "poiseuille", "--flux", "4", "--xi", "1",
                 "--N", "48", "--seed", "7", "--output", str(out)]
            )
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

    def test_missing_baseline_is_config_error(self, tmp_path, monkeypatch):
        # the file is checked before anything is measured
        def measure_baseline(args, p):
            raise AssertionError("measured before checking the baseline file")

        monkeypatch.setattr(cli, "measure_baseline", measure_baseline)
        code = run_cli(["regression", "--baseline", str(tmp_path / "none.json")])
        assert code == 2


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
