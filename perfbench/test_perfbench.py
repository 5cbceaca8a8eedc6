"""Tests of the benchmark itself: exact counts, cross-checks, gates, self time.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The same-seed test runs each workload's traced run twice (the neutral
workload takes about two minutes of that).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cpflow import spectrum  # noqa: E402
from cpflow.forcing import compile_expression  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_UNITS = {"count", "B", "GFLOP", "ratio", "calls/solve"}


def bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_same_seed(workload):
    first, second = bench(workload, 5, 1), bench(workload, 5, 1)
    # correct covers the cross-checks against NeutralPoint.trace,
    # PicardTrace.n_iter and the factorization count
    assert first["correct"] and second["correct"]

    def counts(res):
        return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS}

    assert counts(first) == counts(second)


def test_cross_check_catches_a_missed_by_name_binding():
    """neutral_search calls leading_eigenvalue through its module global."""
    def search():
        return spectrum.neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96,
                                       N_check=144, T_tol=1e-4, agreement_rtol=5e-3)

    for skip_binding in (False, True):
        tracer = Tracer()
        tracer.install()
        try:
            if skip_binding:
                spectrum.leading_eigenvalue = spectrum.leading_eigenvalue.__wrapped__
            search()
        finally:
            tracer.uninstall()
        problems = layers.cross_checks(tracer, [(0.0, [], (0, len(tracer.spans)))])
        assert bool(problems) == skip_binding, problems


class _OneCommand:
    """A workload whose single pass is one given CLI command."""

    def __init__(self, out_dir, argv):
        self.cli = workloads.Cli(seed=0, out_root=str(out_dir))
        self.cli.outdir = str(out_dir)
        self.argv = argv

    def ops(self, p):
        return [self.cli.command_op(self.argv[0], self.argv)]


def test_gate_counts_curl_free_force_as_failed(tmp_path):
    # the README's own example: a pure-gradient force, whose solution is zero
    readme = ["solve-nonlinear", "--profile", "poiseuille", "--flux", "4",
              "--f", "0.01*sin(x)", "--g", "0.0*y"]
    wall, records, _spans = run.run_pass(_OneCommand(tmp_path, readme), 0)
    assert len(records) == 1 and wall > 0.0
    assert records[0]["error"].startswith("gate: not converged")


def test_forcing_draws_parse_in_the_cli_grammar():
    rng = np.random.default_rng(0)
    x, y = np.meshgrid(np.linspace(0.0, 6.0, 5), np.linspace(-1.0, 1.0, 5))
    for _ in range(200):
        assert np.isfinite(compile_expression(workloads.forcing_expression(rng, 1.0))(x, y)).all()


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer: 0..5 with children 1..2 and 3..4
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert tracer.self_times() == [3, 1, 1]
    assert tracer.descendants(0, "inner") == 2
