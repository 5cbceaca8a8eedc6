"""Exact work counts of fixed inputs: inversions, mode-operator constructions,
Picard maps, residuals and real FFTs.

Counts do not depend on the machine.  A change that moves one edits its
literal here and names the old and new value in CHANGES.md.
"""

import numpy as np
import pytest

from cpflow import nonlinear
from cpflow.channel import ForceField, LinearizedChannelSolver, random_field
from cpflow.cli import main
from cpflow.nonlinear import NonlinearChannelSolver, PicardConfig, random_force
from cpflow.os_solver import OSModeOperator
from cpflow.profiles import poiseuille_for_flux
from cpflow.spectral import build_grid

POISEUILLE = poiseuille_for_flux(4.0)
N, K, XI0 = 96, 32, 1.0  # the picard benchmark workload's solver
DELTA = 120.0  # below the delta of 122 that its measured kappa0 and c1 give
FORCE = 9.0  # about half the forcing headroom delta / (4 kappa0) of 18.7


def count_calls(monkeypatch):
    """Install counting wrappers; returns {name: calls from now on}."""
    tally = {}

    def wrap(owner, attr, key):
        fn = getattr(owner, attr)
        tally[key] = 0

        def counting(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    wrap(np.linalg, "inv", "inv")
    wrap(OSModeOperator, "__init__", "OSModeOperator")
    wrap(NonlinearChannelSolver, "picard_map", "picard_map")
    wrap(nonlinear, "nonlinear_residual", "nonlinear_residual")
    wrap(np.fft, "rfft", "rfft")
    wrap(np.fft, "irfft", "irfft")
    return tally


@pytest.fixture(scope="module")
def picard():
    return NonlinearChannelSolver(POISEUILLE, build_grid(N), K, XI0)


class TestLinearSolver:
    def test_build_inverts_k0_once_per_grid(self, monkeypatch):
        grid = build_grid(N)
        calls = count_calls(monkeypatch)
        LinearizedChannelSolver(POISEUILLE, grid, K, XI0)
        assert (calls["inv"], calls["OSModeOperator"]) == (K + 1, K)  # k = 0 filled at build
        LinearizedChannelSolver(POISEUILLE, grid, K, XI0)
        assert (calls["inv"], calls["OSModeOperator"]) == (2 * K + 1, 2 * K)

    def test_solve_modes_inverts_nothing(self, picard, monkeypatch):
        f_modes, g_modes = random_force(np.random.default_rng(7), picard.grid, K, XI0, 1.0).modes()
        calls = count_calls(monkeypatch)
        for n in (1, 2, 3):
            picard.linear.solve_modes(f_modes, g_modes)
            assert (calls["inv"], calls["OSModeOperator"]) == (0, n)


class TestPicardSolve:
    # one solve_modes per map, each reading the grid's k = 0 inverse; an
    # irfft/rfft pair per advection (none in a first map from zero) and per
    # residual, and one rfft for the force's analysis
    @pytest.mark.parametrize("forced, want", [
        (False, {"inv": 0, "OSModeOperator": 4, "picard_map": 4, "nonlinear_residual": 1,
                 "rfft": 6, "irfft": 5}),
        (True, {"inv": 0, "OSModeOperator": 4, "picard_map": 4, "nonlinear_residual": 1,
                "rfft": 5, "irfft": 4}),
    ], ids=["unforced", "forced"])
    def test_counts(self, picard, monkeypatch, forced, want):
        rng = np.random.default_rng(29)
        grid = picard.grid
        cfg = PicardConfig(delta=DELTA, tol=1e-8 * DELTA, max_iter=200)
        if forced:
            force, w0 = random_force(rng, grid, K, XI0, FORCE), None
        else:
            force, w0 = ForceField.zero(XI0, K, grid), random_field(rng, grid, K, XI0, 0.5 * DELTA)
        calls = count_calls(monkeypatch)
        _fld, trace = picard.solve(force, cfg, w0=w0)
        assert trace.converged
        assert calls == want


class TestCliCommands:
    # inversions: the grid's Dirichlet inverse, its k = 0 inverse and the
    # K = 8 mode inverses of the one solver; constructions: K, plus one per
    # solve_modes (the measured kappa0 and the maps in solve-nonlinear)
    @pytest.mark.parametrize("argv, want", [
        (["solve-linear", "--profile", "poiseuille", "--flux", "4", "--N", "48", "--K", "8",
          "--f", "sin(x)*(1-y**2)", "--g", "cos(x)*y"], (10, 9)),
        (["solve-nonlinear", "--profile", "poiseuille", "--flux", "4", "--f", "0.01*sin(x)",
          "--g", "0.0*y"], (10, 19)),
    ], ids=["solve-linear", "solve-nonlinear"])
    def test_readme_settings(self, tmp_path, monkeypatch, argv, want):
        calls = count_calls(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "out.json")])
        assert (exc.value.code or 0) == 0
        assert (calls["inv"], calls["OSModeOperator"]) == want
