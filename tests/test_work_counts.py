"""Exact work counts of fixed inputs: inversions, mode-operator constructions,
Picard maps, residuals, real FFTs, and neutral-search eigenvalue evaluations
and eigen-solves.

Counts do not depend on the machine.  A change that moves one edits its
literal here and names the old and new value in CHANGES.md.
"""

from collections import Counter

import numpy as np
import pytest

from cpflow import nonlinear, spectrum
from cpflow.channel import ForceField, LinearizedChannelSolver, random_field
from cpflow.cli import main
from cpflow.nonlinear import NonlinearChannelSolver, PicardConfig, random_force
from cpflow.os_solver import OSModeOperator
from cpflow.profiles import poiseuille_for_flux
from cpflow.spectral import GridFunction, build_grid, h_minus1_norm

POISEUILLE = poiseuille_for_flux(4.0)
N, K, XI0 = 96, 32, 1.0  # the picard benchmark workload's solver
DELTA = 120.0  # below the delta of 122 that its measured kappa0 and c1 give
FORCE = 9.0  # about half the forcing headroom delta / (4 kappa0) of 18.7


COUNTED = (
    (np.linalg, "inv", "inv"),
    (OSModeOperator, "__init__", "OSModeOperator"),
    (NonlinearChannelSolver, "picard_map", "picard_map"),
    (nonlinear, "nonlinear_residual", "nonlinear_residual"),
    (np.fft, "rfft", "rfft"),
    (np.fft, "irfft", "irfft"),
)


def count_calls(monkeypatch, targets=COUNTED):
    """Install counting wrappers on (owner, attr, name) targets; returns {name: calls from now on}."""
    tally = {}

    def wrap(owner, attr, key):
        fn = getattr(owner, attr)
        tally[key] = 0

        def counting(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    for target in targets:
        wrap(*target)
    return tally


@pytest.fixture(scope="module")
def picard():
    return NonlinearChannelSolver(POISEUILLE, build_grid(N), K, XI0)


class TestGrid:
    def test_build_inverts_nothing(self, monkeypatch):
        calls = count_calls(monkeypatch)
        build_grid(N)
        assert calls["inv"] == 0

    def test_h_minus1_inverts_once_per_grid(self, monkeypatch):
        grid = build_grid(N)
        h = GridFunction.from_callable(grid, lambda y: np.sin(np.pi * y))
        calls = count_calls(monkeypatch)
        h_minus1_norm(h)
        h_minus1_norm(h)
        assert calls["inv"] == 1


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
    # inversions: the grid's k = 0 inverse and the K = 8 mode inverses of
    # the one solver; constructions: K, plus one per solve_modes (the
    # measured kappa0 and the maps in solve-nonlinear)
    @pytest.mark.parametrize("argv, want", [
        (["solve-linear", "--profile", "poiseuille", "--flux", "4", "--N", "48", "--K", "8",
          "--f", "sin(x)*(1-y**2)", "--g", "cos(x)*y"], (9, 9)),
        (["solve-nonlinear", "--profile", "poiseuille", "--flux", "4", "--f", "0.01*sin(x)",
          "--g", "0.0*y"], (9, 19)),
    ], ids=["solve-linear", "solve-nonlinear"])
    def test_readme_settings(self, tmp_path, monkeypatch, argv, want):
        calls = count_calls(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "out.json")])
        assert (exc.value.code or 0) == 0
        assert (calls["inv"], calls["OSModeOperator"]) == want


class TestNeutralSearch:
    # leading_eigenvalue calls by N: the T scans, end-point Newtons and 2-D
    # Newton at N_COARSE = 64, then 2 Newton evaluations each at N and N_check
    def test_acceptance_settings(self, neutral_full):
        # the trace holds the sensitivity calls; the +1 final lambda1 is at npt.N
        npt, _elapsed = neutral_full
        assert Counter(e["N"] for e in npt.trace) == {64: 27, 200: 2, 300: 2}
        assert npt.N == 300

    def test_regression_settings(self, monkeypatch):
        # verify.measure_baseline's search; every evaluation takes one
        # eigvals per parity block and no eig
        calls = Counter()
        inner = spectrum.leading_eigenvalue

        def counting(A, T, N, sensitivity=False):
            calls[N, sensitivity] += 1
            return inner(A, T, N, sensitivity)

        monkeypatch.setattr(spectrum, "leading_eigenvalue", counting)
        linalg = count_calls(monkeypatch, [(np.linalg, name, name) for name in ("eig", "eigvals")])
        spectrum.neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96, N_check=144,
                                T_tol=1e-4, agreement_rtol=5e-3)
        assert calls == {(64, True): 24, (96, True): 2, (144, True): 2, (144, False): 1}
        assert linalg == {"eig": 0, "eigvals": 58}
