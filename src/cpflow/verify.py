"""The paper's three claims checked on the discretization, and the baseline that pins them.

The sigma = phi/F energy estimate (``estimate_battery``), the parity
cancellation behind uniqueness in the large (``symmetry_cancellation``)
and the measured constants behind structural stability (``measured_ball``,
``measure_baseline``).  Every function takes plain arguments and returns
plain dicts, lists or tuples; the CLI gates and writes them.
"""

import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channel import ChannelField, check_symmetry_cancellation, field_h_norm
from .errors import ConfigError, CpflowError
from .nonlinear import (NonlinearChannelSolver, contraction_ball_radius, measure_c1, measure_contraction,
                        measure_kappa0)
from .os_solver import apriori_ratio, sigma_diagnostics, solve_os_mode
from .spectral import GridFunction, build_grid, poincare_ratio
from .spectrum import neutral_search

__all__ = ["estimate_battery", "symmetry_cancellation", "measured_ball", "measure_baseline",
           "BASELINE_TOLERANCES", "read_baseline", "compare_baseline", "record_baseline"]


def estimate_battery(p, grid, seed):
    """The energy-estimate checks at profile ``p``: booleans and the measured numbers behind them."""
    rng = np.random.default_rng(seed)
    checks = {}
    # Poincare equality case and lower bound
    sig = GridFunction.from_callable(grid, lambda y: np.cos(np.pi * y / 2.0))
    checks["poincare_equality"] = abs(poincare_ratio(sig) - np.pi**2 / 4.0) < 1e-8
    lows = []
    for _ in range(20):
        c = rng.normal(size=4)
        vals = (1.0 - grid.nodes**2) * np.polynomial.chebyshev.chebval(grid.nodes, c)
        lows.append(poincare_ratio(GridFunction(grid, vals)))
    checks["poincare_lower_bound"] = min(lows) >= np.pi**2 / 4.0 - 1e-8
    # manufactured solve
    phi = np.polynomial.Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])
    F = np.polynomial.Polynomial([p.C, p.B, 3.0 * p.A])
    worst = 0.0
    for xi in (0.5, 1.0, 5.0):
        lin = phi.deriv(4) - 2.0 * xi**2 * phi.deriv(2) + xi**4 * phi
        ost = F * (phi.deriv(2) - xi**2 * phi) - 6.0 * p.A * phi
        h = GridFunction(grid, lin(grid.nodes) - 1j * xi * ost(grid.nodes))
        sol = solve_os_mode(p, xi, h, grid)
        worst = max(worst, float(np.abs(sol.phi.values - phi(grid.nodes)).max()))
    checks["manufactured_max_error"] = worst
    checks["manufactured_ok"] = worst < 1e-9
    # energy inequality and a priori ratios over a xi sweep
    basis = np.array([np.ones_like(grid.nodes), grid.nodes, np.sin(np.pi * grid.nodes), np.exp(grid.nodes)])
    ineq_ok = a00_ok = True
    rmax = 0.0
    for xi in np.geomspace(0.1, 20.0, 12):
        hv = rng.normal(size=4) @ basis + 1j * (rng.normal(size=4) @ basis)
        h = GridFunction(grid, hv)
        sol = solve_os_mode(p, xi, h, grid)
        d = sigma_diagnostics(sol, p)
        rhs = grid.quad(hv * np.conj(d.sigma.values)).real
        scale = abs(d.energy_lhs) + abs(rhs) + 1e-300
        ineq_ok &= d.energy_lhs <= rhs + 1e-8 * scale
        a00_ok &= d.a00_value <= 1e-10 * (1.0 + abs(d.a00_value))
        rmax = max(rmax, *apriori_ratio(sol, h))
    checks["energy_inequality"] = bool(ineq_ok)
    checks["wall_term_sign"] = bool(a00_ok)
    checks["apriori_ratio_bound"] = rmax
    # zero source -> zero solution
    zero = solve_os_mode(p, 1.0, GridFunction(grid, np.zeros(grid.N + 1, dtype=complex)), grid)
    checks["zero_source_zero_solution"] = float(np.abs(zero.phi.values).max()) == 0.0
    return checks


def symmetry_cancellation(p, grid, K, xi0):
    """Worst cancellation integral over a pure-cos and a pure-sin field, over their H2 norm squared.

    ``ok`` holds when it is below 1e-10.
    """
    env = (1.0 - grid.nodes**2) ** 2
    worst = 0.0
    for row in (env / 2.0, env / 2.0j):  # mode 1 of cos(xi0 x) and of sin(xi0 x)
        psi = np.zeros((K + 1, grid.N + 1), dtype=complex)
        psi[1] = row
        fld = ChannelField(xi0, K, grid, psi)
        i1, i2 = check_symmetry_cancellation(p, fld)
        scale = field_h_norm(fld, 2) ** 2 + 1e-300
        if not all(map(math.isfinite, (i1, i2, scale))):
            raise CpflowError(f"non-finite cancellation integrals ({i1}, {i2}) or scale {scale}")
        worst = max(worst, abs(i1) / scale, abs(i2) / scale)
    return {"worst_cancellation": worst, "ok": worst < 1e-10}


def measured_ball(p, grid, K, xi0, seed, solver=None):
    """(kappa0, c1, delta): measured constants and the ball radius they give.

    ``solver``: a ``LinearizedChannelSolver`` of the same (p, grid, K, xi0), if held.
    """
    k0 = measure_kappa0(p, grid, K, xi0, n_samples=8, seed=seed, solver=solver)
    c1 = measure_c1(grid, K, xi0, n_pairs=8, seed=seed + 1)
    return k0, c1, contraction_ball_radius(k0, c1)


BASELINE_TOLERANCES = {"kappa0": 1e-6, "c1": 1e-6, "contraction_ratio": 1e-6, "apriori_ratio_bound": 1e-6,
                       "neutral_minus3A": 1e-3, "neutral_T0": 1e-3, "neutral_im_over_T0": 1e-3}


def measure_baseline(p, N, K, xi0, seed):
    """The constants of ``BASELINE_TOLERANCES``, measured at reduced, deterministic numerics."""
    grid = build_grid(N)
    solver = NonlinearChannelSolver(p, grid, K, xi0)
    k0, c1, delta = measured_ball(p, grid, K, xi0, seed, solver.linear)
    ratio = measure_contraction(p, None, delta, grid, K, xi0, n_pairs=8, seed=seed + 2, solver=solver)
    checks = estimate_battery(p, grid, seed)
    npt = neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96, N_check=144,
                         T_tol=1e-4, agreement_rtol=5e-3)
    values = (k0, c1, ratio, checks["apriori_ratio_bound"], -3.0 * npt.A1, npt.T0, npt.lambda1.imag / npt.T0)
    return dict(zip(BASELINE_TOLERANCES, values, strict=True))


def _finite_number(v):
    """A JSON number that is finite as a float; booleans are not numbers here."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def read_baseline(path):
    """The stored baseline, with a finite number for every measured key and tolerances >= 0."""
    if not os.path.exists(path):
        raise ConfigError(f"baseline file not found: {path} (use --record)")
    try:
        with open(path) as fh:
            base = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise ConfigError(f"cannot read baseline {path}: {exc}") from None
    base = base if isinstance(base, dict) else {}
    values, tols = base.get("values"), base.get("tolerances", {})
    missing = [k for k in BASELINE_TOLERANCES
               if not isinstance(values, dict) or not _finite_number(values.get(k))]
    if missing:
        raise ConfigError(f"baseline {path} has no finite number for {missing}; record it again")
    if not isinstance(tols, dict) or not all(_finite_number(t) and t >= 0 for t in tols.values()):
        raise ConfigError(f"baseline {path}: tolerances must map keys to finite numbers >= 0")
    return base


def compare_baseline(base, measured):
    """One line for each measured constant outside its baseline tolerance."""
    failures = []
    for key, val in measured.items():
        ref = base["values"][key]
        tol = base.get("tolerances", BASELINE_TOLERANCES).get(key, 1e-6)
        if not math.isclose(val, ref, rel_tol=tol, abs_tol=tol):
            failures.append(f"{key}: measured {val!r} vs baseline {ref!r} (tol {tol})")
    return failures


def record_baseline(path, measured):
    """Write ``measured`` and the tolerances it is compared with as the baseline file at ``path``."""
    with open(path, "w") as fh:
        json.dump({"schema": "cpflow-baseline/1", "version": __version__,
                   "tolerances": BASELINE_TOLERANCES, "values": measured},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
