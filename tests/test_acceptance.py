"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Three criteria are checked on the quantity the method promises:

* criterion 3 spread, E over the sharper bound: the a priori estimate
  bounds E by a constant times min(||h||_{H^-1}^2, xi^-2 ||h||_{L^2}^2)
  uniformly in xi, so the spread is taken of E over that minimum,
  computed from its definition and cross-checked against
  ``apriori_ratio``.  E over the weaker of the two bounds goes to 0 at
  both ends of the sweep and witnesses nothing.
* criterion 6 iterate symmetry, Y1 iterates: the map is not x-reflection
  equivariant (the transport terms F d_x Delta and 6A d_x and the
  quadratic term psi_x Delta psi_y - psi_y Delta psi_x are odd under
  x -> -x), so X1 is kept only by the projected iteration; for an even
  profile unprojected iterates from Y1 data stay in Y1 to the mode-solve
  floor.
* criterion 8 eigenvalue scale, Im(lambda1)/T0 = -c_r * Re_c: the
  eigenproblem is in viscosity units, lambda = -i T (-3A) c, so the
  classical c_r = 0.2640 and Re_c = 5772.22 (Orszag 1971) give about
  -1523.87; the velocity-normalized phase speed is checked separately.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cpflow import verify
from cpflow.channel import (
    ForceField,
    LinearizedChannelSolver,
    check_symmetry_cancellation,
    field_h_norm,
    random_field,
    recover_pressure_gradient,
    symmetry_project,
)
from cpflow.nonlinear import (
    NonlinearChannelSolver,
    PicardConfig,
    contraction_ball_radius,
    measure_c1,
    measure_contraction,
    measure_kappa0,
    picard_solve,
    uniqueness_probe,
)
from cpflow.os_solver import apriori_ratio, solve_os_mode
from cpflow.profiles import Profile, check_admissibility, poiseuille_for_flux
from cpflow.spectral import GridFunction, build_grid, h_minus1_norm, poincare_ratio
from cpflow.spectrum import kernel_witness, os_spectrum
from manufactured import ModePoly, linearized_force

POISEUILLE = poiseuille_for_flux(4.0)
ENV = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])


def report(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid64():
    return build_grid(64)


@pytest.fixture(scope="module")
def grid48():
    return build_grid(48)


@pytest.fixture(scope="module")
def constants(grid48):
    k0 = measure_kappa0(POISEUILLE, grid48, 8, 1.0, n_samples=12, seed=1)
    c1 = measure_c1(grid48, 8, 1.0, n_pairs=12, seed=2)
    return k0, c1, contraction_ball_radius(k0, c1)


def test_criterion_01_poincare_constant(grid64):
    t0 = time.time()
    sigma = GridFunction.from_callable(grid64, lambda y: np.cos(np.pi * y / 2.0))
    eq_err = abs(poincare_ratio(sigma) - np.pi**2 / 4.0)
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(100):
        c = rng.normal(size=6)
        vals = (1.0 - grid64.nodes**2) * np.polynomial.chebyshev.chebval(grid64.nodes, c)
        worst = min(worst, poincare_ratio(GridFunction(grid64, vals)))
    elapsed = time.time() - t0
    ok = eq_err <= 1e-8 and worst >= np.pi**2 / 4.0 - 1e-8 and elapsed < 1.0
    report(
        "01 poincare",
        ok,
        f"equality defect {eq_err:.2e}, min ratio {worst:.6f} >= pi^2/4 - 1e-8, {elapsed:.2f}s",
    )


def test_criterion_02_manufactured_mode_solve(grid48):
    t0 = time.time()
    F = Polynomial([POISEUILLE.C, POISEUILLE.B, 3.0 * POISEUILLE.A])
    worst = 0.0
    for xi in (0.5, 1.0, 5.0):
        lin = ENV.deriv(4) - 2.0 * xi**2 * ENV.deriv(2) + xi**4 * ENV
        ost = F * (ENV.deriv(2) - xi**2 * ENV) - 6.0 * POISEUILLE.A * ENV
        h = GridFunction(grid48, lin(grid48.nodes) - 1j * xi * ost(grid48.nodes))
        sol = solve_os_mode(POISEUILLE, xi, h, grid48)
        worst = max(worst, float(np.abs(sol.phi.values - ENV(grid48.nodes)).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report("02 manufactured-os", ok, f"max recovery error {worst:.2e} <= 1e-10, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def xi_sweep(grid64):
    rng = np.random.default_rng(303)
    basis = np.array(
        [np.ones_like(grid64.nodes), grid64.nodes, np.sin(np.pi * grid64.nodes),
         np.cos(2.0 * grid64.nodes), np.exp(grid64.nodes)]
    )
    sources = [
        GridFunction(grid64, rng.normal(size=5) @ basis + 1j * (rng.normal(size=5) @ basis))
        for _ in range(5)
    ]
    xis = np.geomspace(0.05, 50.0, 40)
    t0 = time.time()
    mins, maxs, sharp = [], [], []
    disagree = 0.0
    for xi in xis:
        vmin, vmax, vsharp = [], [], []
        for h in sources:
            sol = solve_os_mode(POISEUILLE, xi, h, grid64)
            r_h, r_l2 = apriori_ratio(sol, h)
            vmin.append(min(r_h, r_l2))
            vmax.append(max(r_h, r_l2))
            # E over the sharper data bound, from the estimate's definition
            bound = min(h_minus1_norm(h) ** 2, grid64.l2_norm(h.values) ** 2 / xi**2)
            vsharp.append(sol.lhs_energy / bound)
            disagree = max(disagree, abs(vsharp[-1] - vmax[-1]) / vmax[-1])
        mins.append(max(vmin))
        maxs.append(max(vmax))
        sharp.append(max(vsharp))
    return np.array(mins), np.array(maxs), np.array(sharp), disagree, time.time() - t0


def test_criterion_03_uniform_bound(xi_sweep):
    mins, maxs, _sharp, _disagree, elapsed = xi_sweep
    ok = maxs.max() <= 0.1 and elapsed < 30.0
    report(
        "03 uniform-in-xi bound",
        ok,
        f"all ratios bounded by the recorded constant 0.1 "
        f"(max min-ratio {mins.max():.3e}, max two-sided {maxs.max():.3e}), {elapsed:.1f}s",
    )


def test_criterion_03_spread_literal(xi_sweep):
    # criterion: spread across xi <= 10x of E over the sharper data bound,
    # E / min(||h||_{H^-1}^2, xi^-2 ||h||_{L^2}^2), the ratio the a priori
    # estimate bounds uniformly in xi.  E over the weaker bound,
    # min(r_hminus1, r_l2), is ~0.0175 xi^2 at small xi and falls faster
    # than xi^-2 at large xi, so it bounds nothing.  The ratio is computed
    # from its definition and must agree with max(apriori_ratio) to 1e-12.
    _mins, _maxs, sharp, disagree, _elapsed = xi_sweep
    spread = sharp.max() / np.median(sharp)
    ok = spread <= 10.0 and disagree <= 1e-12
    report(
        "03 spread (E over the sharper bound)",
        ok,
        f"max/median {spread:.2f} <= 10, relative gap to apriori_ratio {disagree:.1e} <= 1e-12",
    )


def test_criterion_03_spread_uniformity_witness(xi_sweep):
    # corrected witness: max(r_hminus1, r_l2) certifies the two-sided
    # solvability bound uniformly in xi
    _mins, maxs, _sharp, _disagree, _elapsed = xi_sweep
    spread = maxs.max() / np.median(maxs)
    report("03 spread (two-sided witness)", spread <= 10.0, f"max/median {spread:.2f} <= 10")


def test_criterion_04_linearized_channel(grid48):
    t0 = time.time()
    xi0, K = 1.0, 8
    psi = ModePoly.sinx(xi0, 1, ENV)
    q = ModePoly.cosx(xi0, 1, 0.4 * Polynomial([0.0, -1.0, 0.0, 1.0]))
    f, g, v, w = linearized_force(POISEUILLE, psi, q=q)
    force = ForceField.from_callables(xi0, K, grid48, f.callable(), g.callable())
    solver = LinearizedChannelSolver(POISEUILLE, grid48, K, xi0)
    fld = solver.solve(force)
    X, Y = np.meshgrid(fld.x(), grid48.nodes, indexing="ij")
    v_err = float(np.abs(fld.v_values() - v.callable()(X, Y)).max())
    w_err = float(np.abs(fld.w_values() - w.callable()(X, Y)).max())
    grad = recover_pressure_gradient(POISEUILLE, fld, force)
    zero = solver.solve(ForceField.zero(xi0, K, grid48))
    zero_err = float(np.abs(zero.psi_modes).max())
    elapsed = time.time() - t0
    ok = (
        max(v_err, w_err) <= 1e-9
        and grad.curl_residual <= 1e-7
        and zero_err <= 1e-12
        and elapsed < 5.0
    )
    report(
        "04 linearized-channel",
        ok,
        f"velocity error {max(v_err, w_err):.2e} <= 1e-9, curl {grad.curl_residual:.2e} <= 1e-7, "
        f"zero-force field {zero_err:.1e} <= 1e-12, {elapsed:.2f}s",
    )


def test_criterion_05_contraction_and_uniqueness(grid48, constants):
    t0 = time.time()
    k0, c1, delta = constants
    ratio = measure_contraction(POISEUILLE, None, delta, grid48, 8, 1.0, n_pairs=20, seed=5)
    unique = uniqueness_probe(POISEUILLE, 10, delta, grid48, 8, 1.0, seed=6)
    w0 = random_field(np.random.default_rng(7), grid48, 8, 1.0, 0.5 * delta)
    _v, trace = picard_solve(
        POISEUILLE, ForceField.zero(1.0, 8, grid48),
        PicardConfig(delta=delta, tol=1e-9 * delta, max_iter=200),
        grid48, 8, 1.0, w0=w0,
    )
    incs = [inc for _n, inc in trace.iterates if inc > 1e-9 * delta]
    geom = max(incs[i + 1] / incs[i] for i in range(len(incs) - 1)) if len(incs) > 1 else 0.0
    elapsed = time.time() - t0
    ok = ratio <= 0.55 and unique and geom <= 0.6 and trace.converged and elapsed < 120.0
    report(
        "05 contraction",
        ok,
        f"kappa0 {k0:.3f}, c1 {c1:.3e}, delta {delta:.3f}: Lipschitz {ratio:.3f} <= 0.55, "
        f"probe {unique}, geometric factor {geom:.3f} <= 0.6, {elapsed:.1f}s",
    )


def test_criterion_06_cancellation(grid48):
    t0 = time.time()
    p = Profile(-1.0, 0.0, 3.5)
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(20):
        fld = random_field(rng, grid48, 6, 1.0, 1.0)
        fld = symmetry_project(fld, "X1" if i % 2 == 0 else "X2")
        i1, i2 = check_symmetry_cancellation(p, fld)
        scale = field_h_norm(fld, 2) ** 2
        worst = max(worst, abs(i1) / scale, abs(i2) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report("06 cancellation", ok, f"max |I1|,|I2| / scale = {worst:.2e} <= 1e-10, {elapsed:.1f}s")


def _y2_leak_of_unprojected_iterates(grid48):
    p = Profile(-1.0, 0.0, 3.5)
    solver = NonlinearChannelSolver(p, grid48, 6, 1.0)
    rng = np.random.default_rng(607)
    f_modes = ForceField.zero(1.0, 6, grid48).modes()
    w = symmetry_project(random_field(rng, grid48, 6, 1.0, 1.0), "Y1")
    leak = 0.0
    for _ in range(4):
        w = solver.picard_map(f_modes, w)
        total = field_h_norm(w, 2)
        if total == 0.0:
            break
        leak = max(leak, field_h_norm(symmetry_project(w, "Y2"), 2) / total)
    return leak


def test_criterion_06_x1_iterates_literal(grid48):
    # criterion: unprojected iterates keep the symmetry class of the data.
    # The x-parity class X1 is not invariant under the map: the transport
    # terms F d_x Delta and 6A d_x and the quadratic term
    # psi_x Delta psi_y - psi_y Delta psi_x are odd under x -> -x, so X1
    # data leak into X2 at order one (test_nonlinear asserts this) and X1
    # is kept by the projected iteration (06 symmetry transport).  For the
    # even profile (B = 0) the class the map keeps is the base flow's
    # y-reflection class Y1.  Each quadratic step roughly doubles the
    # relative roundoff leak of the one before (about 9e-11 at the fourth
    # iterate), so the bound is the mode-solve floor justified in
    # 06 symmetry transport, 1e-9 (cond*eps ~ 1e-10 at N = 48).
    leak = _y2_leak_of_unprojected_iterates(grid48)
    report("06 Y1 iterates", leak <= 1e-9, f"relative Y2 leak {leak:.3e} <= 1e-9")


def test_criterion_06_symmetry_transport(grid48):
    t0 = time.time()
    p = Profile(-1.0, 0.0, 3.5)
    rng = np.random.default_rng(608)
    # projected X1 iteration stays in class exactly
    w0 = symmetry_project(random_field(rng, grid48, 6, 1.0, 1.0), "X1")
    v, trace = picard_solve(
        p, ForceField.zero(1.0, 6, grid48),
        PicardConfig(delta=50.0, tol=1e-9, max_iter=100, symmetry_class="X1"),
        grid48, 6, 1.0, w0=w0,
    )
    proj_leak = field_h_norm(symmetry_project(v, "X2"), 2)
    # the y-reflection class is preserved without any projection
    solver = NonlinearChannelSolver(p, grid48, 6, 1.0)
    f_modes = ForceField.zero(1.0, 6, grid48).modes()
    w = symmetry_project(random_field(rng, grid48, 6, 1.0, 1.0), "Y1")
    y_leak = 0.0
    for _ in range(4):
        w = solver.picard_map(f_modes, w)
        total = max(field_h_norm(w, 2), 1e-300)
        y_leak = max(y_leak, field_h_norm(symmetry_project(w, "Y2"), 2) / total)
    elapsed = time.time() - t0
    # the unprojected leak floor is the mode-solve conditioning (~cond*eps,
    # about 1e-10 at this resolution); 1e-9 sits safely above it
    ok = trace.converged and proj_leak <= 1e-10 and y_leak <= 1e-9 and elapsed < 30.0
    report(
        "06 symmetry transport",
        ok,
        f"projected-X1 leak {proj_leak:.1e} <= 1e-10, unprojected-Y1 leak {y_leak:.1e} <= 1e-9, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_small_amplitude_stability():
    t0 = time.time()
    samples = [
        (-0.5 * s / t, t)
        for s in (0.2, 0.4, 0.6, 0.8, 1.0)
        for t in (0.3, 0.65, 1.0, 1.35, 1.7)
    ]
    leaders = []
    for A, T in samples:
        res = os_spectrum(A, T, 120, with_vectors=False)
        leaders.append(res.leading.real)
    elapsed = time.time() - t0
    ok = len(samples) == 25 and max(leaders) < 0.0 and elapsed < 60.0
    report(
        "07 small-|AT| stability",
        ok,
        f"25 samples with |AT| <= 0.5: max Re(lambda) = {max(leaders):.4f} < 0, {elapsed:.1f}s",
    )


def test_criterion_08_neutral_point_location(neutral_full):
    npt, elapsed = neutral_full
    m3a = -3.0 * npt.A1
    rep = check_admissibility(npt.profile())
    ok = (
        abs(m3a - 5772.22) <= 1e-3 * 5772.22
        and abs(npt.T0 - 1.0206) <= 1e-3 * 1.0206
        and npt.lambda1.imag < 0.0
        and npt.C_counter < 3.0 * abs(npt.A1)
        and rep.reversal
        and not rep.satisfies_abc
        and elapsed < 600.0
    )
    report(
        "08 neutral point",
        ok,
        f"-3A1 = {m3a:.2f} (5772.22 +-0.1%), T0 = {npt.T0:.5f} (1.0206 +-0.1%), "
        f"C = {npt.C_counter:.2f} < 3|A1|, reversal confirmed, {elapsed:.0f}s",
    )


def test_criterion_08_im_lambda_literal(neutral_full):
    # criterion: Im(lambda1)/T0 at the neutral point, +- 1%.  The
    # eigenproblem is in viscosity units, lambda = -i T (-3A) c
    # (cpflow.spectrum), so Im(lambda1)/T0 = -c_r * Re_c; -0.2640 alone is
    # the phase speed in units of the profile maximum.  Both constants are
    # Orszag's (1971), so the measured A1 is not used (the phase-speed test
    # below divides by it).
    npt, _elapsed = neutral_full
    val = npt.lambda1.imag / npt.T0
    expected = -0.2640 * 5772.22
    ok = abs(val - expected) <= 1e-2 * abs(expected)
    report(
        "08 Im(lambda1)/T0 = -c_r*Re_c",
        ok,
        f"measured {val:.4f} vs -0.2640 * 5772.22 = {expected:.4f} +- 1%",
    )


def test_criterion_08_phase_speed(neutral_full):
    npt, _elapsed = neutral_full
    c_r = -npt.lambda1.imag / (npt.T0 * (-3.0 * npt.A1))
    ok = abs(c_r - 0.2640) <= 1e-2 * 0.2640
    report("08 neutral phase speed", ok, f"c_r = {c_r:.5f} vs 0.2640 +- 1%")


def test_criterion_09_injectivity_witness(neutral_full):
    t0 = time.time()
    npt, _elapsed = neutral_full
    grid = build_grid(300)
    w_neutral = kernel_witness(npt.profile(), npt.T0, grid)
    w_admissible = kernel_witness(POISEUILLE, npt.T0, grid)
    elapsed = time.time() - t0
    ok = w_neutral <= 1e-6 and w_admissible >= 1e-3 and elapsed < 30.0
    report(
        "09 injectivity witness",
        ok,
        f"neutral profile {w_neutral:.2e} <= 1e-6, admissible {w_admissible:.3f} >= 1e-3, "
        f"{elapsed:.1f}s",
    )


def _regression_snapshot():
    # the regression command's measurement, plus the a priori ratios of one mode solve
    measured = verify.measure_baseline(POISEUILLE, N=40, K=4, xi0=1.0, seed=1)
    g64 = build_grid(64)
    h = GridFunction.from_callable(g64, lambda y: np.sin(np.pi * y))
    r_h, r_l2 = apriori_ratio(solve_os_mode(POISEUILLE, 1.0, h, g64), h)
    return {**{key: (val, verify.BASELINE_TOLERANCES[key]) for key, val in measured.items()},
            "r_hminus1": (r_h, 1e-6), "r_l2": (r_l2, 1e-6)}


def test_criterion_10_regression_stability():
    t0 = time.time()
    runs = [_regression_snapshot() for _ in range(3)]
    bad = []
    for key, (ref, tol) in runs[0].items():
        for other in runs[1:]:
            val = other[key][0]
            if abs(val - ref) > tol * max(abs(ref), 1.0):
                bad.append(f"{key}: {val!r} vs {ref!r}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    report(
        "10 regression stability",
        ok,
        f"{len(runs[0])} constants reproducible across three runs "
        f"({'OK' if not bad else '; '.join(bad)}), {elapsed:.0f}s",
    )
