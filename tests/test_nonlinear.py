import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cpflow.channel import (
    ChannelField,
    ForceField,
    _random_modes,
    analyze,
    field_h_norm,
    random_field,
    symmetry_project,
    synthesize,
)
from cpflow.errors import BallEscapeError, DomainError
from cpflow.nonlinear import (
    NonlinearChannelSolver,
    PicardConfig,
    advection_modes,
    contraction_ball_radius,
    measure_c1,
    measure_contraction,
    measure_kappa0,
    nonlinear_residual,
    picard_solve,
    random_force,
    uniqueness_probe,
)
from cpflow.os_solver import solve_os_zero_mode
from cpflow.profiles import Profile, poiseuille_for_flux
from cpflow.spectral import GridFunction, build_grid
from full_layout import full_layout, full_sum
from manufactured import ModePoly, nonlinear_force

POISEUILLE = poiseuille_for_flux(4.0)
ENV = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])


class TestPicardConfig:
    def test_tolerance_ordering(self):
        with pytest.raises(DomainError):
            PicardConfig(delta=1e-6, tol=1e-3)

    def test_symmetry_class_whitelist(self):
        with pytest.raises(DomainError):
            PicardConfig(delta=1.0, tol=1e-6, symmetry_class="X2")
        with pytest.raises(DomainError):
            PicardConfig(delta=1.0, tol=1e-6, symmetry_class="Y2")


class TestPicardSolve:
    def test_zero_force_zero_start_one_step(self, grid32):
        force = ForceField.zero(1.0, 4, grid32)
        cfg = PicardConfig(delta=1.0, tol=1e-12, max_iter=5)
        v, trace = picard_solve(
            POISEUILLE, force, cfg, grid32, 4, 1.0, w0=ChannelField.zero(1.0, 4, grid32)
        )
        assert trace.converged and trace.n_iter == 1
        assert field_h_norm(v, 2) == 0.0

    def test_zero_force_random_start_decays_to_zero(self, grid32, rng):
        delta = 10.0
        w0 = random_field(rng, grid32, 4, 1.0, 0.5 * delta)
        cfg = PicardConfig(delta=delta, tol=1e-9, max_iter=100)
        v, trace = picard_solve(POISEUILLE, ForceField.zero(1.0, 4, grid32), cfg, grid32, 4, 1.0, w0=w0)
        assert trace.converged
        assert field_h_norm(v, 2) <= 1e-8
        incs = [inc for _, inc in trace.iterates if inc > 1e-9]
        ratios = [incs[i + 1] / incs[i] for i in range(len(incs) - 1)]
        assert all(r < 0.6 for r in ratios)
        assert trace.contraction_factor < 1.0

    def test_zero_force_stops_before_iterates_underflow(self, grid48):
        # with zero data the residual is scaled by the tol floor, so the solve
        # stops at its first small increment instead of running until the
        # iterate leaves the normal floating-point range
        delta, K = 10.0, 4
        w0 = random_field(np.random.default_rng(9), grid48, K, 1.0, 0.9 * delta)
        cfg = PicardConfig(delta=delta, tol=1e-9, max_iter=100)
        v, trace = picard_solve(POISEUILLE, ForceField.zero(1.0, K, grid48), cfg, grid48, K, 1.0, w0=w0)
        assert trace.converged and trace.n_iter <= 5
        assert field_h_norm(v, 2) <= 10.0 * cfg.tol
        assert all(nv == 0.0 or nv > 1e-250 for nv, _inc in trace.iterates)

    def test_manufactured_nonlinear_solution(self, grid48):
        # small exact solution; its full nonlinear residual becomes the force
        xi0, K = 1.0, 8
        eps = 1e-3
        psi = ModePoly.sinx(xi0, 1, eps * ENV)
        f, g, v, w = nonlinear_force(POISEUILLE, psi)
        force = ForceField.from_callables(xi0, K, grid48, f.callable(), g.callable())
        # the relative-residual floor scales like (evaluation roundoff)/eps,
        # so the stopping tolerance stays above it; recovery is far better
        cfg = PicardConfig(delta=1.0, tol=1e-6, max_iter=60)
        fld, trace = picard_solve(POISEUILLE, force, cfg, grid48, K, xi0)
        assert trace.converged
        X, Y = np.meshgrid(fld.x(), grid48.nodes, indexing="ij")
        assert np.abs(fld.v_values() - v.callable()(X, Y)).max() <= 1e-12
        assert np.abs(fld.w_values() - w.callable()(X, Y)).max() <= 1e-12
        assert trace.final_residual <= 1e-6

    def test_ball_escape_raises(self, grid32, rng):
        force = random_force(rng, grid32, 4, 1.0, 50.0)
        cfg = PicardConfig(delta=1e-3, tol=1e-9, max_iter=10)
        with pytest.raises(BallEscapeError):
            picard_solve(POISEUILLE, force, cfg, grid32, 4, 1.0)

    def test_forced_solve_residual(self, grid48, rng):
        force = random_force(rng, grid48, 6, 1.0, 0.5)
        cfg = PicardConfig(delta=50.0, tol=1e-8, max_iter=80)
        fld, trace = picard_solve(POISEUILLE, force, cfg, grid48, 6, 1.0)
        assert trace.converged
        assert trace.final_residual <= 1e-7
        assert nonlinear_residual(POISEUILLE, fld, force.modes()) <= 1e-7

    def _floor_case(self, grid48, tol):
        # unprojected solve from Y1 data whose residual floor (about 3e-9)
        # sits above 10 * tol at tol 1e-10 while increments reach roundoff
        p = Profile(-1.0, 0.0, 3.5)
        force = ForceField.from_callables(
            1.0, 6, grid48, lambda x, y: 0.05 * np.cos(x) * (1.0 - y**2),
            lambda x, y: 0.05 * np.sin(x) * y,
        )
        w0 = symmetry_project(random_field(np.random.default_rng(607), grid48, 6, 1.0, 1.0), "Y1")
        cfg = PicardConfig(delta=50.0, tol=tol, max_iter=100)
        solver = NonlinearChannelSolver(p, grid48, 6, 1.0)
        v, trace = solver.solve(force, cfg, w0=w0)
        return p, force, solver, v, trace

    def test_residual_floor_stops_unconverged(self, grid48):
        p, force, solver, v, trace = self._floor_case(grid48, 1e-10)
        assert not trace.converged
        assert trace.n_iter <= 5 and len(trace.iterates) == trace.n_iter
        assert trace.final_residual > 1e-9
        assert trace.final_residual == nonlinear_residual(p, v, force.modes())
        # further map applications leave the residual at its floor
        w, force_modes = v, force.modes()
        for _ in range(5):
            w = solver.picard_map(force_modes, w)
        assert nonlinear_residual(p, w, force_modes) > 0.5 * trace.final_residual

    def test_residual_floor_case_converges_at_looser_tol(self, grid48):
        _p, _force, _solver, _v, trace = self._floor_case(grid48, 1e-9)
        assert trace.converged and trace.n_iter <= 3
        assert trace.final_residual < 1e-8


class TestContraction:
    def test_ratio_below_half_at_derived_radius(self, grid32):
        k0 = measure_kappa0(POISEUILLE, grid32, 4, 1.0, n_samples=8, seed=5)
        c1 = measure_c1(grid32, 4, 1.0, n_pairs=8, seed=6)
        delta = contraction_ball_radius(k0, c1)
        ratio = measure_contraction(POISEUILLE, None, delta, grid32, 4, 1.0, n_pairs=10, seed=7)
        assert ratio <= 0.5

    def test_ratio_scales_linearly_in_delta(self, grid32):
        k0 = measure_kappa0(POISEUILLE, grid32, 4, 1.0, n_samples=6, seed=5)
        c1 = measure_c1(grid32, 4, 1.0, n_pairs=6, seed=6)
        delta = contraction_ball_radius(k0, c1)
        ratios = [
            measure_contraction(POISEUILLE, None, d, grid32, 4, 1.0, n_pairs=6, seed=11)
            for d in (delta, delta / 2.0, delta / 4.0)
        ]
        assert ratios[0] / ratios[1] == pytest.approx(2.0, rel=0.1)
        assert ratios[1] / ratios[2] == pytest.approx(2.0, rel=0.1)


class TestUniqueness:
    def test_poiseuille_probe(self, grid32):
        k0 = measure_kappa0(POISEUILLE, grid32, 4, 1.0, n_samples=6, seed=5)
        c1 = measure_c1(grid32, 4, 1.0, n_pairs=6, seed=6)
        delta = contraction_ball_radius(k0, c1)
        assert uniqueness_probe(POISEUILLE, 5, delta, grid32, 4, 1.0, seed=8)

    def test_couette_probe(self, grid32):
        p = Profile(0.0, 1.0, 1.0)
        assert uniqueness_probe(p, 5, 10.0, grid32, 4, 1.0, seed=9)

    def test_symmetric_class_large_ball(self, grid32):
        # heuristic in-the-large evidence: projected X1 iteration from a
        # ball several times the contraction radius still finds only zero
        p = Profile(-1.0, 0.0, 3.5)
        solver = NonlinearChannelSolver(p, grid32, 4, 1.0)
        force = ForceField.zero(1.0, 4, grid32)
        rng = np.random.default_rng(10)
        delta = 500.0
        cfg = PicardConfig(delta=delta, tol=1e-7, max_iter=300, symmetry_class="X1")
        for _ in range(3):
            w0 = symmetry_project(random_field(rng, grid32, 4, 1.0, 0.3 * delta), "X1")
            v, trace = solver.solve(force, cfg, w0=w0)
            assert trace.converged
            assert field_h_norm(v, 2) <= 1e-6


class TestEmbeddingConstant:
    def test_advection_inequality_on_fresh_pairs(self, grid32):
        c1 = measure_c1(grid32, 4, 1.0, n_pairs=12, seed=3)
        rng = np.random.default_rng(99)
        period = 2.0 * math.pi
        for _ in range(10):
            u = random_field(rng, grid32, 4, 1.0, rng.uniform(0.5, 2.0))
            w = random_field(rng, grid32, 4, 1.0, rng.uniform(0.5, 2.0))
            a1, a2 = (full_layout(a) for a in advection_modes(u, w))
            adv = math.sqrt(
                period * float(((np.abs(a1) ** 2 + np.abs(a2) ** 2) @ grid32.quad_weights).sum())
            )
            assert adv <= 3.0 * c1 * field_h_norm(u, 2) * field_h_norm(w, 2)


class TestSymmetryTransport:
    def test_y_reflection_class_preserved_exactly(self, grid32, rng):
        # for an even profile the map commutes with the y-reflection class
        # (v y-even, w y-odd); this is the class the iteration preserves
        p = Profile(-1.0, 0.0, 3.5)
        solver = NonlinearChannelSolver(p, grid32, 4, 1.0)
        zero = ForceField.zero(1.0, 4, grid32).modes()
        w = symmetry_project(random_field(rng, grid32, 4, 1.0, 1.0), "Y1")
        out = solver.picard_map(zero, w)
        leak = field_h_norm(symmetry_project(out, "Y2"), 2)
        assert leak <= 1e-10 * max(field_h_norm(out, 2), 1e-30)

    def test_x_parity_not_preserved_by_the_map(self, grid32, rng):
        # the steady advection is not x-reflection equivariant: X1 data
        # genuinely leak into X2 (this is why the projected iteration exists)
        p = Profile(-1.0, 0.0, 3.5)
        solver = NonlinearChannelSolver(p, grid32, 4, 1.0)
        zero = ForceField.zero(1.0, 4, grid32).modes()
        w = symmetry_project(random_field(rng, grid32, 4, 1.0, 1.0), "X1")
        out = solver.picard_map(zero, w)
        leak = field_h_norm(symmetry_project(out, "X2"), 2)
        assert leak > 1e-4 * field_h_norm(out, 2)

    def test_y1_projected_solve_from_y1_data(self, grid48):
        # Y1 (psi y-odd: streamwise force y-even, wall-normal force y-odd) is
        # the class the map keeps for an even profile, so the Y1-projected
        # solve converges to the unprojected fixed point
        p = Profile(-1.0, 0.0, 3.5)
        force = ForceField.from_callables(
            1.0, 6, grid48, lambda x, y: 0.05 * np.cos(x) * (1.0 - y**2),
            lambda x, y: 0.05 * np.sin(x) * y,
        )
        w0 = symmetry_project(random_field(np.random.default_rng(607), grid48, 6, 1.0, 1.0), "Y1")
        cfg = PicardConfig(delta=50.0, tol=1e-9, max_iter=100, symmetry_class="Y1")
        v, trace = picard_solve(p, force, cfg, grid48, 6, 1.0, w0=w0)
        assert trace.converged
        norm = field_h_norm(v, 2)
        assert norm > 1e-3
        assert field_h_norm(symmetry_project(v, "Y2"), 2) <= 1e-9 * norm
        free, free_trace = picard_solve(p, force, PicardConfig(delta=50.0, tol=1e-9, max_iter=100),
                                        grid48, 6, 1.0, w0=w0)
        assert free_trace.converged
        assert field_h_norm(free.minus(v), 2) <= 1e-9 * norm

    def test_projected_iteration_stays_in_class(self, grid32, rng):
        p = Profile(-1.0, 0.0, 3.5)
        force = ForceField.zero(1.0, 4, grid32)
        w0 = symmetry_project(random_field(rng, grid32, 4, 1.0, 1.0), "X1")
        cfg = PicardConfig(delta=10.0, tol=1e-9, max_iter=50, symmetry_class="X1")
        v, trace = picard_solve(p, force, cfg, grid32, 4, 1.0, w0=w0)
        assert trace.converged
        leak = field_h_norm(symmetry_project(v, "X2"), 2)
        assert leak <= 1e-10


class TestDealiasing:
    def test_advection_exact_on_single_mode(self, grid32):
        # (w . grad) w for a one-mode stream function: compare against the
        # exact coefficient arithmetic of the polynomial oracle
        xi0, K = 1.0, 4
        psi = ModePoly.sinx(xi0, 1, ENV)
        v, w = psi.dy(), psi.dx().scaled(-1.0)
        a1_o = v * v.dx() + w * v.dy()
        a2_o = v * w.dx() + w * w.dy()
        env = ENV(grid32.nodes)
        modes = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        modes[1] = env / 2.0j
        fld = ChannelField(xi0, K, grid32, modes)
        a1, a2 = (full_layout(a) for a in advection_modes(fld, fld))
        for k in range(-K, K + 1):
            e1 = a1_o.modes.get(k, Polynomial([0.0]))(grid32.nodes)
            e2 = a2_o.modes.get(k, Polynomial([0.0]))(grid32.nodes)
            assert np.abs(a1[K + k] - e1).max() <= 1e-12
            assert np.abs(a2[K + k] - e2).max() <= 1e-12


def six_field_advection(fld_a, fld_b):
    """Reference advection: six syntheses of the full layout k = -K..K, w_y from D1 w."""
    K, grid = fld_a.K, fld_a.grid
    ikx = (1j * fld_a.xi0 * np.arange(-K, K + 1))[:, None]
    vb_m, wb_m = full_layout(fld_b.v_modes()), full_layout(fld_b.w_modes())
    va_m, wa_m = vb_m, wb_m
    if fld_a is not fld_b:
        va_m, wa_m = full_layout(fld_a.v_modes()), full_layout(fld_a.w_modes())
    stack = np.stack([va_m, wa_m, ikx * vb_m, vb_m @ grid.D1.T, ikx * wb_m, wb_m @ grid.D1.T])
    va, wa, vbx, vby, wbx, wby = full_sum(stack)
    (a1, a2), _ = analyze(np.stack([va * vbx + wa * vby, va * wbx + wa * wby]), K)
    return a1, a2


def eager_solve_info(solver, f_modes, g_modes, fld):
    """Reference solve_info of ``solve_modes``, evaluated from the solved modes."""
    grid, N, p = solver.grid, solver.grid.N, solver.p
    h0 = -(grid.D1 @ f_modes[0].real)
    sol0 = solve_os_zero_mode(GridFunction(grid, h0), grid)
    xi = solver._xi[:, None]
    h = 1j * xi * g_modes[1:] - f_modes[1:] @ grid.D1.T
    phi = fld.psi_modes[1:]
    d2 = phi @ grid.D2.T
    res = (phi @ grid.D4.T - 2.0 * xi**2 * d2 + xi**4 * phi - h
           - 1j * xi * (p.F(grid.nodes) * (d2 - xi**2 * phi) - 6.0 * p.A * phi))
    w = grid.quad_weights
    res_sq = np.abs(res[:, 2 : N - 1]) ** 2 @ w[2 : N - 1]
    total_res = sol0.residual_norm**2 + 2.0 * res_sq.sum()
    total_rhs = grid.l2_norm(h0) ** 2 + 2.0 * (np.abs(h) ** 2 @ w).sum()
    return {
        "residual_rel": math.sqrt(total_res / total_rhs) if total_rhs > 0.0 else 0.0,
        "mode_residuals": [sol0.residual_norm] + np.sqrt(res_sq).tolist(),
        "mode_rcond": [sol0.rcond] + solver._rcond,
    }


def reference_picard(solver, force, cfg, w0=None):
    """The per-step Picard code before y-derivative stacks were shared: two
    from-scratch H^2 norms, the six-field advection and eager solve_info."""
    f_modes, g_modes = force_modes = force.modes()

    def project(fld):
        return fld if cfg.symmetry_class is None else symmetry_project(fld, cfg.symmetry_class)

    def apply(w):
        a1, a2 = (0.0, 0.0) if w is None else six_field_advection(w, w)
        fld = solver.linear.solve_modes(f_modes - a1, g_modes - a2)
        assert dict(fld.solve_info) == eager_solve_info(solver.linear, f_modes - a1, g_modes - a2, fld)
        return project(fld)

    w = apply(None) if w0 is None else project(w0)
    start_norm = field_h_norm(w, 2)
    iterates, failed, converged, final = [], None, False, math.inf
    n_done = 0
    for n_done in range(1, cfg.max_iter + 1):
        v = apply(w)
        inc, nv = field_h_norm(v.minus(w), 2), field_h_norm(v, 2)
        iterates.append((nv, inc))
        assert nv <= cfg.delta
        w = v
        if inc < cfg.tol:
            final = nonlinear_residual(solver.p, w, force_modes, floor=cfg.tol)
            if final < 10.0 * cfg.tol:
                converged = True
                break
            if failed is not None and final > 0.5 * failed:
                break
        failed = final if inc < cfg.tol else None
    return w, start_norm, iterates, converged, n_done


Y1_FORCE = (lambda x, y: 0.05 * np.cos(x) * (1.0 - y**2), lambda x, y: 0.05 * np.sin(x) * y)


class TestPicardLoopReference:
    """The stack-sharing loop against the per-step reference code."""

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize(
        "p, sym",
        [(POISEUILLE, None), (POISEUILLE, "Y1"), (Profile(-0.7, 0.3, 3.0), None)],
        ids=["poiseuille", "poiseuille-Y1", "skewed"],
    )
    def test_same_iterates(self, grid48, p, sym, forced):
        K, xi0 = 8, 1.0
        rng = np.random.default_rng(48)
        cfg = PicardConfig(delta=10.0, tol=1e-9, max_iter=100, symmetry_class=sym)
        if not forced:
            force, w0 = ForceField.zero(xi0, K, grid48), random_field(rng, grid48, K, xi0, 2.0)
        elif sym is None:
            force, w0 = random_force(rng, grid48, K, xi0, 0.5), None
        else:
            force, w0 = ForceField.from_callables(xi0, K, grid48, *Y1_FORCE), None
        solver = NonlinearChannelSolver(p, grid48, K, xi0)
        v, trace = solver.solve(force, cfg, w0=w0)
        v_ref, prev, iterates, converged, n_iter = reference_picard(solver, force, cfg, w0=w0)
        assert (trace.n_iter, trace.converged) == (n_iter, converged)
        for (nv, inc), (nv_ref, inc_ref) in zip(trace.iterates, iterates, strict=True):
            assert abs(nv - nv_ref) <= 1e-11 * nv_ref
            # v - w carries the roundoff of the larger iterate: an unforced v
            # ends many orders below the w it is subtracted from
            assert abs(inc - inc_ref) <= 1e-11 * max(nv_ref, prev)
            prev = nv_ref
        # an unforced iterate is squared by each map (2 -> about 1e-46 in four
        # steps), so its relative roundoff grows per step: 1.6e-12 measured
        rel = 1e-12 if forced else 1e-11
        assert field_h_norm(v.minus(v_ref), 2) <= rel * field_h_norm(v_ref, 2)

    def test_solve_info_read_late_equals_eager(self, grid48):
        K = 8
        solver = NonlinearChannelSolver(POISEUILLE, grid48, K, 1.0)
        f_modes, g_modes = random_force(np.random.default_rng(5), grid48, K, 1.0, 1.0).modes()
        fld = solver.linear.solve_modes(f_modes, g_modes)
        later = solver.linear.solve_modes(f_modes + 1.0, g_modes)  # other work in between
        assert later.solve_info["residual_rel"] <= 1e-8
        assert dict(fld.solve_info) == eager_solve_info(solver.linear, f_modes, g_modes, fld)
        assert fld.scaled(2.0).solve_info is None

    @pytest.mark.parametrize("same", [True, False], ids=["self", "pair"])
    def test_five_field_advection_matches_six(self, grid48, same):
        rng = np.random.default_rng(11)
        u = random_field(rng, grid48, 8, 1.3, 1.0)
        w = u if same else random_field(rng, grid48, 8, 1.3, 1.0)
        for got, want in zip(advection_modes(u, w), six_field_advection(u, w)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def full_layout_residual(p, fld, force_modes, floor=1e-300):
    """Reference residual on all 2K+1 modes, products on the 4(K+1)-point tensor grid."""
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    ikx = (1j * xi0 * np.arange(-K, K + 1))[:, None]
    pm = full_layout(fld.psi_modes)
    lap = pm @ grid.D2.T + ikx**2 * pm
    lap2 = lap @ grid.D2.T + ikx**2 * lap
    linear = lap2 - F[None, :] * (ikx * lap) + 6.0 * p.A * (ikx * pm)
    stack = np.stack([ikx * pm, pm @ grid.D1.T, ikx * lap, lap @ grid.D1.T])
    psix, psiy, lapx, lapy = full_sum(stack)
    nl_modes = full_layout(analyze(psix * lapy - psiy * lapx, K)[0])
    f_modes, g_modes = (full_layout(m) for m in force_modes)
    rhs = ikx * g_modes - f_modes @ grid.D1.T
    res = linear + nl_modes - rhs
    period = 2.0 * math.pi / xi0
    res_n, rhs_n, lap2_n = (math.sqrt(period * float((np.abs(m) ** 2 @ grid.quad_weights).sum()))
                            for m in (res, rhs, lap2))
    return res_n / max(rhs_n, lap2_n, floor)


class TestHalfSpectrumLoop:
    """Advection and residual on modes k = 0..K against the full-layout references."""

    @pytest.mark.parametrize("same", [True, False], ids=["self", "pair"])
    def test_advection_matches_six_fields_at_k32(self, same):
        # K = 32: products on 135 points here, on 132 in the reference
        grid = build_grid(96)
        rng = np.random.default_rng(32)
        u = random_field(rng, grid, 32, 1.0, 1.0)
        w = u if same else random_field(rng, grid, 32, 1.0, 1.0)
        for got, want in zip(advection_modes(u, w), six_field_advection(u, w), strict=True):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("N, K", [(48, 8), (96, 32)])
    @pytest.mark.parametrize("p", [POISEUILLE, Profile(-0.7, 0.3, 3.0)], ids=["poiseuille", "skewed"])
    def test_residual_matches_full_layout(self, p, N, K):
        grid = build_grid(N)
        rng = np.random.default_rng(N + K)
        force_modes = random_force(rng, grid, K, 1.0, 1.0).modes()
        fields = [random_field(rng, grid, K, 1.0, h2) for h2 in (0.1, 3.0)]
        fields.append(NonlinearChannelSolver(p, grid, K, 1.0).picard_map(force_modes, fields[0]))
        for fld in fields:
            want = full_layout_residual(p, fld, force_modes)
            assert abs(nonlinear_residual(p, fld, force_modes) - want) <= 1e-13 * want


def loop_modes(rng, shapes, K, decay):
    """Reference draw: one pair of rng calls per mode k = 0..K, as the draws were first written."""
    modes = np.zeros((K + 1, shapes.shape[1]), dtype=complex)
    for k in range(K + 1):
        c = rng.normal(size=len(shapes)) + (1j * rng.normal(size=len(shapes)) if k else 0.0)
        modes[k] = (c * decay**k) @ shapes
    return modes


class TestBallDraws:
    """One rng call per drawn component, in the stream order of the per-mode loop."""

    @pytest.mark.parametrize("N, K", [(32, 4), (96, 32)])
    def test_draw_matches_loop_reference(self, N, K):
        y = build_grid(N).nodes
        for shapes, decay in ((np.array([y**j for j in range(5)]), 0.5),
                              (np.array([(1.0 - y**2) ** 2 * y**j for j in range(4)]), 0.6)):
            rng, ref_rng = np.random.default_rng(N), np.random.default_rng(N)
            got, want = _random_modes(rng, shapes, K, decay), loop_modes(ref_rng, shapes, K, decay)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert rng.uniform() == ref_rng.uniform()  # the stream is left where the loop left it

    @pytest.mark.parametrize("N, K", [(32, 4), (96, 32)])
    def test_force_and_field_match_loop_reference(self, N, K):
        grid, xi0 = build_grid(N), 1.3
        y = grid.nodes
        rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
        force = random_force(rng, grid, K, xi0, 2.0)
        fld = random_field(rng, grid, K, xi0, 1.5)
        shapes = np.array([y**j for j in range(5)])
        f, g = (synthesize(loop_modes(ref_rng, shapes, K, 0.5)) for _ in range(2))
        s = 2.0 / ForceField(xi0, K, grid, f, g).l2_norm()
        for got, want in ((force.f, f * s), (force.g, g * s)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        shapes = np.array([(1.0 - y**2) ** 2 * y**j for j in range(4)])
        ref = ChannelField(xi0, K, grid, loop_modes(ref_rng, shapes, K, 0.6))
        want = ref.scaled(1.5 / field_h_norm(ref, 2)).psi_modes
        # the H^2 norm's third y-derivatives amplify last-bit differences of the
        # draw into its scale: 2.2e-14 measured at N = 96
        assert np.abs(fld.psi_modes - want).max() <= 1e-13 * np.abs(want).max()
        assert rng.uniform() == ref_rng.uniform()

    def test_held_solver_gives_the_same_constants(self, grid32):
        solver = NonlinearChannelSolver(POISEUILLE, grid32, 4, 1.0)
        k0 = measure_kappa0(POISEUILLE, grid32, 4, 1.0, n_samples=6, seed=5)
        assert measure_kappa0(POISEUILLE, grid32, 4, 1.0, n_samples=6, seed=5,
                              solver=solver.linear) == k0
        ratio = measure_contraction(POISEUILLE, None, 10.0, grid32, 4, 1.0, n_pairs=4, seed=7)
        assert measure_contraction(POISEUILLE, None, 10.0, grid32, 4, 1.0, n_pairs=4, seed=7,
                                   solver=solver) == ratio
