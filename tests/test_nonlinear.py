import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cpflow.channel import (
    ChannelField,
    ForceField,
    field_h_norm,
    random_field,
    symmetry_project,
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
from cpflow.profiles import Profile, poiseuille_for_flux
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
        assert nonlinear_residual(POISEUILLE, fld, force) <= 1e-7

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
        assert trace.final_residual == nonlinear_residual(p, v, force)
        # further map applications leave the residual at its floor
        w, force_modes = v, force.modes()
        for _ in range(5):
            w = solver.picard_map(force_modes, w)
        assert nonlinear_residual(p, w, force) > 0.5 * trace.final_residual

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
            a1, a2 = advection_modes(u, w)
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
        modes = np.zeros((2 * K + 1, grid32.N + 1), dtype=complex)
        modes[K + 1] = env / 2.0j
        modes[K - 1] = -env / 2.0j
        fld = ChannelField(xi0, K, grid32, modes)
        a1, a2 = advection_modes(fld, fld)
        for k in range(-K, K + 1):
            e1 = a1_o.modes.get(k, Polynomial([0.0]))(grid32.nodes)
            e2 = a2_o.modes.get(k, Polynomial([0.0]))(grid32.nodes)
            assert np.abs(a1[K + k] - e1).max() <= 1e-12
            assert np.abs(a2[K + k] - e2).max() <= 1e-12
