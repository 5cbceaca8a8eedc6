import numpy as np
import pytest
from numpy.polynomial import Polynomial

from cpflow import channel, os_solver
from cpflow.channel import (
    SYMMETRY_CLASSES,
    ChannelField,
    _stack_h_norm,
    _y_stack,
    export_field_csv,
    ForceField,
    LinearizedChannelSolver,
    analyze,
    check_symmetry_cancellation,
    field_h_norm,
    field_header,
    field_norms,
    gamma_energy,
    n_x_points,
    product_points,
    random_field,
    recover_pressure_gradient,
    stream_cross_integrals,
    symmetry_project,
    synthesize,
    x_grid,
)
from cpflow.errors import DomainError, InadmissibleProfileError, ResolutionError
from cpflow.nonlinear import NonlinearChannelSolver, PicardConfig, advection_modes, random_force
from cpflow.os_solver import OSModeOperator, sigma_values, solve_os_zero_mode
from cpflow.profiles import Profile, poiseuille_for_flux
from cpflow.spectral import GridFunction, build_grid
from full_layout import full_layout
from manufactured import ModePoly, linearized_force

POISEUILLE = poiseuille_for_flux(4.0)
ENV = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])  # (1 - y^2)^2


def manufactured_setup(grid, K=8, xi0=1.0, with_pressure=True):
    psi = ModePoly.sinx(xi0, 1, ENV)
    q = ModePoly.cosx(xi0, 1, 0.4 * Polynomial([0.0, -1.0, 0.0, 1.0])) if with_pressure else None
    f, g, v, w = linearized_force(POISEUILLE, psi, q=q)
    force = ForceField.from_callables(xi0, K, grid, f.callable(), g.callable())
    return psi, q, force, v, w


class TestLinearizedSolve:
    def test_manufactured_velocity(self, grid48):
        psi, q, force, v, w = manufactured_setup(grid48)
        fld = LinearizedChannelSolver(POISEUILLE, grid48, 8, 1.0).solve(force)
        X, Y = np.meshgrid(fld.x(), grid48.nodes, indexing="ij")
        assert np.abs(fld.v_values() - v.callable()(X, Y)).max() <= 1e-9
        assert np.abs(fld.w_values() - w.callable()(X, Y)).max() <= 1e-9
        assert fld.solve_info["residual_rel"] <= 1e-8

    def test_manufactured_pressure_gradient(self, grid48):
        psi, q, force, v, w = manufactured_setup(grid48)
        fld = LinearizedChannelSolver(POISEUILLE, grid48, 8, 1.0).solve(force)
        grad = recover_pressure_gradient(POISEUILLE, fld, force)
        X, Y = np.meshgrid(fld.x(), grid48.nodes, indexing="ij")
        qx_exact = q.dx().callable()(X, Y)
        qy_exact = q.dy().callable()(X, Y)
        w_y = grid48.quad_weights
        dx = (2.0 * np.pi) / X.shape[0]
        err2 = dx * (((grad.qx_values() - qx_exact) ** 2 + (grad.qy_values() - qy_exact) ** 2) @ w_y).sum()
        nrm2 = dx * ((qx_exact**2 + qy_exact**2) @ w_y).sum()
        assert np.sqrt(err2 / nrm2) <= 1e-8
        assert grad.curl_residual <= 1e-7

    def test_zero_force_zero_field(self, grid48):
        fld = LinearizedChannelSolver(POISEUILLE, grid48, 4, 1.0).solve(
            ForceField.zero(1.0, 4, grid48)
        )
        assert np.abs(fld.psi_modes).max() == 0.0
        grad = recover_pressure_gradient(
            POISEUILLE, fld, ForceField.zero(1.0, 4, grid48)
        )
        assert grad.l2_norm() == 0.0

    def test_shift_equivariance(self, grid48):
        psi, q, force, v, w = manufactured_setup(grid48, K=6)
        solver = LinearizedChannelSolver(POISEUILLE, grid48, 6, 1.0)
        fld = solver.solve(force)
        dx_shift = 0.7
        f_s, g_s, *_ = linearized_force(POISEUILLE, ModePoly.sinx(1.0, 1, ENV), q=q)
        shifted_force = ForceField.from_callables(
            1.0, 6, grid48,
            lambda X, Y: f_s.callable()(X - dx_shift, Y),
            lambda X, Y: g_s.callable()(X - dx_shift, Y),
        )
        fld_shifted = solver.solve(shifted_force)
        expected = fld.shifted(dx_shift)
        assert np.abs(fld_shifted.psi_modes - expected.psi_modes).max() <= 1e-10

    def test_constraints_on_random_solves(self, grid48, rng):
        from cpflow.nonlinear import random_force

        solver = LinearizedChannelSolver(POISEUILLE, grid48, 6, 1.0)
        for _ in range(3):
            force = random_force(rng, grid48, 6, 1.0, 1.0)
            fld = solver.solve(force)
            assert conjugate_symmetry_error(fld) <= 1e-12
            assert fld.divergence_max() <= 1e-10
            assert np.abs(fld.flux_profile()).max() <= 1e-12
            grad = recover_pressure_gradient(POISEUILLE, fld, force)
            assert grad.curl_residual <= 1e-7

    def test_inadmissible_profile_rejected(self, grid48):
        with pytest.raises(InadmissibleProfileError):
            LinearizedChannelSolver(Profile(-1.0, 0.0, 1.0), grid48, 4, 1.0)

    def test_unresolved_force_rejected(self, grid48):
        K = 4
        force = ForceField.from_callables(
            1.0, K, grid48,
            lambda X, Y: np.cos((K + 1) * X) * (1.0 - Y**2),
            lambda X, Y: 0.0 * X,
        )
        with pytest.raises(ResolutionError):
            LinearizedChannelSolver(POISEUILLE, grid48, K, 1.0).solve(force)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("component", ["f", "g"])
    def test_non_finite_force_rejected(self, grid32, component, bad):
        # one bad sample would otherwise solve to a NaN field with residual_rel 0.0
        samples = {c: np.zeros((n_x_points(4), grid32.N + 1)) for c in "fg"}
        samples[component][3, 5] = bad
        with pytest.raises(DomainError):
            ForceField(1.0, 4, grid32, samples["f"], samples["g"])

    def test_mean_pressure_gradient_constant(self, grid48):
        # k = 0 slot: qx mode 0 must come out y-independent
        force = ForceField.from_callables(
            1.0, 4, grid48, lambda X, Y: 1.0 + 0.0 * X + 0.3 * Y**2, lambda X, Y: 0.0 * X
        )
        fld = LinearizedChannelSolver(POISEUILLE, grid48, 4, 1.0).solve(force)
        grad = recover_pressure_gradient(POISEUILLE, fld, force)
        qx0 = grad.qx_modes[0]  # k = 0 row
        assert np.abs(qx0 - qx0.mean()).max() <= 1e-7


class TestBatchedSolve:
    """The stacked-inverse solve against one factorized operator per mode."""

    @pytest.mark.parametrize("N", [48, 96])
    @pytest.mark.parametrize("p", [POISEUILLE, Profile(-0.7, 0.3, 3.0)], ids=["poiseuille", "skewed"])
    def test_matches_per_mode_reference(self, p, N):
        K, xi0 = 32, 1.0
        grid = build_grid(N)
        force = random_force(np.random.default_rng(N), grid, K, xi0, 1.0)
        f_modes, g_modes = force.modes()
        fld = LinearizedChannelSolver(p, grid, K, xi0).solve_modes(f_modes, g_modes)
        residuals = fld.solve_info["mode_residuals"]
        h0 = GridFunction(grid, -(grid.D1 @ f_modes[0].real))
        refs = [(0, solve_os_zero_mode(h0, grid))]
        for k in range(1, K + 1):
            h = GridFunction(grid, 1j * k * xi0 * g_modes[k] - grid.D1 @ f_modes[k])
            refs.append((k, OSModeOperator(p, k * xi0, grid).solve(h)))
        full = full_layout(fld.psi_modes)
        for k, ref in refs:
            want = ref.phi.values
            assert np.abs(full[K + k] - want).max() <= 1e-9 * np.abs(want).max()
            assert np.abs(full[K - k] - np.conj(want)).max() <= 1e-9 * np.abs(want).max()
            assert residuals[k] <= 10.0 * ref.residual_norm

    def test_solve_info_reports_mode_conditioning(self, grid48):
        K = 6
        fld = LinearizedChannelSolver(POISEUILLE, grid48, K, 1.0).solve(
            random_force(np.random.default_rng(3), grid48, K, 1.0, 1.0)
        )
        rcond = fld.solve_info["mode_rcond"]
        assert len(rcond) == K + 1 == len(fld.solve_info["mode_residuals"])
        assert all(r >= 1e-14 for r in rcond)
        assert rcond[1] == OSModeOperator(POISEUILLE, 1.0, grid48).rcond

    def test_factorization_counts(self, monkeypatch):
        # K operator constructions per build, one (the mean mode) per solve;
        # K + 1 inversions per build on a fresh grid (its k = 0 inverse), none per solve
        grid = build_grid(32)
        built, inverted = [], []

        class Counting(OSModeOperator):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        def counting_inv(a, inv=np.linalg.inv):
            inverted.append(a.shape)
            return inv(a)

        monkeypatch.setattr(channel, "OSModeOperator", Counting)
        monkeypatch.setattr(os_solver, "OSModeOperator", Counting)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        K = 5
        solver = LinearizedChannelSolver(POISEUILLE, grid, K, 1.0)
        assert built == [float(k) for k in range(1, K + 1)]
        assert len(inverted) == K + 1
        force = ForceField.zero(1.0, K, grid)
        for n in (1, 2):
            solver.solve(force)
            assert len(built) == K + n and built[-1] == 0.0
            assert len(inverted) == K + 1


def conjugate_symmetry_error(fld):
    """max over k of |mode -k - conj(mode k)| in the full layout: zero on a real field."""
    full, K = full_layout(fld.psi_modes), fld.K
    return max(float(np.abs(full[K - k] - np.conj(full[K + k])).max()) for k in range(K + 1))


def loop_h_norm(fld, m):
    """Reference H^m norm: one mode-wise array per derivative d_x^a d_y^b, a + b <= m,
    summed over the full layout k = -K..K."""
    ikx = (1j * fld.xi0 * np.arange(-fld.K, fld.K + 1))[:, None]
    D = {1: fld.grid.D1, 2: fld.grid.D2}
    psi = full_layout(fld.psi_modes)
    total = 0.0
    for comp in (psi @ fld.grid.D1.T, -ikx * psi):
        for order in range(m + 1):
            for b in range(order + 1):
                arr = comp if b == 0 else comp @ D[b].T
                arr = arr * ikx ** (order - b)
                total += float((np.abs(arr) ** 2 @ fld.grid.quad_weights).sum())
    return np.sqrt(2.0 * np.pi / fld.xi0 * total)


class TestHNorm:
    def test_non_finite_mode_is_a_domain_error(self, grid32):
        psi = np.zeros((5, grid32.N + 1), dtype=complex)
        psi[1, 3] = np.inf
        with pytest.raises(DomainError):
            ChannelField(1.0, 4, grid32, psi)

    @pytest.mark.parametrize("N, K", [(48, 4), (96, 32)])
    def test_matches_loop_reference(self, N, K):
        grid, xi0 = build_grid(N), 1.3
        rng = np.random.default_rng(N + K)
        fields = [random_field(rng, grid, K, xi0, h2) for h2 in (0.1, 2.0)]
        force = random_force(rng, grid, K, xi0, 1.0)
        fields.append(LinearizedChannelSolver(POISEUILLE, grid, K, xi0).solve(force))
        raw = rng.normal(size=(K + 1, N + 1)) + 1j * rng.normal(size=(K + 1, N + 1))
        fields.append(ChannelField(xi0, K, grid, raw))
        assert conjugate_symmetry_error(fields[-1]) > 0.1
        for fld in fields:
            for m in (0, 1, 2):
                want = loop_h_norm(fld, m)
                assert abs(field_h_norm(fld, m) - want) <= 1e-13 * want


class TestHalfSpectrum:
    """The stored modes k = 0..K against the full k = -K..K layout."""

    @pytest.mark.parametrize("N, K", [(48, 8), (96, 32)])
    def test_half_norm_equals_field_h_norm(self, N, K):
        grid, xi0 = build_grid(N), 1.3
        rng = np.random.default_rng(K)
        fields = [random_field(rng, grid, K, xi0, 2.0)]
        fields.append(LinearizedChannelSolver(POISEUILLE, grid, K, xi0).solve(
            random_force(rng, grid, K, xi0, 1.0)))
        fields.append(symmetry_project(fields[0], "X1"))
        for fld in fields:
            assert conjugate_symmetry_error(fld) == 0.0
            stack = _y_stack(fld.psi_modes, grid)
            for m in (0, 1, 2):
                want = loop_h_norm(fld, m)
                assert abs(_stack_h_norm(stack, grid, xi0, m) - want) <= 1e-13 * want

    def test_product_points_are_5_smooth_and_alias_free(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for K in range(1, 65):
            n = product_points(K)
            assert smooth(n) and n >= n_x_points(K) >= 3 * K + 1
            assert not any(smooth(m) for m in range(n_x_points(K), n))
            if smooth(n_x_points(K)):
                assert n == n_x_points(K)
        assert (product_points(8), product_points(32)) == (36, 135)


class TestForceAnalysis:
    def test_second_modes_call_does_no_fft_work(self, grid32, monkeypatch):
        force = random_force(np.random.default_rng(3), grid32, 4, 1.0, 1.0)
        calls = []
        real_analyze = channel.analyze

        def counting(*args, **kwargs):
            calls.append(1)
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(channel, "analyze", counting)
        first = force.modes()
        for modes in first:
            with pytest.raises(ValueError):
                modes[:] = 0.0  # read-only: the held analysis is untouched
        second, third = force.modes(), force.modes()
        assert len(calls) == 1
        for a, b in zip(second, third, strict=True):
            assert np.array_equal(a, b) and np.abs(a).max() > 0.0


class TestModalLayout:
    """Fields, forces, advection terms and pressure gradients hold modes k = 0..K."""

    def test_every_producer_returns_k_plus_1_rows(self, grid32):
        K, rng = 4, np.random.default_rng(6)
        force = random_force(rng, grid32, K, 1.0, 1.0)
        fld = LinearizedChannelSolver(POISEUILLE, grid32, K, 1.0).solve_modes(*force.modes())
        grad = recover_pressure_gradient(POISEUILLE, fld, force)
        a1, a2 = advection_modes(fld, fld)
        rows = {"solve_modes": fld.psi_modes, "advection_modes": a1, "advection_modes[1]": a2,
                "random_field": random_field(rng, grid32, K, 1.0, 1.0).psi_modes,
                "recover_pressure_gradient": grad.qx_modes, "recover_pressure_gradient[1]": grad.qy_modes}
        rows.update({f"symmetry_project {c}": symmetry_project(fld, c).psi_modes for c in SYMMETRY_CLASSES})
        assert {name: a.shape for name, a in rows.items()} == dict.fromkeys(rows, (K + 1, grid32.N + 1))

    def test_forced_picard_solve_mirrors_nothing(self, grid32):
        force = random_force(np.random.default_rng(7), grid32, 4, 1.0, 0.5)
        cfg = PicardConfig(delta=50.0, tol=1e-8)
        _fld, trace = NonlinearChannelSolver(POISEUILLE, grid32, 4, 1.0).solve(force, cfg)
        assert trace.converged and trace.n_iter >= 2


class TestSynthesis:
    @pytest.mark.parametrize("xi0", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("K", [1, 8, 32])
    def test_fft_equals_phase_sum(self, K, xi0):
        rng = np.random.default_rng(K)
        modes = rng.normal(size=(K + 1, 9)) + 1j * rng.normal(size=(K + 1, 9))
        phase = np.exp(1j * xi0 * np.outer(x_grid(xi0, K), np.arange(-K, K + 1)))
        want = (phase @ full_layout(modes)).real
        assert np.abs(synthesize(modes) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("K", [1, 8, 32])
    def test_analyze_inverts_synthesize(self, K):
        rng = np.random.default_rng(K)
        modes = rng.normal(size=(K + 1, 9)) + 1j * rng.normal(size=(K + 1, 9))
        modes[0] = modes[0].real  # mode 0 of real data is real
        back, tail = analyze(synthesize(modes), K)
        assert np.abs(back - modes).max() <= 1e-13 * np.abs(modes).max()
        assert tail <= 1e-28

    @pytest.mark.parametrize("K", [1, 8, 32])
    def test_stacked_calls_equal_per_slice(self, K):
        rng = np.random.default_rng(K)
        shape = (2, 3, K + 1, 9)
        modes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values = synthesize(modes)
        back, tail = analyze(values, K)
        assert values.shape == (2, 3, n_x_points(K), 9) and tail.shape == (2, 3)
        for i in np.ndindex(2, 3):
            one = synthesize(modes[i])
            assert np.abs(values[i] - one).max() <= 1e-15 * np.abs(one).max()
            back_i, tail_i = analyze(one, K)
            assert np.abs(back[i] - back_i).max() <= 1e-15 * np.abs(back_i).max()
            assert tail[i] == pytest.approx(float(tail_i), rel=1e-15)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("K", [1, 8, 32])
    def test_tail_fraction_matches_full_spectrum(self, K, extra):
        # white noise has energy at every |k|; an odd length has no Nyquist mode
        Mx = n_x_points(K) + extra
        values = np.random.default_rng(K).normal(size=(3, Mx, 9))
        _, tail = analyze(values, K)
        energy = (np.abs(np.fft.fft(values, axis=1) / Mx) ** 2).sum(axis=2)
        kept = energy[:, : K + 1].sum(axis=1) + energy[:, Mx - K :].sum(axis=1)
        want = (energy.sum(axis=1) - kept) / energy.sum(axis=1)
        assert want.min() > 0.1
        assert np.abs(tail - want).max() <= 1e-12 * want.max()


def scalar_window_norm(sm, m, xi0, K, grid):
    """Windowed H^m norm of the scalar with modes ``sm`` (rows k = 0..K) on unit-width slabs,
    from the private density and window helpers at the tensor-grid offsets."""
    ikx = (1j * xi0 * np.arange(K + 1))[:, None]
    dy = (sm, sm @ grid.D1.T, sm @ grid.D2.T)
    sets = [dy[b] if b == total else dy[b] * ikx ** (total - b)
            for total in range(m + 1) for b in range(total + 1)]
    dens = channel._density(sets, [grid.quad_weights] * len(sets))
    return float(np.sqrt(channel._windows([dens], xi0, x_grid(xi0, K), 1.0).max()))


class TestWindowedNorms:
    def test_constant_scalar(self, grid32):
        sm = np.zeros((5, grid32.N + 1), dtype=complex)
        sm[0] = 2.5
        assert scalar_window_norm(sm, 0, 1.0, 4, grid32) == pytest.approx(2.5 * np.sqrt(2.0), rel=1e-13)

    def test_x_independent_profile(self, grid32):
        sm = np.zeros((5, grid32.N + 1), dtype=complex)
        sm[0] = np.cos(grid32.nodes)
        got = scalar_window_norm(sm, 1, 1.0, 4, grid32)
        exact = np.sqrt(
            grid32.quad(np.cos(grid32.nodes) ** 2) + grid32.quad(np.sin(grid32.nodes) ** 2)
        )
        assert got == pytest.approx(exact, rel=1e-12)

    def test_single_mode_against_window_scan(self, grid32):
        K = 8
        shape = 1.0 - grid32.nodes**2
        sm = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        sm[1] = shape / 2.0j  # sin(x) * shape
        got = scalar_window_norm(sm, 0, 1.0, K, grid32)
        # brute-force scan at 4x the offset resolution, analytic x-integral
        best = 0.0
        for a in np.linspace(0.0, 2.0 * np.pi, 4 * 4 * (K + 1), endpoint=False):
            ix = 0.5 - (np.sin(2.0 * (a + 1.0)) - np.sin(2.0 * a)) / 4.0
            best = max(best, ix * grid32.quad(shape**2))
        oracle = np.sqrt(best)
        assert got <= oracle * (1.0 + 1e-12)
        assert got == pytest.approx(oracle, rel=5e-3)

    def test_window_norm_below_cell_norm(self, grid32, rng):
        for _ in range(5):
            h, x = field_norms(random_field(rng, grid32, 4, 1.0, 1.0))
            for m in (0, 1, 2):
                assert x[m] <= h[m] * (1.0 + 1e-10)


def _derivative_mode_sets(modes, xi0, K, grid, m):
    """Reference sets: d^alpha applied mode-wise, one entry per multi-index |alpha| <= m."""
    ks = np.arange(-K, K + 1)
    ikx = (1j * xi0 * ks)[:, None]
    out = []
    D = {0: None, 1: grid.D1, 2: grid.D2}
    for total in range(m + 1):
        for b in range(total + 1):
            a = total - b
            arr = modes if b == 0 else modes @ D[b].T
            if a:
                arr = arr * ikx**a
            out.append(arr)
    return out


def loop_x_norm(fld, m):
    """Reference windowed norm over the full layout k = -K..K: one Gram sum per mode set,
    one phase product per offset."""
    sets = []
    for comp in (full_layout(fld.v_modes()), full_layout(fld.w_modes())):
        sets.extend(_derivative_mode_sets(comp, fld.xi0, fld.K, fld.grid, m))
    kk = np.arange(-fld.K, fld.K + 1)
    G = sum((arr * fld.grid.quad_weights) @ np.conj(arr).T for arr in sets)
    lam = np.empty((len(kk), len(kk)), dtype=complex)
    for i, k in enumerate(kk):
        for j, l in enumerate(kk):
            arg = (k - l) * fld.xi0
            lam[i, j] = 1.0 if k == l else (np.exp(1j * arg) - 1.0) / (1j * arg)
    best = 0.0
    for a in fld.x():
        ph = np.exp(1j * fld.xi0 * kk * a)
        best = max(best, float(np.real(ph @ (G * lam) @ np.conj(ph))))
    return np.sqrt(best)


class TestXNormProduct:
    @pytest.mark.parametrize("K, xi0", [(4, 1.0), (16, 0.7), (32, 1.3)])
    def test_matches_loop_reference(self, grid32, K, xi0):
        rng = np.random.default_rng(K)
        fields = [random_field(rng, grid32, K, xi0, 1.0)]
        force = random_force(rng, grid32, K, xi0, 1.0)
        fields.append(LinearizedChannelSolver(POISEUILLE, grid32, K, xi0).solve(force))
        for fld in fields:
            x = field_norms(fld)[1]
            for m in (0, 1, 2):
                want = loop_x_norm(fld, m)
                assert abs(x[m] - want) <= 1e-13 * want


class TestFieldNorms:
    def test_h_norms_equal_field_h_norm(self, grid32):
        fld = random_field(np.random.default_rng(3), grid32, 16, 0.7, 1.0)
        h = field_norms(fld)[0]
        assert [h[m] for m in (0, 1, 2)] == [field_h_norm(fld, m) for m in (0, 1, 2)]

    def test_field_header_builds_one_y_stack(self, grid32, monkeypatch):
        fld = random_field(np.random.default_rng(4), grid32, 8, 1.0, 1.0)
        calls = []

        def counted(rows, grid):
            calls.append(rows.shape)
            return _y_stack(rows, grid)

        monkeypatch.setattr(channel, "_y_stack", counted)
        field_header(fld, POISEUILLE)
        assert len(calls) == 1


def centered_window(dk, xi0, L, period):
    """Integral of exp(i dk xi0 x) over (-L, L), saturating at one cell."""
    if 2.0 * L >= period:
        return period if dk == 0 else 0.0
    if dk == 0:
        return 2.0 * L
    arg = dk * xi0
    return 2.0 * np.sin(arg * L) / arg


def centered_quadratic(mode_sets, xi0, K, grid, L, weight=None):
    """Reference windowed quadratic over (-L, L): one Gram sum per mode set."""
    period = 2.0 * np.pi / xi0
    w = grid.quad_weights if weight is None else grid.quad_weights * weight
    n = 2 * K + 1
    kk = np.arange(-K, K + 1)
    dk_mat = kk[:, None] - kk[None, :]
    lam = np.array([centered_window(dk, xi0, L, period) for dk in range(-(n - 1), n)])
    lam_mat = lam[dk_mat + (n - 1)]
    total = 0.0
    for arr in mode_sets:
        G = (arr * w[None, :]) @ np.conj(arr).T
        total += float(np.real(np.sum(G * lam_mat)))
    return total


def loop_gamma_energy(p, fld, L):
    """Reference (Gamma(L), control value) from the centred-window quadratic over the
    full layout k = -K..K."""
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    psi = full_layout(fld.psi_modes)
    dpsi = psi @ grid.D1.T
    sigma = np.array([sigma_values(psi[j], dpsi[j], p, grid) for j in range(2 * K + 1)])
    ikx = (1j * xi0 * np.arange(-K, K + 1))[:, None]
    sx, sy, syy = ikx * sigma, sigma @ grid.D1.T, sigma @ grid.D2.T
    sxx, sxy = ikx**2 * sigma, ikx * sy
    pxx, pxy, pyy = ikx * (ikx * psi), ikx * dpsi, psi @ grid.D2.T

    def q(sets, weight=None):
        return centered_quadratic(sets, xi0, K, grid, L, weight)

    gamma = (-6.0 * p.A * q([sx]) - 12.0 * p.A * q([sy])
             + q([sxx], F) + 2.0 * q([sxy], F) + q([syy], F))
    return gamma, q([sy, sx, pxx, pyy]) + 2.0 * q([pxy])


class TestGammaEnergy:
    @pytest.mark.parametrize("xi0", [1.0, 0.7])
    @pytest.mark.parametrize("p", [POISEUILLE, Profile(-0.7, 0.3, 3.0)], ids=["poiseuille", "skewed"])
    def test_matches_loop_reference(self, grid32, p, xi0):
        # below, at (xi0 = 1: L = pi) and above saturation at half a cell
        Ls = [0.5, 1.0, 2.0, np.pi, 10.0, 20.0]
        fld = random_field(np.random.default_rng(8), grid32, 6, xi0, 1.0)
        rep = gamma_energy(p, fld, Ls)
        for L in Ls:
            g_ref, c_ref = loop_gamma_energy(p, fld, L)
            assert abs(rep.gamma_L[L] - g_ref) <= 1e-13 * g_ref
            assert abs(rep.gamma_control[L] - c_ref) <= 1e-13 * c_ref

    def test_density_count_independent_of_L_list(self, grid32, monkeypatch):
        calls = []
        density = channel._density

        def counted(sets, weights):
            calls.append(len(sets))
            return density(sets, weights)

        monkeypatch.setattr(channel, "_density", counted)
        fld = random_field(np.random.default_rng(5), grid32, 4, 1.0, 1.0)
        for Ls in ([1.0], [0.5, 1.0, 2.0, np.pi, 10.0, 20.0]):
            calls.clear()
            gamma_energy(POISEUILLE, fld, Ls)
            # Gamma and the control once each (5 sets), then field_norms' orders 0..2
            assert calls == [5, 5, 2, 4, 6]

    def test_zero_field(self, grid32):
        rep = gamma_energy(POISEUILLE, ChannelField.zero(1.0, 4, grid32), [1.0, 2.0])
        assert rep.gamma_L == {1.0: 0.0, 2.0: 0.0}

    def test_monotone_and_saturating(self, grid32, rng):
        for _ in range(5):
            fld = random_field(rng, grid32, 4, 1.0, 1.0)
            rep = gamma_energy(POISEUILLE, fld, [0.5, 1.0, 2.0, 3.0, np.pi, 10.0, 20.0])
            assert rep.gamma_monotone
            # windows saturate at the cell: values at L >= period/2 agree
            assert rep.gamma_L[10.0] == pytest.approx(rep.gamma_L[20.0], rel=1e-12)
            assert rep.gamma_L[np.pi] == pytest.approx(rep.gamma_L[10.0], rel=1e-12)

    def test_control_ratio_bounded(self, grid32, rng):
        # recorded envelope for the comparability constant on this family
        for _ in range(5):
            fld = random_field(rng, grid32, 4, 1.0, 1.0)
            rep = gamma_energy(POISEUILLE, fld, [1.0, 2.0])
            for L, g_val in rep.gamma_L.items():
                assert rep.gamma_control[L] <= 8.0 * g_val

    def test_inadmissible_rejected(self, grid32, rng):
        fld = random_field(rng, grid32, 4, 1.0, 1.0)
        with pytest.raises(InadmissibleProfileError):
            gamma_energy(Profile(-1.0, 0.0, 1.0), fld, [1.0])


class TestSymmetry:
    def test_projections_idempotent(self, grid32, rng):
        fld = random_field(rng, grid32, 4, 1.0, 1.0)
        for cls in ("X1", "X2", "Y1", "Y2"):
            once = symmetry_project(fld, cls)
            twice = symmetry_project(once, cls)
            assert np.abs(once.psi_modes - twice.psi_modes).max() <= 1e-14

    def test_parity_decompositions_reconstruct(self, grid32, rng):
        fld = random_field(rng, grid32, 4, 1.0, 1.0)
        for a, b in (("X1", "X2"), ("Y1", "Y2")):
            rec = symmetry_project(fld, a).psi_modes + symmetry_project(fld, b).psi_modes
            assert np.abs(rec - fld.psi_modes).max() <= 1e-14

    def test_cos_sin_perturbation_fixed_by_x1(self, grid32):
        # v = cos(x) s'(y), w = sin(x) s(y) <-> psi = cos(x) s(y): x-even
        K = 4
        psi = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        psi[1] = ENV(grid32.nodes) / 2.0
        fld = ChannelField(1.0, K, grid32, psi)
        proj = symmetry_project(fld, "X1")
        assert np.abs(proj.psi_modes - fld.psi_modes).max() == 0.0

    def test_unknown_class_rejected(self, grid32):
        with pytest.raises(DomainError):
            symmetry_project(ChannelField.zero(1.0, 2, grid32), "Z9")


class TestCancellation:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    def test_pure_parity_integrals_vanish(self, grid32, parity):
        p = Profile(-1.0, 0.0, 3.5)
        K = 4
        env = ENV(grid32.nodes)
        psi = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        psi[1] = env / 2.0 if parity == "cos" else env / 2.0j
        fld = ChannelField(1.0, K, grid32, psi)
        i1, i2 = check_symmetry_cancellation(p, fld)
        scale = field_h_norm(fld, 2) ** 2
        assert abs(i1) <= 1e-10 * scale
        assert abs(i2) <= 1e-10 * scale

    def test_mixed_parity_rejected(self, grid32):
        p = Profile(-1.0, 0.0, 3.5)
        K = 4
        env = ENV(grid32.nodes)
        psi = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        psi[1] = env * (1.0 + 0.3j * grid32.nodes**2)
        fld = ChannelField(1.0, K, grid32, psi)
        with pytest.raises(DomainError):
            check_symmetry_cancellation(p, fld)

    def test_mixed_parity_integral_generically_nonzero(self, grid32):
        # a y-dependent mode phase breaks the parity pairing and leaves a
        # genuinely nonzero obstruction integral
        p = Profile(-1.0, 0.0, 3.5)
        K = 4
        env = ENV(grid32.nodes)
        psi = np.zeros((K + 1, grid32.N + 1), dtype=complex)
        psi[1] = env * (1.0 + 0.3j * grid32.nodes**2)
        fld = ChannelField(1.0, K, grid32, psi)
        i1, i2 = stream_cross_integrals(p, fld)
        scale = field_h_norm(fld, 2) ** 2
        assert abs(i1) > 1e-4 * scale

    def test_odd_profile_rejected(self, grid32, rng):
        fld = random_field(rng, grid32, 4, 1.0, 1.0)
        with pytest.raises(DomainError):
            check_symmetry_cancellation(Profile(-1.0, 0.5, 4.0), fld)


def loop_export_field_csv(fld, path, pressure=None):
    """Reference writer: one f-string per row."""
    x, y = fld.x(), fld.grid.nodes
    v, w = fld.v_values(), fld.w_values()
    qx = pressure.qx_values() if pressure is not None else np.zeros_like(v)
    qy = pressure.qy_values() if pressure is not None else np.zeros_like(v)
    with open(path, "w") as fh:
        fh.write("x,y,v,w,qx,qy\n")
        for i in range(len(x)):
            for j in range(len(y)):
                fh.write(f"{x[i]:.17g},{y[j]:.17g},{v[i, j]:.17g},{w[i, j]:.17g},"
                         f"{qx[i, j]:.17g},{qy[i, j]:.17g}\n")


class TestExport:
    @pytest.mark.parametrize("K", [1, 8])
    @pytest.mark.parametrize("with_pressure", [False, True])
    def test_csv_matches_loop_writer(self, grid32, tmp_path, K, with_pressure):
        force = random_force(np.random.default_rng(K), grid32, K, 0.9, 1.0)
        fld = LinearizedChannelSolver(POISEUILLE, grid32, K, 0.9).solve(force)
        grad = recover_pressure_gradient(POISEUILLE, fld, force) if with_pressure else None
        export_field_csv(fld, tmp_path / "bulk.csv", pressure=grad)
        loop_export_field_csv(fld, tmp_path / "loop.csv", pressure=grad)
        got = (tmp_path / "bulk.csv").read_bytes()
        assert got == (tmp_path / "loop.csv").read_bytes()
        assert got.count(b"\n") == 1 + n_x_points(K) * (grid32.N + 1)
