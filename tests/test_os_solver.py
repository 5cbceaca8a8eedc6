import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial import Polynomial
from scipy.linalg import lapack

from cpflow.errors import DomainError, InadmissibleProfileError, NearSingularSystemError
from cpflow.os_solver import (
    OSModeOperator,
    apriori_ratio,
    os_operator_matrix,
    sigma_diagnostics,
    sigma_values,
    solve_os_mode,
    solve_os_zero_mode,
)
from cpflow.profiles import Profile, poiseuille_for_flux
from cpflow.spectral import GridFunction, bordered_system, build_grid

POISEUILLE = poiseuille_for_flux(4.0)


def manufactured_source(p, xi, y):
    """Exact polynomial source for target phi = (1 - y^2)^2."""
    phi = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])
    F = Polynomial([p.C, p.B, 3.0 * p.A])
    lin = phi.deriv(4) - 2.0 * xi**2 * phi.deriv(2) + xi**4 * phi
    ost = F * (phi.deriv(2) - xi**2 * phi) - 6.0 * p.A * phi
    return lin(y) - 1j * xi * ost(y), phi(y)


def smooth_source(grid, rng):
    basis = np.array(
        [np.ones_like(grid.nodes), grid.nodes, np.sin(np.pi * grid.nodes), np.exp(grid.nodes)]
    )
    return GridFunction(grid, rng.normal(size=4) @ basis + 1j * (rng.normal(size=4) @ basis))


class TestModeSolve:
    @pytest.mark.parametrize("xi", [0.5, 1.0, 5.0])
    def test_manufactured_polynomial(self, grid48, xi):
        hv, phi_exact = manufactured_source(POISEUILLE, xi, grid48.nodes)
        sol = solve_os_mode(POISEUILLE, xi, GridFunction(grid48, hv), grid48)
        assert np.abs(sol.phi.values - phi_exact).max() <= 1e-10

    def test_zero_source_gives_zero(self, grid64):
        h = GridFunction(grid64, np.zeros(grid64.N + 1, dtype=complex))
        sol = solve_os_mode(POISEUILLE, 2.0, h, grid64)
        assert np.abs(sol.phi.values).max() == 0.0

    def test_conjugation_symmetry(self, grid64, rng):
        h = smooth_source(grid64, rng)
        sol_plus = solve_os_mode(POISEUILLE, 1.3, h, grid64)
        h_conj = GridFunction(grid64, np.conj(h.values))
        sol_minus = solve_os_mode(POISEUILLE, -1.3, h_conj, grid64)
        assert np.abs(sol_minus.phi.values - np.conj(sol_plus.phi.values)).max() <= 1e-10

    def test_linearity(self, grid64, rng):
        h1 = smooth_source(grid64, rng)
        h2 = smooth_source(grid64, rng)
        op = OSModeOperator(POISEUILLE, 0.8, grid64)
        s12 = op.solve(GridFunction(grid64, h1.values + h2.values))
        s1 = op.solve(h1)
        s2 = op.solve(h2)
        err = np.abs(s12.phi.values - s1.phi.values - s2.phi.values).max()
        assert err <= 1e-10 * max(1.0, np.abs(s12.phi.values).max())

    def test_clamped_boundary_exact(self, grid64, rng):
        sol = solve_os_mode(POISEUILLE, 1.0, smooth_source(grid64, rng), grid64)
        N = grid64.N
        assert abs(sol.phi.values[0]) == 0.0 and abs(sol.phi.values[N]) == 0.0
        scale = np.abs(sol.dphi.values).max()
        assert abs(sol.dphi.values[0]) <= 1e-12 * scale
        assert abs(sol.dphi.values[N]) <= 1e-12 * scale

    def test_residual_ratio_smooth_source(self, rng):
        # float64 floor of the collocation residual grows ~N^8 eps;
        # the 1e-8 contract is honored at the stated N = 64 scale
        for N in (64, 96):
            g = build_grid(N)
            h = GridFunction.from_callable(g, lambda y: np.sin(np.pi * y) + 0.5j * np.exp(y))
            sol = solve_os_mode(POISEUILLE, 1.0, h, g)
            assert sol.residual_norm / g.l2_norm(h.values) <= 1e-8

    def test_two_grid_convergence(self, rng):
        g1, g2 = build_grid(64), build_grid(128)
        h_fn = lambda y: np.sin(np.pi * y) + 0.3j * np.cos(2.0 * y)
        s1 = solve_os_mode(POISEUILLE, 1.0, GridFunction.from_callable(g1, h_fn), g1)
        s2 = solve_os_mode(POISEUILLE, 1.0, GridFunction.from_callable(g2, h_fn), g2)
        # CGL nodes are nested: y_j(64) = y_{2j}(128)
        assert np.abs(s1.phi.values - s2.phi.values[::2]).max() <= 1e-9

    def test_xi_zero_rejected(self, grid64):
        h = GridFunction(grid64, np.ones(grid64.N + 1, dtype=complex))
        with pytest.raises(DomainError):
            solve_os_mode(POISEUILLE, 0.0, h, grid64)

    def test_near_singular_at_neutral_profile(self):
        # loss of injectivity at the flow-reversal profile is reported,
        # not silently mis-solved
        g = build_grid(200)
        p = Profile(A=-5772.221744060516 / 3.0, B=0.0, C=4248.353073492091)
        with pytest.raises(NearSingularSystemError) as exc:
            OSModeOperator(p, 1.0205483748009962, g)
        assert exc.value.rcond < 1e-14


class TestZeroMode:
    def test_constant_source(self, grid48):
        h = GridFunction(grid48, np.full(grid48.N + 1, 24.0, dtype=complex))
        sol = solve_os_zero_mode(h, grid48)
        assert np.abs(sol.phi.values - (1.0 - grid48.nodes**2) ** 2).max() <= 1e-11

    def test_zero_source(self, grid48):
        h = GridFunction(grid48, np.zeros(grid48.N + 1, dtype=complex))
        sol = solve_os_zero_mode(h, grid48)
        assert np.abs(sol.phi.values).max() == 0.0

    def test_random_source_residual(self, grid32, rng):
        # absolute collocation residual; its float64 floor grows with N
        sol = solve_os_zero_mode(smooth_source(grid32, rng), grid32)
        assert sol.residual_norm <= 1e-10

    @pytest.mark.parametrize("N", [32, 96])
    def test_grid_inverse_matches_written_reference(self, N, rng):
        # np.linalg.inv of the bordered, row-equilibrated D4 and two
        # refinement steps, bit for bit, before and after the grid holds it
        grid = build_grid(N)
        h = smooth_source(grid, rng)
        first = solve_os_zero_mode(h, grid).phi.values
        again = solve_os_zero_mode(h, grid).phi.values
        A = bordered_system(grid.D4, grid)
        row_scale = 1.0 / np.abs(A).max(axis=1)
        As = A * row_scale[:, None]
        inv = np.linalg.inv(As)
        b = h.values * row_scale
        b[[0, 1, N - 1, N]] = 0.0
        want = inv @ b
        for _ in range(2):
            want = want + inv @ (b - As @ want)
        assert np.array_equal(first, want) and np.array_equal(again, want)

    def test_grid_inverse_read_only(self, grid32):
        for a in grid32.clamped_d4[:3]:  # row scale, As, As^-1
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_each_grid_inverts_once(self, monkeypatch, rng):
        grids = [build_grid(32), build_grid(32)]  # same N, separate instances
        inverted = []

        def counting_inv(a, inv=np.linalg.inv):
            inverted.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        h = smooth_source(grids[0], rng).values
        for g in grids:
            for _ in range(3):
                solve_os_zero_mode(GridFunction(g, h), g)
                OSModeOperator(None, 0.0, g)
        assert inverted == [(33, 33), (33, 33)]
        assert grids[0].clamped_d4[2] is not grids[1].clamped_d4[2]

    @pytest.mark.parametrize("N", [32, 96])
    def test_real_system_matches_complex_factorization(self, N, rng):
        # the xi = 0 system is real: real LU and gecon against the complex
        # factorization of the same equilibrated system
        grid = build_grid(N)
        op = OSModeOperator(None, 0.0, grid)
        assert not np.iscomplexobj(op._A)
        A = bordered_system(os_operator_matrix(None, 0.0, grid), grid)
        As = A / np.abs(A).max(axis=1)[:, None]
        lu = sla.lu_factor(As)
        rcond, _ = lapack.zgecon(lu[0], np.abs(As).sum(axis=0).max(), norm="1")
        assert op.rcond == pytest.approx(rcond, rel=1e-10)
        h = smooth_source(grid, rng)
        rhs = h.values.copy()
        rhs[[0, 1, N - 1, N]] = 0.0
        scale = 1.0 / np.abs(A).max(axis=1)
        want = sla.lu_solve(lu, rhs * scale)
        for _ in range(2):
            want = want + sla.lu_solve(lu, (rhs - A @ want) * scale)
        got = op.solve(h).phi.values
        # backward-stable solves agree to the forward error bound eps / rcond
        bound = np.finfo(float).eps / rcond * np.abs(want).max()
        assert np.abs(got - want).max() <= bound
        real = op.solve(GridFunction(grid, h.values.real)).phi.values
        imag = op.solve(GridFunction(grid, h.values.imag)).phi.values
        assert np.abs(got - (real + 1j * imag)).max() <= bound


class TestConditionNumber:
    @pytest.mark.parametrize("p", [POISEUILLE, Profile(-0.7, 0.3, 3.0)], ids=["poiseuille", "skewed"])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 5.0, 32.0])
    @pytest.mark.parametrize("N", [32, 96])
    def test_exact_rcond_matches_lapack_estimate(self, N, xi, p):
        # 1 / (||As||_1 ||As^-1||_1) from the explicit inverse against
        # zgecon's estimate from the LU of the same equilibrated system
        grid = build_grid(N)
        A = bordered_system(os_operator_matrix(p, xi, grid), grid)
        As = (A / np.abs(A).max(axis=1)[:, None]).astype(complex)
        lu = sla.lu_factor(As)
        rcond, info = lapack.zgecon(lu[0], np.abs(As).sum(axis=0).max(), norm="1")
        assert info == 0
        assert OSModeOperator(p, xi, grid).rcond == pytest.approx(rcond, rel=1e-10)


class TestNonFiniteData:
    def test_nan_source_is_a_domain_error(self, grid32):
        vals = np.sin(np.pi * grid32.nodes)
        vals[5] = np.nan
        with pytest.raises(DomainError):
            solve_os_mode(POISEUILLE, 1.0, GridFunction(grid32, vals), grid32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_grid_function_rejects_non_finite(self, grid32, bad):
        vals = np.zeros(grid32.N + 1, dtype=complex)
        vals[3] = bad
        with pytest.raises(DomainError):
            GridFunction(grid32, vals)


class TestAprioriRatio:
    def test_zero_source(self, grid64):
        h = GridFunction(grid64, np.zeros(grid64.N + 1, dtype=complex))
        sol = solve_os_mode(POISEUILLE, 1.0, h, grid64)
        assert apriori_ratio(sol, h) == (0.0, 0.0)

    def test_frozen_regression_value(self, grid64):
        h = GridFunction.from_callable(grid64, lambda y: np.sin(np.pi * y))
        sol = solve_os_mode(POISEUILLE, 1.0, h, grid64)
        r_h, r_l2 = apriori_ratio(sol, h)
        assert r_h == pytest.approx(0.03578482456788697, rel=1e-6)
        assert r_l2 == pytest.approx(0.003625760781651651, rel=1e-6)

    def test_sweep_bounded(self, grid64, rng):
        h = smooth_source(grid64, rng)
        vals = []
        for xi in np.geomspace(0.05, 50.0, 20):
            sol = solve_os_mode(POISEUILLE, xi, h, grid64)
            r_h, r_l2 = apriori_ratio(sol, h)
            vals.append(min(r_h, r_l2))
        assert max(vals) < 1.0


class TestSigmaValues:
    @pytest.mark.parametrize("p", [POISEUILLE, Profile(-0.7, 0.3, 3.0)], ids=["wall-zeros", "skewed"])
    def test_stack_equals_row_calls(self, grid32, p):
        K = 16
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(2 * K + 1, grid32.N + 1)) + 1j * rng.normal(size=(2 * K + 1, grid32.N + 1))
        dphi = phi @ grid32.D1.T
        rows = np.array([sigma_values(phi[j], dphi[j], p, grid32) for j in range(2 * K + 1)])
        assert np.array_equal(sigma_values(phi, dphi, p, grid32), rows)


class TestSigmaDiagnostics:
    def _manual_solution(self, grid, xi=1.0):
        phi = (1.0 - grid.nodes**2) ** 2 + 0j
        from cpflow.os_solver import ModeSolution

        return ModeSolution(
            xi=xi,
            phi=GridFunction(grid, phi),
            dphi=GridFunction(grid, grid.D1 @ phi),
            d2phi=GridFunction(grid, grid.D2 @ phi),
            residual_norm=0.0,
            lhs_energy=float(
                grid.quad(
                    np.abs(grid.D2 @ phi) ** 2
                    + 2 * xi**2 * np.abs(grid.D1 @ phi) ** 2
                    + xi**4 * np.abs(phi) ** 2
                ).real
            ),
            rcond=1.0,
        )

    def test_poiseuille_quartic_sigma(self, grid48):
        sol = self._manual_solution(grid48)
        d = sigma_diagnostics(sol, POISEUILLE)
        sigma_exact = (1.0 - grid48.nodes**2) / 3.0
        assert np.abs(d.sigma.values - sigma_exact).max() <= 1e-10
        assert d.boundary_ok
        assert d.a00_value == pytest.approx(-16.0 / 3.0, rel=1e-9)

    def test_inadmissible_profile_rejected(self, grid48):
        sol = self._manual_solution(grid48)
        with pytest.raises(InadmissibleProfileError):
            sigma_diagnostics(sol, Profile(-1.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "profile",
        [POISEUILLE, Profile(0.0, 1.0, 1.0), Profile(-0.5, 0.3, 2.0)],
        ids=["poiseuille", "couette", "generic"],
    )
    @pytest.mark.parametrize("xi", [0.3, 1.0, 7.0])
    def test_energy_inequality_on_solves(self, grid64, rng, profile, xi):
        h = smooth_source(grid64, rng)
        sol = solve_os_mode(profile, xi, h, grid64)
        d = sigma_diagnostics(sol, profile)
        rhs = grid64.quad(h.values * np.conj(d.sigma.values)).real
        scale = abs(d.energy_lhs) + abs(rhs)
        assert d.energy_lhs <= rhs + 1e-8 * scale
        assert d.a00_value <= 1e-10 * (1.0 + abs(d.a00_value))
        assert d.poincare_ratio >= np.pi**2 / 4.0 - 1e-8

    def test_lower_bound_ratio_regression(self, grid64, rng):
        # the comparability constant of energy_lhs with the plain energies
        # is profile-dependent; 20 is the recorded envelope for this family
        worst = 0.0
        for _ in range(20):
            A = -rng.uniform(0.1, 3.0)
            C = rng.uniform(-3.0 * A, -6.0 * A + 1.0)
            B = rng.uniform(-1.0, 1.0) * (3.0 * A + C)
            p = Profile(A, B, C)
            xi = rng.uniform(0.2, 8.0)
            sol = solve_os_mode(p, xi, smooth_source(grid64, rng), grid64)
            d = sigma_diagnostics(sol, p)
            ds = grid64.D1 @ d.sigma.values
            rhs = (
                grid64.quad(np.abs(ds) ** 2).real
                + xi**2 * grid64.quad(np.abs(d.sigma.values) ** 2).real
                + sol.lhs_energy
            )
            worst = max(worst, rhs / d.energy_lhs)
        assert worst <= 20.0
