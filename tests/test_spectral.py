import numpy as np
import pytest

from cpflow.errors import DomainError
from cpflow.spectral import (
    GridFunction,
    build_grid,
    h_minus1_norm,
    poincare_ratio,
)


def sobolev_norm(f, m):
    """H^m norm (sum over derivative orders 0..m) by quadrature."""
    if not 0 <= m <= 3:
        raise DomainError(f"derivative order must lie in 0..3, got {m}")
    g = f.grid
    total = g.quad(np.abs(f.values) ** 2).real
    D = (g.D1, g.D2, g.D3)
    for k in range(1, m + 1):
        total += g.quad(np.abs(D[k - 1] @ f.values) ** 2).real
    return float(np.sqrt(total))


class TestGridInvariants:
    def test_constant_derivative_zero(self, grid32):
        err = np.abs(grid32.D1 @ np.ones(grid32.N + 1)).max()
        assert err <= 1e-12 * np.linalg.norm(grid32.D1, np.inf)

    def test_second_equals_first_squared(self, grid32):
        # D2 is built as D1 @ D1, so this is consistency, not accuracy
        diff = np.abs(grid32.D2 - grid32.D1 @ grid32.D1).max()
        assert diff <= 1e-10 * np.abs(grid32.D2).max()

    def test_quadrature_of_one(self, grid32):
        assert abs(grid32.quad(np.ones(grid32.N + 1)) - 2.0) <= 1e-13

    def test_minimum_degree_enforced(self):
        with pytest.raises(DomainError):
            build_grid(7)

    def test_cubic_exact_at_n8(self):
        g = build_grid(8)
        err = np.abs(g.D1 @ g.nodes**3 - 3.0 * g.nodes**2).max()
        assert err <= 1e-11

    def test_quadrature_quadratic(self, grid32):
        assert abs(grid32.quad(grid32.nodes**2) - 2.0 / 3.0) <= 1e-13

    def test_fourth_derivative_of_quartic(self, grid32):
        # exact in exact arithmetic; the float64 floor of applying a dense
        # fourth-derivative matrix is ~1e-7 at this size, not 1e-9
        err = np.abs(grid32.D4 @ (1.0 - grid32.nodes**2) ** 2 - 24.0).max()
        assert err <= 5e-7

    def test_spectral_accuracy_exponential(self):
        g = build_grid(24)
        f = np.exp(g.nodes)
        assert np.abs(g.D1 @ f - f).max() <= 1e-10

    def test_node_ordering_and_symmetry(self, grid32):
        assert grid32.nodes[0] == 1.0 and grid32.nodes[-1] == -1.0
        assert np.all(np.diff(grid32.nodes) < 0)
        assert np.abs(grid32.nodes + grid32.nodes[::-1]).max() == 0.0


class TestSobolevNorm:
    def test_constant_l2(self, grid32):
        f = GridFunction(grid32, np.ones(grid32.N + 1, dtype=complex))
        assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_cosine_h1(self, grid32):
        f = GridFunction.from_callable(grid32, lambda y: np.cos(np.pi * y / 2))
        assert sobolev_norm(f, 1) == pytest.approx(np.sqrt(1.0 + np.pi**2 / 4), rel=1e-12)

    def test_quartic_h2_against_exact_integrals(self, grid32):
        # int f^2 = 256/315, int f'^2 = 256/105, int f''^2 = 128/5
        f = GridFunction.from_callable(grid32, lambda y: (1.0 - y**2) ** 2)
        exact = 256.0 / 315.0 + 256.0 / 105.0 + 128.0 / 5.0
        assert sobolev_norm(f, 2) == pytest.approx(np.sqrt(exact), rel=1e-12)

    def test_homogeneity(self, grid64, rng):
        vals = rng.normal(size=grid64.N + 1) + 1j * rng.normal(size=grid64.N + 1)
        f = GridFunction(grid64, vals)
        for m in range(3):
            n1 = sobolev_norm(f, m)
            n2 = sobolev_norm(GridFunction(grid64, -2.5 * vals), m)
            assert n2 == pytest.approx(2.5 * n1, rel=1e-12)

    def test_order_out_of_range(self, grid32):
        f = GridFunction(grid32, np.ones(grid32.N + 1, dtype=complex))
        with pytest.raises(DomainError):
            sobolev_norm(f, 4)


def sine_series_dual_norm(h_fn, n_modes=400, n_quad=6000):
    """Independent Riesz oracle: expand in the Dirichlet eigenbasis.

    -u'' on (-1,1) with zero boundary values has eigenfunctions
    sin(k pi (y+1)/2), eigenvalues (k pi / 2)^2; the dual norm squared is
    sum |<h, s_k>|^2 / (mu_k ||s_k||^2).
    """
    y = np.linspace(-1.0, 1.0, n_quad)
    hv = h_fn(y)
    total = 0.0
    for k in range(1, n_modes + 1):
        sk = np.sin(k * np.pi * (y + 1.0) / 2.0)
        mu = (k * np.pi / 2.0) ** 2
        inner = np.trapezoid(hv * sk, y)
        total += abs(inner) ** 2 / mu  # ||s_k||^2 = 1
    return np.sqrt(total)


class TestDualNorm:
    def test_constant_source(self, grid32):
        h = GridFunction(grid32, np.ones(grid32.N + 1, dtype=complex))
        assert h_minus1_norm(h) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_laplacian_eigenfunction(self, grid64):
        h = GridFunction.from_callable(grid64, lambda y: np.sin(np.pi * y))
        assert h_minus1_norm(h) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_random_polynomial_against_sine_series(self, grid64, rng):
        coef = rng.normal(size=5)
        h_fn = lambda y: np.polynomial.polynomial.polyval(y, coef)
        h = GridFunction.from_callable(grid64, h_fn)
        oracle = sine_series_dual_norm(h_fn)
        assert h_minus1_norm(h) == pytest.approx(oracle, rel=1e-6)

    def test_poincare_duality_bound(self, grid64, rng):
        for _ in range(15):
            vals = rng.normal(size=4) @ np.array(
                [np.ones_like(grid64.nodes), grid64.nodes, grid64.nodes**2, np.sin(2 * grid64.nodes)]
            )
            h = GridFunction(grid64, vals)
            l2 = grid64.l2_norm(vals)
            assert h_minus1_norm(h) <= (2.0 / np.pi) * l2 * (1.0 + 1e-12)

    def test_homogeneity(self, grid64, rng):
        vals = rng.normal(size=grid64.N + 1)
        h1 = h_minus1_norm(GridFunction(grid64, vals))
        h2 = h_minus1_norm(GridFunction(grid64, 3.0 * vals))
        assert h2 == pytest.approx(3.0 * h1, rel=1e-12)


class TestPoincareRatio:
    def test_equality_case(self, grid64):
        f = GridFunction.from_callable(grid64, lambda y: np.cos(np.pi * y / 2))
        assert poincare_ratio(f) == pytest.approx(np.pi**2 / 4.0, abs=1e-10)

    def test_lower_bound_on_random_clamped(self, grid64, rng):
        for _ in range(50):
            c = rng.normal(size=5)
            vals = (1.0 - grid64.nodes**2) * np.polynomial.chebyshev.chebval(grid64.nodes, c)
            assert poincare_ratio(GridFunction(grid64, vals)) >= np.pi**2 / 4.0 - 1e-8
