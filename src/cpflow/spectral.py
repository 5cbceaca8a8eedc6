"""Chebyshev collocation infrastructure.

Nodes are Chebyshev-Gauss-Lobatto points y_j = cos(j*pi/N), stored in
descending order (y_0 = 1, y_N = -1).  Differentiation matrices use the
trigonometric-identity construction of Weideman & Reddy with the
negative-sum trick on the diagonal; higher derivatives are built by
repeated multiplication with D1, which keeps roundoff in D4 under control
up to N of a few hundred.  Quadrature is Clenshaw-Curtis on the same nodes.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NearSingularSystemError

__all__ = [
    "SpectralGrid",
    "GridFunction",
    "build_grid",
    "chebyshev_nodes",
    "chebyshev_diff",
    "clenshaw_curtis_weights",
    "h_minus1_norm",
    "poincare_ratio",
]

RCOND_FLOOR = 1e-14


def chebyshev_nodes(N):
    """Gauss-Lobatto nodes cos(j*pi/N), j=0..N, descending on [-1, 1]."""
    j = np.arange(N + 1)
    # sin form keeps exact antisymmetry y[N-j] = -y[j]
    return np.sin(np.pi * (N - 2.0 * j) / (2.0 * N))


def chebyshev_diff(N):
    """First-derivative collocation matrix on the Gauss-Lobatto nodes.

    Uses the trig-identity form of the off-diagonal entries plus the
    flipping trick, and sets the diagonal by the negative-sum trick so
    that constants differentiate to exactly zero.
    """
    if N == 0:
        return np.zeros((1, 1))
    n1, n2 = N // 2, (N + 1) // 2
    k = np.arange(N + 1)
    th = k * np.pi / N
    T = np.tile(th / 2, (N + 1, 1)).T
    DX = 2 * np.sin(T.T + T) * np.sin(T.T - T)  # x_k - x_j via trig identity
    DX[n1 + 1 :, :] = -np.flipud(np.fliplr(DX[: n2, :]))  # flipping trick
    np.fill_diagonal(DX, 1.0)
    c = np.hstack(([2.0], np.ones(N - 1), [2.0])) * (-1.0) ** k
    C = np.outer(c, 1.0 / c)
    D = C / DX
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def bordered_system(L, grid):
    """Copy of L with rows (0, 1, N-1, N) replaced by the clamped boundary conditions."""
    N = grid.N
    A = np.array(L)
    A[0, :] = 0.0
    A[0, 0] = 1.0  # phi(+1) = 0
    A[1, :] = grid.D1[0, :]  # phi'(+1) = 0
    A[N - 1, :] = grid.D1[N, :]  # phi'(-1) = 0
    A[N, :] = 0.0
    A[N, N] = 1.0  # phi(-1) = 0
    return A


def _factor_clamped(L, grid, xi):
    """Read-only (row_scale, As, As^-1, rcond) of bordered L, As = diag(row_scale) A; gated on RCOND_FLOOR."""
    A = bordered_system(L, grid)
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    row_scale = 1.0 / scale
    As = A * row_scale[:, None]
    del A  # freed before the inverse is made, so held factors pack without a hole between them
    try:
        inv = np.linalg.inv(As)
        rcond = 1.0 / (np.abs(As).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    except np.linalg.LinAlgError:  # an exactly zero pivot
        rcond = 0.0
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise NearSingularSystemError(f"mode system at xi={xi} is numerically singular "
                                      f"(rcond={rcond:.3e})", rcond=float(rcond))
    for a in (row_scale, As, inv):
        a.flags.writeable = False
    return row_scale, As, inv, rcond


def clenshaw_curtis_weights(N):
    """Clenshaw-Curtis quadrature weights on the Gauss-Lobatto nodes."""
    if N == 0:
        return np.array([2.0])
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for kk in range(1, N // 2):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for kk in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
    w[ii] = 2.0 * v / N
    return w


@dataclass(frozen=True)
class SpectralGrid:
    """Collocation grid with derivative matrices up to fourth order.

    Boundary-row bookkeeping: index 0 is y = +1 and index N is y = -1.
    """

    N: int
    nodes: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray
    D4: np.ndarray
    quad_weights: np.ndarray

    def quad(self, values):
        """Integral of ``values`` over [-1, 1]."""
        return self.quad_weights @ values

    def l2_norm(self, values):
        return float(np.sqrt(self.quad(np.abs(values) ** 2).real))

    @cached_property
    def clamped_d4(self):
        """``_factor_clamped`` of the xi = 0 system phi'''' = h, made on first read, per grid."""
        return _factor_clamped(self.D4, self, 0.0)

    @cached_property
    def _dirichlet_inv(self):
        """Inverse of the Dirichlet Laplacian that ``h_minus1_norm`` applies, made on first read, per grid."""
        A = -self.D2
        A[[0, self.N], :] = 0.0
        A[0, 0] = A[self.N, self.N] = 1.0
        return np.linalg.inv(A)


def build_grid(N):
    """Build the collocation grid of polynomial degree N (an integer N >= 8)."""
    if not isinstance(N, numbers.Integral) or N < 8:
        raise DomainError(f"grid degree must be an integer of at least 8, got {N!r}")
    nodes = chebyshev_nodes(N)
    D1 = chebyshev_diff(N)
    D2 = D1 @ D1
    D3 = D1 @ D2
    D4 = D1 @ D3
    w = clenshaw_curtis_weights(N)
    return SpectralGrid(N=N, nodes=nodes, D1=D1, D2=D2, D3=D3, D4=D4, quad_weights=w)


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued nodal data bound to a grid; NaN or inf samples raise."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.N + 1,):
            raise DomainError(
                f"values length {vals.shape} does not match grid size {self.grid.N + 1}"
            )
        if not np.isfinite(vals).all():
            raise DomainError("nodal values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    def l2_norm(self):
        return self.grid.l2_norm(self.values)


def h_minus1_norm(h):
    """Dual-space norm of h against the zero-boundary H^1 functions.

    Solves -u'' = h with u(+-1) = 0 and returns the L^2 norm of u'; this
    realizes the dual norm through the Riesz representative.
    """
    g = h.grid
    rhs = h.values.copy()
    rhs[0] = 0.0
    rhs[g.N] = 0.0
    u = g._dirichlet_inv @ rhs
    return g.l2_norm(g.D1 @ u)


def poincare_ratio(f):
    """Rayleigh quotient int|f'|^2 / int|f|^2 for endpoint-zero f.

    For f vanishing at y = +-1 the ratio is bounded below by pi^2/4, with
    equality at f = cos(pi*y/2).
    """
    g = f.grid
    num = g.quad(np.abs(g.D1 @ f.values) ** 2).real
    den = g.quad(np.abs(f.values) ** 2).real
    if den == 0.0:
        raise DomainError("poincare_ratio of the zero function")
    return float(num / den)
