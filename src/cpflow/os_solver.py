"""Non-homogeneous Orr-Sommerfeld boundary-value solves at one wavenumber.

For a base profile F and wavenumber xi != 0 the mode equation is

    phi'''' - 2 xi^2 phi'' + xi^4 phi
        - i xi [ F(y) (phi'' - xi^2 phi) - 6A phi ] = h(y),
    phi(+-1) = phi'(+-1) = 0,

i.e. the stationary (eigenvalue-zero) Orr-Sommerfeld operator driven by a
source.  The xi = 0 reduction phi'''' = h with the same clamped conditions
covers the mean mode of the channel synthesis; it takes no profile.

Fourier convention: modes enter through the transform integral with kernel
exp(-i xi x); the inverse carries the kernel exp(+i xi x) and the 1/(2 pi)
normalization.  On a periodic cell this reduces to the ordinary Fourier
series used in :mod:`cpflow.channel`.

Boundary conditions are imposed by boundary bordering: the four rows for
phi(+-1) and phi'(+-1) replace the collocation rows at the walls and at
the first interior nodes, keeping the system square.  The row-equilibrated
system As is inverted explicitly, which gives its reciprocal condition
number exactly, 1 / (||As||_1 ||As^-1||_1); a near-singular system raises
:class:`~cpflow.errors.NearSingularSystemError` (at inadmissible profiles
near neutral parameters this signals genuine loss of injectivity).  The
grid-only xi = 0 system is inverted once per grid (``SpectralGrid.clamped_d4``).
Each solve refines twice on the equilibrated system, x <- x + As^-1 (b - As x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InadmissibleProfileError
from .profiles import check_admissibility
from .spectral import GridFunction, _factor_clamped, h_minus1_norm

__all__ = [
    "ModeSolution",
    "SigmaDiagnostics",
    "OSModeOperator",
    "solve_os_mode",
    "solve_os_zero_mode",
    "apriori_ratio",
    "sigma_diagnostics",
]


def os_operator_matrix(p, xi, grid):
    """Dense collocation matrix of the mode operator (no boundary rows); grid.D4 itself at xi = 0."""
    if xi == 0.0:
        return grid.D4
    I = np.eye(grid.N + 1)
    F = p.F(grid.nodes)
    return (grid.D4 - 2.0 * xi**2 * grid.D2 + xi**4 * I
            - 1j * xi * (F[:, None] * (grid.D2 - xi**2 * I) - 6.0 * p.A * I))


@dataclass(frozen=True)
class ModeSolution:
    """One solved wavenumber: phi with derivatives and solve diagnostics."""

    xi: float
    phi: GridFunction
    dphi: GridFunction
    d2phi: GridFunction
    residual_norm: float
    lhs_energy: float
    rcond: float

    @property
    def grid(self):
        return self.phi.grid


@dataclass(frozen=True)
class SigmaDiagnostics:
    """Diagnostics of the auxiliary function sigma = phi / F."""

    sigma: GridFunction
    boundary_ok: bool
    a00_value: float
    poincare_ratio: float
    energy_lhs: float


class OSModeOperator:
    """Inverted clamped mode operator, reusable across right-hand sides.

    ``xi = 0`` is the real fourth-derivative reduction, which takes no
    profile (``p`` may be None): it reads the grid's one inverse
    (``SpectralGrid.clamped_d4``) and solves a real source in real arithmetic.
    """

    def __init__(self, p, xi, grid):
        self.xi = float(xi)
        self.grid = grid
        self._L = os_operator_matrix(p, xi, grid)
        self._row_scale, self._A, self._inv, self.rcond = (
            grid.clamped_d4 if xi == 0.0 else _factor_clamped(self._L, grid, xi))

    def inverse(self):
        """Dense inverse of the bordered system, As^-1 diag(row_scale)."""
        return self._inv * self._row_scale

    def solve(self, h):
        """Solve for the given source and package diagnostics."""
        g = self.grid
        N = g.N
        hv = h.values
        if hv.shape != (N + 1,):
            raise DomainError("source length does not match the grid")
        if not (np.iscomplexobj(self._A) or hv.imag.any()):
            hv = hv.real  # a real source on the real system stays real
        b = hv * self._row_scale
        b[[0, 1, N - 1, N]] = 0.0
        x = self._inv @ b
        for _ in range(2):  # iterative refinement
            x = x + self._inv @ (b - self._A @ x)
        interior = slice(2, N - 1)
        res = (self._L @ x - hv)[interior]
        w = g.quad_weights[interior]
        residual_norm = float(np.sqrt(w @ np.abs(res) ** 2))
        dphi = g.D1 @ x
        d2phi = g.D2 @ x
        energy = g.quad(
            np.abs(d2phi) ** 2
            + 2.0 * self.xi**2 * np.abs(dphi) ** 2
            + self.xi**4 * np.abs(x) ** 2
        ).real
        return ModeSolution(
            xi=self.xi,
            phi=GridFunction(g, x),
            dphi=GridFunction(g, dphi),
            d2phi=GridFunction(g, d2phi),
            residual_norm=residual_norm,
            lhs_energy=float(energy),
            rcond=float(self.rcond),
        )


def solve_os_mode(p, xi, h, grid):
    """One-shot solve of the mode problem at wavenumber xi != 0."""
    if xi == 0.0:
        raise DomainError("xi must be nonzero; use solve_os_zero_mode")
    return OSModeOperator(p, xi, grid).solve(h)


def solve_os_zero_mode(h, grid):
    """Solve phi'''' = h with clamped boundary conditions."""
    return OSModeOperator(None, 0.0, grid).solve(h)


def apriori_ratio(sol, h):
    """Energy-to-data ratios behind the uniform-in-xi solvability bound.

    Returns ``(r_hminus1, r_l2)`` with

        r_hminus1 = E / ||h||_{H^-1}^2,    r_l2 = E / (xi^-2 ||h||_{L^2}^2),

    where E is the solution energy int |phi''|^2 + 2 xi^2 |phi'|^2 +
    xi^4 |phi|^2.  Both stay bounded by one profile-dependent constant
    over all xi; zero source returns (0, 0).
    """
    l2 = h.l2_norm()
    if l2 == 0.0:
        return 0.0, 0.0
    hm1 = h_minus1_norm(h)
    r_h = sol.lhs_energy / hm1**2
    r_l2 = sol.lhs_energy * sol.xi**2 / l2**2
    return float(r_h), float(r_l2)


def sigma_values(phi, dphi, p, grid):
    """Pointwise sigma = phi / F with the wall limit for simple zeros of F.

    Where F vanishes at a wall (at most a simple zero under the
    no-reversal condition) the value is the l'Hopital limit phi'/F', which
    is zero for clamped phi.  A double zero of F at a wall cannot occur
    for admissible nonzero coefficients and raises.  ``phi`` and ``dphi``
    hold y on the last axis; leading axes (mode rows) are batch axes.
    """
    F = p.F(grid.nodes)
    tiny = 1e-9 * np.abs(F).max()  # |F| or |F'| at a wall below this counts as zero
    sigma = np.empty_like(np.asarray(phi, dtype=complex))
    interior = slice(1, grid.N)
    sigma[..., interior] = phi[..., interior] / F[interior]
    for idx, ypt in ((0, 1.0), (grid.N, -1.0)):
        if abs(F[idx]) > tiny:
            sigma[..., idx] = phi[..., idx] / F[idx]
        else:
            fp = p.Fp(ypt)
            if abs(fp) <= tiny:
                raise DomainError(
                    f"F and F' both vanish at y={ypt:+.0f}; sigma undefined"
                )
            sigma[..., idx] = dphi[..., idx] / fp
    return sigma


def sigma_diagnostics(sol, p):
    """Evaluate the sign-definite energy form of the transformed mode.

    Requires an admissible profile (F > 0 inside the channel, so sigma is
    well defined).  ``energy_lhs`` is

        -12A int|sigma'|^2 - 6A xi^2 int|sigma|^2
            + int F (|sigma''|^2 + 2 xi^2 |sigma'|^2 + xi^4 |sigma|^2)

    which the solved mode keeps below Re int h conj(sigma).  ``a00_value``
    is the wall term F'(1)|sigma'(1)|^2 - F'(-1)|sigma'(-1)|^2, nonpositive
    under admissibility.
    """
    rep = check_admissibility(p)
    if not rep.satisfies_abc:
        raise InadmissibleProfileError(
            "sigma = phi/F undefined: profile allows flow reversal"
        )
    g = sol.grid
    xi = sol.xi
    F = p.F(g.nodes)
    sigma = sigma_values(sol.phi.values, sol.dphi.values, p, g)
    ds = g.D1 @ sigma
    d2s = g.D2 @ sigma
    int_ds = g.quad(np.abs(ds) ** 2).real
    int_s = g.quad(np.abs(sigma) ** 2).real
    energy = (
        -12.0 * p.A * int_ds
        - 6.0 * p.A * xi**2 * int_s
        + g.quad(
            F * (np.abs(d2s) ** 2 + 2.0 * xi**2 * np.abs(ds) ** 2 + xi**4 * np.abs(sigma) ** 2)
        ).real
    )
    a00 = float(p.Fp(1.0) * np.abs(ds[0]) ** 2 - p.Fp(-1.0) * np.abs(ds[g.N]) ** 2)
    sig_scale = np.abs(sigma).max()
    boundary_ok = bool(
        max(abs(sigma[0]), abs(sigma[g.N])) <= 1e-8 * (1.0 + sig_scale)
    )
    ratio = float(int_ds / int_s) if int_s > 0.0 else float("inf")
    return SigmaDiagnostics(
        sigma=GridFunction(g, sigma),
        boundary_ok=boundary_ok,
        a00_value=a00,
        poincare_ratio=ratio,
        energy_lhs=float(energy),
    )

