"""Linearized channel solves on a periodic cell by Fourier-mode synthesis.

The infinite strip is truncated to one periodic cell x in [0, 2*pi/xi0)
with fundamental wavenumber xi0; each Fourier mode k solves the clamped
mode problem at wavenumber k*xi0 and the stream function is synthesized as

    psi(x, y) = sum_k phi_k(y) exp(i k xi0 x),    v = psi_y,  w = -psi_x.

Mode -k is the conjugate of mode k (real fields).  The k = 0 mean mode
solves the fourth-derivative reduction; its additive constant is fixed by
psi(x, -1) = 0, which together with psi(x, +1) = 0 enforces zero
perturbation flux through every section.  The mean streamwise pressure
gradient reappears as the constant f0 + phi0''' and is checked, not
assumed.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InadmissibleProfileError, ResolutionError
from .os_solver import OSModeOperator, sigma_values, solve_os_zero_mode
from .profiles import check_admissibility
from .spectral import GridFunction

__all__ = [
    "ForceField",
    "ChannelField",
    "PressureGradient",
    "EnergyReport",
    "LinearizedChannelSolver",
    "recover_pressure_gradient",
    "x_norm",
    "gamma_energy",
    "symmetry_project",
    "check_symmetry_cancellation",
    "stream_cross_integrals",
    "field_h_norm",
    "random_field",
    "x_grid",
    "synthesize",
]

SYMMETRY_CLASSES = ("X1", "X2", "Y1", "Y2")

FORCE_TAIL_TOL = 1e-10


def n_x_points(K):
    """Tensor-grid resolution in x: alias-safe for quadratic products."""
    return 4 * (K + 1)


def x_grid(xi0, K):
    Mx = n_x_points(K)
    period = 2.0 * math.pi / xi0
    return np.arange(Mx) * (period / Mx)


def synthesize(modes, xi0, K):
    """Real part of sum_k modes[..., k, :] exp(i k xi0 x), k = -K..K, on ``x_grid``.

    Leading axes are batch axes.  There the phases are exp(2 pi i k j / Mx)
    whatever xi0, and the real part of the sum is the inverse real FFT of
    the Hermitian part d_k = (c_k + conj c_-k) / 2, k = 0..K.
    """
    half = 0.5 * (modes[..., K:, :] + np.conj(modes[..., K::-1, :]))
    return np.fft.irfft(half, n=n_x_points(K), axis=-2, norm="forward")


def analyze(values, K):
    """Fourier coefficients k = -K..K of real tensor-grid data (x on axis -2).

    Leading axes are batch axes.  Returns (modes, tail_fraction) where
    tail_fraction, one per batch entry, is the energy of the discarded
    modes |k| > K relative to the total over the full spectrum.
    """
    values = np.asarray(values, dtype=float)
    Mx = values.shape[-2]
    half = np.fft.rfft(values, axis=-2, norm="forward")
    energy = np.sum(np.abs(half) ** 2, axis=-1)
    energy[..., 1 : (Mx + 1) // 2] *= 2.0  # modes k and -k of real data
    total = energy.sum(axis=-1)
    lost = np.maximum(total - energy[..., : K + 1].sum(axis=-1), 0.0)
    tail = np.divide(lost, total, out=np.zeros_like(total), where=total > 0.0)
    modes = np.concatenate([np.conj(half[..., K:0:-1, :]), half[..., : K + 1, :]], axis=-2)
    return modes, tail


@dataclass(frozen=True)
class ForceField:
    """External force (f, g) sampled on the periodic tensor grid."""

    xi0: float
    K: int
    grid: object
    f: np.ndarray
    g: np.ndarray

    @classmethod
    def from_callables(cls, xi0, K, grid, f_fn, g_fn):
        x = x_grid(xi0, K)
        X, Y = np.meshgrid(x, grid.nodes, indexing="ij")
        return cls(xi0, K, grid, np.asarray(f_fn(X, Y), dtype=float),
                   np.asarray(g_fn(X, Y), dtype=float))

    @classmethod
    def zero(cls, xi0, K, grid):
        shape = (n_x_points(K), grid.N + 1)
        return cls(xi0, K, grid, np.zeros(shape), np.zeros(shape))

    def modes(self):
        """Per-mode coefficients with a resolution check on the tail."""
        (fm, gm), tails = analyze(np.stack([self.f, self.g]), self.K)
        tail = float(tails.max())
        scale = max(np.abs(self.f).max(initial=0.0), np.abs(self.g).max(initial=0.0))
        if scale > 0.0 and tail > FORCE_TAIL_TOL:
            raise ResolutionError(
                f"force not resolved by modes |k| <= {self.K}: "
                f"tail energy fraction {tail:.3e}"
            )
        return fm, gm

    def l2_norm(self):
        """L2 norm of the vector force over one periodic cell."""
        period = 2.0 * math.pi / self.xi0
        dx = period / self.f.shape[0]
        w = self.grid.quad_weights
        return float(np.sqrt(dx * ((self.f**2 + self.g**2) @ w).sum()))


@dataclass(frozen=True)
class ChannelField:
    """Perturbation state: stream-function coefficients on the cell."""

    xi0: float
    K: int
    grid: object
    psi_modes: np.ndarray  # (2K+1, N+1), row j holds mode k = j - K
    solve_info: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        pm = np.asarray(self.psi_modes, dtype=complex)
        if pm.shape != (2 * self.K + 1, self.grid.N + 1):
            raise DomainError("psi_modes shape does not match (2K+1, N+1)")
        object.__setattr__(self, "psi_modes", pm)

    # --- mode access -------------------------------------------------
    def mode(self, k):
        return self.psi_modes[k + self.K]

    def conjugate_symmetry_error(self):
        err = 0.0
        for k in range(self.K + 1):
            err = max(err, float(np.abs(self.mode(-k) - np.conj(self.mode(k))).max()))
        return err

    def v_modes(self):
        return self.psi_modes @ self.grid.D1.T

    def w_modes(self):
        ks = np.arange(-self.K, self.K + 1)
        return -1j * self.xi0 * ks[:, None] * self.psi_modes

    # --- synthesized values ------------------------------------------
    def x(self):
        return x_grid(self.xi0, self.K)

    def psi_values(self):
        return synthesize(self.psi_modes, self.xi0, self.K)

    def v_values(self):
        return synthesize(self.v_modes(), self.xi0, self.K)

    def w_values(self):
        return synthesize(self.w_modes(), self.xi0, self.K)

    # --- pointwise constraint checks ---------------------------------
    def divergence_max(self):
        """max |v_x + w_y| on the tensor grid."""
        ks = np.arange(-self.K, self.K + 1)
        vx = (1j * self.xi0 * ks[:, None]) * self.v_modes()
        wy = self.w_modes() @ self.grid.D1.T
        return float(np.abs(synthesize(vx + wy, self.xi0, self.K)).max())

    def flux_profile(self):
        """Perturbation flux int v dy at every x sample."""
        return self.v_values() @ self.grid.quad_weights

    def shifted(self, dx):
        """Field translated by dx in x (mode-wise phase factors)."""
        ks = np.arange(-self.K, self.K + 1)
        phase = np.exp(-1j * self.xi0 * ks * dx)
        return replace(self, psi_modes=self.psi_modes * phase[:, None], solve_info=None)

    def scaled(self, alpha):
        return replace(self, psi_modes=self.psi_modes * alpha, solve_info=None)

    def minus(self, other):
        if (other.K, other.xi0) != (self.K, self.xi0):
            raise DomainError("field layouts differ")
        return replace(self, psi_modes=self.psi_modes - other.psi_modes, solve_info=None)

    @classmethod
    def zero(cls, xi0, K, grid):
        return cls(xi0, K, grid, np.zeros((2 * K + 1, grid.N + 1), dtype=complex))


def _derivative_mode_sets(modes, xi0, K, grid, m):
    """Arrays of d^alpha applied mode-wise, one entry per multi-index |alpha| <= m."""
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


def _cell_l2sq(modes, xi0, grid):
    """Squared L2 norm over one periodic cell from mode coefficients."""
    period = 2.0 * math.pi / xi0
    return period * float((np.abs(modes) ** 2 @ grid.quad_weights).sum().real)


def field_h_norm(fld, m):
    """H^m norm of the velocity field (v, w) over the periodic cell.

    Mode k of d_x^a d_y^b u has squared norm kappa^(2a) ||D_b u_k||^2 with
    kappa = k xi0, so y-derivative order b carries the weight
    c_b = sum_{a <= m - b} kappa^(2a); and w = -i kappa psi gives
    ||D_b w_k||^2 = kappa^2 ||D_b psi_k||^2.  The y-derivatives of psi and
    of v = D1 psi come from two stacked products on the real and imaginary
    parts.
    """
    if not 0 <= m <= 2:
        raise DomainError("field Sobolev order limited to 0..2")
    grid, n, nk, pm = fld.grid, fld.grid.N + 1, 2 * fld.K + 1, fld.psi_modes
    dy = np.concatenate([grid.D1.T, grid.D2.T], axis=1)
    X = np.concatenate([pm.real, pm.imag])
    R1 = X @ dy  # [D1 psi | D2 psi]
    R2 = R1[:, :n] @ dy  # [D1 v | D2 v]

    def sq(A):  # quadrature-weighted squares per block and mode
        A = A.reshape(len(A), -1, n)
        s = np.einsum("ijk,ijk,k->ji", A, A, grid.quad_weights)
        return s[:, :nk] + s[:, nk:]

    (psi,), (psi_y, psi_yy), (v_y, v_yy) = sq(X), sq(R1), sq(R2)
    kappa2 = (fld.xi0 * np.arange(-fld.K, fld.K + 1)) ** 2
    v_sq, psi_sq = (psi_y, v_y, v_yy), (psi, psi_y, psi_yy)
    total = 0.0
    for b in range(m + 1):
        c_b = sum(kappa2**a for a in range(m - b + 1))
        total += float(c_b @ (v_sq[b] + kappa2 * psi_sq[b]))
    return math.sqrt(2.0 * math.pi / fld.xi0 * total)


class LinearizedChannelSolver:
    """Stacked mode inverses for repeated solves at one profile.

    Modes k = 1..K are factorized once, each behind its rcond gate, and
    solved by one batched product; k = 0 is solved per call.  Residuals
    come from the operator's parts, not from the inverses.
    """

    def __init__(self, p, grid, K, xi0):
        rep = check_admissibility(p)
        if not rep.satisfies_abc:
            raise InadmissibleProfileError(
                "linearized solve requires the no-reversal condition"
            )
        if K < 1 or xi0 <= 0.0:
            raise DomainError("need K >= 1 and xi0 > 0")
        self.p = p
        self.grid = grid
        self.K = K
        self.xi0 = float(xi0)
        self._xi = self.xi0 * np.arange(1, K + 1)
        self._inv = np.empty((K, grid.N + 1, grid.N + 1), dtype=complex)
        self._rcond = []
        for j, xi in enumerate(self._xi):
            op = OSModeOperator(p, xi, grid)
            self._inv[j] = op.inverse()
            self._rcond.append(float(op.rcond))

    def solve_modes(self, f_modes, g_modes):
        """Solve from per-mode force coefficients (layout k = -K..K)."""
        K, grid, N = self.K, self.grid, self.grid.N
        h0 = -(grid.D1 @ f_modes[K].real)
        sol0 = solve_os_zero_mode(GridFunction(grid, h0), grid)
        xi = self._xi[:, None]
        h = 1j * xi * g_modes[K + 1 :] - f_modes[K + 1 :] @ grid.D1.T
        b = h.copy()
        b[:, [0, 1, N - 1, N]] = 0.0  # boundary rows of the bordered system
        phi = np.matmul(self._inv, b[..., None])[..., 0]
        # interior rows of L phi - h, L as in ``os_operator_matrix``
        d2 = phi @ grid.D2.T
        res = (phi @ grid.D4.T - 2.0 * xi**2 * d2 + xi**4 * phi - h
               - 1j * xi * (self.p.F(grid.nodes) * (d2 - xi**2 * phi) - 6.0 * self.p.A * phi))
        w = grid.quad_weights
        res_sq = np.abs(res[:, 2 : N - 1]) ** 2 @ w[2 : N - 1]
        total_res = sol0.residual_norm**2 + 2.0 * res_sq.sum()
        total_rhs = grid.l2_norm(h0) ** 2 + 2.0 * (np.abs(h) ** 2 @ w).sum()
        psi = np.concatenate([np.conj(phi[::-1]), sol0.phi.values.real[None], phi])
        info = {
            "residual_rel": math.sqrt(total_res / total_rhs) if total_rhs > 0.0 else 0.0,
            "mode_residuals": [sol0.residual_norm] + np.sqrt(res_sq).tolist(),
            "mode_rcond": [sol0.rcond] + self._rcond,
        }
        return ChannelField(self.xi0, K, grid, psi, solve_info=info)

    def solve(self, force):
        f_modes, g_modes = force.modes()
        return self.solve_modes(f_modes, g_modes)


@dataclass(frozen=True)
class PressureGradient:
    """Gradient of the perturbation pressure (the pressure itself is a
    class modulo constants; only its gradient is physical)."""

    xi0: float
    K: int
    grid: object
    qx_modes: np.ndarray
    qy_modes: np.ndarray
    curl_residual: float

    def qx_values(self):
        return synthesize(self.qx_modes, self.xi0, self.K)

    def qy_values(self):
        return synthesize(self.qy_modes, self.xi0, self.K)

    def l2_norm(self):
        return float(
            np.sqrt(
                _cell_l2sq(self.qx_modes, self.xi0, self.grid)
                + _cell_l2sq(self.qy_modes, self.xi0, self.grid)
            )
        )


def recover_pressure_gradient(p, fld, force, nonlinear_modes=None):
    """Recover grad q from the momentum balance of a solved field.

    grad q = force + Laplacian(v) - (v . grad)u* - (u* . grad)v, with the
    quadratic self-advection supplied through ``nonlinear_modes`` (pair of
    coefficient arrays) when the field solves the nonlinear problem.  The
    returned curl residual measures how far the recovered vector is from
    an exact gradient; it is the module's internal consistency check.
    """
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    Fp = p.Fp(grid.nodes)
    vm = fld.v_modes()
    wm = fld.w_modes()
    f_modes, g_modes = force.modes()
    ks = np.arange(-K, K + 1)
    ikx = (1j * xi0 * ks)[:, None]
    lap_v = vm @ grid.D2.T + ikx**2 * vm
    lap_w = wm @ grid.D2.T + ikx**2 * wm
    qx = f_modes + lap_v - F[None, :] * (ikx * vm) - Fp[None, :] * wm
    qy = g_modes + lap_w - F[None, :] * (ikx * wm)
    if nonlinear_modes is not None:
        a1, a2 = nonlinear_modes
        qx = qx - a1
        qy = qy - a2
    curl = qx @ grid.D1.T - ikx * qy
    curl_norm = math.sqrt(_cell_l2sq(curl, xi0, grid))
    grad = PressureGradient(xi0, K, grid, qx, qy, 0.0)
    scale = max(grad.l2_norm(), force.l2_norm(), 1e-300)
    return PressureGradient(xi0, K, grid, qx, qy, float(curl_norm / scale))


# ---------------------------------------------------------------------------
# local norms and the windowed energy functional
# ---------------------------------------------------------------------------


def _window_quadratic(mode_sets, xi0, K, grid, offsets, width):
    """sum_alpha int_{a}^{a+width} int_y |d^alpha u|^2 for every offset a.

    Uses the exact mode-pair formula: the x-integral of
    e^{i(k-l) xi0 x} over (a, a+width) is e^{i(k-l) xi0 a} * Lambda(k-l),
    with Lambda(0) = width.  One Gram matrix of the stacked mode sets and
    one product with the offset phases P give every window at once.
    """
    S = np.concatenate(mode_sets, axis=1)
    G = (S * np.tile(grid.quad_weights, len(mode_sets))) @ np.conj(S).T
    kk = np.arange(-K, K + 1)
    arg = xi0 * (kk[:, None] - kk[None, :])
    zero = arg == 0.0
    lam = np.where(zero, width, (np.exp(1j * arg * width) - 1.0) / (1j * np.where(zero, 1.0, arg)))
    P = np.exp(1j * xi0 * np.outer(offsets, kk))
    return np.real(np.sum((P @ (G * lam)) * np.conj(P), axis=1))


def x_norm(fld, m, scalar_modes=None):
    """Windowed norm: sup over offsets of the H^m norm on unit-width slabs.

    Offsets are discretized to the tensor-grid spacing; windows wrap
    around the periodic cell.  With ``scalar_modes`` given, the norm is
    taken of that scalar function instead of the velocity field.
    """
    if not 0 <= m <= 2:
        raise DomainError("window Sobolev order limited to 0..2")
    offsets = fld.x()
    sets = []
    comps = [scalar_modes] if scalar_modes is not None else [fld.v_modes(), fld.w_modes()]
    for comp in comps:
        sets.extend(_derivative_mode_sets(comp, fld.xi0, fld.K, fld.grid, m))
    vals = _window_quadratic(sets, fld.xi0, fld.K, fld.grid, offsets, 1.0)
    return float(np.sqrt(vals.max()))


@dataclass(frozen=True)
class EnergyReport:
    gamma_L: dict
    gamma_monotone: bool
    x_norms: dict
    h_norms: dict
    gamma_control: dict


def _centered_window(dk, xi0, L, period):
    """Integral of exp(i dk xi0 x) over (-L, L), saturating at one cell."""
    if 2.0 * L >= period:
        return period if dk == 0 else 0.0
    if dk == 0:
        return 2.0 * L
    arg = dk * xi0
    return 2.0 * math.sin(arg * L) / arg


def _centered_quadratic(mode_sets, xi0, K, grid, L, weight=None):
    period = 2.0 * math.pi / xi0
    w = grid.quad_weights if weight is None else grid.quad_weights * weight
    n = 2 * K + 1
    kk = np.arange(-K, K + 1)
    dk_mat = kk[:, None] - kk[None, :]
    lam = np.array([_centered_window(dk, xi0, L, period) for dk in range(-(n - 1), n)])
    lam_mat = lam[dk_mat + (n - 1)]
    total = 0.0
    for arr in mode_sets:
        G = (arr * w[None, :]) @ np.conj(arr).T
        total += float(np.real(np.sum(G * lam_mat)))
    return total


def gamma_energy(p, fld, L_list):
    """Windowed weighted energy of sigma = psi / F over Q_L = (-L, L) x (-1, 1).

    Gamma(L) = -6A int sigma_x^2 - 12A int sigma_y^2 + int F |Hess sigma|^2,
    nondecreasing in L under admissibility; windows saturate at the cell.
    The report also carries the control quantity
    int (sigma_y^2 + sigma_x^2 + psi_xx^2 + 2 psi_xy^2 + psi_yy^2) whose
    ratio to Gamma stays bounded.
    """
    rep = check_admissibility(p)
    if not rep.satisfies_abc:
        raise InadmissibleProfileError("windowed energy needs an admissible profile")
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    dpsi = fld.psi_modes @ grid.D1.T
    sigma = np.empty_like(fld.psi_modes)
    for j in range(2 * K + 1):
        sigma[j] = sigma_values(fld.psi_modes[j], dpsi[j], p, grid)
    ks = np.arange(-K, K + 1)
    ikx = (1j * xi0 * ks)[:, None]
    sx = ikx * sigma
    sy = sigma @ grid.D1.T
    sxx = ikx**2 * sigma
    sxy = ikx * sy
    syy = sigma @ grid.D2.T
    px = ikx * fld.psi_modes
    pxx = ikx * px
    pxy = ikx * dpsi
    pyy = fld.psi_modes @ grid.D2.T
    gamma = {}
    control = {}
    for L in L_list:
        g_val = (
            -6.0 * p.A * _centered_quadratic([sx], xi0, K, grid, L)
            - 12.0 * p.A * _centered_quadratic([sy], xi0, K, grid, L)
            + _centered_quadratic([sxx], xi0, K, grid, L, weight=F)
            + 2.0 * _centered_quadratic([sxy], xi0, K, grid, L, weight=F)
            + _centered_quadratic([syy], xi0, K, grid, L, weight=F)
        )
        c_val = (
            _centered_quadratic([sy, sx, pxx, pyy], xi0, K, grid, L)
            + 2.0 * _centered_quadratic([pxy], xi0, K, grid, L)
        )
        gamma[float(L)] = float(g_val)
        control[float(L)] = float(c_val)
    Ls = sorted(gamma)
    scale = max(abs(v) for v in gamma.values()) or 1.0
    monotone = all(
        gamma[Ls[i + 1]] >= gamma[Ls[i]] - 1e-10 * scale for i in range(len(Ls) - 1)
    )
    return EnergyReport(
        gamma_L=gamma,
        gamma_monotone=bool(monotone),
        x_norms={m: x_norm(fld, m) for m in (0, 1, 2)},
        h_norms={m: field_h_norm(fld, m) for m in (1, 2)},
        gamma_control=control,
    )


# ---------------------------------------------------------------------------
# symmetry classes
# ---------------------------------------------------------------------------


def symmetry_project(fld, cls):
    """Project onto one of the solenoidal parity classes.

    In stream-function terms: X1 (v x-even, w x-odd) keeps the x-even part
    of psi; X2 the x-odd part; Y1 (v y-even, w y-odd) the y-odd part of
    psi; Y2 (v y-odd, w y-even) the y-even part.  Projections are
    idempotent and X1 + X2 (resp. Y1 + Y2) reconstruct the field.
    """
    if cls not in SYMMETRY_CLASSES:
        raise DomainError(f"unknown symmetry class {cls!r}")
    pm = fld.psi_modes
    if cls in ("X1", "X2"):
        mirrored = pm[::-1]  # mode k -> mode -k
        new = 0.5 * (pm + mirrored) if cls == "X1" else 0.5 * (pm - mirrored)
    else:
        flipped = pm[:, ::-1]  # y -> -y (nodes are symmetric)
        new = 0.5 * (pm - flipped) if cls == "Y1" else 0.5 * (pm + flipped)
    return replace(fld, psi_modes=new, solve_info=None)


def stream_cross_integrals(p, fld):
    """Period integrals I1 = int F psi_yy psi_x and
    I2 = int (F psi_xx - 6A psi) psi_x, with no symmetry precondition."""
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    period = 2.0 * math.pi / xi0
    F = p.F(grid.nodes)
    w = grid.quad_weights
    ks = np.arange(-K, K + 1)
    ikx = (1j * xi0 * ks)[:, None]
    px = ikx * fld.psi_modes
    pyy = fld.psi_modes @ grid.D2.T
    pxx = ikx * px
    integrand1 = (F * w)[None, :] * pyy * np.conj(px)
    I1 = period * float(np.real(integrand1.sum()))
    integrand2 = w[None, :] * (F[None, :] * pxx - 6.0 * p.A * fld.psi_modes) * np.conj(px)
    I2 = period * float(np.real(integrand2.sum()))
    return I1, I2


def check_symmetry_cancellation(p, fld, parity_tol=1e-9):
    """Cross terms that obstruct the symmetric energy estimate.

    For an even profile (B = 0) and a stream function of pure x-parity the
    two period integrals

        I1 = int F psi_yy psi_x,   I2 = int (F psi_xx - 6A psi) psi_x

    vanish identically.  Raises when B != 0 or when psi mixes parities.
    """
    if p.B != 0.0:
        raise DomainError("cancellation identity requires an even profile (B = 0)")
    even = symmetry_project(fld, "X1")
    odd = symmetry_project(fld, "X2")
    ne, no = field_h_norm(even, 0), field_h_norm(odd, 0)
    scale = max(ne, no, 1e-300)
    if min(ne, no) > parity_tol * scale:
        raise DomainError("stream function mixes x-even and x-odd parts")
    return stream_cross_integrals(p, fld)


def random_field(rng, grid, K, xi0, h2_norm, n_y_modes=4, decay=0.6):
    """Smooth random clamped field with prescribed H^2 norm.

    Mode shapes are (1 - y^2)^2 times low-order polynomials, so every mode
    is clamped exactly; coefficients decay geometrically in |k|.
    """
    y = grid.nodes
    env = (1.0 - y**2) ** 2
    shapes = np.array([env * y**j for j in range(n_y_modes)])
    psi = np.zeros((2 * K + 1, grid.N + 1), dtype=complex)
    for k in range(K + 1):
        c = rng.normal(size=n_y_modes) + (1j * rng.normal(size=n_y_modes) if k else 0.0)
        vals = (c * decay**k) @ shapes
        psi[K + k] = vals
        psi[K - k] = np.conj(vals)
    fld = ChannelField(xi0, K, grid, psi)
    cur = field_h_norm(fld, 2)
    if cur == 0.0:
        raise DomainError("degenerate random draw")
    return fld.scaled(h2_norm / cur)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_field_csv(fld, path, pressure=None):
    """Write (x, y, v, w, qx, qy) rows for the tensor grid, x slowest.

    Each node coordinate is formatted once; the body is one %-format.
    """
    v = fld.v_values()
    qx = pressure.qx_values() if pressure is not None else np.zeros_like(v)
    qy = pressure.qy_values() if pressure is not None else np.zeros_like(v)
    rows = np.empty((v.size, 6), dtype=object)
    rows[:, 0] = np.repeat(["%.17g" % x for x in fld.x()], v.shape[1])
    rows[:, 1] = np.tile(["%.17g" % y for y in fld.grid.nodes], v.shape[0])
    for col, vals in enumerate((v, fld.w_values(), qx, qy), start=2):
        rows[:, col] = vals.ravel()
    with open(path, "w") as fh:
        fh.write("x,y,v,w,qx,qy\n")
        fh.write("%s,%s,%.17g,%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel()))


def field_header(fld, p):
    """JSON-ready snapshot header (profile, layout, norms)."""
    return {
        "profile": p.to_dict(),
        "xi0": fld.xi0,
        "K": fld.K,
        "N": fld.grid.N,
        "norms": {
            "H1": field_h_norm(fld, 1),
            "H2": field_h_norm(fld, 2),
            "X0": x_norm(fld, 0),
            "X1": x_norm(fld, 1),
            "X2": x_norm(fld, 2),
        },
    }
