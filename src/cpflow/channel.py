"""Linearized channel solves on a periodic cell by Fourier-mode synthesis.

The infinite strip is truncated to one periodic cell x in [0, 2*pi/xi0)
with fundamental wavenumber xi0; each Fourier mode k solves the clamped
mode problem at wavenumber k*xi0 and the stream function is synthesized as

    psi(x, y) = sum_k phi_k(y) exp(i k xi0 x),    v = psi_y,  w = -psi_x.

Every field is real, so mode -k is the conjugate of mode k and is never
stored: mode arrays (stream functions, forces, advection terms, pressure
gradients) hold modes k = 0..K, row k holding mode k, and the norms
count each row k >= 1 twice, for modes k and -k.  The k = 0 mean mode
solves the fourth-derivative reduction; its additive constant is fixed by
psi(x, -1) = 0, which together with psi(x, +1) = 0 enforces zero
perturbation flux through every section.  The mean streamwise pressure
gradient reappears as the constant f0 + phi0''' and is checked, not
assumed.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    "field_norms",
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


def product_points(K):
    """x-points of the dealiased products: the smallest 5-smooth n >= ``n_x_points(K)``
    (products of K-band fields are exact from 3K + 1 points on, Orszag's 3/2 rule)."""
    n = n_x_points(K)
    while pow(30, 64, n):  # zero iff n divides 30^64: no prime factor above 5
        n += 1
    return n


def x_grid(xi0, K):
    Mx = n_x_points(K)
    period = 2.0 * math.pi / xi0
    return np.arange(Mx) * (period / Mx)


def synthesize(modes):
    """Values on ``x_grid`` of the real field with modes k = 0..K in rows ``modes[..., k, :]``.

    Leading axes are batch axes.  The phases at the grid points are
    exp(2 pi i k j / Mx) whatever xi0, so the sum over k = -K..K is the
    inverse real FFT of the rows; the imaginary part of row 0 is ignored.
    """
    return np.fft.irfft(modes, n=n_x_points(modes.shape[-2] - 1), axis=-2, norm="forward")


def _mirror(half):
    """Modes k = -K..K of the real field whose modes k = 0..K are ``half`` (axis -2)."""
    return np.concatenate([np.conj(half[..., :0:-1, :]), half], axis=-2)


def analyze(values, K):
    """Fourier coefficients k = 0..K of real tensor-grid data (x on axis -2).

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
    return half[..., : K + 1, :], tail


@dataclass(frozen=True)
class ForceField:
    """External force (f, g) sampled on the periodic tensor grid."""

    xi0: float
    K: int
    grid: object
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.f).all() and np.isfinite(self.g).all()):
            raise DomainError("force samples must be finite")

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
        """Read-only modes k = 0..K of (f, g), resolution-checked on the tail."""
        return self._modes

    @cached_property
    def _modes(self):
        """The one analysis of (f, g); every ``modes()`` call returns these arrays."""
        try:
            with np.errstate(over="raise"):
                modes, tails = analyze(np.stack([self.f, self.g]), self.K)
        except FloatingPointError:
            raise DomainError("force energy overflows float64; scale the force down") from None
        tail = float(tails.max())
        scale = max(np.abs(self.f).max(initial=0.0), np.abs(self.g).max(initial=0.0))
        if scale > 0.0 and not tail <= FORCE_TAIL_TOL:  # a NaN tail fails too
            raise ResolutionError(
                f"force not resolved by modes |k| <= {self.K}: "
                f"tail energy fraction {tail:.3e}"
            )
        modes.flags.writeable = False
        return tuple(modes)

    def l2_norm(self):
        """L2 norm of the vector force over one periodic cell."""
        period = 2.0 * math.pi / self.xi0
        dx = period / self.f.shape[0]
        w = self.grid.quad_weights
        return float(np.sqrt(dx * ((self.f**2 + self.g**2) @ w).sum()))


@dataclass(frozen=True)
class ChannelField:
    """Perturbation state: stream-function coefficients (finite) on the cell."""

    xi0: float
    K: int
    grid: object
    psi_modes: np.ndarray  # (K+1, N+1), row k holds mode k
    _solve_info: object = field(default=None, compare=False, repr=False)  # callable

    def __post_init__(self):
        pm = np.asarray(self.psi_modes, dtype=complex)
        if pm.shape != (self.K + 1, self.grid.N + 1):
            raise DomainError("psi_modes shape does not match (K+1, N+1)")
        if not np.isfinite(pm).all():
            raise DomainError("psi_modes must be finite")
        object.__setattr__(self, "psi_modes", pm)

    @cached_property
    def solve_info(self):
        """Diagnostics dict of the solve that made the field, built on first read."""
        return None if self._solve_info is None else self._solve_info()

    # --- mode access -------------------------------------------------
    def ik(self):
        """i k xi0 for the rows k = 0..K, as a column."""
        return (1j * self.xi0 * np.arange(self.K + 1))[:, None]

    def v_modes(self):
        return self.psi_modes @ self.grid.D1.T

    def w_modes(self):
        return -self.ik() * self.psi_modes

    # --- synthesized values ------------------------------------------
    def x(self):
        return x_grid(self.xi0, self.K)

    def v_values(self):
        return synthesize(self.v_modes())

    def w_values(self):
        return synthesize(self.w_modes())

    # --- pointwise constraint checks ---------------------------------
    def divergence_max(self):
        """max |v_x + w_y| on the tensor grid."""
        wy = self.w_modes() @ self.grid.D1.T
        return float(np.abs(synthesize(self.ik() * self.v_modes() + wy)).max())

    def flux_profile(self):
        """Perturbation flux int v dy at every x sample."""
        return self.v_values() @ self.grid.quad_weights

    def shifted(self, dx):
        """Field translated by dx in x (mode-wise phase factors)."""
        return replace(self, psi_modes=self.psi_modes * np.exp(-self.ik() * dx), _solve_info=None)

    def scaled(self, alpha):
        return replace(self, psi_modes=self.psi_modes * alpha, _solve_info=None)

    def minus(self, other):
        if (other.K, other.xi0) != (self.K, self.xi0):
            raise DomainError("field layouts differ")
        return replace(self, psi_modes=self.psi_modes - other.psi_modes, _solve_info=None)

    @classmethod
    def zero(cls, xi0, K, grid):
        return cls(xi0, K, grid, np.zeros((K + 1, grid.N + 1), dtype=complex))


def _pair_weights(K):
    """1, 2, 2, ..., 2 for the rows k = 0..K: row k >= 1 stands for modes k and -k."""
    w = np.full(K + 1, 2.0)
    w[0] = 1.0
    return w


def _cell_l2sq(modes, xi0, grid):
    """Squared L2 norm over one periodic cell of the real field with modes k = 0..K."""
    period, mult = 2.0 * math.pi / xi0, _pair_weights(len(modes) - 1)
    return period * float((mult * (np.abs(modes) ** 2 @ grid.quad_weights)).sum())


def _y_stack(rows, grid):
    """y-derivatives of mode rows as real products: X = [Re rows; Im rows],
    R1 = X [D1^T | D2^T] = [D1 psi | D2 psi], R2 = R1[:, :n] [D1^T | D2^T] =
    [D1 v | D2 v] with psi the rows and v = D1 psi."""
    dy = np.concatenate([grid.D1.T, grid.D2.T], axis=1)
    X = np.concatenate([rows.real, rows.imag])
    R1 = X @ dy
    return X, R1, R1[:, : grid.N + 1] @ dy


def _stack_h_norm(stack, grid, xi0, m):
    """``field_h_norm`` from the ``_y_stack`` of the mode rows k = 0..K."""
    n, nk = grid.N + 1, len(stack[0]) // 2

    def sq(A):  # quadrature-weighted squares per block and mode
        A = A.reshape(len(A), -1, n)
        s = np.einsum("ijk,ijk,k->ji", A, A, grid.quad_weights)
        return s[:, :nk] + s[:, nk:]

    (psi,), (psi_y, psi_yy), (v_y, v_yy) = (sq(A) for A in stack)
    kappa2, mult = (xi0 * np.arange(nk)) ** 2, _pair_weights(nk - 1)
    v_sq, psi_sq = (psi_y, v_y, v_yy), (psi, psi_y, psi_yy)
    total = 0.0
    for b in range(m + 1):
        c_b = mult * sum(kappa2**a for a in range(m - b + 1))
        total += float(c_b @ (v_sq[b] + kappa2 * psi_sq[b]))
    return math.sqrt(2.0 * math.pi / xi0 * total)


def field_h_norm(fld, m):
    """H^m norm of the velocity field (v, w) over the periodic cell.

    Mode k of d_x^a d_y^b u has squared norm kappa^(2a) ||D_b u_k||^2 with
    kappa = k xi0, so y-derivative order b carries the weight
    c_b = sum_{a <= m - b} kappa^(2a); and w = -i kappa psi gives
    ||D_b w_k||^2 = kappa^2 ||D_b psi_k||^2.  The y-derivatives of psi and
    of v = D1 psi come from ``_y_stack``; the Picard loop forms the stack
    once per iterate for the norm, the increment and the next advection.
    """
    if not 0 <= m <= 2:
        raise DomainError("field Sobolev order limited to 0..2")
    return _stack_h_norm(_y_stack(fld.psi_modes, fld.grid), fld.grid, fld.xi0, m)


class LinearizedChannelSolver:
    """Stacked mode inverses for repeated solves at one profile.

    Modes k = 1..K are inverted once, each behind its rcond gate, and
    solved by one batched product; k = 0 is solved per call with the grid's
    one inverse.  Residuals come from the operator's parts, not the inverses.
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
        grid.clamped_d4  # the k = 0 factors, made before the stack: after it they fragment the heap
        self._inv = np.empty((K, grid.N + 1, grid.N + 1), dtype=complex)
        self._rcond = []
        for j, xi in enumerate(self._xi):
            op = OSModeOperator(p, xi, grid)
            self._inv[j] = op.inverse()
            self._rcond.append(float(op.rcond))

    def solve_modes(self, f_modes, g_modes):
        """The field of the force with modes k = 0..K (rows) ``f_modes``, ``g_modes``;
        its ``psi_modes`` hold modes k = 0..K too.  ``solve_info`` is built on first read."""
        K, grid, N, p, rcond = self.K, self.grid, self.grid.N, self.p, self._rcond
        h0 = -(grid.D1 @ f_modes[0].real)
        sol0 = solve_os_zero_mode(GridFunction(grid, h0), grid)
        xi = self._xi[:, None]
        h = 1j * xi * g_modes[1:] - f_modes[1:] @ grid.D1.T
        b = h.copy()
        b[:, [0, 1, N - 1, N]] = 0.0  # boundary rows of the bordered system
        phi = np.matmul(self._inv, b[..., None])[..., 0]

        def info():  # holds no reference to the solver and its inverses
            # interior rows of L phi - h, L as in ``os_operator_matrix``
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
                "mode_rcond": [sol0.rcond] + rcond,
            }

        return ChannelField(self.xi0, K, grid, np.vstack([sol0.phi.values.real, phi]), _solve_info=info)

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
        return synthesize(self.qx_modes)

    def qy_values(self):
        return synthesize(self.qy_modes)

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
    ikx = fld.ik()
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


def _gram(sets, weights):
    """Gram matrix sum_s S_s diag(weights[s]) S_s^H over all mode pairs k, l = -K..K of
    real fields with modes k = 0..K in the rows of the sets S_s (columns y),
    formed by one product over the stacked sets; ``weights[s]`` includes the
    quadrature weights."""
    S = _mirror(np.concatenate(sets, axis=1))
    return (S * np.concatenate(weights)) @ np.conj(S).T


def _windows(grams, xi0, K, offsets, width):
    """int_a^{a+width} dx of the x-quadratic form of each Gram matrix, for every offset a.

    Returns shape (len(grams), len(offsets)).  Uses the exact mode-pair
    formula: the x-integral of e^{i(k-l) xi0 x} over (a, a+width) is
    e^{i(k-l) xi0 a} * Lambda(k-l), with Lambda(0) = width, so the windows
    wrap around the periodic cell.  The phases P and the factors Lambda are
    formed once per call and shared by all Gram matrices.
    """
    kk = np.arange(-K, K + 1)
    arg = xi0 * (kk[:, None] - kk[None, :])
    zero = arg == 0.0
    lam = np.where(zero, width, (np.exp(1j * arg * width) - 1.0) / (1j * np.where(zero, 1.0, arg)))
    P = np.exp(1j * xi0 * np.outer(offsets, kk))
    return np.real(np.sum((P @ (np.asarray(grams) * lam)) * np.conj(P), axis=-1))


def field_norms(fld):
    """({m: H^m}, {m: X^m}), m = 0..2, of the velocity field from one ``_y_stack``.

    H^m is ``field_h_norm`` bit for bit.  X^m is the windowed norm: the sup
    over offsets of the H^m norm on unit-width slabs, with the offsets on
    the tensor-grid spacing (so it approaches the continuous sup from
    below) and the windows wrapping around the periodic cell.  The Gram
    matrix of order m adds the sets d_x^a d_y^b v, d_x^a d_y^b w with
    a + b = m to that of order m - 1, and one window pass serves all three.
    """
    K, grid, nk, n = fld.K, fld.grid, fld.K + 1, fld.grid.N + 1
    stack = _y_stack(fld.psi_modes, grid)
    h = {m: _stack_h_norm(stack, grid, fld.xi0, m) for m in range(3)}
    ikx = fld.ik()
    X, R1, R2 = (A[:nk] + 1j * A[nk:] for A in stack)
    psi = (X, R1[:, :n], R1[:, n:])  # y-derivatives 0..2 of the rows
    v = (R1[:, :n], R2[:, :n], R2[:, n:])  # of v = D1 psi
    comps = (v, [-ikx * d for d in psi])  # w = -i kappa psi
    sets = [[dy[b] if b == total else dy[b] * ikx ** (total - b)  # d_x^a d_y^b, a + b = total
             for dy in comps for b in range(total + 1)] for total in range(3)]
    grams = np.cumsum([_gram(s, [grid.quad_weights] * len(s)) for s in sets], axis=0)
    vals = _windows(grams, fld.xi0, K, fld.x(), 1.0)
    return h, {m: float(np.sqrt(vals[m].max())) for m in range(3)}


@dataclass(frozen=True)
class EnergyReport:
    gamma_L: dict
    gamma_monotone: bool
    x_norms: dict
    h_norms: dict
    gamma_control: dict


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
    sigma = sigma_values(fld.psi_modes, dpsi, p, grid)
    ikx = fld.ik()
    sx, sy, syy = ikx * sigma, sigma @ grid.D1.T, sigma @ grid.D2.T
    sxx, sxy = ikx**2 * sigma, ikx * sy
    pxx, pxy, pyy = ikx * (ikx * fld.psi_modes), ikx * dpsi, fld.psi_modes @ grid.D2.T
    w = grid.quad_weights
    grams = [  # Gamma and the control, windowed per L below
        _gram([sx, sy, sxx, sxy, syy], [-6.0 * p.A * w, -12.0 * p.A * w, F * w, 2.0 * F * w, F * w]),
        _gram([sy, sx, pxx, pyy, pxy], [w, w, w, w, 2.0 * w]),
    ]
    period = 2.0 * math.pi / xi0
    gamma, control = {}, {}
    for L in L_list:  # over Q_L, saturating at one cell
        half = min(L, 0.5 * period)
        (gamma[float(L)],), (control[float(L)],) = _windows(grams, xi0, K, [-half], 2.0 * half).tolist()
    g = [gamma[L] for L in sorted(gamma)]
    scale = max(map(abs, g)) or 1.0
    monotone = all(b >= a - 1e-10 * scale for a, b in zip(g, g[1:]))
    h_norms, x_norms = field_norms(fld)
    return EnergyReport(gamma_L=gamma, gamma_monotone=monotone, x_norms=x_norms,
                        h_norms=h_norms, gamma_control=control)


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
    if cls in ("X1", "X2"):  # x -> -x sends mode k to mode -k, the conjugate of mode k
        new = pm.real if cls == "X1" else 1j * pm.imag
    else:
        flipped = pm[:, ::-1]  # y -> -y (nodes are symmetric)
        new = 0.5 * (pm - flipped) if cls == "Y1" else 0.5 * (pm + flipped)
    return replace(fld, psi_modes=new, _solve_info=None)


def stream_cross_integrals(p, fld):
    """Period integrals I1 = int F psi_yy psi_x and
    I2 = int (F psi_xx - 6A psi) psi_x, with no symmetry precondition."""
    grid = fld.grid
    period = 2.0 * math.pi / fld.xi0
    F = p.F(grid.nodes)
    w = grid.quad_weights
    ikx = fld.ik()
    px = ikx * fld.psi_modes
    pyy = fld.psi_modes @ grid.D2.T
    pxx = ikx * px
    # row 0 of psi_x is zero; modes k and -k of a row k >= 1 add twice its real part
    integrand1 = (F * w)[None, :] * pyy * np.conj(px)
    I1 = 2.0 * period * float(np.real(integrand1.sum()))
    integrand2 = w[None, :] * (F[None, :] * pxx - 6.0 * p.A * fld.psi_modes) * np.conj(px)
    I2 = 2.0 * period * float(np.real(integrand2.sum()))
    return I1, I2


def check_symmetry_cancellation(p, fld):
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
    if min(ne, no) > 1e-9 * scale:
        raise DomainError("stream function mixes x-even and x-odd parts")
    return stream_cross_integrals(p, fld)


def _random_modes(rng, shapes, K, decay):
    """Modes k = 0..K (rows) of a real field, mode k equal to decay^k (a_k + i b_k) @ shapes.

    The a_k and b_k are standard normal, b_0 = 0, drawn in one call in the
    order a_0, a_1, b_1, a_2, b_2, ...
    """
    m = len(shapes)
    z = rng.normal(size=m + 2 * K * m)
    ab = z[m:].reshape(K, 2, m)
    c = np.vstack([z[:m], ab[:, 0] + 1j * ab[:, 1]])
    return (c * decay ** np.arange(K + 1)[:, None]) @ shapes


def random_field(rng, grid, K, xi0, h2_norm):
    """Smooth random clamped field with prescribed H^2 norm.

    Mode shapes are (1 - y^2)^2 times the monomials y^0..y^3, so every mode
    is clamped exactly; coefficients decay as 0.6^|k|.
    """
    y = grid.nodes
    shapes = np.array([(1.0 - y**2) ** 2 * y**j for j in range(4)])
    fld = ChannelField(xi0, K, grid, _random_modes(rng, shapes, K, 0.6))
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
    h, x = field_norms(fld)
    return {
        "profile": p.to_dict(),
        "xi0": fld.xi0,
        "K": fld.K,
        "N": fld.grid.N,
        "norms": {"H1": h[1], "H2": h[2], "X0": x[0], "X1": x[1], "X2": x[2]},
    }
