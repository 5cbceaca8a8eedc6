"""Fixed-point solves of the forced nonlinear perturbation problem.

The Picard map sends an iterate w to the solution of the linearized
problem with right-hand side f - (w . grad) w.  On a ball of radius delta
with 4 kappa0 ||f|| <= delta <= 1/(4 kappa0 c1) the map is a self-map and
a contraction with factor at most 2 kappa0 c1 delta <= 1/2, where kappa0
is the linear solvability constant and c1 the advection embedding
constant; both are measured on the discretization rather than assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ForceField,
    LinearizedChannelSolver,
    analyze,
    field_h_norm,
    n_x_points,
    random_field,
    recover_pressure_gradient,
    symmetry_project,
    synthesize,
)
from .errors import BallEscapeError, DomainError, NonContractionError

__all__ = [
    "PicardConfig",
    "PicardTrace",
    "NonlinearChannelSolver",
    "picard_solve",
    "measure_contraction",
    "uniqueness_probe",
    "measure_kappa0",
    "measure_c1",
    "contraction_ball_radius",
    "forcing_headroom",
    "advection_modes",
    "nonlinear_residual",
    "random_force",
]


@dataclass(frozen=True)
class PicardConfig:
    """Iteration controls; the ball radius delta carries the smallness.

    ``symmetry_class`` projects every iterate onto X1 or Y1.  Y2 is not a
    class of the iteration: the map sends Y2 data into Y1, so a Y2
    projection would remove the nonlinear term.
    """

    delta: float
    tol: float
    max_iter: int = 60
    symmetry_class: str = None

    def __post_init__(self):
        if not (0.0 < self.tol < self.delta):
            raise DomainError("need 0 < tol < delta")
        if self.symmetry_class not in (None, "X1", "Y1"):
            raise DomainError("symmetry_class must be one of None, 'X1', 'Y1'")


@dataclass(frozen=True)
class PicardTrace:
    """Per-iteration (norm, increment) pairs and convergence summary."""

    iterates: tuple
    contraction_factor: float
    converged: bool
    n_iter: int
    final_residual: float


def advection_modes(fld_a, fld_b):
    """(a . grad) b evaluated pseudo-spectrally with alias-safe padding.

    The tensor grid carries 4(K+1) >= 3K + 2 points in x, so quadratic
    products of K-band fields project exactly onto the kept modes.
    Returns the two component coefficient arrays in the k = -K..K layout.
    """
    K, grid = fld_a.K, fld_a.grid
    ks = np.arange(-K, K + 1)
    ikx = (1j * fld_a.xi0 * ks)[:, None]
    vb_m, wb_m = fld_b.v_modes(), fld_b.w_modes()
    va_m, wa_m = (vb_m, wb_m) if fld_a is fld_b else (fld_a.v_modes(), fld_a.w_modes())
    stack = np.stack([va_m, wa_m, ikx * vb_m, vb_m @ grid.D1.T, ikx * wb_m, wb_m @ grid.D1.T])
    va, wa, vbx, vby, wbx, wby = synthesize(stack, fld_a.xi0, K)
    (a1_modes, a2_modes), _ = analyze(np.stack([va * vbx + wa * vby, va * wbx + wa * wby]), K)
    return a1_modes, a2_modes


def nonlinear_residual(p, fld, force, floor=1e-300):
    """Relative residual of the stationary perturbation problem.

    Pressure is eliminated by taking the curl of the momentum balance,
    which in stream-function form reads

        Lap^2 psi - [F (psi_xyy + psi_xxx) - 6A psi_x]
            + (psi_x Lap psi_y - psi_y Lap psi_x) = g_x - f_y.

    Mode derivatives are exact and the quadratic term is dealiased; the
    evaluation shares no state with the LU solves of the iteration.  The
    residual norm is divided by max(||rhs||, ||Lap^2 psi||, ``floor``).
    """
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    ks = np.arange(-K, K + 1)
    ikx = (1j * xi0 * ks)[:, None]
    pm = fld.psi_modes
    lap = pm @ grid.D2.T + ikx**2 * pm
    lap2 = lap @ grid.D2.T + ikx**2 * lap
    linear = lap2 - F[None, :] * (ikx * lap) + 6.0 * p.A * (ikx * pm)
    stack = np.stack([ikx * pm, pm @ grid.D1.T, ikx * lap, lap @ grid.D1.T])
    psix, psiy, lapx, lapy = synthesize(stack, xi0, K)
    nl_modes, _ = analyze(psix * lapy - psiy * lapx, K)
    f_modes, g_modes = force.modes()
    rhs = ikx * g_modes - f_modes @ grid.D1.T
    res = linear + nl_modes - rhs
    period = 2.0 * math.pi / xi0

    def cell_norm(modes):
        return math.sqrt(period * float((np.abs(modes) ** 2 @ grid.quad_weights).sum()))

    scale = max(cell_norm(rhs), cell_norm(lap2), floor)
    return cell_norm(res) / scale


class NonlinearChannelSolver:
    """Shares one factorized linear solver across all Picard machinery."""

    def __init__(self, p, grid, K, xi0):
        self.p = p
        self.linear = LinearizedChannelSolver(p, grid, K, xi0)
        self.grid = grid
        self.K = K
        self.xi0 = float(xi0)

    def picard_map(self, force_modes, w_fld):
        """One application of the map: solve with source f - (w . grad) w."""
        f_modes, g_modes = force_modes
        if w_fld is None:
            return self.linear.solve_modes(f_modes, g_modes)
        a1, a2 = advection_modes(w_fld, w_fld)
        return self.linear.solve_modes(f_modes - a1, g_modes - a2)

    def solve(self, force, cfg, w0=None):
        """Iterate the map to its fixed point inside the delta-ball.

        Convergence demands both an H^2 increment below ``cfg.tol`` and an
        independently evaluated nonlinear residual below ``10 * cfg.tol``
        (guards against stagnation posing as convergence).  The residual is
        scaled by max(||rhs||, ||Lap^2 psi||, ``cfg.tol``): where data and
        iterate are both near zero a relative residual has no meaning, and
        the floor makes it absolute there, so an unforced solve stops once
        its iterate is below tol instead of running until it underflows.
        A second failed check in a row that did not halve the residual
        marks a residual floor and stops the loop unconverged.  Leaving the
        ball raises :class:`BallEscapeError`; three consecutive
        non-contracting increments raise :class:`NonContractionError`.
        """
        force_modes = force.modes()

        def project(fld):
            if cfg.symmetry_class is not None:
                return symmetry_project(fld, cfg.symmetry_class)
            return fld

        w = project(self.picard_map(force_modes, None)) if w0 is None else project(w0)
        iterates = []
        prev_inc = None
        failed = None  # residual of a failed check at the previous step
        bad_streak = 0
        factor = 0.0
        converged = False
        final_residual = math.inf
        n_done = 0
        for n_done in range(1, cfg.max_iter + 1):
            v = project(self.picard_map(force_modes, w))
            inc = field_h_norm(v.minus(w), 2)
            nv = field_h_norm(v, 2)
            iterates.append((nv, inc))
            if nv > cfg.delta:
                raise BallEscapeError(
                    f"iterate left the ball: ||v||_H2 = {nv:.3e} > delta = {cfg.delta:.3e}",
                    iterate_norm=nv,
                    delta=cfg.delta,
                )
            if prev_inc is not None and prev_inc > cfg.tol and inc > cfg.tol:
                # ratios below the stopping tolerance are roundoff jitter
                ratio = inc / prev_inc
                factor = max(factor, ratio)
                bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
                if bad_streak >= 3:
                    raise NonContractionError(
                        f"increment ratio >= 1 for 3 consecutive steps (last {ratio:.3f})"
                    )
            w = v
            if inc < cfg.tol:
                final_residual = nonlinear_residual(self.p, w, force, floor=cfg.tol)
                if final_residual < 10.0 * cfg.tol:
                    converged = True
                    break
                if failed is not None and final_residual > 0.5 * failed:
                    break
            failed = final_residual if inc < cfg.tol else None
            prev_inc = inc
        if not converged and math.isinf(final_residual):
            final_residual = nonlinear_residual(self.p, w, force, floor=cfg.tol)
        trace = PicardTrace(
            iterates=tuple(iterates),
            contraction_factor=float(factor),
            converged=bool(converged),
            n_iter=n_done,
            final_residual=float(final_residual),
        )
        return w, trace


def picard_solve(p, force, cfg, grid, K, xi0=None, w0=None):
    """Solve the nonlinear problem by contraction iteration."""
    xi0 = force.xi0 if xi0 is None else xi0
    return NonlinearChannelSolver(p, grid, K, xi0).solve(force, cfg, w0=w0)


def measure_contraction(p, force, delta, grid, K, xi0, n_pairs=20, seed=0):
    """Empirical Lipschitz ratio of the map over random pairs in the ball.

    The difference of two map values cancels the external force, so the
    measured ratio depends only on the quadratic coupling; it scales
    linearly with delta.
    """
    rng = np.random.default_rng(seed)
    solver = NonlinearChannelSolver(p, grid, K, xi0)
    zero = ForceField.zero(xi0, K, grid) if force is None else force
    force_modes = zero.modes()
    worst = 0.0
    for _ in range(n_pairs):
        w1 = random_field(rng, grid, K, xi0, delta * rng.uniform(0.3, 1.0))
        w2 = random_field(rng, grid, K, xi0, delta * rng.uniform(0.3, 1.0))
        dw = field_h_norm(w1.minus(w2), 2)
        if dw == 0.0:
            continue
        m1 = solver.picard_map(force_modes, w1)
        m2 = solver.picard_map(force_modes, w2)
        worst = max(worst, field_h_norm(m1.minus(m2), 2) / dw)
    return float(worst)


def uniqueness_probe(p, n_starts, delta, grid, K, xi0, tol=None, seed=0):
    """Drive the unforced iteration from random starts inside the ball.

    Returns True iff every start converges to the zero perturbation, i.e.
    the flow of profile ``p`` is the only solution found in the ball.
    """
    rng = np.random.default_rng(seed)
    tol = delta * 1e-8 if tol is None else tol
    solver = NonlinearChannelSolver(p, grid, K, xi0)
    force = ForceField.zero(xi0, K, grid)
    cfg = PicardConfig(delta=delta, tol=tol, max_iter=200)
    for _ in range(n_starts):
        w0 = random_field(rng, grid, K, xi0, delta * rng.uniform(0.2, 0.9))
        v, trace = solver.solve(force, cfg, w0=w0)
        if not trace.converged or field_h_norm(v, 2) > 10.0 * tol:
            return False
    return True


def random_force(rng, grid, K, xi0, amplitude, n_y_modes=5, decay=0.5):
    """Smooth random force with modes confined to |k| <= K (tail-free)."""
    y = grid.nodes
    shapes = np.array([y**j for j in range(n_y_modes)])
    Mx = n_x_points(K)

    def component():
        modes = np.zeros((2 * K + 1, grid.N + 1), dtype=complex)
        for k in range(K + 1):
            c = rng.normal(size=n_y_modes) + (1j * rng.normal(size=n_y_modes) if k else 0.0)
            vals = (c * decay**k) @ shapes
            modes[K + k] = vals
            modes[K - k] = np.conj(vals)
        return synthesize(modes, xi0, K)

    f = component()
    g = component()
    raw = ForceField(xi0, K, grid, f, g)
    nrm = raw.l2_norm()
    if nrm == 0.0:
        raise DomainError("degenerate force draw")
    s = amplitude / nrm
    return ForceField(xi0, K, grid, f * s, g * s)


def measure_kappa0(p, grid, K, xi0, n_samples=12, seed=0):
    """Linear solvability constant: sup (||v||_H2 + ||grad q||_L2) / ||f||_L2."""
    rng = np.random.default_rng(seed)
    solver = LinearizedChannelSolver(p, grid, K, xi0)
    worst = 0.0
    for _ in range(n_samples):
        force = random_force(rng, grid, K, xi0, 1.0)
        fld = solver.solve(force)
        grad = recover_pressure_gradient(p, fld, force)
        worst = max(worst, (field_h_norm(fld, 2) + grad.l2_norm()) / force.l2_norm())
    return float(worst)


def measure_c1(grid, K, xi0, n_pairs=12, seed=0):
    """Advection embedding constant: sup ||(u.grad)w||_L2 / (||u||_H2 ||w||_H2)."""
    rng = np.random.default_rng(seed)
    period = 2.0 * math.pi / xi0
    worst = 0.0
    for _ in range(n_pairs):
        u = random_field(rng, grid, K, xi0, rng.uniform(0.5, 2.0))
        w = random_field(rng, grid, K, xi0, rng.uniform(0.5, 2.0))
        a1, a2 = advection_modes(u, w)
        adv = math.sqrt(
            period
            * float(((np.abs(a1) ** 2 + np.abs(a2) ** 2) @ grid.quad_weights).sum())
        )
        worst = max(worst, adv / (field_h_norm(u, 2) * field_h_norm(w, 2)))
    return float(worst)


def contraction_ball_radius(kappa0, c1):
    """Ball radius (4 kappa0 c1)^-1 that pins the contraction factor at 1/2."""
    return 1.0 / (4.0 * kappa0 * c1)


def forcing_headroom(kappa0, delta):
    """Largest force norm delta / (4 kappa0) the self-map bound tolerates."""
    return delta / (4.0 * kappa0)
