"""Fixed-point solves of the forced nonlinear perturbation problem.

The Picard map sends an iterate w to the solution of the linearized
problem with right-hand side f - (w . grad) w.  On a ball of radius delta
with 4 kappa0 ||f|| <= delta <= 1/(4 kappa0 c1) the map is a self-map and
a contraction with factor at most 2 kappa0 c1 delta <= 1/2, where kappa0
is the linear solvability constant and c1 the advection embedding
constant; both are measured on the discretization rather than assumed.

Fields, forces and advection terms are real and pass as their modes
k = 0..K (row k holds mode k), the layout of ``cpflow.channel``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ForceField,
    LinearizedChannelSolver,
    _cell_l2sq,
    _random_modes,
    _stack_h_norm,
    _y_stack,
    field_h_norm,
    product_points,
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


def advection_modes(fld_a, fld_b, stack_b=None):
    """(a . grad) b evaluated pseudo-spectrally with alias-safe padding.

    The quadratic products are formed on ``product_points(K)`` >= 3K + 1
    points in x, where they project exactly onto the kept modes.  b's
    y-derivative stack (``stack_b`` if the caller holds it) gives psi_b, v_b
    and D1 v_b, and w_y = -v_x for any field, so five transforms carry six
    factors.  Returns the two components' modes k = 0..K (rows).
    """
    K, grid, nh, n = fld_b.K, fld_b.grid, fld_b.K + 1, fld_b.grid.N + 1
    ik = fld_b.ik()
    stack = _y_stack(fld_b.psi_modes, grid) if stack_b is None else stack_b
    psi_b, R1, R2 = (A[:nh] + 1j * A[nh:] for A in stack)
    vb, vby, wb = R1[:, :n], R2[:, :n], -ik * psi_b
    va, wa = vb, wb
    if fld_a is not fld_b:
        va, wa = fld_a.v_modes(), fld_a.w_modes()
    va, wa, vbx, vby, wbx = np.fft.irfft(np.stack([va, wa, ik * vb, vby, ik * wb]),
                                         n=product_points(K), axis=-2, norm="forward")
    prod = np.stack([va * vbx + wa * vby, va * wbx - wa * vbx])
    a1, a2 = np.fft.rfft(prod, axis=-2, norm="forward")[:, :nh]
    return a1, a2


def nonlinear_residual(p, fld, force_modes, floor=1e-300):
    """Relative residual of the stationary perturbation problem.

    Pressure is eliminated by taking the curl of the momentum balance,
    which in stream-function form reads

        Lap^2 psi - [F (psi_xyy + psi_xxx) - 6A psi_x]
            + (psi_x Lap psi_y - psi_y Lap psi_x) = g_x - f_y.

    Mode derivatives are exact and the quadratic term is dealiased on
    ``product_points(K)``.  The evaluation shares no state with the mode
    solves of the iteration but takes their ``force.modes()``.  The residual
    norm is divided by max(||rhs||, ||Lap^2 psi||, ``floor``).
    """
    grid, K, xi0 = fld.grid, fld.K, fld.xi0
    F = p.F(grid.nodes)
    ik = fld.ik()
    pm = fld.psi_modes
    lap = pm @ grid.D2.T + ik**2 * pm
    lap2 = lap @ grid.D2.T + ik**2 * lap
    linear = lap2 - F[None, :] * (ik * lap) + 6.0 * p.A * (ik * pm)
    stack = np.stack([ik * pm, pm @ grid.D1.T, ik * lap, lap @ grid.D1.T])
    psix, psiy, lapx, lapy = np.fft.irfft(stack, n=product_points(K), axis=-2, norm="forward")
    nl = np.fft.rfft(psix * lapy - psiy * lapx, axis=-2, norm="forward")[: K + 1]
    f_modes, g_modes = force_modes
    rhs = ik * g_modes - f_modes @ grid.D1.T
    res = linear + nl - rhs
    res_n, rhs_n, lap2_n = (math.sqrt(_cell_l2sq(m, xi0, grid)) for m in (res, rhs, lap2))
    return res_n / max(rhs_n, lap2_n, floor)


class NonlinearChannelSolver:
    """Shares one inverted linear solver across all Picard machinery."""

    def __init__(self, p, grid, K, xi0):
        self.p = p
        self.linear = LinearizedChannelSolver(p, grid, K, xi0)
        self.grid = grid
        self.K = K
        self.xi0 = float(xi0)

    def picard_map(self, force_modes, w_fld, stack=None):
        """One map: solve with source f - (w . grad) w (``stack``: w's y-stack, if held)."""
        f_modes, g_modes = force_modes
        if w_fld is None:
            return self.linear.solve_modes(f_modes, g_modes)
        a1, a2 = advection_modes(w_fld, w_fld, stack)
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
        One y-derivative stack per iterate gives its H^2 norm, the increment
        (a difference of stacks) and the next advection; no field keeps one.
        """
        force_modes = force.modes()

        def project(fld):
            if cfg.symmetry_class is not None:
                return symmetry_project(fld, cfg.symmetry_class)
            return fld

        w = project(self.picard_map(force_modes, None)) if w0 is None else project(w0)
        sw = _y_stack(w.psi_modes, self.grid)
        iterates = []
        prev_inc = None
        failed = None  # residual of a failed check at the previous step
        bad_streak = 0
        factor = 0.0
        converged = False
        final_residual = math.inf
        n_done = 0
        for n_done in range(1, cfg.max_iter + 1):
            v = project(self.picard_map(force_modes, w, sw))
            sv = _y_stack(v.psi_modes, self.grid)
            inc = _stack_h_norm([a - b for a, b in zip(sv, sw)], self.grid, self.xi0, 2)
            nv = _stack_h_norm(sv, self.grid, self.xi0, 2)
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
            w, sw = v, sv
            if inc < cfg.tol:
                final_residual = nonlinear_residual(self.p, w, force_modes, floor=cfg.tol)
                if final_residual < 10.0 * cfg.tol:
                    converged = True
                    break
                if failed is not None and final_residual > 0.5 * failed:
                    break
            failed = final_residual if inc < cfg.tol else None
            prev_inc = inc
        if not converged and math.isinf(final_residual):
            final_residual = nonlinear_residual(self.p, w, force_modes, floor=cfg.tol)
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


def measure_contraction(p, force, delta, grid, K, xi0, n_pairs=20, seed=0, solver=None):
    """Empirical Lipschitz ratio of the map over random pairs in the ball.

    The difference of two map values cancels the external force, so the
    measured ratio depends only on the quadratic coupling; it scales
    linearly with delta.  ``solver``: a ``NonlinearChannelSolver`` of the
    same (p, grid, K, xi0), if held.
    """
    rng = np.random.default_rng(seed)
    solver = NonlinearChannelSolver(p, grid, K, xi0) if solver is None else solver
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


def random_force(rng, grid, K, xi0, amplitude):
    """Smooth random force with modes confined to |k| <= K (tail-free).

    Each component's modes are y^0..y^4 with coefficients decaying as 0.5^|k|.
    """
    y = grid.nodes
    shapes = np.array([y**j for j in range(5)])
    f = synthesize(_random_modes(rng, shapes, K, 0.5))
    g = synthesize(_random_modes(rng, shapes, K, 0.5))
    raw = ForceField(xi0, K, grid, f, g)
    nrm = raw.l2_norm()
    if nrm == 0.0:
        raise DomainError("degenerate force draw")
    s = amplitude / nrm
    return ForceField(xi0, K, grid, f * s, g * s)


def measure_kappa0(p, grid, K, xi0, n_samples=12, seed=0, solver=None):
    """Linear solvability constant: sup (||v||_H2 + ||grad q||_L2) / ||f||_L2.

    ``solver``: a ``LinearizedChannelSolver`` of the same (p, grid, K, xi0), if held.
    """
    rng = np.random.default_rng(seed)
    solver = LinearizedChannelSolver(p, grid, K, xi0) if solver is None else solver
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
    worst = 0.0
    for _ in range(n_pairs):
        u_h2 = rng.uniform(0.5, 2.0)
        u = random_field(rng, grid, K, xi0, u_h2)
        w_h2 = rng.uniform(0.5, 2.0)
        w = random_field(rng, grid, K, xi0, w_h2)
        a1, a2 = advection_modes(u, w)
        adv = math.sqrt(_cell_l2sq(a1, xi0, grid) + _cell_l2sq(a2, xi0, grid))
        worst = max(worst, adv / (u_h2 * w_h2))
    return float(worst)


def _check_positive(**values):
    if not all(math.isfinite(v) and v > 0.0 for v in values.values()):
        raise DomainError(f"need positive, finite {' and '.join(values)}, got {values}")


def contraction_ball_radius(kappa0, c1):
    """Ball radius (4 kappa0 c1)^-1 that pins the contraction factor at 1/2."""
    _check_positive(kappa0=kappa0, c1=c1)
    return 1.0 / (4.0 * kappa0 * c1)


def forcing_headroom(kappa0, delta):
    """Largest force norm delta / (4 kappa0) the self-map bound tolerates."""
    _check_positive(kappa0=kappa0, delta=delta)
    return delta / (4.0 * kappa0)
