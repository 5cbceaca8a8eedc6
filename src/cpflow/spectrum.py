"""Stability spectrum of the channel operator and the flow-reversal witness.

For A < 0 and wavenumber T > 0 the eigenvalue problem

    phi'''' - 2 T^2 phi'' + T^4 phi
        + 3 A T i [ (1 - y^2)(phi'' - T^2 phi) + 2 phi ] = lambda (phi'' - T^2 phi),
    phi(+-1) = phi'(+-1) = 0,

is the linearization of the flow around the parabolic profile -3A(1-y^2);
growth rates are the real parts of lambda.  For small |AT| every
eigenvalue has negative real part; as |A| grows a neutral crossing
Re lambda = 0 appears at some (A1, T0), and shifting the profile by the
neutral frequency produces F(y) = 3 A1 y^2 + C with C < 3|A1| - a profile
with flow reversal at which the homogeneous mode operator loses
injectivity.  Eigenvalues map to classical phase speeds c (in units of
the profile maximum -3A) through lambda = -i T (-3A) c.

Discretization: clamped collocation in the lifted form phi = (1 - y^2) p
with p vanishing at the walls, which imposes both boundary conditions
exactly and avoids spurious boundary modes; the pencil is reduced to a
standard eigenproblem by applying the Dirichlet inverse of (D^2 - T^2).
The profile is even in y, so the pencil splits into an even and an odd
block under y -> -y, each solved on its own (Orszag 1971 solved the even
block alone).  Eigenvalues are accepted only when two resolutions agree.

The neutral point is the root of G(a, T) = (Re lambda, Re lambda_T) with
a = -3A, found by Newton on the exact Jacobian Re[[lambda_a, lambda_T],
[lambda_aT, lambda_TT]].  Each evaluation takes the leading eigenvalue of
M = B^-1 L over both parity blocks and differentiates it on the winning
block alone (Schmid & Henningson 2001, Stability and Transition in Shear
Flows): with x its right eigenvector by inverse iteration, one bordered
K = [M - lambda, s x; s x^H, 0], s = max|M - lambda| (Govaerts 2000), is
solved for (M - lambda) x_s - lambda_s x = -B^-1 (L_s - lambda B_s) x,
s in {a, T}, and again for lambda_aT and lambda_TT, whose right-hand sides
add the x_a and x_T terms.  Bordering M, not the raw pencil L - lambda B,
keeps K well conditioned at N = 300.
"""

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, DomainError, NeutralToleranceError, ResolutionError
from .os_solver import os_operator_matrix
from .profiles import Profile, check_admissibility
from .spectral import bordered_system, build_grid, chebyshev_nodes, clenshaw_curtis_weights

__all__ = [
    "os_spectrum",
    "leading_eigenvalue",
    "verify_energy_identity",
    "neutral_search",
    "kernel_witness",
]

RESOLVE_RTOL = 1e-6
MIN_RESOLVED = 10
MAX_NEWTON = 12
SYMMETRY_RTOL = 1e-13
N_COARSE = 64  # neutral_search brackets and converges here before polishing at N


def _parity_bases(n):
    """Orthonormal even and odd bases of n mirrored nodes, as columns.

    Mirrored nodes (i, n-1-i) pair with weight 1/sqrt(2); the centre node,
    present when n is odd, is an even basis vector by itself.
    """
    h = n // 2
    I = np.eye(n)
    even = math.sqrt(0.5) * (I[:, :h] + I[:, ::-1][:, :h])
    odd = math.sqrt(0.5) * (I[:, :h] - I[:, ::-1][:, :h])
    return (np.hstack([even, I[:, h : h + 1]]) if n % 2 else even), odd


@lru_cache(maxsize=16)
def _clamped_blocks(N):
    """Interior operators of the lifted clamped discretization at degree N.

    Also returns, even then odd, each y-parity's basis Q of the interior
    nodes with the folded blocks Q^T D2 Q, Q^T P4 Q and its nodes.  The
    fold needs the interior operators centrosymmetric, which is checked
    here, once per N.  The full grid's nodes, D1 and D2 come last.
    """
    grid = build_grid(N)
    y, D2, D3, D4 = grid.nodes, grid.D2, grid.D3, grid.D4
    s = np.zeros(N + 1)
    s[1:N] = 1.0 / (1.0 - y[1:N] ** 2)
    # phi = (1 - y^2) p with p(+-1) = 0: phi'''' = (1-y^2) p'''' - 8 y p''' - 12 p''
    P4 = ((1.0 - y**2)[:, None] * D4 - 8.0 * y[:, None] * D3 - 12.0 * D2) * s[None, :]
    idx = slice(1, N)
    y_int = y[idx].copy()
    D2i = np.ascontiguousarray(D2[idx, idx])
    P4i = np.ascontiguousarray(P4[idx, idx])
    for C in (D2i, P4i):
        if np.abs(C - C[::-1, ::-1]).max() > SYMMETRY_RTOL * np.abs(C).max():
            raise ResolutionError(f"interior operators at N={N} are not reflection-symmetric")
    parity = tuple((Q, Q.T @ D2i @ Q, Q.T @ P4i @ Q, y_int[: Q.shape[1]])
                   for Q in _parity_bases(N - 1))
    return y_int, D2i, P4i, parity, y, grid.D1, D2


def _assemble(D2, P4, y, A, T):
    """Matrices (L, B) of the eigen-pencil from interior blocks at nodes y."""
    Ident = np.eye(len(y))
    B = D2 - T**2 * Ident
    L = (
        P4
        - 2.0 * T**2 * D2
        + T**4 * Ident
        + 3.0 * A * T * 1j * ((1.0 - y**2)[:, None] * B + 2.0 * Ident)
    )
    return L, B


def _eig(A, T, N, with_vectors=False):
    """Spectrum via the Dirichlet-inverse reduction, one block per y-parity.

    The pencil commutes with the reflection y -> -y, so in the orthonormal
    even/odd basis Q of the interior nodes it is block diagonal (the
    multiplier (1 - y^2) folds to its values on the first half of the
    nodes).  Returns the even block's eigenvalues followed by the odd
    block's; eigenvectors come back in the node basis as Q u.
    """
    vals, vecs = [], []
    for Q, D2, P4, y in _clamped_blocks(N)[3]:
        L, B = _assemble(D2, P4, y, A, T)
        M = np.linalg.solve(B, L)
        if with_vectors:
            lam, u = np.linalg.eig(M)
            vecs.append(Q @ u)
        else:
            lam = np.linalg.eigvals(M)
        vals.append(lam)
    if with_vectors:
        return np.concatenate(vals), np.hstack(vecs)
    return np.concatenate(vals)


def _null_vector(R):
    """Unit x with R x ~ 0 by two steps of inverse iteration from the ones vector.

    An exactly singular R is shifted by one rounding unit of its scale.
    """
    x = np.ones(len(R), dtype=complex)
    for _ in range(2):
        try:
            x = np.linalg.solve(R, x)
        except np.linalg.LinAlgError:
            R = R + np.finfo(float).eps * np.abs(R).max() * np.eye(len(x))
            x = np.linalg.solve(R, x)
        x = x / np.linalg.norm(x)
    return x


def _check_parameters(A, T):
    if not (math.isfinite(A) and math.isfinite(T) and T > 0.0):
        raise DomainError(f"need finite A and finite wavenumber T > 0, got A={A}, T={T}")


def leading_eigenvalue(A, T, N, sensitivity=False):
    """Eigenvalue of maximal real part at one resolution, over both parity blocks.

    With ``sensitivity`` returns ``(lambda, lambda_a, lambda_T, lambda_aT,
    lambda_TT)``, a = -3A, from the winning block (module docstring).
    """
    _check_parameters(A, T)
    blocks = []
    for _, D2, P4, y in _clamped_blocks(N)[3]:
        L, B = _assemble(D2, P4, y, A, T)
        M = np.linalg.solve(B, L)
        vals = np.linalg.eigvals(M)
        blocks.append((vals[int(np.argmax(vals.real))], M, B, D2, (1.0 - y**2)[:, None]))
    lam, M, B, D2, Y = max(blocks, key=lambda b: b[0].real)  # the even block on a tie
    if not sensitivity:
        return lam
    n, a = len(M), -3.0 * A
    R = M - lam * np.eye(n)
    x = _null_vector(R)[:, None]
    if np.linalg.norm(R @ x) > 1e-14 * np.linalg.norm(M, 1):
        raise ResolutionError(f"no eigenvector of the leading eigenvalue at N={N}")
    s = np.abs(R).max()
    K = np.block([[R, s * x], [s * x.conj().T, np.zeros((1, 1))]])

    def bordered(G):
        """(x_s, lambda_s) for the right-hand sides -B^-1 G, one per column."""
        z = np.linalg.solve(K, np.vstack([-np.linalg.solve(B, G), np.zeros((1, G.shape[1]))]))
        return z[:n], -s * z[n]

    def ops(V):
        """B V, S = ((1 - y^2) B + 2) V, L_a V and L_T V; B_a = 0 and B_T = -2T."""
        BV = D2 @ V - T**2 * V
        S = Y * BV + 2.0 * V
        return BV, S, -1j * T * S, -4.0 * T * BV - 1j * a * S + 2j * a * T**2 * Y * V

    Bx, Sx, Lax, LTx = ops(x)
    xs, (lam_a, lam_T) = bordered(np.hstack([Lax, LTx + 2.0 * T * lam * x]))
    BV, _, LaV, LTV = ops(xs)  # columns x_a, x_T
    PT = LTV - lam_T * BV + 2.0 * T * lam * xs  # (L_T - lambda_T B - lambda B_T) [x_a, x_T]
    LaT_x = -1j * Sx + 2j * T**2 * Y * x
    LTT_x = -4.0 * Bx + 8.0 * T**2 * x + 6j * a * T * Y * x
    G_aT = LaT_x + 2.0 * T * lam_a * x + LaV[:, 1:] - lam_a * BV[:, 1:] + PT[:, :1]
    G_TT = LTT_x + (4.0 * T * lam_T + 2.0 * lam) * x + 2.0 * PT[:, 1:]
    _, (lam_aT, lam_TT) = bordered(np.hstack([G_aT, G_TT]))
    return lam, lam_a, lam_T, lam_aT, lam_TT


def lift_eigenfunction(vec, N):
    """Full-grid phi, phi', phi'' of an interior eigenvector.

    The lifted representation phi = (1 - y^2) p is exactly clamped, so the
    derivative arrays carry no boundary defect.
    """
    *_, y, D, D2 = _clamped_blocks(N)
    pvec = np.zeros(N + 1, dtype=complex)
    pvec[1:N] = vec / (1.0 - y[1:N] ** 2)
    dp = D @ pvec
    d2p = D2 @ pvec
    phi = (1.0 - y**2) * pvec
    dphi = -2.0 * y * pvec + (1.0 - y**2) * dp
    d2phi = -2.0 * pvec - 4.0 * y * dp + (1.0 - y**2) * d2p
    return phi, dphi, d2phi


@dataclass(frozen=True)
class SpectrumResult:
    """Resolution-filtered spectrum at one (A, T) pair."""

    A: float
    T: float
    eigenvalues: np.ndarray  # resolved, sorted by descending real part
    leading: complex
    n_resolved: int
    N: int
    _vectors: np.ndarray = None
    raw: np.ndarray = None
    resolved_mask: np.ndarray = None

    def eigenfunction(self, i=0):
        """(phi, phi', phi'') on the full grid for the i-th resolved mode."""
        if self._vectors is None:
            raise DomainError("spectrum was computed without eigenvectors")
        return lift_eigenfunction(self._vectors[:, i], self.N)


def os_spectrum(A, T, N, with_vectors=True):
    """Two-resolution spectrum of the eigen-pencil at (A, T) and degree N.

    An eigenvalue is resolved when the computations at N and 3N/2 agree to
    1e-6 relative; anything else is discarded as spurious.  Fewer than 10
    resolved eigenvalues raise :class:`ResolutionError`.
    """
    _check_parameters(A, T)
    N2 = (3 * N) // 2
    if with_vectors:
        base, vecs = _eig(A, T, N, with_vectors=True)
    else:
        base = _eig(A, T, N)
        vecs = None
    fine = _eig(A, T, N2)
    dist = np.abs(base[:, None] - fine[None, :])
    nearest = dist.min(axis=1)
    mask = nearest <= RESOLVE_RTOL * (1.0 + np.abs(base))
    if int(mask.sum()) < MIN_RESOLVED:
        raise ResolutionError(
            f"only {int(mask.sum())} eigenvalues agree between N={N} and N={N2}"
        )
    order = np.argsort(-base[mask].real)
    resolved = base[mask][order]
    kept_vecs = vecs[:, mask][:, order] if vecs is not None else None
    return SpectrumResult(
        A=float(A),
        T=float(T),
        eigenvalues=resolved,
        leading=complex(resolved[0]),
        n_resolved=int(mask.sum()),
        N=N,
        _vectors=kept_vecs,
        raw=base,
        resolved_mask=mask,
    )


def verify_energy_identity(A, T, eigfun, lam):
    """Residual of the integrated eigen-identity for a computed pair.

    Testing the equation against the conjugate mode and integrating by
    parts gives

        int |phi''|^2 + (2T^2 + lam)|phi'|^2 + (T^4 + lam T^2)|phi|^2
          = 3 A T i int [(1 - y^2)(|phi'|^2 + T^2 |phi|^2) - 2|phi|^2]
            - 6 A T i int y phi' conj(phi);

    the return value is the relative defect, homogeneous of degree zero in
    the eigenfunction scaling.
    """
    if not isinstance(eigfun, tuple):
        raise DomainError("pass the (phi, phi', phi'') triple from eigenfunction()")
    phi, dphi, d2phi = eigfun
    n = len(phi) - 1
    w = clenshaw_curtis_weights(n)
    y = chebyshev_nodes(n)
    i0 = np.sum(w * np.abs(phi) ** 2)
    i1 = np.sum(w * np.abs(dphi) ** 2)
    i2 = np.sum(w * np.abs(d2phi) ** 2)
    lhs = i2 + (2.0 * T**2 + lam) * i1 + (T**4 + lam * T**2) * i0
    rhs = 3.0 * A * T * 1j * (
        np.sum(w * (1.0 - y**2) * (np.abs(dphi) ** 2 + T**2 * np.abs(phi) ** 2))
        - 2.0 * i0
    ) - 6.0 * A * T * 1j * np.sum(w * y * dphi * np.conj(phi))
    # scale by the term magnitudes: |lhs| + |rhs| degenerates when both
    # sides vanish (e.g. the self-adjoint pencil at A = 0)
    scale = i2 + (2.0 * T**2 + abs(lam)) * i1 + (T**4 + abs(lam) * T**2) * i0 + abs(rhs)
    return float(abs(lhs - rhs) / scale) if scale > 0.0 else 0.0


@dataclass(frozen=True)
class NeutralPoint:
    """Parameters of the located neutral crossing Re lambda = 0."""

    A1: float
    T0: float
    lambda1: complex
    C_counter: float
    reversal_confirmed: bool
    N: int
    trace: tuple = None

    def profile(self):
        return Profile(A=self.A1, B=0.0, C=self.C_counter)


def neutral_search(
    T_range,
    minus3A_range,
    tol=1e-6,
    N=200,
    N_check=300,
    T_tol=2e-5,
    agreement_rtol=1e-3,
):
    """Locate the neutral crossing by Newton on G(a, T) = (Re lambda, Re lambda_T).

    Here a = -3A (the profile amplitude) and lambda is the leading
    eigenvalue; the root of G is the point where the growth rate maximized
    over T crosses zero.  Every evaluation is one folded spectrum returning
    lambda with its first and second derivatives (:func:`leading_eigenvalue`).
    ``locate`` finds the crossing at one resolution: at each end of the -3A
    bracket a 9-point T scan must find an interior maximum, which a 1-D
    Newton on Re lambda_T refines; the two maxima must change sign.  A 2-D
    Newton starts at their linear interpolation (exact Jacobian, steps
    clamped to the brackets) and converges at |Re lambda| <= tol reached by
    a step |dT| <= T_tol.
    ``locate`` runs at N_COARSE, where the leading mode is already
    resolved; the same 2-D Newton then polishes at N and at N_check.  The
    coarse grid only picks where the N stage starts: if N_COARSE >= N, or
    either stage raises BracketError or NeutralToleranceError, ``locate``
    runs at N.  The N and N_check points must agree to ``agreement_rtol``
    or the search fails with the best iterates attached.  The returned
    point carries the N_check values; ``trace`` has one entry per evaluation.
    """
    t_lo, t_hi = map(float, T_range)
    a_lo, a_hi = map(float, minus3A_range)
    trace = []

    def at(Nres):
        def ev(a, T):
            lam, *derivatives = leading_eigenvalue(-a / 3.0, T, Nres, sensitivity=True)
            trace.append({"A": -a / 3.0, "T": T, "re": lam.real, "im": lam.imag, "N": Nres})
            return (lam.real, *(d.real for d in derivatives))

        return ev

    def newton(ev, a, T, g, box, move_a=True):
        """Newton from (a, T), where G is g (None: evaluate); move_a=False holds a fixed."""
        g = ev(a, T) if g is None else g
        best, dT = (a, T, g[0]), math.inf
        for _ in range(MAX_NEWTON):
            J = np.array([[g[1], g[2]], [g[3], g[4]]])
            da, dT = np.linalg.solve(J, [-g[0], -g[2]]) if move_a else (0.0, -g[2] / g[4])
            a = min(max(a + da, box[0]), box[1])
            T = min(max(T + dT, box[2]), box[3])
            g = ev(a, T)
            best = min(best, (a, T, g[0]), key=lambda b: abs(b[2]))
            if abs(dT) <= T_tol and (abs(g[0]) <= tol or not move_a):
                return a, T, g[0]
        raise NeutralToleranceError(
            f"Newton did not converge from -3A={a:.6f}, T={T:.6f} (growth {g[0]:.3e})",
            best=best,
        )

    def locate(Nres):
        ev = at(Nres)
        ends = []
        for a in (a_lo, a_hi):
            Ts = np.linspace(t_lo, t_hi, 9)
            vals = [ev(a, float(T)) for T in Ts]
            i = int(np.argmax([v[0] for v in vals]))
            if i in (0, len(Ts) - 1):
                raise BracketError(
                    f"growth rate not interior-maximized on T in [{t_lo}, {t_hi}] at -3A={a}"
                )
            ends.append(newton(ev, a, float(Ts[i]), vals[i], (a, a, Ts[i - 1], Ts[i + 1]), False))
        (_, T_l, g_l), (_, T_h, g_h) = ends
        if not (g_l < 0.0 < g_h):
            raise BracketError(
                f"no neutral crossing bracketed on -3A in [{a_lo}, {a_hi}] "
                f"(growth {g_l:.3e} .. {g_h:.3e})"
            )
        s = g_l / (g_l - g_h)
        return newton(ev, a_lo + s * (a_hi - a_lo), T_l + s * (T_h - T_l), None, box)

    box = (a_lo, a_hi, t_lo, t_hi)
    coarse = None
    if N_COARSE < N:
        with contextlib.suppress(BracketError, NeutralToleranceError):
            coarse = newton(at(N), *locate(N_COARSE)[:2], None, box)
    a1_c, T0_c, _ = coarse or locate(N)
    a1_f, T0_f, _ = newton(at(N_check), a1_c, T0_c, None, box)
    best = {"coarse": (a1_c, T0_c), "fine": (a1_f, T0_f)}
    if abs(a1_f - a1_c) > agreement_rtol * a1_f or abs(T0_f - T0_c) > agreement_rtol * T0_f:
        raise NeutralToleranceError(
            f"resolutions N={N} and N={N_check} disagree: "
            f"-3A {a1_c:.4f} vs {a1_f:.4f}, T {T0_c:.6f} vs {T0_f:.6f}",
            best=best,
        )
    A1 = -a1_f / 3.0
    lam1 = leading_eigenvalue(A1, T0_f, N_check)
    C = -3.0 * A1 + lam1.imag / T0_f
    rep = check_admissibility(Profile(A=A1, B=0.0, C=C))
    return NeutralPoint(
        A1=float(A1),
        T0=float(T0_f),
        lambda1=complex(lam1),
        C_counter=float(C),
        reversal_confirmed=bool(rep.reversal and not rep.satisfies_abc),
        N=N_check,
        trace=tuple(trace),
    )


def kernel_witness(p, xi, grid):
    """Normalized smallest singular value of the homogeneous mode operator.

    The clamped operator is preconditioned by its own constant-coefficient
    fourth-order part (identity-plus-compact form), making both extreme
    singular values resolution-stable; the raw collocation matrix has a
    condition number set by the discretization, not the physics.  At an
    admissible profile the value stays away from zero (injectivity); at a
    neutral-crossing profile it collapses with the crossing tolerance.
    """
    L = bordered_system(os_operator_matrix(p, xi, grid), grid)
    I = np.eye(grid.N + 1)
    B4 = bordered_system(grid.D4 - 2.0 * xi**2 * grid.D2 + xi**4 * I, grid)
    # common row scaling leaves B4^-1 L unchanged but tames the solve
    s = 1.0 / np.abs(B4).max(axis=1)
    Ltilde = np.linalg.solve(B4 * s[:, None], L * s[:, None])
    svals = np.linalg.svd(Ltilde, compute_uv=False)
    return float(svals[-1] / svals[0])

