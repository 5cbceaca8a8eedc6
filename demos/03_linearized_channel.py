"""Linearized channel solve on a periodic cell with pressure recovery.

A manufactured stream function with known velocity and pressure is fed
through the Fourier-mode solver; the demo prints the recovery errors, the
divergence/flux constraints, and the windowed (local) norms against the
global ones.
"""

import numpy as np
from numpy.polynomial import Polynomial

from cpflow import (
    ForceField,
    LinearizedChannelSolver,
    build_grid,
    field_norms,
    gamma_energy,
    poiseuille_for_flux,
    recover_pressure_gradient,
)

print(__doc__)

p = poiseuille_for_flux(4.0)
grid = build_grid(48)
K, xi0 = 8, 1.0
s = Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])  # (1 - y^2)^2
F = Polynomial([p.C, p.B, 3.0 * p.A])
cq, r = 0.4, Polynomial([0.0, -1.0, 0.0, 1.0])

f_fn = lambda X, Y: np.sin(X) * (s.deriv()(Y) - s.deriv(3)(Y) - cq * r(Y)) + np.cos(X) * (
    F(Y) * s.deriv()(Y) - F.deriv()(Y) * s(Y)
)
g_fn = lambda X, Y: np.cos(X) * (s.deriv(2)(Y) - s(Y) + cq * r.deriv()(Y)) + np.sin(X) * F(Y) * s(Y)

force = ForceField.from_callables(xi0, K, grid, f_fn, g_fn)
solver = LinearizedChannelSolver(p, grid, K, xi0)
fld = solver.solve(force)
grad = recover_pressure_gradient(p, fld, force)

X, Y = np.meshgrid(fld.x(), grid.nodes, indexing="ij")
v_err = np.abs(fld.v_values() - np.sin(X) * s.deriv()(Y)).max()
w_err = np.abs(fld.w_values() + np.cos(X) * s(Y)).max()
qx_err = np.abs(grad.qx_values() + cq * np.sin(X) * r(Y)).max()

print(f"N = {grid.N}, K = {K}, cell period 2 pi")
print(f"velocity recovery error : {max(v_err, w_err):.3e}")
print(f"pressure-gradient error : {qx_err:.3e} (max norm, wall rows carry the roundoff)")
print(f"curl of grad q          : {grad.curl_residual:.3e}")
print(f"max |div|               : {fld.divergence_max():.3e}")
print(f"max |flux|              : {np.abs(fld.flux_profile()).max():.3e}")

print("\nglobal vs windowed norms of the velocity field:")
h_norms, x_norms = field_norms(fld)
for m in (0, 1, 2):
    print(f"  m={m}:  H^m(cell) = {h_norms[m]:8.5f}   X^m = {x_norms[m]:8.5f}")

rep = gamma_energy(p, fld, [0.5, 1.0, 2.0, np.pi, 6.0])
print("\nwindowed energy Gamma(L) (monotone, saturates at the cell):")
for L, val in sorted(rep.gamma_L.items()):
    print(f"  L = {L:5.3f}:  Gamma = {val:10.6f}   control = {rep.gamma_control[L]:10.6f}")
