"""Stability spectra, the neutral crossing, and loss of injectivity.

Small |A T| keeps every eigenvalue of the stability operator in the left
half plane.  Growing |A| pushes a mode across the imaginary axis at the
classical critical point of the parabolic profile; shifting the profile by
the neutral frequency produces a flow-reversal profile at which the
homogeneous mode operator has a kernel.

This demo uses a reduced resolution to stay fast; the acceptance suite
pins the same numbers at N = 200/300.
"""

from cpflow import (
    build_grid,
    check_admissibility,
    kernel_witness,
    neutral_search,
    os_spectrum,
    poiseuille_for_flux,
    verify_energy_identity,
)

print(__doc__)

print("spectra at small amplitude (all decaying):")
for A, T in ((-0.05, 1.0), (-0.3, 0.8), (-0.5, 1.0)):
    res = os_spectrum(A, T, 120, with_vectors=False)
    print(f"  A={A:6.2f} T={T:4.2f}: leading Re lambda = {res.leading.real:9.4f}, "
          f"{res.n_resolved} resolved")

res = os_spectrum(-2.0, 1.0, 120)
r = verify_energy_identity(res.A, res.T, res.eigenfunction(0), res.eigenvalues[0])
print(f"\nintegrated eigen-identity residual for the leading pair: {r:.2e}")

print("\nneutral search (reduced resolution N = 96/144):")
npt = neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-4, N=96, N_check=144, T_tol=1e-5,
                     agreement_rtol=5e-3)
m3a = -3.0 * npt.A1
c_r = -npt.lambda1.imag / (npt.T0 * m3a)
print(f"  -3 A1   = {m3a:.3f}   (classical 5772.22)")
print(f"  T0      = {npt.T0:.5f} (classical 1.02056)")
print(f"  lambda1 = {npt.lambda1.real:.2e} {npt.lambda1.imag:+.3f} i")
print(f"  phase speed c_r = {c_r:.5f} (classical 0.26400)")
print(f"  counterexample constant C = {npt.C_counter:.3f} < 3|A1| = {3 * abs(npt.A1):.3f}")

prof = npt.profile()
rep = check_admissibility(prof)
print(f"  profile admissible: {rep.satisfies_abc}, flow reversal: {rep.reversal}")
print(f"  F(+-1) = {prof.F(1.0):.3f} (the near-wall speed reverses)")

g200 = build_grid(200)
w_rev = kernel_witness(prof, npt.T0, g200)
w_adm = kernel_witness(poiseuille_for_flux(4.0), npt.T0, g200)
print("\nnormalized smallest singular value of the homogeneous mode operator:")
print(f"  at the reversal profile : {w_rev:.2e}  (kernel: injectivity lost)")
print(f"  at admissible Poiseuille: {w_adm:.3f}   (bounded away from zero)")
