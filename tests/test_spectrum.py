import numpy as np
import pytest
import scipy.linalg as sla

from cpflow.errors import BracketError, DomainError, ResolutionError
from cpflow.profiles import Profile, check_admissibility, poiseuille_for_flux
from cpflow.spectral import build_grid
from cpflow import spectrum
from cpflow.spectrum import (
    kernel_witness,
    leading_eigenvalue,
    neutral_search,
    os_spectrum,
    verify_energy_identity,
)

# classical reference values for the parabolic profile (velocity units of
# the profile maximum): critical amplitude, wavenumber, phase speed, and
# the most unstable mode at Re 10^4, alpha 1
CRIT_RE = 5772.22
CRIT_ALPHA = 1.02056
CRIT_C = 0.26400
ORSZAG_C = 0.23752649 + 0.00373967j


def pencil(A, T, N):
    """Matrices (L, B) of the unfolded eigen-pencil on the interior unknowns."""
    y_int, D2i, P4i, *_ = spectrum._clamped_blocks(N)
    return spectrum._assemble(D2i, P4i, y_int, A, T)


def poiseuille_phase_speeds(reynolds, alpha, N):
    """Classical phase-speed spectrum of the parabolic profile, via QZ.

    Independent route for the mapping check lambda = -i alpha Re c: the
    same pencil is posed for c directly with modes ~ exp(i alpha (x - c t))
    in units of the profile maximum, and solved by the QZ algorithm
    instead of the Dirichlet-inverse reduction.
    """
    L, B = pencil(-reynolds / 3.0, alpha, N)
    return sla.eigvals(L, -1j * alpha * reynolds * B, check_finite=False)


def small_at_certificate(AT_bound, samples, N):
    """True iff every sampled (A, T) with |A T| <= AT_bound is stable at degree N."""
    if AT_bound <= 0.0:
        raise DomainError("AT_bound must be positive")
    for A, T in samples:
        if abs(A * T) > AT_bound:
            continue
        res = os_spectrum(A, T, N, with_vectors=False)
        if res.leading.real >= 0.0:
            return False
    return True


class TestSpectrum:
    def test_self_adjoint_limit_is_real_negative(self):
        res = os_spectrum(0.0, 1.0, 120, with_vectors=False)
        assert np.abs(res.eigenvalues.imag).max() <= 1e-8
        assert res.eigenvalues.real.max() < -1.0

    def test_small_amplitude_stable(self):
        res = os_spectrum(-0.1, 1.0, 120, with_vectors=False)
        assert res.leading.real < 0.0
        assert res.n_resolved >= 10

    def test_leading_matches_phase_speed_oracle(self):
        # lambda = -i T (-3A) c against an independent QZ solve for c; the
        # QZ route carries ~1e-6 algorithmic roundoff at large amplitude,
        # so the cross-algorithm comparison is held at 1e-5
        for reynolds, alpha, N in ((2000.0, 1.0, 120), (10000.0, 1.0, 200)):
            lam = leading_eigenvalue(-reynolds / 3.0, alpha, N)
            cs = poiseuille_phase_speeds(reynolds, alpha, N)
            c_lead = cs[np.argmax(cs.imag)]
            mapped = -1j * alpha * reynolds * c_lead
            assert abs(lam - mapped) / abs(lam) <= 1e-5

    def test_most_unstable_mode_matches_literature(self):
        # the mapping itself is exact: the mapped eigenvalue reproduces the
        # reference phase speed of the classical mode to ~1e-9
        lam = leading_eigenvalue(-10000.0 / 3.0, 1.0, 200)
        c_mapped = lam / (-1j * 1.0 * 10000.0)
        assert c_mapped == pytest.approx(ORSZAG_C, abs=1e-7)
        cs = poiseuille_phase_speeds(10000.0, 1.0, 200)
        c_lead = cs[np.argmax(cs.imag)]
        assert c_lead == pytest.approx(ORSZAG_C, abs=1e-5)

    def test_near_critical_leading_eigenvalue(self):
        lam = leading_eigenvalue(-CRIT_RE / 3.0, CRIT_ALPHA, 200)
        assert abs(lam.real) <= 1e-3
        assert lam.imag == pytest.approx(-CRIT_ALPHA * CRIT_RE * CRIT_C, rel=1e-4)

    def test_resolution_failure_raises(self):
        with pytest.raises(ResolutionError):
            os_spectrum(-CRIT_RE / 3.0, 1.0, 24, with_vectors=False)

    def test_continuity_in_amplitude(self):
        amps = np.linspace(100.0, 400.0, 7)
        lams = [leading_eigenvalue(-a / 3.0, 1.0, 120) for a in amps]
        steps = np.abs(np.diff(lams))
        d_amp = amps[1] - amps[0]
        assert steps.max() <= 2.0 * d_amp  # no jumps beyond the tracked scale

    def test_nonpositive_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            os_spectrum(-1.0, 0.0, 120)

    # both entry points share one check: finite A, finite T > 0
    @pytest.mark.parametrize("A, T", [
        (-1900.0, 0.0), (-1900.0, -1.0), (float("nan"), 1.0), (-1900.0, float("inf")),
        (float("inf"), 1.0),
    ])
    @pytest.mark.parametrize("call", [
        lambda A, T: leading_eigenvalue(A, T, 40),
        lambda A, T: leading_eigenvalue(A, T, 40, sensitivity=True),
        lambda A, T: os_spectrum(A, T, 40),
    ], ids=["leading", "leading-sensitivity", "os_spectrum"])
    def test_hostile_parameters_raise_domain_error(self, call, A, T):
        with pytest.raises(DomainError):
            call(A, T)


class TestEnergyIdentity:
    def test_resolved_pairs(self):
        res = os_spectrum(-2.0, 1.3, 120)
        for i in (0, 2, 5):
            r = verify_energy_identity(res.A, res.T, res.eigenfunction(i), res.eigenvalues[i])
            assert r <= 1e-8

    def test_scaling_invariance(self):
        res = os_spectrum(-2.0, 1.3, 120)
        phi, d1, d2 = res.eigenfunction(0)
        r1 = verify_energy_identity(res.A, res.T, (phi, d1, d2), res.eigenvalues[0])
        r2 = verify_energy_identity(res.A, res.T, (2 * phi, 2 * d1, 2 * d2), res.eigenvalues[0])
        assert r2 == pytest.approx(r1, rel=1e-10)

    def test_self_adjoint_case(self):
        res = os_spectrum(0.0, 1.0, 120)
        r = verify_energy_identity(0.0, 1.0, res.eigenfunction(0), res.eigenvalues[0])
        assert r <= 1e-10


class TestCertificate:
    def test_small_band_is_stable(self):
        samples = [
            (-a / 3.0, t)
            for a in np.linspace(0.05, 1.45, 5)
            for t in np.linspace(0.3, 1.5, 5)
        ]
        assert small_at_certificate(0.5, samples, 120)

    def test_unstable_point_fails_certificate(self):
        samples = [(-10000.0 / 3.0, 1.0), (-1924.0, 1.02)]
        assert not small_at_certificate(4000.0, samples, 160)

    def test_zero_amplitude_trivially_stable(self):
        assert small_at_certificate(0.5, [(0.0, t) for t in (0.5, 1.0, 1.5)], 120)

    def test_bound_must_be_positive(self):
        with pytest.raises(DomainError):
            small_at_certificate(-1.0, [], 120)


class TestSensitivity:
    @pytest.mark.parametrize("N", [96, 200, 300])
    def test_derivatives_match_central_differences(self, N):
        # d lambda / da (a = -3A, T fixed) and d lambda / dT (A fixed) from
        # the bordered solve, near the neutral point where the search uses them
        a, T, ha, hT = 5772.22, 1.0205, 1e-2, 1e-5
        lam, d_a, d_T, _, _ = leading_eigenvalue(-a / 3.0, T, N, sensitivity=True)
        assert lam == leading_eigenvalue(-a / 3.0, T, N)
        fd_a = (leading_eigenvalue(-(a + ha) / 3.0, T, N)
                - leading_eigenvalue(-(a - ha) / 3.0, T, N)) / (2.0 * ha)
        fd_T = (leading_eigenvalue(-a / 3.0, T + hT, N)
                - leading_eigenvalue(-a / 3.0, T - hT, N)) / (2.0 * hT)
        assert abs(d_a - fd_a) <= 1e-5 * abs(fd_a)
        assert abs(d_T - fd_T) <= 1e-5 * abs(fd_T)

    @pytest.mark.parametrize("N", [96, 200])
    def test_second_derivatives_match_central_differences(self, N):
        # lambda_aT and lambda_TT against central differences in T of the
        # analytic lambda_a and lambda_T; hT = 1e-3 keeps the quotient's own
        # roundoff (about 4e-3 at N = 300 with hT = 1e-4) below its O(hT^2) error
        a, T, hT = 5772.22, 1.0205, 1e-3
        _, _, _, d_aT, d_TT = leading_eigenvalue(-a / 3.0, T, N, sensitivity=True)
        up = leading_eigenvalue(-a / 3.0, T + hT, N, sensitivity=True)
        down = leading_eigenvalue(-a / 3.0, T - hT, N, sensitivity=True)
        assert abs(d_aT - (up[1] - down[1]) / (2.0 * hT)) <= 1e-5 * abs(d_aT)
        assert abs(d_TT - (up[2] - down[2]) / (2.0 * hT)) <= 1e-5 * abs(d_TT)

    def test_second_derivative_is_resolved(self):
        # the leading mode is resolved far below N = 200, and so is lambda_TT
        a, T = 5772.2218, 1.0205475
        d200 = leading_eigenvalue(-a / 3.0, T, 200, sensitivity=True)[4]
        d300 = leading_eigenvalue(-a / 3.0, T, 300, sensitivity=True)[4]
        assert abs(d200 - d300) <= 1e-8 * abs(d300)

    @pytest.mark.parametrize("N", [96, 200])
    def test_derivatives_match_left_right_eig(self, N):
        # lambda and its first derivatives (zip stops at the reference's three)
        # against LAPACK's left and right eigenvectors
        for a, T in ((5772.22, 1.0205), (2000.0, 0.8), (8000.0, 1.2)):
            got = leading_eigenvalue(-a / 3.0, T, N, sensitivity=True)
            want = scipy_sensitivities(-a / 3.0, T, N)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * abs(w)

    def test_right_vector_of_an_exactly_singular_shift(self):
        # lambda an eigenvalue to the last bit: R is shifted, not solved singular
        R = np.diag([1.0, 0.0, 3.0]).astype(complex)
        x = spectrum._null_vector(R)
        assert abs(abs(x[1]) - 1.0) <= 1e-12
        assert np.abs(x[[0, 2]]).max() <= 1e-12


def scipy_sensitivities(A, T, N):
    """Reference (lambda, dlambda/da, dlambda/dT) from scipy's left/right eig of B^-1 L."""
    y_int, D2i, *_ = spectrum._clamped_blocks(N)
    L, B = pencil(A, T, N)
    lu = sla.lu_factor(B)
    vals, left, right = sla.eig(sla.lu_solve(lu, L), left=True, right=True)
    i = int(np.argmax(vals.real))
    lam, u, x = vals[i], left[:, i], right[:, i]
    w = sla.lu_solve(lu, u, trans=1)  # w^H = u^H B^-1
    y2 = 1.0 - y_int**2
    shear_x = y2 * (B @ x) + 2.0 * x
    dT_x = (-4.0 * T * (D2i @ x) + 4.0 * T**3 * x + 3j * A * shear_x
            - 6j * A * T**2 * y2 * x + 2.0 * T * lam * x)
    den = np.vdot(u, x)
    return lam, np.vdot(w, -1j * T * shear_x) / den, np.vdot(w, dT_x) / den


def dense_eig(A, T, N, with_vectors=False):
    """Reference spectrum: the full pencil, one dense solve and eigen-solve."""
    L, B = pencil(A, T, N)
    M = sla.solve(B, L)
    return sla.eig(M) if with_vectors else sla.eigvals(M)


def backward_errors(A, T, N, vals, vecs):
    """||L x - lambda B x|| / ((||L|| + |lambda| ||B||) ||x||) per eigenpair."""
    L, B = pencil(A, T, N)
    res = np.linalg.norm(L @ vecs - (B @ vecs) * vals, axis=0)
    scale = np.linalg.norm(L, 2) + np.abs(vals) * np.linalg.norm(B, 2)
    return res / (scale * np.linalg.norm(vecs, axis=0))


class TestParitySplit:
    # the folded solve (one block per y-parity) against the full pencil

    @pytest.mark.parametrize("A, T", [(-0.2, 1.0), (-2.0, 1.3)])
    @pytest.mark.parametrize("N", [24, 25, 120, 201])
    def test_matches_dense_solve(self, N, A, T):
        vals, vecs = spectrum._eig(A, T, N, with_vectors=True)
        ref_vals, ref_vecs = dense_eig(A, T, N, with_vectors=True)
        assert vals.shape == ref_vals.shape == (N - 1,) and vecs.shape == (N - 1, N - 1)
        # same multiset: nearest partners both ways, and a one-to-one pairing
        dist = np.abs(vals[:, None] - ref_vals[None, :])
        assert (dist.min(axis=1) <= 1e-9 * np.abs(vals)).all()
        assert (dist.min(axis=0) <= 1e-9 * np.abs(ref_vals)).all()
        assert len(set(dist.argmin(axis=1))) == N - 1
        worst_ref = backward_errors(A, T, N, ref_vals, ref_vecs).max()
        assert (backward_errors(A, T, N, vals, vecs) <= 10.0 * worst_ref).all()

    def test_blocks_are_even_then_odd(self):
        N = 25
        vals, vecs = spectrum._eig(-2.0, 1.3, N, with_vectors=True)
        n_even = (N - 1) - (N - 1) // 2
        mirrored = vecs[::-1]
        assert np.abs(mirrored[:, :n_even] - vecs[:, :n_even]).max() <= 1e-15
        assert np.abs(mirrored[:, n_even:] + vecs[:, n_even:]).max() <= 1e-15
        assert np.linalg.norm(vecs, axis=0) == pytest.approx(np.ones(N - 1), rel=1e-13)

    def test_matches_qz_at_the_neutral_point(self):
        # acceptance-08 point; QZ keeps ~1e-7 in c at N = 200 but loses
        # accuracy at N = 300 (7e-6 in c), so the cross-algorithm check is at 200
        a, T = 5772.2218, 1.0205475
        lam = leading_eigenvalue(-a / 3.0, T, 200)
        cs = poiseuille_phase_speeds(a, T, 200)
        c_qz = cs[np.argmax(cs.imag)]
        c_mapped = lam / (-1j * T * a)
        assert abs(c_mapped - c_qz) <= 1e-6
        assert c_mapped.real == pytest.approx(CRIT_C, abs=1e-5)
        assert abs(lam.real) <= 1e-6
        ref = dense_eig(-a / 3.0, T, 300)
        assert abs(leading_eigenvalue(-a / 3.0, T, 300) - ref[np.argmax(ref.real)]) <= 1e-10 * abs(lam)

    def test_resolved_counts_match_dense_path(self, monkeypatch):
        # seeded draws from the stable box |A T| <= 0.5 that the spectrum
        # command is benchmarked on; leading eigenvalues agree at roundoff
        # (the dense path and its transposed twin B^-T L^T differ by up to
        # 1.2e-10 relative on these draws, the folded path by 1.5e-10)
        rng = np.random.default_rng(2024)
        draws = []
        for _ in range(30):
            T = float(rng.uniform(0.5, 2.0))
            draws.append((-float(rng.uniform(0.05, 0.5)) / T, T))
        folded = [os_spectrum(A, T, 120, with_vectors=False) for A, T in draws]
        monkeypatch.setattr(spectrum, "_eig", dense_eig)
        for (A, T), got in zip(draws, folded):
            want = os_spectrum(A, T, 120, with_vectors=False)
            assert got.n_resolved == want.n_resolved
            assert abs(got.leading - want.leading) <= 1e-9 * abs(want.leading)

    def test_asymmetric_operators_rejected(self, monkeypatch):
        # the fold is only valid for reflection-symmetric interior operators
        from cpflow import spectral

        exact = spectral.chebyshev_diff

        def skewed(N):
            D = exact(N)
            D[1, 2] *= 1.0 + 1e-9
            return D

        monkeypatch.setattr(spectral, "chebyshev_diff", skewed)
        with pytest.raises(ResolutionError):
            spectrum._clamped_blocks.__wrapped__(31)


@pytest.fixture(scope="module")
def quick_point():
    return neutral_search(
        (0.9, 1.15), (5600.0, 6000.0), tol=1e-4, N=96, N_check=144,
        T_tol=1e-5, agreement_rtol=5e-3,
    )


class TestNeutralSearch:
    def test_matches_classical_critical_point(self, quick_point):
        assert -3.0 * quick_point.A1 == pytest.approx(CRIT_RE, rel=2e-3)
        assert quick_point.T0 == pytest.approx(CRIT_ALPHA, rel=2e-3)

    def test_neutral_point_invariants(self, quick_point):
        assert abs(quick_point.lambda1.real) <= 1e-4
        assert quick_point.lambda1.imag < 0.0
        assert quick_point.C_counter < 3.0 * abs(quick_point.A1)

    def test_reversal_confirmed(self, quick_point):
        assert quick_point.reversal_confirmed
        rep = check_admissibility(quick_point.profile())
        assert rep.reversal and not rep.satisfies_abc

    def test_phase_speed_in_profile_units(self, quick_point):
        c = -quick_point.lambda1.imag / (quick_point.T0 * (-3.0 * quick_point.A1))
        assert c == pytest.approx(CRIT_C, rel=1e-3)

    def test_trace_records_iterates(self, quick_point):
        # one entry per evaluation, at N_COARSE, N and N_check; the last is
        # the converged N_check iterate
        for entry in quick_point.trace:
            assert set(entry) == {"A", "T", "re", "im", "N"}
        assert {e["N"] for e in quick_point.trace} == {64, 96, 144}
        last = quick_point.trace[-1]
        assert last["N"] == 144 and abs(last["re"]) <= 1e-4
        assert (last["A"], last["T"]) == (quick_point.A1, quick_point.T0)

    def test_every_evaluation_is_one_traced_call(self, monkeypatch):
        # each evaluation goes through the module-global leading_eigenvalue
        # and appends one trace entry; the final lambda1 solve is the +1
        calls = []
        inner = spectrum.leading_eigenvalue

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(spectrum, "leading_eigenvalue", counting)
        npt = spectrum.neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96,
                                      N_check=144, T_tol=1e-4, agreement_rtol=5e-3)
        assert len(calls) == len(npt.trace) + 1

    def test_acceptance_settings_evaluation_count(self, neutral_full):
        npt, _elapsed = neutral_full
        assert len(npt.trace) <= 60
        assert abs(npt.trace[-1]["re"]) <= 1e-6
        assert -3.0 * npt.A1 == pytest.approx(CRIT_RE, rel=1e-3)

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            neutral_search((0.9, 1.15), (100.0, 200.0), tol=1e-3, N=96, N_check=96)

    def test_coarse_failure_falls_back_to_n(self, monkeypatch):
        # N = 16 cannot locate the crossing; the search then runs at N itself
        # and returns, bit for bit, the point of a search without a coarse stage
        def search(n_coarse):
            monkeypatch.setattr(spectrum, "N_COARSE", n_coarse)
            return neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96, N_check=144,
                                  T_tol=1e-4, agreement_rtol=5e-3)

        ref, npt = search(96), search(16)
        assert (npt.A1, npt.T0, npt.lambda1) == (ref.A1, ref.T0, ref.lambda1)
        n16 = [e["N"] for e in npt.trace].count(16)
        assert n16 > 0 and npt.trace[n16:] == ref.trace  # the N = 96 scans follow


class TestKernelWitness:
    def test_admissible_profiles_bounded_away_from_zero(self):
        g200 = build_grid(200)
        for p in (poiseuille_for_flux(4.0), Profile(0.0, 1.0, 1.0)):
            for xi in (0.7, 1.02056):
                assert kernel_witness(p, xi, g200) >= 1e-3

    def test_collapse_at_neutral_profile(self):
        g = build_grid(200)
        npt = neutral_search(
            (0.98, 1.07), (5700.0, 5850.0), tol=1e-6, N=200, N_check=200,
            T_tol=1e-5,
        )
        w = kernel_witness(npt.profile(), npt.T0, g)
        assert w <= 1e-6

    def test_decreases_toward_the_crossing(self):
        # perturb the neutral profile's constant: the witness must shrink
        # as the crossing is approached
        g = build_grid(200)
        A1 = -5772.221744060516 / 3.0
        C_star = 4248.353073492091
        T0 = 1.0205483748009962
        vals = [kernel_witness(Profile(A1, 0.0, C_star + dc), T0, g) for dc in (30.0, 3.0, 0.0)]
        assert vals[0] > vals[1] > vals[2]
