import numpy as np
import pytest

from cpflow.errors import BracketError, DomainError, ResolutionError
from cpflow.profiles import Profile, check_admissibility, poiseuille_for_flux
from cpflow.spectral import build_grid
from cpflow import spectrum
from cpflow.spectrum import (
    kernel_witness,
    leading_eigenvalue,
    neutral_search,
    os_spectrum,
    poiseuille_phase_speeds,
    small_at_certificate,
    verify_energy_identity,
)

# classical reference values for the parabolic profile (velocity units of
# the profile maximum): critical amplitude, wavenumber, phase speed, and
# the most unstable mode at Re 10^4, alpha 1
CRIT_RE = 5772.22
CRIT_ALPHA = 1.02056
CRIT_C = 0.26400
ORSZAG_C = 0.23752649 + 0.00373967j


@pytest.fixture(scope="module")
def grid120():
    return build_grid(120)


class TestSpectrum:
    def test_self_adjoint_limit_is_real_negative(self, grid120):
        res = os_spectrum(0.0, 1.0, grid120, with_vectors=False)
        assert np.abs(res.eigenvalues.imag).max() <= 1e-8
        assert res.eigenvalues.real.max() < -1.0

    def test_small_amplitude_stable(self, grid120):
        res = os_spectrum(-0.1, 1.0, grid120, with_vectors=False)
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
            os_spectrum(-CRIT_RE / 3.0, 1.0, build_grid(24), with_vectors=False)

    def test_continuity_in_amplitude(self, grid120):
        amps = np.linspace(100.0, 400.0, 7)
        lams = [leading_eigenvalue(-a / 3.0, 1.0, 120) for a in amps]
        steps = np.abs(np.diff(lams))
        d_amp = amps[1] - amps[0]
        assert steps.max() <= 2.0 * d_amp  # no jumps beyond the tracked scale

    def test_nonpositive_wavenumber_rejected(self, grid120):
        with pytest.raises(DomainError):
            os_spectrum(-1.0, 0.0, grid120)


class TestEnergyIdentity:
    def test_resolved_pairs(self, grid120):
        res = os_spectrum(-2.0, 1.3, grid120)
        for i in (0, 2, 5):
            r = verify_energy_identity(res.A, res.T, res.eigenfunction(i), res.eigenvalues[i])
            assert r <= 1e-8

    def test_scaling_invariance(self, grid120):
        res = os_spectrum(-2.0, 1.3, grid120)
        phi, d1, d2 = res.eigenfunction(0)
        r1 = verify_energy_identity(res.A, res.T, (phi, d1, d2), res.eigenvalues[0])
        r2 = verify_energy_identity(res.A, res.T, (2 * phi, 2 * d1, 2 * d2), res.eigenvalues[0])
        assert r2 == pytest.approx(r1, rel=1e-10)

    def test_self_adjoint_case(self, grid120):
        res = os_spectrum(0.0, 1.0, grid120)
        r = verify_energy_identity(0.0, 1.0, res.eigenfunction(0), res.eigenvalues[0])
        assert r <= 1e-10


class TestCertificate:
    def test_small_band_is_stable(self, grid120):
        samples = [
            (-a / 3.0, t)
            for a in np.linspace(0.05, 1.45, 5)
            for t in np.linspace(0.3, 1.5, 5)
        ]
        assert small_at_certificate(0.5, samples, grid120)

    def test_unstable_point_fails_certificate(self):
        grid = build_grid(160)
        samples = [(-10000.0 / 3.0, 1.0), (-1924.0, 1.02)]
        assert not small_at_certificate(4000.0, samples, grid)

    def test_zero_amplitude_trivially_stable(self, grid120):
        assert small_at_certificate(0.5, [(0.0, t) for t in (0.5, 1.0, 1.5)], grid120)

    def test_bound_must_be_positive(self, grid120):
        with pytest.raises(DomainError):
            small_at_certificate(-1.0, [], grid120)


class TestSensitivity:
    @pytest.mark.parametrize("N", [96, 200, 300])
    def test_derivatives_match_central_differences(self, N):
        # d lambda / da (a = -3A, T fixed) and d lambda / dT (A fixed) from
        # the left/right eigenvectors, near the neutral point where the
        # search uses them
        a, T, ha, hT = 5772.22, 1.0205, 1e-2, 1e-5
        lam, d_a, d_T = leading_eigenvalue(-a / 3.0, T, N, sensitivity=True)
        assert abs(lam - leading_eigenvalue(-a / 3.0, T, N)) <= 1e-10 * abs(lam)
        fd_a = (leading_eigenvalue(-(a + ha) / 3.0, T, N)
                - leading_eigenvalue(-(a - ha) / 3.0, T, N)) / (2.0 * ha)
        fd_T = (leading_eigenvalue(-a / 3.0, T + hT, N)
                - leading_eigenvalue(-a / 3.0, T - hT, N)) / (2.0 * hT)
        assert abs(d_a - fd_a) <= 1e-5 * abs(fd_a)
        assert abs(d_T - fd_T) <= 1e-5 * abs(fd_T)


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
        # one entry per evaluation; the last is the converged N_check iterate
        for entry in quick_point.trace:
            assert set(entry) == {"A", "T", "re", "im", "N"}
        assert {e["N"] for e in quick_point.trace} == {96, 144}
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

    def test_acceptance_settings_evaluation_count(self):
        npt = neutral_search((0.8, 1.3), (5000.0, 6500.0), tol=1e-6, N=200, N_check=300)
        assert len(npt.trace) <= 60
        assert abs(npt.trace[-1]["re"]) <= 1e-6
        assert -3.0 * npt.A1 == pytest.approx(CRIT_RE, rel=1e-3)

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            neutral_search((0.9, 1.15), (100.0, 200.0), tol=1e-3, N=96, N_check=96)


class TestKernelWitness:
    def test_admissible_profiles_bounded_away_from_zero(self, grid120):
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
