import numpy as np
import pytest

from cpflow.errors import DomainError
from cpflow.profiles import (
    Profile,
    base_pressure_gradient,
    check_admissibility,
    couette,
    eval_profile,
    flux,
    poiseuille_for_flux,
)


def constant_flow(c):
    """Uniform profile F(y) = c."""
    if c == 0.0:
        raise DomainError("constant profile needs a nonzero speed")
    return Profile(A=0.0, B=0.0, C=c)


def profile_from_dict(d):
    """Inverse of ``Profile.to_dict``."""
    return Profile(float(d["A"]), float(d["B"]), float(d["C"]))


def random_profile(rng):
    return Profile(*(rng.uniform(-3, 3, size=3)))


def random_admissible(rng):
    A = -rng.uniform(0.0, 3.0)
    C = rng.uniform(-3.0 * A, -3.0 * A + 4.0) + 0.5
    B = rng.uniform(-1.0, 1.0) * (3.0 * A + C)
    return Profile(A, B, C)


class TestEvalProfile:
    def test_poiseuille_centerline(self):
        p = Profile(-1.0, 0.0, 3.0)
        F, Fp, Fpp = eval_profile(p, 0.0)
        assert (F, Fp, Fpp) == (3.0, 0.0, -6.0)

    def test_couette_wall(self):
        p = Profile(0.0, 1.0, 1.0)
        F, Fp, Fpp = eval_profile(p, -1.0)
        assert (F, Fp, Fpp) == (0.0, 1.0, 0.0)

    def test_centerline_is_constant_coefficient(self, rng):
        for _ in range(10):
            p = random_profile(rng)
            F, _, _ = eval_profile(p, 0.0)
            assert F == p.C

    def test_outside_channel_rejected(self):
        with pytest.raises(DomainError):
            eval_profile(Profile(-1.0, 0.0, 3.0), 1.5)


class TestAdmissibility:
    def test_poiseuille(self):
        rep = check_admissibility(Profile(-1.0, 0.0, 3.0))
        assert rep.satisfies_abc
        assert not rep.reversal
        assert rep.flux == 4.0

    def test_constant_flow(self):
        rep = check_admissibility(Profile(0.0, 0.0, 1.0))
        assert rep.satisfies_abc
        assert rep.flux == 2.0

    def test_reversal_counterexample_parameters(self):
        rep = check_admissibility(Profile(-1924.07, 0.0, 5771.96))
        assert not rep.satisfies_abc  # 3A + C < 0
        assert rep.reversal

    def test_reversal_from_neutral_point(self):
        # the actual counterexample family: C = -3A + Im(lambda1)/T0 < 3|A|
        rep = check_admissibility(Profile(-1924.074, 0.0, 4248.35))
        assert not rep.satisfies_abc
        assert rep.reversal

    def test_narrow_wall_reversal_detected_exactly(self):
        # sign change confined to a band ~1e-8 wide near each wall
        A = -1.0
        C = -3.0 * A * (1.0 - 1e-8) - 0.0
        rep = check_admissibility(Profile(A, 0.0, C - 3e-8))
        assert rep.reversal

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            Profile(0.0, 0.0, 0.0)

    def test_positive_A_flagged_not_rejected(self):
        rep = check_admissibility(Profile(1.0, 0.0, 1.0))
        assert not rep.satisfies_abc


class TestPoiseuilleForFlux:
    def test_flux_four(self):
        p = poiseuille_for_flux(4.0)
        assert (p.A, p.B, p.C) == (-1.0, 0.0, 3.0)

    def test_centerline_speed(self):
        p = poiseuille_for_flux(1.0)
        assert eval_profile(p, 0.0)[0] == pytest.approx(0.75, abs=0.0)

    def test_flux_round_trip(self, rng):
        for _ in range(20):
            phi = rng.uniform(0.1, 50.0)
            assert flux(poiseuille_for_flux(phi)) == pytest.approx(phi, rel=1e-15)

    def test_nonpositive_flux_rejected(self):
        with pytest.raises(DomainError):
            poiseuille_for_flux(0.0)
        with pytest.raises(DomainError):
            poiseuille_for_flux(-1.0)


class TestBasePressureGradient:
    def test_poiseuille(self):
        assert base_pressure_gradient(Profile(-1.0, 0.0, 3.0)) == -6.0

    def test_couette_has_none(self):
        assert base_pressure_gradient(couette(1.0)) == 0.0

    def test_linear_in_A(self):
        assert base_pressure_gradient(Profile(-2.0, 0.7, 5.0)) == -12.0


class TestProperties:
    def test_flux_matches_quadrature(self, rng, grid32):
        for _ in range(20):
            p = random_profile(rng)
            integral = grid32.quad(p.F(grid32.nodes))
            assert abs(integral - flux(p)) < 1e-12

    def test_no_reversal_implies_interior_positivity(self, rng):
        ys = np.linspace(-1.0, 1.0, 2001)[1:-1]
        for _ in range(30):
            p = random_admissible(rng)
            rep = check_admissibility(p)
            assert rep.satisfies_abc
            assert np.all(p.F(ys) > 0.0)
            assert p.F(-1.0) >= 0.0 and p.F(1.0) >= 0.0
            assert rep.min_F_interior >= 0.0

    def test_abc_implies_positive_mean_coefficient(self, rng):
        for _ in range(30):
            p = random_admissible(rng)
            assert 2.0 * p.A + p.B + 2.0 * p.C > 0.0

    def test_serialization_round_trip(self):
        p = Profile(-1.5, 0.25, 5.0)
        assert profile_from_dict(p.to_dict()) == p

    def test_constant_flow_constructor(self):
        assert flux(constant_flow(1.0)) == 2.0
