"""Couette-Poiseuille base profiles F(y) = 3A y^2 + B y + C.

The channel is S = R x (-1, 1) with viscosity fixed to 1; the base flow
u* = F(y) e1 with pressure p* = 6A x solves the stationary Navier-Stokes
system for any coefficients.  The admissibility condition

    (A, B, C) != (0, 0, 0),   A <= 0,   |B| <= 3A + C,

guarantees F >= 0 on [-1, 1] and F > 0 on (-1, 1), i.e. absence of flow
reversal.  Profiles violating it are still constructible (the stability
counterexample needs them) but are flagged inadmissible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Profile",
    "AdmissibilityReport",
    "eval_profile",
    "check_admissibility",
    "poiseuille_for_flux",
    "couette",
    "base_pressure_gradient",
    "flux",
]


@dataclass(frozen=True)
class Profile:
    """Quadratic base-flow coefficients; F(y) = 3A y^2 + B y + C."""

    A: float
    B: float
    C: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.A, self.B, self.C))):
            raise DomainError(f"profile coefficients must be finite, got {self}")
        if self.A == 0.0 and self.B == 0.0 and self.C == 0.0:
            raise DomainError("profile coefficients must not all vanish")

    def F(self, y):
        return 3.0 * self.A * y * y + self.B * y + self.C

    def Fp(self, y):
        return 6.0 * self.A * y + self.B

    def to_dict(self):
        """Flat record used by the JSON result schema."""
        return {"A": self.A, "B": self.B, "C": self.C}


@dataclass(frozen=True)
class AdmissibilityReport:
    satisfies_abc: bool
    min_F_interior: float
    reversal: bool
    flux: float


def eval_profile(p, y):
    """Return (F, F', F'') at y; y must lie in the channel [-1, 1]."""
    ya = np.asarray(y, dtype=float)
    if np.any(np.abs(ya) > 1.0):
        raise DomainError(f"y = {y} outside the channel [-1, 1]")
    return p.F(y), p.Fp(y), 6.0 * p.A


def flux(p):
    """Cross-sectional volume flow, exactly 2(A + C)."""
    return 2.0 * (p.A + p.C)


def base_pressure_gradient(p):
    """Constant streamwise pressure gradient of the base flow.

    The value 6A balances -F''(y) in the streamwise momentum equation,
    so for the pure Poiseuille profile of flux Phi it equals -(3/2) Phi.
    """
    return 6.0 * p.A


def _quadratic_range(p):
    """Exact min/max of F over the closed interval [-1, 1]."""
    candidates = [p.F(-1.0), p.F(1.0)]
    if p.A != 0.0:
        y_v = -p.B / (6.0 * p.A)
        if -1.0 < y_v < 1.0:
            candidates.append(p.F(y_v))
    return min(candidates), max(candidates)


def check_admissibility(p):
    """Classify the profile: no-reversal condition, sign range, flux.

    Reversal is decided by exact root analysis of the quadratic (the
    interesting counterexample profiles change sign in bands only a few
     1e-4 wide near the walls, far below any sampling resolution).
    ``min_F_interior`` is the exact infimum of F over the open channel;
    the no-reversal condition makes it nonnegative, with value 0 exactly
    when F has a simple zero at a wall (e.g. pure Poiseuille).
    """
    nonzero = not (p.A == 0.0 and p.B == 0.0 and p.C == 0.0)
    satisfies = nonzero and p.A <= 0.0 and abs(p.B) <= 3.0 * p.A + p.C
    fmin, fmax = _quadratic_range(p)
    # sign change on [-1, 1] <=> the exact range straddles zero
    reversal = fmin < 0.0 < fmax
    return AdmissibilityReport(
        satisfies_abc=bool(satisfies),
        min_F_interior=float(fmin),
        reversal=bool(reversal),
        flux=flux(p),
    )


def poiseuille_for_flux(phi):
    """Poiseuille profile F(y) = (3/4) Phi (1 - y^2) carrying flux Phi."""
    if not (phi > 0.0) or not math.isfinite(phi):
        raise DomainError(f"flux must be positive, got {phi}")
    return Profile(A=-phi / 4.0, B=0.0, C=3.0 * phi / 4.0)


def couette(b):
    """Couette profile F(y) = b (1 + y)."""
    if b == 0.0:
        raise DomainError("Couette profile needs a nonzero shear rate")
    return Profile(A=0.0, B=b, C=b)
