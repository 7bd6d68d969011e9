"""Grid configuration and shared tolerances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Root finding / factorization
ROOT_CLUSTER_RTOL = 1e-7      # multiplicity clustering radius (relative)
PAIRING_RTOL = 1e-6           # (r, 1/conj(r)) pair matching, circle classification
INTERIOR_TOL = 1e-10          # |root| < 1 - INTERIOR_TOL counts as interior

# Space / element validation
MATE_RESIDUAL_TOL = 1e-10     # float-backend residual of the mate relation
PYTHAGOREAN_TOL = 1e-10       # mate's l1 residual; |1-|b|^2| of an extreme b

# Boundary point tests
ATOM_LOCATION_TOL = 1e-8      # | |zeta| - 1 | for Clark atom candidates
POINT_ZERO_TOL = 1e-9         # |f(lambda)| below this counts as a zero
ANGLE_WRAP_TOL = 1e-9         # angles this close to 0 or 2*pi read as 0

# Quadrature / transform checks
MASS_RTOL = 1e-6              # Clark total-mass conservation
MEMBERSHIP_TOL = 1e-6         # two-sided pseudocontinuation membership residual
REFIT_RESIDUAL_TOL = 1e-8     # symbolic-vs-quadrature agreement for transforms
SV_KERNEL_THRESHOLD = 1e-6    # near-kernel singular value threshold
KERNEL_TAIL_TOL = 1e-12       # Taylor tail bound for kernel truncation

_MAX_GRID = 1 << 20


@dataclass(frozen=True)
class GridConfig:
    """Boundary sampling and radial-limit configuration.

    n is the number of uniformly spaced sample points (roots of unity),
    quadrature is the uniform trapezoid rule on those points, and the
    radial sequence used for boundary limits is r_k = 1 - 2^-k for
    k0 <= k <= k1.
    """

    n: int = 4096
    k0: int = 6
    k1: int = 16

    def __post_init__(self):
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise ValueError("sample count must be a power of two >= 256")
        if not (self.k0 >= 3 and self.k1 > self.k0):
            raise ValueError("radial sequence needs k1 > k0 >= 3")

    def points(self) -> np.ndarray:
        return unit_circle_points(self.n)

    def radii(self) -> np.ndarray:
        ks = np.arange(self.k0, self.k1 + 1)
        return 1.0 - 0.5 ** ks


DEFAULT_GRID = GridConfig()


@lru_cache(maxsize=32)
def unit_circle_points(n: int) -> np.ndarray:
    """The n-th roots of unity, counterclockwise from 1."""
    pts = np.exp(2j * np.pi * np.arange(n) / n)
    pts.flags.writeable = False
    return pts


def circle_angle(z) -> float:
    """Angle of z in [0, 2*pi), 0 within ANGLE_WRAP_TOL of 0 or 2*pi."""
    a = float(np.angle(z)) % (2 * np.pi)
    return 0.0 if min(a, 2 * np.pi - a) <= ANGLE_WRAP_TOL else a
