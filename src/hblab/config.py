"""Shared tolerances and the quadrature helpers' fixed sample count."""

from __future__ import annotations

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

# the sample count of the helpers that integrate a caller's callable,
# sample vector or density on the circle (trapezoid rule on the roots of
# unity); no verdict and no space construction samples the circle
QUADRATURE_POINTS = 4096


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
