"""Aleksandrov-Clark measures of b and the normalized Cauchy transform.

Each measure splits into the density |phi_alpha|^2 = (1-|b|^2)/|alpha-b|^2
against normalized Lebesgue measure plus finitely many atoms at the
unimodular solutions of b = alpha.  A measure costs one root solve, of
q - conj(alpha) p: its circle roots are the atoms, and together with the
alpha-free roots of a.num*q and a.den (cached on the space) its roots
give the cancelled density root phi_alpha = a.num*q / (a.den*(q -
conj(alpha) p)), whose remaining denominator roots set the singular flag
and the pole checks.  Atom masses come from the radial limit of the
Herglotz transform, accelerated by Richardson extrapolation; no closed
form is assumed, and the total mass is checked against the transform's
value at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import config, poly
from .boundary import (CircleMeasure, UnitCircleFunction, cancel_common_roots,
                       cancel_with_roots)
from .errors import DomainError, MembershipError
from .hb import HbSpace

_ALPHA_SWEEP = 64


def phi_alpha(space: HbSpace, alpha: complex) -> UnitCircleFunction:
    """The outer density root a/(1 - conj(alpha) b) as a rational function.

    Flagged boundary-singular when the denominator keeps circle zeros
    after cancellation.  At an atom zeta of a valid space b - alpha has a
    simple zero (b'(zeta) != 0 by Julia-Caratheodory) that cancels against
    the zero of a, so the flag stays off there.
    """
    return _density_root(space, _unimodular(alpha))[0]


def _density_root(space: HbSpace, alpha: complex):
    """(phi_alpha, roots of q - conj(alpha) p) from one root solve."""
    qa = poly.psub(space.q, np.conj(alpha) * space.p)
    qa_roots = poly.roots_with_multiplicity(qa) if poly.degree(qa) >= 1 \
        else []
    num_roots, den_roots = space.phi_roots()
    num, den, left = cancel_with_roots(
        poly.pmul(space.a.num, space.q), poly.pmul(space.a.den, qa),
        num_roots, list(den_roots) + qa_roots, tol=1e-7)
    singular = any(abs(abs(r) - 1) <= config.PAIRING_RTOL for r, _m in left)
    root = UnitCircleFunction.rational(num, den, boundary_singular=singular,
                                       den_roots=left)
    return root, qa_roots


def _unimodular(alpha: complex) -> complex:
    alpha = complex(alpha)
    if abs(abs(alpha) - 1) > 1e-9:
        raise DomainError(f"|alpha| = {abs(alpha):.12g}, expected 1")
    return alpha / abs(alpha)


def herglotz_value(space: HbSpace, alpha: complex, z: complex) -> complex:
    """(1 + conj(alpha) b(z)) / (1 - conj(alpha) b(z))."""
    w = np.conj(alpha) * complex(space.b(z))
    return (1 + w) / (1 - w)


def radial_atom_mass(h_fn: Callable[[complex], complex], zeta: complex,
                     grid: config.GridConfig = config.DEFAULT_GRID):
    """Atom mass of the measure behind a Herglotz transform.

    Extrapolates (1-r)/(1+r) * Re h(r zeta) along the configured radii;
    returns (mass, error_estimate).
    """
    radii = grid.radii()
    g = np.array([((1 - r) / (1 + r)) * np.real(h_fn(r * zeta))
                  for r in radii])
    mass, err = _richardson(g)
    return float(mass), err


def _richardson(samples: np.ndarray):
    """(limit, error_estimate) of samples taken at r_k = 1 - 2^-k.

    Two Richardson levels remove the O(1-r) and O((1-r)^2) terms; the
    error estimate is the gap between the last two extrapolants.  Three
    samples allow one level, two samples none (infinite error).
    """
    t1 = 2 * samples[1:] - samples[:-1]
    if t1.size < 2:
        return samples[-1], float("inf")
    t2 = (4 * t1[1:] - t1[:-1]) / 3
    if t2.size < 2:
        return t1[-1], float(abs(t1[-1] - t1[-2]))
    return t2[-1], float(abs(t2[-1] - t2[-2]))


@dataclass
class ClarkMeasure:
    """One Aleksandrov-Clark measure: density data plus an atom table."""

    alpha: complex
    density_root: UnitCircleFunction          # phi_alpha, cancelled form
    atoms: list                               # [(zeta, mass)]
    atom_errors: list
    ac_mass: float
    herglotz_mass: float
    grid: config.GridConfig = field(default=config.DEFAULT_GRID)

    @property
    def total_mass(self) -> float:
        return self.ac_mass + sum(m for _z, m in self.atoms)

    @property
    def is_absolutely_continuous(self) -> bool:
        return not self.atoms

    def density_values(self, pts: np.ndarray) -> np.ndarray:
        return _modulus_sq(self.density_root, pts)

    def as_measure(self) -> CircleMeasure:
        return CircleMeasure(density=lambda pts: self.density_values(pts),
                             atoms=list(self.atoms))

    def csv_rows(self, density_samples: int = 512):
        """(alpha_angle, type, theta, value) rows for density and atoms."""
        a_ang = float(np.angle(self.alpha)) % (2 * np.pi)
        pts = config.unit_circle_points(density_samples)
        vals = self.density_values(pts)
        rows = [(a_ang, "ac", 2 * np.pi * j / density_samples, float(v))
                for j, v in enumerate(vals)]
        rows += [(a_ang, "atom", float(np.angle(z)) % (2 * np.pi), float(m))
                 for z, m in self.atoms]
        return rows


def clark_measure(space: HbSpace, alpha: complex,
                  grid: Optional[config.GridConfig] = None) -> ClarkMeasure:
    """Construct the Clark measure of the space at a unimodular alpha.

    Atom locations are the unimodular roots of the numerator of b - alpha;
    masses come from radial_atom_mass.  The absolutely continuous mass is
    quadrature of |phi_alpha|^2 with grid doubling until stable, and the
    total is validated against the Herglotz transform at the origin.
    """
    grid = grid or space.grid
    alpha = _unimodular(alpha)
    root, qa_roots = _density_root(space, alpha)
    atoms = []
    errors = []
    for r, _m in qa_roots:
        if abs(abs(r) - 1) <= config.ATOM_LOCATION_TOL:
            zeta = r / abs(r)
            mass, err = radial_atom_mass(
                lambda z: herglotz_value(space, alpha, z), zeta, grid)
            if mass <= 0:
                raise ArithmeticError(
                    f"nonpositive atom mass {mass:.3e} at {zeta:.6g}")
            atoms.append((zeta, mass))
            errors.append(err)
    hmass = float(np.real(herglotz_value(space, alpha, 0.0)))
    ac = _stable_ac_mass(root, grid, hmass)
    cm = ClarkMeasure(alpha=alpha, density_root=root, atoms=atoms,
                      atom_errors=errors, ac_mass=ac, herglotz_mass=hmass,
                      grid=grid)
    mismatch = abs(cm.total_mass - hmass)
    if mismatch > 10 * config.MASS_RTOL * max(1.0, abs(hmass)):
        raise ArithmeticError(
            f"mass conservation failed: atoms+ac = {cm.total_mass:.9g}, "
            f"transform value {hmass:.9g}")
    return cm


def clark_sweep(space: HbSpace, alphas=None) -> list:
    """[(alpha, ClarkMeasure)] over alphas (default alpha_sweep_values)."""
    if alphas is None:
        alphas = alpha_sweep_values(space)
    return [(a, clark_measure(space, a)) for a in alphas]


def _modulus_sq(root: UnitCircleFunction, pts: np.ndarray) -> np.ndarray:
    nv = poly.horner(root.num, pts)
    dv = poly.horner(root.den, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(nv) ** 2 / np.abs(dv) ** 2


def _stable_ac_mass(root: UnitCircleFunction, grid: config.GridConfig,
                    scale: float) -> float:
    """Trapezoid mean of |root|^2 over finite samples, doubling the grid
    until two levels agree.  Each doubling evaluates only the new (odd)
    nodes and adds them to the running sum of the coarser levels."""
    n = grid.n
    pts = config.unit_circle_points(n)
    total, count = 0.0, 0
    prev = None
    for _ in range(6):
        vals = _modulus_sq(root, pts)
        vals = vals[np.isfinite(vals)]
        total += float(np.sum(vals))
        count += vals.size
        cur = total / count
        if prev is not None and abs(cur - prev) <= 1e-7 * max(1.0, scale):
            return cur
        prev = cur
        if n >= (1 << 17):
            break
        n *= 2
        pts = config.unit_circle_points(n)[1::2]
    return prev


def alpha_sweep_values(space: HbSpace, count: int = _ALPHA_SWEEP) -> np.ndarray:
    """Equispaced unimodular targets plus b at each circle zero of a."""
    alphas = list(np.exp(2j * np.pi * np.arange(count) / count))
    for zeta in space.a_circle_zeros():
        val = complex(space.b(zeta))
        if abs(abs(val) - 1) <= 1e-8:
            alphas.append(val / abs(val))
    out = []
    for a in alphas:
        if not any(abs(a - b) <= 1e-10 for b in out):
            out.append(a)
    return np.array(out)


class NormalizedCauchyTransform:
    """V_alpha h = C_mu(h)/C_mu(1): analytic on the disk, from cached data.

    The absolutely continuous parts contribute the nonnegative Fourier
    coefficients of h * density (discrete transform, truncated at
    negligible size); atoms contribute closed-form Cauchy kernels.  For
    spaces normalized with b(0) = 0 the denominator transform equals
    1/(1 - conj(alpha) b); the quotient form stays correct without that
    normalization, where the measure is not a probability measure.
    """

    def __init__(self, space: HbSpace, measure: ClarkMeasure, h,
                 grid: Optional[config.GridConfig] = None):
        self.space = space
        self.measure = measure
        grid = grid or space.grid
        self.grid = grid
        pts = grid.points()
        h_fn = self._as_callable(h)
        dens = measure.density_values(pts)
        self.coeffs = self._plus_coeffs(h_fn(pts) * dens, grid.n)
        self.den_coeffs = self._plus_coeffs(dens.astype(complex), grid.n)
        self.atom_data = [(zeta, mass, complex(h_fn(np.array([zeta]))[0]))
                          for zeta, mass in measure.atoms]
        self.alpha = measure.alpha

    @staticmethod
    def _plus_coeffs(values: np.ndarray, n: int) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise MembershipError("integrand is singular on the grid; "
                                  "refine or pass a cancelled form")
        coeffs = np.fft.fft(values) / n
        plus = coeffs[: n // 2].copy()
        scale = float(np.max(np.abs(plus))) or 1.0
        keep = np.nonzero(np.abs(plus) > 1e-18 * scale)[0]
        return plus[: keep[-1] + 1] if keep.size else plus[:1]

    @staticmethod
    def _as_callable(h):
        if isinstance(h, UnitCircleFunction):
            return lambda pts: np.atleast_1d(h(pts))
        if callable(h):
            return lambda pts: np.atleast_1d(np.asarray(h(pts),
                                                        dtype=complex))
        arr = poly.aspoly(h)
        return lambda pts: np.atleast_1d(poly.horner(arr, pts))

    def cauchy_part(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = np.atleast_1d(poly.horner(self.coeffs, z))
        for zeta, mass, hval in self.atom_data:
            vals = vals + mass * hval / (1 - z * np.conj(zeta))
        return vals

    def cauchy_denominator(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = np.atleast_1d(poly.horner(self.den_coeffs, z))
        for zeta, mass, _hval in self.atom_data:
            vals = vals + mass / (1 - z * np.conj(zeta))
        return vals

    def __call__(self, z):
        zin = np.asarray(z, dtype=complex)
        scalar = zin.ndim == 0
        za = np.atleast_1d(zin)
        if np.any(np.abs(za) >= 1):
            raise DomainError("transform is evaluated inside the open disk")
        out = self.cauchy_part(za) / self.cauchy_denominator(za)
        return complex(out[0]) if scalar else out


def normalized_cauchy(space: HbSpace, alpha: complex, h,
                      measure: Optional[ClarkMeasure] = None,
                      grid: Optional[config.GridConfig] = None
                      ) -> NormalizedCauchyTransform:
    """V_alpha h = (1 - conj(alpha) b) * Cauchy integral of h d(mu_alpha)."""
    if measure is None:
        measure = clark_measure(space, alpha, grid)
    return NormalizedCauchyTransform(space, measure, h, grid)


def normalized_cauchy_rational(space: HbSpace, alpha: complex, g,
                               measure: Optional[ClarkMeasure] = None,
                               grid: Optional[config.GridConfig] = None
                               ) -> UnitCircleFunction:
    """Symbolic V_alpha g for polynomial g and rational b.

    Assembles the quotient of Cauchy transforms P_+(g dmu)/P_+(dmu) in
    rational arithmetic; atom-kernel circle poles cancel in the quotient.
    The result is validated against the quadrature transform and
    rejected when the refit residual is large.
    """
    from .boundary import analytic_projection, modulus_sq_rational

    alpha = _unimodular(alpha)
    if isinstance(g, UnitCircleFunction):
        g = g.to_polynomial()
    g = poly.aspoly(g)
    if measure is None:
        measure = clark_measure(space, alpha, grid)
    dens_num, dens_den = modulus_sq_rational(measure.density_root)
    c_g = analytic_projection(poly.pmul(g, dens_num), dens_den)
    c_1 = analytic_projection(dens_num, dens_den)
    # V = [ng*d1*P + sum_a m_a g(z_a) dg*d1*P_a] /
    #     [n1*dg*P + sum_a m_a dg*d1*P_a],  P = prod_a (1 - conj(z_a) z)
    atom_kernels = [np.array([1.0, -np.conj(zeta)], dtype=complex)
                    for zeta, _m in measure.atoms]
    big_p = np.array([1.0 + 0j])
    for ak in atom_kernels:
        big_p = poly.pmul(big_p, ak)
    num = poly.pmul(poly.pmul(c_g.num, c_1.den), big_p)
    den = poly.pmul(poly.pmul(c_1.num, c_g.den), big_p)
    dgd1 = poly.pmul(c_g.den, c_1.den)
    for j, (zeta, mass) in enumerate(measure.atoms):
        part = np.array([1.0 + 0j])
        for i, ak in enumerate(atom_kernels):
            if i != j:
                part = poly.pmul(part, ak)
        term = mass * poly.pmul(dgd1, part)
        num = poly.padd(num, complex(poly.horner(g, zeta)) * term)
        den = poly.padd(den, term)
    num, den = cancel_common_roots(poly.trim(num, 1e-12),
                                   poly.trim(den, 1e-12), tol=1e-7)
    result = UnitCircleFunction.rational(num, den)
    transform = normalized_cauchy(space, alpha, g, measure, grid)
    zs = 0.7 * config.unit_circle_points(256)
    resid = float(np.max(np.abs(result(zs) - transform(zs))))
    scale = max(1.0, float(np.max(np.abs(transform(zs)))))
    if resid > config.REFIT_RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"symbolic transform disagrees with quadrature ({resid:.3e})")
    return result


def poltoratski_limit(space: HbSpace, alpha: complex, h, zeta: complex,
                      measure: Optional[ClarkMeasure] = None,
                      grid: Optional[config.GridConfig] = None):
    """Radial limit of V_alpha h at an atom; converges to h there.

    Returns (value, error_estimate) from Richardson extrapolation along
    the configured radii.
    """
    if measure is None:
        measure = clark_measure(space, alpha, grid)
    zeta = complex(zeta)
    if not any(abs(zeta - za) <= 1e-8 for za, _ in measure.atoms):
        raise DomainError(f"{zeta:.6g} is not an atom of the measure")
    transform = normalized_cauchy(space, alpha, h, measure, grid)
    radii = (grid or space.grid).radii()
    vals = np.array([complex(transform(r * zeta)) for r in radii])
    value, err = _richardson(vals)
    return complex(value), err
