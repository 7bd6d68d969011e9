"""Aleksandrov-Clark measures of b and the normalized Cauchy transform.

Each measure splits into the density |phi_alpha|^2 = (1-|b|^2)/|alpha-b|^2
against normalized Lebesgue measure plus finitely many atoms at the
unimodular solutions of b = alpha; for rational b both have closed forms
from one root solve, of qa = q - conj(alpha) p.  Its circle roots zeta are
the atoms, of mass 1/|b'(zeta)| (Julia-Caratheodory; Sarason 1994).  With
the roots of A (cached on the space; a = A/q up to a unimodular constant)
its roots give the cancelled density root phi_alpha = a*q / qa, whose
remaining denominator roots give the ac mass ||phi_alpha||^2 in H^2 by
partial fractions, the singular flag and the pole checks.  The total mass
is checked against the Herglotz transform at the origin.  The measures
depend on the space alone, so its default sweep is built once, on first
use, and reused; sweeps over explicit alphas are built anew and never kept.
The normalized Cauchy transform is assembled in rational arithmetic
(normalized_cauchy_rational), whose value at an atom is the Poltoratski
limit; its quadrature form (normalized_cauchy) integrates any h on
config.QUADRATURE_POINTS points and checks the rational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import config, poly
from .boundary import (CircleMeasure, UnitCircleFunction, cancel_common_roots,
                       cancel_with_roots)
from .errors import DomainError, MembershipError
from .hb import HbSpace

_ALPHA_SWEEP = 8


def phi_alpha(space: HbSpace, alpha: complex) -> UnitCircleFunction:
    """The outer density root a/(1 - conj(alpha) b) as a rational function.

    Flagged boundary-singular when the denominator keeps circle zeros
    after cancellation.  At an atom zeta of a valid space b - alpha has a
    simple zero (b'(zeta) != 0 by Julia-Caratheodory) that cancels against
    the zero of a, so the flag stays off there.
    """
    return _density_root(space, _unimodular(alpha))[0]


def _density_root(space: HbSpace, alpha: complex):
    """(phi_alpha, qa, roots of qa, roots left in phi_alpha's denominator);
    phi_alpha = a*q/qa is a multiple of A/qa, free of the poles of b.

    One root solve, of qa: phi_alpha carries its numerator roots, those
    of space.a_roots() that the cancellation against qa leaves.
    """
    qa = poly.psub(space.q, np.conj(alpha) * space.p)
    qa_roots = poly.roots_with_multiplicity(qa) if poly.degree(qa) >= 1 \
        else []
    aq = space.A * (complex(space.a(0.0)) * space.q[0] / space.A[0])
    num, den, kept, left = cancel_with_roots(aq, qa, space.a_roots(),
                                             qa_roots, tol=1e-7)
    singular = any(abs(abs(r) - 1) <= config.PAIRING_RTOL for r, _m in left)
    root = UnitCircleFunction._cancelled(num, den, kept, left,
                                         boundary_singular=singular)
    return root, qa, qa_roots, left


def _unimodular(alpha: complex) -> complex:
    alpha = complex(alpha)
    if not abs(abs(alpha) - 1) <= 1e-9:      # NaN fails too
        raise DomainError(f"|alpha| = {abs(alpha):.12g}, expected 1")
    return alpha / abs(alpha)


def herglotz_value(space: HbSpace, alpha: complex, z: complex) -> complex:
    """(1 + conj(alpha) b(z)) / (1 - conj(alpha) b(z))."""
    w = np.conj(alpha) * complex(space.b(z))
    return (1 + w) / (1 - w)


@dataclass(frozen=True)
class ClarkMeasure:
    """One Aleksandrov-Clark measure: density data plus an atom table."""

    alpha: complex
    density_root: UnitCircleFunction          # phi_alpha, cancelled form
    atoms: list                               # [(zeta, mass)]
    atom_errors: list
    ac_mass: float
    herglotz_mass: float

    @property
    def total_mass(self) -> float:
        return self.ac_mass + sum(m for _z, m in self.atoms)

    @property
    def is_absolutely_continuous(self) -> bool:
        return not self.atoms

    def density_values(self, pts: np.ndarray) -> np.ndarray:
        return self.as_measure().density_values(pts)

    def as_measure(self) -> CircleMeasure:
        return CircleMeasure.from_modulus_sq(self.density_root, self.atoms)

    def csv_rows(self, density_samples: int = 512):
        """(alpha_angle, type, theta, value) rows for density and atoms."""
        a_ang = config.circle_angle(self.alpha)
        pts = config.unit_circle_points(density_samples)
        vals = self.density_values(pts)
        rows = [(a_ang, "ac", 2 * np.pi * j / density_samples, float(v))
                for j, v in enumerate(vals)]
        rows += [(a_ang, "atom", config.circle_angle(z), float(m))
                 for z, m in self.atoms]
        return rows


def clark_measure(space: HbSpace, alpha: complex) -> ClarkMeasure:
    """Construct the Clark measure of the space at a unimodular alpha.

    Atoms sit at the unimodular roots of qa = q - conj(alpha) p, with the
    masses of _atom_mass; the ac mass is ||phi_alpha||^2 (_h2_norm_sq).
    The total is validated against the Herglotz transform at the origin.
    """
    alpha = _unimodular(alpha)
    root, qa, qa_roots, left = _density_root(space, alpha)
    if root.boundary_singular:
        raise ArithmeticError("phi_alpha keeps a circle pole; its density "
                              "is not integrable")
    atoms, errors = [], []
    for r, m in qa_roots:
        if abs(abs(r) - 1) <= config.ATOM_LOCATION_TOL:
            zeta = r / abs(r)
            mass, err = _atom_mass(space.q, poly.derivative(qa), zeta)
            if m > 1:
                raise ArithmeticError(f"b'({zeta:.6g}) = 0 at an atom")
            atoms.append((zeta, mass))
            errors.append(err)
    hmass = float(np.real(herglotz_value(space, alpha, 0.0)))
    cm = ClarkMeasure(alpha=alpha, density_root=root, atoms=atoms,
                      atom_errors=errors, herglotz_mass=hmass,
                      ac_mass=_h2_norm_sq(root.num, root.den, left))
    mismatch = abs(cm.total_mass - hmass)
    if mismatch > 10 * config.MASS_RTOL * max(1.0, abs(hmass)):
        raise ArithmeticError(
            f"mass conservation failed: atoms+ac = {cm.total_mass:.9g}, "
            f"transform value {hmass:.9g}")
    return cm


def clark_sweep(space: HbSpace, alphas=None) -> list:
    """[(alpha, ClarkMeasure)]: explicit alphas built anew on each call, the
    default sweep once per space and kept only if every measure passed."""
    if alphas is not None:
        return [(a, clark_measure(space, a)) for a in alphas]
    if space._sweep is None:
        space._sweep = tuple((a, clark_measure(space, a))
                             for a in alpha_sweep_values(space))
    return list(space._sweep)


def _atom_mass(q, dqa, zeta: complex):
    """(1/|b'(zeta)|, Horner rounding bound) at a circle root of qa: there
    p = alpha q, so |b'| = |p'q - pq'|/|q|^2 = |qa'|/|q| (Higham 2002, 5.1
    bounds the two evaluations)."""
    vals = [(c, poly.horner(c, zeta)) for c in (poly.aspoly(q), dqa)]
    mass = abs(vals[0][1]) / abs(vals[1][1])
    rel = sum(4 * c.size * np.finfo(float).eps * np.sum(np.abs(c)) / abs(v)
              for c, v in vals)
    return mass, float(mass * rel)


def _h2_norm_sq(num, den, den_roots) -> float:
    """||num/den||^2 in H^2 from the roots of den (all outside the disk).

    num/den = Q + sum c (z - r)^-k: Q pairs with the pole terms through
    its first deg Q + 1 Taylor coefficients, the pole terms by _pole_gram.
    """
    rs, ks, cs = [], [], []
    for r, m in den_roots:
        rs, ks = rs + [r] * m, ks + list(range(m, 0, -1))
        cs += list(poly.principal_part(num, den, r, m))
    nq = max(num.size - den.size + 1, 0)   # reversed, Q heads the series
    quo = np.append(poly.series_div(num[::-1], den[::-1], nq)[::-1], 0j)
    head = poly.series_div(num, den, quo.size) - quo
    total = poly.l2sq(quo) + 2 * float(np.real(np.vdot(head, quo)))
    if cs:
        gram = _pole_gram(np.array(rs), np.array(ks))
        total += float(np.real(np.array(cs) @ gram @ np.conj(cs)))
    return total


def _pole_gram(r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """H^2 Gram matrix of the (z - r_i)^-k_i, all |r_i| > 1: summing the
    Taylor coefficients (-1)^k C(n+k-1, k-1) r^-(n+k) gives <(z-r)^-k,
    (z-s)^-l> = (-1)^(k+l) sum_t C(k-1, t) C(l-1, t) r^(l-1-t) conj(s)^(k-1-t)
    / (r conj(s) - 1)^(k+l-1), or 1/(r conj(s) - 1) for simple roots."""
    ri, sj, ki, lj = r[:, None], np.conj(r)[None, :], k[:, None], k[None, :]
    acc = 0
    for t in range(int(k.max())):
        ct = np.array([math.comb(int(kk) - 1, t) for kk in k], dtype=float)
        acc = acc + np.outer(ct, ct) * ri ** (lj - 1 - t) * sj ** (ki - 1 - t)
    return (-1.0) ** (ki + lj) * acc / (ri * sj - 1) ** (ki + lj - 1)


def alpha_sweep_values(space: HbSpace, count: int = _ALPHA_SWEEP) -> np.ndarray:
    """Equispaced alphas (1 first), then b at each circle zero of a."""
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
    coefficients of h * density (discrete transform on
    config.QUADRATURE_POINTS points, truncated at negligible size); atoms
    contribute closed-form Cauchy kernels.  For spaces normalized with
    b(0) = 0 the denominator transform equals 1/(1 - conj(alpha) b); the
    quotient form stays correct without that normalization, where the
    measure is not a probability measure.
    """

    def __init__(self, space: HbSpace, measure: ClarkMeasure, h):
        self.space = space
        self.measure = measure
        n = config.QUADRATURE_POINTS
        pts = config.unit_circle_points(n)
        h_fn = self._as_callable(h)
        dens = measure.density_values(pts)
        self.coeffs = self._plus_coeffs(h_fn(pts) * dens, n)
        self.den_coeffs = self._plus_coeffs(dens.astype(complex), n)
        self.atom_data = [(zeta, mass, complex(h_fn(np.array([zeta]))[0]))
                          for zeta, mass in measure.atoms]
        self.alpha = measure.alpha

    @staticmethod
    def _plus_coeffs(values: np.ndarray, n: int) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise MembershipError("integrand is singular at a sample "
                                  "point; pass a cancelled form")
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
                      measure: Optional[ClarkMeasure] = None
                      ) -> NormalizedCauchyTransform:
    """V_alpha h = (1 - conj(alpha) b) * Cauchy integral of h d(mu_alpha)."""
    if measure is None:
        measure = clark_measure(space, alpha)
    return NormalizedCauchyTransform(space, measure, h)


def normalized_cauchy_rational(space: HbSpace, alpha: complex, g,
                               measure: Optional[ClarkMeasure] = None
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
        measure = clark_measure(space, alpha)
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
    transform = normalized_cauchy(space, alpha, g, measure)
    zs = 0.7 * config.unit_circle_points(256)
    resid = float(np.max(np.abs(result(zs) - transform(zs))))
    scale = max(1.0, float(np.max(np.abs(transform(zs)))))
    if resid > config.REFIT_RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"symbolic transform disagrees with quadrature ({resid:.3e})")
    return result


def poltoratski_limit(space: HbSpace, alpha: complex, h, zeta: complex,
                      measure: Optional[ClarkMeasure] = None) -> complex:
    """Boundary value of V_alpha h at an atom zeta, which is h(zeta).

    h is a polynomial; the value is normalized_cauchy_rational's at zeta,
    where the atom kernels cancel, so it is finite.
    """
    if measure is None:
        measure = clark_measure(space, alpha)
    zeta = complex(zeta)
    if not any(abs(zeta - za) <= 1e-8 for za, _ in measure.atoms):
        raise DomainError(f"{zeta:.6g} is not an atom of the measure")
    return complex(normalized_cauchy_rational(space, alpha, h, measure)(zeta))
