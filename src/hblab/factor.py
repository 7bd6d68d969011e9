"""Spectral factorization and inner-outer decomposition for circle data.

The central primitive factors a nonnegative trigonometric polynomial w as
|a|^2 with a zero-free in the open disk and a(0) > 0; the Pythagorean
mate of b is obtained by factoring 1 - |b|^2.
"""

from __future__ import annotations

import numpy as np

from . import config, poly
from .boundary import UnitCircleFunction
from .errors import ExtremeFunctionError, FactorizationError

_NEG_TOL = 1e-12


def trig_poly_values(w_coeffs, pts: np.ndarray) -> np.ndarray:
    """Evaluate a centered Laurent coefficient list on circle points."""
    w = np.asarray(w_coeffs, dtype=complex)
    d = (w.size - 1) // 2
    vals = np.zeros(len(pts), dtype=complex)
    for k in range(-d, d + 1):
        vals += w[k + d] * pts ** k
    return vals


def fejer_riesz(w_coeffs, grid: config.GridConfig = config.DEFAULT_GRID
                ) -> np.ndarray:
    """Factor a nonnegative trigonometric polynomial as |a(z)|^2 on the circle.

    Parameters
    ----------
    w_coeffs : sequence of length 2D+1
        Laurent coefficients w_{-D}..w_{D}, Hermitian (w_{-k} = conj(w_k)).

    Returns
    -------
    numpy.ndarray
        Coefficients of the polynomial a with no roots in the open disk
        and a(0) > 0.

    The Laurent lift z^D w(z) is factored through its roots: (r, 1/conj(r))
    pairs contribute their closed-disk-exterior representative, circle
    roots must occur with even multiplicity and contribute half of it.
    """
    w = np.asarray(w_coeffs, dtype=complex)
    if w.size % 2 == 0:
        raise ValueError("coefficient list must have odd length w_{-D}..w_{D}")
    d = (w.size - 1) // 2
    for k in range(1, d + 1):
        if abs(w[d - k] - np.conj(w[d + k])) > 1e-9 * max(1.0, abs(w[d + k])):
            raise FactorizationError("coefficients are not Hermitian")
    pts = grid.points()
    vals = trig_poly_values(w, pts).real
    if vals.min() < -_NEG_TOL * max(1.0, vals.max()):
        raise FactorizationError(
            f"weight is negative on the grid (min {vals.min():.3e})")
    # trim negligible tails by poly.trim's rule, the one root finding
    # applies to the lift, so the lift has no spurious roots at 0 or infinity
    k_top = poly.trim(w[d:]).size - 1
    if k_top == 0:
        w0 = w[d].real
        if w0 < 0:
            raise FactorizationError("negative constant weight")
        return np.array([np.sqrt(w0) + 0j])
    lift = np.array([w[d + k] for k in range(-k_top, k_top + 1)])
    root_list = poly.roots_with_multiplicity(lift)
    circle, interior, exterior = [], [], []
    for r, m in root_list:
        if abs(abs(r) - 1) <= config.PAIRING_RTOL:
            circle.append((r / abs(r), m))
        elif abs(r) < 1:
            interior.append((r, m))
        else:
            exterior.append([r, m])
    reps = []
    for r, m in circle:
        if m % 2:
            raise FactorizationError(
                f"circle root {r:.6g} has odd multiplicity {m}")
        reps.append((r, m // 2))
    for r, m in interior:
        target = 1 / np.conj(r)
        for ext in exterior:
            if ext[1] > 0 and abs(ext[0] - target) <= \
                    config.PAIRING_RTOL * max(1.0, abs(target)):
                if ext[1] != m:
                    raise FactorizationError(
                        f"multiplicity mismatch in root pair near {target:.6g}")
                ext[1] = 0
                reps.append((ext[0], m))
                break
        else:
            raise FactorizationError(
                f"interior root {r:.6g} has no reflected partner")
    if any(ext[1] > 0 for ext in exterior):
        raise FactorizationError("unpaired exterior roots remain")
    u = poly.from_roots(reps)
    c2 = w[d].real / poly.l2sq(u)
    if c2 <= 0:
        raise FactorizationError("vanishing mean leaves no factor")
    u0 = u[0]
    a = np.sqrt(c2) * (np.conj(u0) / abs(u0)) * u
    resid = float(np.max(np.abs(np.abs(poly.horner(a, pts)) ** 2 - vals)))
    if resid > 1e-7 * max(1.0, float(vals.max())):
        raise FactorizationError(
            f"factor verification failed (residual {resid:.3e})")
    return a


def modulus_sq_laurent(p) -> np.ndarray:
    """Centered Laurent coefficients of |p|^2 on the circle."""
    p = poly.aspoly(p)
    return np.convolve(p, np.conj(p)[::-1])


def _laurent_center_sub(x, y) -> np.ndarray:
    x, y = poly.aspoly(x), poly.aspoly(y)
    dx, dy = (x.size - 1) // 2, (y.size - 1) // 2
    d = max(dx, dy)
    out = np.zeros(2 * d + 1, dtype=np.result_type(x, y))
    out[d - dx: d + dx + 1] += x
    out[d - dy: d + dy + 1] -= y
    return out


def mate_weight(p, q) -> np.ndarray:
    """Centered Laurent coefficients of |q|^2 - |p|^2 on the circle, the
    weight whose Fejer-Riesz factor A gives the mate A/q of b = p/q."""
    return _laurent_center_sub(modulus_sq_laurent(q), modulus_sq_laurent(p))


def mate_of_b(b: UnitCircleFunction,
              grid: config.GridConfig = config.DEFAULT_GRID
              ) -> UnitCircleFunction:
    """The outer function a with |a|^2 + |b|^2 = 1 on the circle, a(0) > 0.

    Polynomial b delegates to fejer_riesz on 1 - |b|^2; rational b = p/q
    factors |q|^2 - |p|^2 and divides the factor by q.
    """
    return mate_and_factor(b, grid)[0]


def mate_and_factor(b: UnitCircleFunction,
                    grid: config.GridConfig = config.DEFAULT_GRID):
    """(a, A): the mate of b and the Fejer-Riesz factor A of |q|^2 - |p|^2.

    a = A/q (cancelled, rotated so a(0) > 0) from a single factorization.
    """
    if not isinstance(b, UnitCircleFunction):
        b = UnitCircleFunction.polynomial(b)
    if b.degree() < 1:
        raise ValueError("b must be nonconstant")
    bvals = np.abs(b.boundary_values(grid.n))
    if bvals.max() > 1 + config.UNIT_BALL_TOL:
        raise ValueError(
            f"sup |b| = {bvals.max():.12g} exceeds 1 on the circle")
    w_vals = 1.0 - bvals ** 2
    if w_vals.max() < 1e-10:
        raise ExtremeFunctionError(
            "b has unimodular boundary values; no outer mate exists and "
            "polynomials are not dense in H(b)")
    p, q = b.as_num_den()
    a_num = fejer_riesz(mate_weight(p, q), grid)
    if b.is_polynomial():
        return UnitCircleFunction.polynomial(a_num / q[0]), a_num
    a = UnitCircleFunction.rational(a_num, q)
    a0 = complex(a(0))
    if a0 == 0:
        raise FactorizationError("mate vanishes at 0")
    rot = np.conj(a0) / abs(a0)
    if abs(rot - 1) > 1e-15:
        a = UnitCircleFunction.rational(a.num * rot, a.den)
    return a, a_num


def is_outer(f) -> bool:
    """True when f has no zeros in the open unit disk.

    For polynomials this characterizes the outer functions (circle zeros
    are permitted); rational functions are tested through their numerator.
    """
    if isinstance(f, UnitCircleFunction):
        f = f.num
    f = poly.trim(f)
    if poly.degree(f) < 0:
        raise ValueError("the zero function is not outer")
    if poly.degree(f) == 0:
        return True
    return all(abs(r) >= 1 - config.INTERIOR_TOL
               for r, _m in poly.roots_with_multiplicity(f))


def inner_outer(f, grid: config.GridConfig = config.DEFAULT_GRID):
    """Inner-outer factorization f = theta * F.

    theta is the finite Blaschke product over the open-disk zeros of f
    (its unimodular constant chosen so that F(0) > 0), and F = f/theta
    carries the boundary modulus of f.
    """
    fn = f if isinstance(f, UnitCircleFunction) else \
        UnitCircleFunction.polynomial(f)
    num, den = fn.as_num_den()
    if poly.degree(num) < 0:
        raise ValueError("cannot factor the zero function")
    interior = []
    if poly.degree(num) >= 1:
        interior = [(r, m) for r, m in poly.roots_with_multiplicity(num)
                    if abs(r) < 1 - config.INTERIOR_TOL]
    f_num = num.copy()
    for r, m in interior:
        for _ in range(m):
            f_num, _rem = poly.synthetic_div(f_num, r)
        if r != 0:
            f_num = poly.pmul(f_num, poly.from_roots(
                [(1 / np.conj(r), m)], lead=(-np.conj(r)) ** m))
    outer0 = UnitCircleFunction.rational(f_num, den) \
        if poly.degree(den) >= 1 else UnitCircleFunction.polynomial(f_num)
    f0 = complex(poly.horner(f_num, 0)) / complex(den[0])
    s = f0 / abs(f0)
    zeros = []
    for r, m in interior:
        zeros.extend([r] * m)
    theta = UnitCircleFunction.blaschke(zeros, phase=s)
    outer = outer0 * (1 / s)
    resid = float(np.max(np.abs(
        fn.boundary_values(grid.n) -
        theta.boundary_values(grid.n) * outer.boundary_values(grid.n))))
    scale = max(1.0, float(np.max(np.abs(fn.boundary_values(grid.n)))))
    if np.isfinite(resid) and resid > 1e-9 * scale:
        raise FactorizationError(
            f"inner-outer reconstruction residual {resid:.3e}")
    return theta, outer
