"""Spectral factorization and inner-outer decomposition for circle data.

The central primitive factors a nonnegative trigonometric polynomial w as
|a|^2 with a zero-free in the open disk and a(0) > 0; the Pythagorean
mate of b = p/q is A/q, A the factor of |q|^2 - |p|^2, checked on coefficients.
"""

from __future__ import annotations

import numpy as np

from . import config, poly
from .boundary import UnitCircleFunction
from .errors import ExtremeFunctionError, FactorizationError, UnitBallError


def fejer_riesz(w_coeffs) -> np.ndarray:
    """Factor a nonnegative trigonometric polynomial as |a(z)|^2 on the circle.

    Parameters
    ----------
    w_coeffs : sequence of length 2D+1
        Laurent coefficients w_{-D}..w_{D}, Hermitian (w_{-k} = conj(w_k)).

    Returns
    -------
    numpy.ndarray
        Coefficients of the polynomial a with no roots in the open disk
        and a(0) > 0, trimmed by poly.trim's rule.

    The Laurent lift z^D w(z) is factored through its roots: (r, 1/conj(r))
    pairs contribute their closed-disk-exterior representative, circle
    roots must occur with even multiplicity and contribute half of it.
    w < 0 somewhere (a circle root of odd multiplicity whose reflection
    is not another one, a mean <= 0) raises UnitBallError; the factor
    must meet weight_residual_l1 <= PYTHAGOREAN_TOL.
    """
    w = np.asarray(w_coeffs, dtype=complex)
    if w.size % 2 == 0:
        raise ValueError("coefficient list must have odd length w_{-D}..w_{D}")
    d = (w.size - 1) // 2
    for k in range(1, d + 1):
        if abs(w[d - k] - np.conj(w[d + k])) > 1e-9 * max(1.0, abs(w[d + k])):
            raise FactorizationError("coefficients are not Hermitian")
    # trim negligible tails by poly.trim's rule, the one root finding
    # applies to the lift, so the lift has no spurious roots at 0 or infinity
    k_top = poly.trim(w[d:]).size - 1
    root_list = poly.roots_with_multiplicity(w[d - k_top: d + k_top + 1]) \
        if k_top else []
    circle, interior, exterior = [], [], []
    for r, m in root_list:
        if abs(abs(r) - 1) <= config.PAIRING_RTOL:
            circle.append((r, m))
        elif abs(r) < 1:
            interior.append((r, m))
        else:
            exterior.append([r, m])
    # the sign first: a circle root of odd multiplicity changes it, unless
    # its reflection is another such root, a pair within PAIRING_RTOL of
    # the circle that clustering did not merge
    odd = [r for r, m in circle if m % 2]
    for i, r in enumerate(odd):
        if all(abs(s - 1 / np.conj(r)) > config.PAIRING_RTOL
               for s in odd[:i] + odd[i + 1:]):
            raise UnitBallError(f"weight changes sign at circle root "
                                f"{r / abs(r):.6g}: b leaves the unit ball")
    if odd:
        raise FactorizationError(f"root {odd[0]:.9g} and its reflection "
                                 "are too near the circle to tell from a "
                                 "double circle root")
    reps = [(r / abs(r), m // 2) for r, m in circle]
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
    if c2 < 0 or (c2 == 0 and k_top):
        raise UnitBallError(f"weight mean {w[d].real:.3e} is not positive"
                            ": b leaves the unit ball")
    u0 = u[0]
    a = poly.trim(np.sqrt(c2) * (np.conj(u0) / abs(u0)) * u)
    resid = weight_residual_l1(a, w)
    if resid > config.PYTHAGOREAN_TOL:
        raise FactorizationError(
            f"factor verification failed (relative l1 residual {resid:.3e})")
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


def weight_residual(A, w, s2=1) -> np.ndarray:
    """Centered Laurent coefficients of s2|A|^2 - w, complex or exact.  For
    w = mate_weight(p, q) it is (|a|^2 + |b|^2 - 1)|q|^2, a = s*A/q."""
    return _laurent_center_sub(s2 * modulus_sq_laurent(A), w)


def weight_residual_l1(A, w) -> float:
    """||weight_residual(A, w)||_1 / max(1, ||w||_1); the l1 norm bounds
    the residual everywhere on the circle."""
    scale = max(1.0, float(np.sum(np.abs(w))))
    return float(np.sum(np.abs(weight_residual(A, w)))) / scale


def _nonnegative(v) -> bool:
    """True when the Hermitian Laurent polynomial v is >= 0 on the circle:
    its mean is positive and fejer_riesz finds no sign change."""
    if v[v.size // 2].real <= 0:
        return False
    try:
        fejer_riesz(v)
    except UnitBallError:
        return False
    except FactorizationError:
        pass                            # raised after the sign passed
    return True


def _is_extreme(q, w, slack) -> bool:
    """True when |w| <= TOL|q|^2 + slack on the whole circle, so that
    |1 - |b|^2| = |w|/|q|^2 <= PYTHAGOREAN_TOL up to slack/|q|^2."""
    tol = config.PYTHAGOREAN_TOL
    bound = modulus_sq_laurent(q)
    bound[bound.size // 2] += slack / tol
    return all(_nonnegative(_laurent_center_sub(bound, sign * w / tol))
               for sign in (1, -1))


def mate_of_b(b: UnitCircleFunction) -> UnitCircleFunction:
    """The outer function a with |a|^2 + |b|^2 = 1 on the circle, a(0) > 0."""
    return mate_and_factor(b)[0]


def mate_and_factor(b: UnitCircleFunction):
    """(a, A): the mate of b and the Fejer-Riesz factor A of |q|^2 - |p|^2.

    a = A/q (cancelled, rotated so a(0) > 0) from a single factorization.
    b is refused as extreme when |1 - |b|^2| <= PYTHAGOREAN_TOL on the
    whole circle, or when w = |q|^2 - |p|^2 is lost in err, the rounding of
    its coefficients and its trimmed tails; a sign change of w is named
    UnitBallError only where w < -err somewhere.
    """
    if not isinstance(b, UnitCircleFunction):
        b = UnitCircleFunction.polynomial(b)
    if b.degree() < 1:
        raise ValueError("b must be nonconstant")
    p, q = b.as_num_den()
    w = mate_weight(p, q)
    # err bounds the rounding of w's coefficients plus, on the circle, the
    # tails that fejer_riesz trims
    d = w.size // 2
    err = (max(p.size, q.size) + 1) * np.finfo(float).eps * \
        (np.sum(np.abs(p)) ** 2 + np.sum(np.abs(q)) ** 2) + \
        2 * np.sum(np.abs(w[d + poly.trim(w[d:]).size:]))
    extreme = ExtremeFunctionError(
        "b has unimodular boundary values; no outer mate exists and "
        "polynomials are not dense in H(b)")
    if np.sum(np.abs(w)) <= err or _is_extreme(q, w, 0.0):
        raise extreme
    try:
        a_num = fejer_riesz(w)
    except UnitBallError:
        if _is_extreme(q, w, err):
            raise extreme from None
        if _nonnegative(_laurent_center_sub(w, [-err])):
            raise FactorizationError("the weight changes sign only within "
                                     "its rounding and trimmed tails"
                                     ) from None
        raise
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
    A UnitCircleFunction is read through its kept numerator roots
    (num_roots), so asking again, or asking sigma_upper, solves nothing.
    """
    fn = f if isinstance(f, UnitCircleFunction) else \
        UnitCircleFunction.polynomial(f)
    if fn.num_degree < 0:
        raise ValueError("the zero function is not outer")
    return all(abs(r) >= 1 - config.INTERIOR_TOL
               for r, _m in fn.num_roots())


def inner_outer(f, grid: config.GridConfig = config.DEFAULT_GRID):
    """Inner-outer factorization f = theta * F.

    theta is the finite Blaschke product over the open-disk zeros of f
    (its unimodular constant chosen so that F(0) > 0), and F = f/theta
    carries the boundary modulus of f.
    """
    fn = f if isinstance(f, UnitCircleFunction) else \
        UnitCircleFunction.polynomial(f)
    num, den = fn.as_num_den()
    if fn.num_degree < 0:
        raise ValueError("cannot factor the zero function")
    interior = [(r, m) for r, m in fn.num_roots()
                if abs(r) < 1 - config.INTERIOR_TOL]
    f_num = num.copy()
    for r, m in interior:
        for _ in range(m):
            f_num, _rem = poly.synthetic_div(f_num, r)
        if r != 0:
            f_num = poly.pmul(f_num, poly.from_roots(
                [(1 / np.conj(r), m)], lead=(-np.conj(r)) ** m))
    outer0 = UnitCircleFunction.rational(f_num, den) \
        if fn.den_degree >= 1 else UnitCircleFunction.polynomial(f_num)
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
