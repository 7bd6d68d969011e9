"""Construction of H(b) for rational non-extreme b.

Membership and norms go through the isometric embedding f -> (f, f1)
where the mate f1 is the unique H^2 solution of the Toeplitz relation
built from conj(b) and conj(a); for rational b = p/q the relation is
multiplied through by conj(q), which reduces everything to banded
polynomial convolutions and keeps exact rational arithmetic available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import config, exact, factor, poly
from .boundary import (UnitCircleFunction, analytic_projection,
                       modulus_sq_rational)
from .errors import (DomainError, ExtremeFunctionError,
                     NormalizationError, SpaceMismatchError)

_RATIONALIZE_DEN = 10**9


@dataclass(frozen=True)
class ExactSpaceData:
    """Certified exact data: b = p/q and the scaled mate a = s*A/q.

    p, q and A are Gaussian-integer polynomials (re, im, d) in canonical
    form: gcd(re, im, d) = 1 and no trailing zero pair (zero is
    ([0], [0], 1)); exact.to_qc reads them as QC.  s2 = s^2 is rational;
    the certificate is the coefficient identity s2*|A|^2 + |p|^2 = |q|^2
    on the circle, checked in exact arithmetic.
    """

    p: tuple
    q: tuple
    A: tuple
    s2: Fraction


class HbSpace:
    """A validated non-extreme space: b, its mate a, and working precision."""

    def __init__(self, b: UnitCircleFunction, a: UnitCircleFunction,
                 A: np.ndarray, a_roots: list,
                 exact_data: Optional[ExactSpaceData],
                 exact_declined: Optional[str]):
        self.b = b
        self.a = a
        self.exact = exact_data
        self.exact_declined = exact_declined    # why exact is None
        self.p = b.num.copy()
        self.q = b.den.copy()
        self.A = A                      # fejer_riesz trims it
        self._one: Optional[HbElement] = None
        self._a_roots = a_roots          # fejer_riesz found them
        self._defect: Optional[tuple] = None   # defect_points
        self._sweep: Optional[tuple] = None    # clark.clark_sweep's default
        self._factor = np.zeros((0, 0), dtype=complex)  # embedding_factor
        self._consts = np.zeros(0, dtype=complex)       # mate_constants
        self._xfactor = 0, None                         # exact_factor

    def __repr__(self):
        tag = "exact" if self.exact else "float"
        return f"HbSpace(b={self.b!r}, backend={tag})"

    def one(self) -> "HbElement":
        if self._one is None:
            self._one = make_element(self, [1.0])
        return self._one

    def a_roots(self) -> list:
        """Roots with multiplicity of A, the zeros of a, as the
        factorization found them."""
        return self._a_roots

    def embedding_factor(self, rows: int) -> np.ndarray:
        """R0, upper triangular with R0^H R0 = I + K^H K: the Gram matrix
        in H(b) of 1, z, ..., z^(rows-1).

        The mates of the monomials are the columns of K, an upper
        triangular Toeplitz matrix: K[i, k] = c_(k-i), c_k the constant
        term of mate(z^k) (Sarason's h+ = T_{conj(b)/conj(a)} h), so the
        embedding of a polynomial h of degree < rows is [I; K] h and
        ||h||_b = ||R0 h||_2.  Built on first use and rebuilt only for
        more rows.  The stored factor is the Cholesky output itself,
        read-only and in Fortran order, and fewer rows get its leading
        block as a view: no table copies it.
        """
        if self._factor.shape[0] < rows:
            self._factor, self._consts = _embedding_factor(self, rows)
        return self._factor[:rows, :rows]

    def mate_constants(self, rows: int) -> np.ndarray:
        """c_0, ..., c_(rows-1), K's diagonals, kept beside the factor."""
        self.embedding_factor(rows)
        return self._consts[:rows]

    def exact_factor(self, rows: int) -> tuple:
        """(num, den, steps): exact._bareiss's steps on den/num times the
        Gram matrix of 1, ..., z^(R-1), R >= rows (even: two pivots a step),
        from the exact mate of z^(R-1); rebuilt only for more rows."""
        if self._xfactor[0] < rows:
            h, u = gaussian_mate(self, [1.0], rows - 1)
            *gram, num, den = exact.shift_gram(
                h, u, ([u[0][-1]], [u[1][-1]], u[2]), self.exact.s2, rows)
            steps = []
            exact._bareiss(*gram, num, den, steps)
            self._xfactor = rows, (num, den, steps)
        return self._xfactor[1]

    def a_circle_zeros(self) -> tuple:
        """Unimodular zeros of A, hence of a, in root order."""
        return tuple(r / abs(r) for r, _m in self.a_roots()
                     if abs(abs(r) - 1) <= config.PAIRING_RTOL)

    def pythagorean_residual(self) -> float:
        """factor.weight_residual_l1 of A, the check fejer_riesz made."""
        return factor.weight_residual_l1(
            self.A, factor.mate_weight(self.p, self.q))

    def pythagorean_exact_residual(self):
        """exact.pythagorean_residual of the certified data: the exact
        coefficients of z^0, z^1, ... of s2|A|^2 + |p|^2 - |q|^2, empty
        when certified (None if float)."""
        if self.exact is None:
            return None
        e = self.exact
        return exact.pythagorean_residual(e.p, e.q, e.A, e.s2)


def defect_spectrum(space: HbSpace) -> list:
    """Unimodular zeros of a: the boundary points carrying the defect.

    For rational b these are exactly the circle points where every
    element of the space has a finite non-tangential limit and the
    classifier evaluates candidates.  Sorted once per space.
    """
    return [z for z, _t in defect_points(space)]


def defect_points(space: HbSpace) -> tuple:
    """(zeta, config.circle_angle(zeta)) by angle, kept per space."""
    if space._defect is None:
        space._defect = tuple(sorted(
            ((z, config.circle_angle(z)) for z in space.a_circle_zeros()),
            key=lambda t: t[1]))
    return space._defect


@dataclass
class HbElement:
    """A function f in H(b); its mate and norm data are computed on first
    read and kept."""

    space: HbSpace
    f: np.ndarray

    @cached_property
    def mate(self) -> np.ndarray:
        """The float mate, computed on the first float read; a mate
        residual above MATE_RESIDUAL_TOL raises ArithmeticError then, not
        at construction."""
        return poly.trim(_float_mate(self.space, self.f), 1e-13)

    @cached_property
    def norm2(self) -> float:
        return poly.l2sq(self.f) + poly.l2sq(self.mate)

    @cached_property
    def exact_ints(self) -> Optional[tuple]:
        """(f, s-scaled mate) as Gaussian-integer polynomials (re, im, d),
        or None (gaussian_mate), computed on the first exact read; a
        nonzero exact mate residual raises ArithmeticError then, not at
        construction."""
        return gaussian_mate(self.space, self.f)

    @property
    def exact(self) -> Optional[tuple]:
        """(f, s-scaled mate) as exact polynomials (tuples of QC, the mate
        without trailing zeros), or None."""
        pair = self.exact_ints
        return None if pair is None else _qc_pair(*pair)

    @property
    def norm2_exact(self) -> Optional[Fraction]:
        val = inner_product_exact(self.space, self, self)
        return None if val is None else val.re

    def __call__(self, z):
        return poly.horner(self.f, z)


# ---------------------------------------------------------------------------
# construction

def _try_exact(b: UnitCircleFunction, A_float: np.ndarray) -> ExactSpaceData:
    """Certify rationalized (p, q, A); NormalizationError names the step."""
    try:
        (p, ep, bp), (q, eq, bq) = rationalize(b.num), rationalize(b.den)
        # normalize A by its largest coefficient before rationalizing so a
        # common irrational scale s drops out; s2 is then solved exactly
        j0 = int(np.argmax(np.abs(A_float)))
        A = rationalize(A_float / A_float[j0])[0]
    except ValueError as exc:
        raise NormalizationError(str(exc)) from None
    if not (ep <= bp and eq <= bq):
        raise NormalizationError(
            f"rationalizing p/q to denominators <= {_RATIONALIZE_DEN} "
            "moves a coefficient by more than 1e-12")
    # s2 = (||q||^2 - ||p||^2) / ||A||^2, each ||x||^2 = sum of squares / d^2
    (np2, dp), (nq2, dq), (na2, da) = ((sum(c * c for c in x[0] + x[1]), x[2])
                                       for x in (p, q, A))
    s2 = Fraction((nq2 * dp * dp - np2 * dq * dq) * da * da,
                  na2 * (dp * dq) ** 2)
    if s2 <= 0:
        raise NormalizationError(f"s2 = {s2} is not positive")
    if exact.pythagorean_residual(p, q, A, s2):
        raise NormalizationError(
            "the rationalized data fail s2|A|^2 + |p|^2 = |q|^2 "
            "(irrational factor)")
    root = exact.frac_sqrt(s2)
    if root is not None:
        A, s2 = exact.scaled(A, root), Fraction(1)
    if A[1][0] or A[0][0] <= 0:
        raise NormalizationError("A(0) is not positive")
    return ExactSpaceData(p=p, q=q, A=A, s2=s2)


def rationalize(coeffs, max_den: int = _RATIONALIZE_DEN) -> tuple:
    """(ints, error, bound): float coefficients as a Gaussian-integer
    polynomial ints = (re, im, d), each part the nearest rational p/q
    with q <= max_den (Fraction.limit_denominator's choice, found on ints
    by exact._limit_denominator) and d the lcm of the q, without trailing
    zeros (zero is ([0], [0], 1), as in poly.trim); error is the largest
    |c_k - (re_k + i im_k)/d| and bound = 1e-12 max(1, max|c_k|), the
    tolerance an exact read accepts.  ValueError unless every
    coefficient is finite."""
    c = poly.finite(coeffs)
    floats = np.ascontiguousarray(c).view(float).tolist()   # re, im, ...
    parts = [exact._limit_denominator(x, max_den) for x in floats]
    vals = [p / q for p, q in parts]
    error = 0.0 if vals == floats else \
        float(np.max(np.abs(np.array(vals).view(complex) - c)))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)
    n = len(parts)
    while n and parts[n - 1][0] == 0 and parts[n - 2][0] == 0:
        n -= 2
    if not n:
        return ([0], [0], 1), error, bound
    d = math.lcm(*(q for _p, q in parts[:n]))
    nums = [p if q == d else p * (d // q) for p, q in parts[:n]]
    return (nums[::2], nums[1::2], d), error, bound


def make_space(b, use_exact: str | bool = "auto") -> HbSpace:
    """Validate b and construct H(b) with its Pythagorean mate.

    use_exact: "auto" certifies an exact rational backend when the data
    allows it, True insists on one, False skips the attempt.  A declined
    certification leaves its reason in HbSpace.exact_declined.
    """
    if not isinstance(b, UnitCircleFunction):
        b = UnitCircleFunction.polynomial(b)
    if b.kind == "blaschke":
        raise ExtremeFunctionError(
            "finite Blaschke products are extreme; H(b) has no mate")
    a, A, a_roots = factor.mate_and_factor(b)
    exact_data, declined = None, "not requested"
    if use_exact in ("auto", True):
        try:
            exact_data, declined = _try_exact(b, A), None
        except NormalizationError as exc:
            if use_exact is True:
                raise NormalizationError(
                    "exact backend requested but the data could not be "
                    f"certified: {exc}") from None
            declined = str(exc)
    return HbSpace(b, a, A, a_roots, exact_data, declined)


def make_space_from_phi(phi: UnitCircleFunction,
                        use_exact: str | bool = "auto") -> HbSpace:
    """The space generated by a unit-norm outer function phi.

    Inverts the correspondence phi = a/(1-b): the analytic projection C
    of |phi|^2 satisfies C = 1/(1-b), so b = (C-1)/C.  Requires
    ||phi||_2 = 1 (then b(0) = 0 and the base Clark measure of the
    resulting space is |phi|^2 dm).  The built space must give back
    |phi|^2 = (1-|b|^2)/|1-b|^2 = 2 Re C - 1, checked as the Laurent
    identity (|q|^2 - |p|^2)|phi_d|^2 = |phi_n|^2 |q - p|^2 for b = p/q
    and phi = phi_n/phi_d, to 1e-6 of its terms' l1 norm.
    """
    if not factor.is_outer(phi):
        raise ValueError("phi must be outer")
    cnum, cden = modulus_sq_rational(phi)
    C = analytic_projection(cnum, cden)
    mass = complex(C(0))
    if abs(mass - 1.0) > 1e-6:
        raise NormalizationError(
            f"phi must have unit norm (||phi||^2 = {mass.real:.9g})")
    b = UnitCircleFunction.rational(poly.psub(C.num, C.den), C.num)
    space = make_space(b, use_exact)
    lhs = np.convolve(factor.mate_weight(space.p, space.q),
                      factor.modulus_sq_laurent(phi.den))
    rhs = np.convolve(factor.modulus_sq_laurent(phi.num),
                      factor.modulus_sq_laurent(poly.psub(space.q, space.p)))
    resid = float(np.sum(np.abs(factor._laurent_center_sub(lhs, rhs))))
    scale = float(np.sum(np.abs(lhs)) + np.sum(np.abs(rhs)))
    if resid > 1e-6 * max(1.0, scale):
        raise NormalizationError(
            f"generated space disagrees with |phi|^2 (residual {resid:.3e})")
    return space


# ---------------------------------------------------------------------------
# mates and inner products

def _pplus_conj_product(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients of P_+(conj(p) f): sum_j conj(p_j) f[m + j]
    (np.correlate conjugates p)."""
    return np.correlate(f, p, "full")[p.size - 1:]


def _back_substitute(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The g of rhs's length with P_+(conj(A) g) = rhs.  Reversed, this
    triangular Toeplitz system is the series division rhs[::-1]/conj(A)."""
    return poly.series_div(rhs[::-1], np.conj(A), rhs.size)[::-1]


def _solve_mate(p: np.ndarray, A: np.ndarray, h: np.ndarray) -> tuple:
    """The g of h's length with P_+(conj(p) h + conj(A) g) = 0, and the
    residual P_+(conj(A) g) - rhs of the relation, rhs = -P_+(conj(p) h).
    Exact mates are solved by exact.mate_solve."""
    rhs = -_pplus_conj_product(p, h)
    g = _back_substitute(A, rhs)
    return g, _pplus_conj_product(A, g) - rhs


def _float_mate(space: HbSpace, h: np.ndarray) -> np.ndarray:
    """The mate of h of h's length (see _solve_mate), with the residual
    of the mate relation checked against MATE_RESIDUAL_TOL.  The mate g
    solves P_+(conj(p) h + conj(A) g) = 0 with a zero tail: A has no
    roots inside the disk, so no square-summable homogeneous solution
    exists."""
    g, resid = _solve_mate(space.p, space.A, h)
    resid = float(np.max(np.abs(resid)))
    if resid > config.MATE_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(h)))):
        raise ArithmeticError(f"mate residual {resid:.3e} too large")
    return g


def _embedding_factor(space: HbSpace, rows: int) -> tuple:
    """HbSpace.embedding_factor(rows) and the c_k, both read-only.

    mate(z h) = z mate(h) + a constant, so the mate of z^(rows-1), from
    one back substitution, holds every c_k, reversed.  The Gram matrix
    G = I + K^H K obeys G[j+1, k+1] = G[j, k] + conj(c_(j+1)) c_(k+1): its
    subdiagonal d is I's plus the running sum over s of c_s conj(c_(s+d)),
    one cumulative sum down the columns of S[s, d] = c_s conj(c_(s+d)).
    A strided view of S puts S[j, t-j] at [j, t], so its transpose holds
    G's lower triangle, the only one np.linalg.cholesky reads.  G >= I,
    so every pivot is at least 1 and the Cholesky cannot break down.
    """
    h = np.zeros(rows, dtype=complex)
    h[-1] = 1.0
    c = _float_mate(space, h)[::-1]
    S = c[:, None] * np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.conj(c), np.zeros(rows - 1)]), rows)
    np.cumsum(S, axis=0, out=S)
    S[:, 0] += 1.0
    lower = np.lib.stride_tricks.as_strided(
        S, (rows, rows), (S.strides[0] - S.strides[1], S.strides[1]),
        writeable=False).T
    L = np.linalg.cholesky(lower)           # G = L L^H, so R0 = L^H
    R0 = np.conj(L, out=L).T
    R0.flags.writeable = c.flags.writeable = False
    return R0, c


def mate(space: HbSpace, f) -> np.ndarray:
    """The mate f1 of a polynomial f."""
    return make_element(space, f).mate


def make_element(space: HbSpace, f) -> HbElement:
    """Embed a polynomial into H(b): f checked and trimmed; its mates are
    solved on the first float or exact read."""
    if isinstance(f, UnitCircleFunction):
        f = f.to_polynomial()
    return HbElement(space, poly.trim(poly.finite(f, "f: ")))


def gaussian_mate(space: HbSpace, f, shift: int = 0) -> Optional[tuple]:
    """(h, s-scaled mate of h) as Gaussian-integer polynomials
    (re, im, d), h = z^shift f and the mate of h's length, or None when
    the space or f is not exactly representable (rationalize: f's error
    above its bound).  One fraction-free solve (exact.mate_solve) on the
    space's p and A, checked by its exact residual: a nonzero one raises
    ArithmeticError."""
    if space.exact is None:
        return None
    try:
        (hr, hi, dh), error, bound = rationalize(f)
    except ValueError:
        return None
    if not error <= bound:
        return None
    p, A = space.exact.p, space.exact.A
    h = ([0] * shift + hr, [0] * shift + hi, dh)
    g = exact.mate_solve(p, A, h)
    exact.mate_residual(p, A, h, g)
    return h, g


def exact_mate(space: HbSpace, f, shift: int = 0) -> Optional[tuple]:
    """(h, s-scaled mate of h) as exact polynomials, h = z^shift f and
    the mate without trailing zeros, or None (see gaussian_mate)."""
    pair = gaussian_mate(space, f, shift)
    return None if pair is None else _qc_pair(*pair)


def _qc_pair(h, g) -> tuple:
    return tuple(exact.to_qc(h)), tuple(exact.qtrim(exact.to_qc(g)))


def _check_space(space: HbSpace, F: HbElement, G: HbElement):
    if F.space is not space or G.space is not space:
        raise SpaceMismatchError("elements belong to different spaces")


def inner_product(space: HbSpace, F: HbElement, G: HbElement) -> complex:
    """<f,g>_2 + <f1,g1>_2 through the embedding."""
    _check_space(space, F, G)
    return poly.hardy_inner(F.f, G.f) + poly.hardy_inner(F.mate, G.mate)


def inner_product_exact(space: HbSpace, F: HbElement, G: HbElement):
    """Exact <f,g>_2 + <f1,g1>_2 / s2 (s-scaled mates) as a QC, or None."""
    _check_space(space, F, G)
    if space.exact is None or F.exact_ints is None or G.exact_ints is None:
        return None
    return exact.embedded_inner(F.exact_ints, G.exact_ints, space.exact.s2)


# ---------------------------------------------------------------------------
# kernels

def kernel(space: HbSpace, lam: complex) -> UnitCircleFunction:
    """Reproducing kernel (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z)."""
    lam = complex(lam)
    if not abs(lam) < 1:        # NaN too
        raise DomainError("kernel parameter must lie in the open disk")
    blam = complex(space.b(lam))
    num = poly.psub(space.q, np.conj(blam) * space.p)
    den = poly.pmul(space.q, np.array([1.0, -np.conj(lam)], dtype=complex))
    return UnitCircleFunction.rational(num, den)


def boundary_kernel(space: HbSpace, zeta: complex) -> UnitCircleFunction:
    """Kernel at a circle point where |b| = 1 (finite-defect eigenpoints).

    The pole of 1/(1 - conj(zeta) z) at zeta cancels against the zero of
    1 - conj(b(zeta)) b(z); the result is polynomial for polynomial b.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1) > 1e-9:
        raise DomainError("boundary kernel needs a unimodular point")
    c = complex(space.b(zeta))
    if abs(abs(c) - 1) > 1e-6:
        raise DomainError(
            f"|b({zeta:.6g})| = {abs(c):.6g} != 1: no boundary kernel there")
    num = poly.psub(space.q, np.conj(c) * space.p)
    quot, rem = poly.synthetic_div(num, zeta)
    if abs(rem) > 1e-8 * max(1.0, float(np.max(np.abs(num)))):
        raise ArithmeticError("numerator does not vanish at the kernel point")
    num2 = poly.trim(-zeta * quot)
    if poly.degree(space.q) == 0:
        return UnitCircleFunction.polynomial(num2 / space.q[0])
    return UnitCircleFunction.rational(num2, space.q)


def kernel_taylor_degree(lam: complex, tail_tol: float) -> int:
    """Smallest N with |lam|^N / (1-|lam|) below tail_tol."""
    r = abs(complex(lam))
    if r == 0:
        return 1
    n = int(np.ceil(np.log(tail_tol * (1 - r)) / np.log(r))) + 1
    return max(1, min(n, 8192))


def kernel_element(space: HbSpace, lam: complex,
                   tail_tol: float = config.KERNEL_TAIL_TOL) -> HbElement:
    """Taylor truncation of the kernel, embedded through the mate."""
    k = kernel(space, lam)
    n = kernel_taylor_degree(lam, tail_tol)
    coeffs = poly.series_div(k.num, k.den, n + 1)
    return make_element(space, coeffs)


def element_from_rational(space: HbSpace, fn: UnitCircleFunction,
                          tail_tol: float = config.KERNEL_TAIL_TOL,
                          max_degree: int = 8192) -> HbElement:
    """Embed a rational function analytic on the closed disk by truncation."""
    if fn.is_polynomial():
        return make_element(space, fn.to_polynomial())
    rho = min(abs(r) for r, _ in poly.roots_with_multiplicity(fn.den))
    if rho <= 1 + 1e-9:
        raise DomainError("rational element needs poles outside the closed "
                          "disk")
    n = 64
    while n <= max_degree:
        coeffs = poly.series_div(fn.num, fn.den, n + 1)
        tail = abs(coeffs[-1]) * rho / (rho - 1)
        if tail <= tail_tol * max(1.0, float(np.max(np.abs(coeffs)))):
            return make_element(space, coeffs[:-1])
        n *= 2
    raise ArithmeticError("Taylor tail did not meet the tolerance")


def divide_inner(space: HbSpace, element: HbElement) -> HbElement:
    """The element f/theta, where theta is the inner factor of f."""
    f = element.f
    if poly.degree(f) < 0:
        raise ValueError("cannot divide the zero element")
    theta, outer = factor.inner_outer(f)
    if not theta.zeros:
        return element
    return make_element(space, outer.to_polynomial())
