"""Exact complex-rational scalars, the Pythagorean certificate and the
Bareiss elimination.

Scalars (QC) are Gaussian integers over one positive denominator,
(a + bi)/d in lowest terms, with Fraction views .re and .im.  Exact
polynomials are numpy object arrays of them, which the float code
of poly, factor and hb runs on unchanged: exact mates, inner products
and Laurent weights go through hb and factor, not through copies here.
The backend certifies identities (Pythagorean mate relation, mate
residuals, norms, Gram eliminations) that the floating pipeline can only
check to tolerance.  Mates whose outer factor carries an irrational
positive constant s are handled in scaled form a = s*A with s^2 rational.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import factor


class QC:
    """Complex rational (a + bi)/d: a Gaussian-integer numerator over one
    positive denominator, in lowest terms (gcd(a, b, d) == 1, d > 0).

    The form is canonical, so equality compares fields, and a product is
    four int products and one gcd.  .re and .im are Fraction views.
    Operands that are not numbers give NotImplemented, so numpy
    broadcasts a QC over object arrays from either side.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def from_complex(cls, z: complex, max_den: int = 10**9) -> "QC":
        """Nearest small-denominator rational approximation of z: each
        part is Fraction(x).limit_denominator(max_den), found on ints."""
        a, c = _limit_denominator(float(z.real), max_den)
        b, e = _limit_denominator(float(z.imag), max_den)
        d = math.lcm(c, e)          # a/c, b/e in lowest terms: so is this
        return _raw(a * (d // c), b * (d // e), d)

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def conj(self) -> "QC":
        return _raw(self.a, -self.b, self.d)

    conjugate = conj    # what numpy's conj calls on object arrays

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        if type(other) is not QC:
            other = _coerce_operand(other)
            if other is None:
                return NotImplemented
        return _plus(self, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QC:
            other = _coerce_operand(other)
            if other is None:
                return NotImplemented
        return _plus(self, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        other = _coerce_operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is not QC:
            other = _coerce_operand(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QC:
            other = _coerce_operand(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("exact division by zero")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce_operand(other)
        return NotImplemented if other is None else other / self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if type(other) is not QC:
            if not isinstance(other, (int, Fraction, complex, float)):
                return NotImplemented
            other = _coerce(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        """hash(re) + sys.hash_info.imag * hash(im) in the platform's hash
        width, as for complex: equal to the hash of an equal int, Fraction,
        float or complex."""
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        h = (h + _HASH_HALF) % (2 * _HASH_HALF) - _HASH_HALF
        return -2 if h == -1 else h

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"


_HASH_HALF = 1 << (sys.hash_info.width - 1)
_new = object.__new__


def _raw(a: int, b: int, d: int) -> QC:
    """The QC (a + bi)/d of numbers already in lowest terms."""
    z = _new(QC)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + bi)/d, d > 0, brought to lowest terms."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _plus(x: QC, a: int, b: int, d: int) -> QC:
    """x + (a + bi)/d, over the lcm of the two denominators."""
    e = x.d
    if d == e:
        return _reduced(x.a + a, x.b + b, d)
    g = math.gcd(d, e)
    s, t = d // g, e // g
    return _reduced(x.a * s + a * t, x.b * s + b * t, e * s)


def _limit_denominator(x: float, max_den: int) -> tuple:
    """(p, q) of Fraction(x).limit_denominator(max_den): the same
    continued-fraction convergents and tie rule, on ints."""
    n, d = x.as_integer_ratio()
    if max_den < 1:
        raise ValueError("max_denominator should be at least 1")
    if d <= max_den:
        return n, d
    p0, q0, p1, q1, den = 0, 1, 1, 0, d
    while q0 + n // d * q1 <= max_den:
        a = n // d
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    # p1/q1 and the semiconvergent, 1/(q1 (q0 + k q1)) apart, flank x
    k = (max_den - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:        # p1/q1 wins ties
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _coerce(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, int):
        return _raw(x, 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    if isinstance(x, complex):
        return QC(Fraction(x.real), Fraction(x.imag))
    return QC(x)


def _coerce_operand(x):
    """x as a QC, or None for what is not a number (numpy arrays)."""
    try:
        return _coerce(x)
    except TypeError:
        return None


QZERO = QC(0)


def frac_sqrt(x: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    pn, qn = x.numerator, x.denominator
    rp, rq = math.isqrt(pn), math.isqrt(qn)
    if rp * rp == pn and rq * rq == qn:
        return Fraction(rp, rq)
    return None


# ---------------------------------------------------------------------------
# polynomials: lists of QC, lowest degree first; as numpy object arrays
# they run through the float kernels of poly, factor and hb unchanged

def qpoly(coeffs: Iterable) -> list[QC]:
    return [_coerce(c) for c in coeffs]


def qtrim(p: Sequence[QC]) -> list[QC]:
    out = list(p)
    while out and out[-1].is_zero():
        out.pop()
    return out


def pythagorean_residual(p: Sequence, q: Sequence, A: Sequence,
                         s2: Fraction) -> list[QC]:
    """Laurent coefficients of s2|A|^2 minus the weight |q|^2 - |p|^2
    (empty iff exact).

    The identity says that a = s*A/q, s^2 = s2, is the Pythagorean mate
    of b = p/q: |a|^2 + |b|^2 = 1 on the circle.  The residual is
    factor.weight_residual, the one the float backend checks in l1 norm.
    """
    p, q, A = (np.array(qpoly(c), dtype=object) for c in (p, q, A))
    resid = factor.weight_residual(A, factor.mate_weight(p, q), s2)
    return [] if all(c.is_zero() for c in resid) else list(resid)


def bordered_schur(m) -> list[Fraction]:
    """Schur complements c - r_k* G_k^-1 r_k, k = 1..n, of a Hermitian
    [[G, r], [r*, c]] given on and above its diagonal, G positive definite
    and G_k its leading k x k block, by _bareiss of the matrix times the
    lcm D of its denominators."""
    *rows, scale = gaussian_ints(*(row[j:] for j, row in enumerate(m)))
    re, im = ([[0] * j + r[t] for j, r in enumerate(rows)] for t in (0, 1))
    return _bareiss(re, im, 1, scale)


def gaussian_ints(*polys) -> list:
    """Lists of QC as (re, im) integer lists over their lcm denominator d:
    the pairs, then d."""
    d = math.lcm(*(c.d for p in polys for c in p))
    return [([c.a * (d // c.d) for c in p], [c.b * (d // c.d) for c in p])
            for p in polys] + [d]


def _bareiss(re, im, num: int, den: int) -> list[Fraction]:
    """num/den times the Schur complements of a Hermitian positive definite
    Gaussian-integer matrix re + i im, given on and above its diagonal.
    Fraction-free (Bareiss 1968), in place: each update is divided exactly
    by the previous pivot, so pivot k is the leading minor P_k and the
    corner then is P_k times complement k.  A remainder or a non-positive
    pivot raises ArithmeticError."""
    n = len(re)
    out, prev = [], 1
    for k in range(n - 1):
        piv, rk, ik = re[k][k], re[k], im[k]
        if im[k][k] != 0 or piv <= 0:
            raise ArithmeticError("Gram pivot is not positive")
        for i in range(k + 1, n):
            ar, ai, ri, ii = rk[i], ik[i], re[i], im[i]
            for j in range(i, n):
                xr, rr = divmod(piv * ri[j] - ar * rk[j] - ai * ik[j], prev)
                xi, r2 = divmod(piv * ii[j] - ar * ik[j] + ai * rk[j], prev)
                if rr or r2:
                    raise ArithmeticError("inexact Bareiss division")
                ri[j], ii[j] = xr, xi
        prev = piv
        if im[n - 1][n - 1] != 0:
            raise ArithmeticError("exact distance has nonzero imaginary part")
        out.append(Fraction(re[n - 1][n - 1] * num, piv * den))
    return out
