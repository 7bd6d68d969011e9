"""Exact complex-rational scalars, the Pythagorean certificate and the
Bareiss elimination.

Scalars (QC) are complex numbers with Fraction real and imaginary parts.
Exact polynomials are numpy object arrays of them, which the float code
of poly, factor and hb runs on unchanged: exact mates, inner products
and Laurent weights go through hb and factor, not through copies here.
The backend certifies identities (Pythagorean mate relation, mate
residuals, norms, Gram eliminations) that the floating pipeline can only
check to tolerance.  Mates whose outer factor carries an irrational
positive constant s are handled in scaled form a = s*A with s^2 rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import factor


def _binary(op):
    """op, or NotImplemented for non-numbers so numpy can broadcast."""
    def wrapped(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return op(self, other)
    return wrapped


class QC:
    """Complex number with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def from_complex(cls, z: complex, max_den: int = 10**9) -> "QC":
        """Nearest small-denominator rational approximation of z."""
        return cls(Fraction(float(z.real)).limit_denominator(max_den),
                   Fraction(float(z.imag)).limit_denominator(max_den))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    conjugate = conj    # what numpy's conj calls on object arrays

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @_binary
    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_binary
    def __sub__(self, other):
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    @_binary
    def __mul__(self, other):
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, other):
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("exact division by zero")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (other.re * self.im - other.im * self.re) / d)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, (QC, int, Fraction, complex, float)):
            return NotImplemented
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"


def _coerce(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, complex):
        return QC(Fraction(x.real), Fraction(x.imag))
    return QC(x)


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
    and G_k its leading k x k block.  Fraction-free (Bareiss 1968): scaled
    by the lcm D of its denominators, the matrix is eliminated over the
    Gaussian integers, each update divided exactly by the previous pivot;
    pivot k is the leading minor P_k, and the corner then is P_k D times
    complement k.  A remainder or a non-positive pivot raises
    ArithmeticError."""
    n = len(m)
    scale = math.lcm(*(x.denominator for j in range(n) for c in m[j][j:]
                       for x in (c.re, c.im)))
    re = [[0] * j + [int(c.re * scale) for c in m[j][j:]] for j in range(n)]
    im = [[0] * j + [int(c.im * scale) for c in m[j][j:]] for j in range(n)]
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
        out.append(Fraction(re[n - 1][n - 1], piv * scale))
    return out
