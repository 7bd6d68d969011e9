"""Exact complex-rational scalars, exact mates, the Pythagorean
certificate and the Bareiss elimination.

Exact polynomials are Gaussian-integer polynomials: a triple
(re, im, d) of two integer lists over one positive denominator, which
carry no gcd per operation.  Exact mates are solved on such triples
(mate_solve, fraction-free) and every solve is checked by its own exact
residual (mate_residual); the float pipeline keeps its own solve in hb.
The backend certifies identities (Pythagorean mate relation, mate
residuals, norms, Gram eliminations) that the floating pipeline can
only check to tolerance.  Mates whose outer factor carries an
irrational positive constant s are handled in scaled form a = s*A with
s^2 rational.  Scalars (QC), Gaussian integers over one positive
denominator in lowest terms, are the values that exact reads return
(to_qc); the backend does no arithmetic on them.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Sequence


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


def qtrim(p: Sequence[QC]) -> list[QC]:
    out = list(p)
    while out and out[-1].is_zero():
        out.pop()
    return out


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
# Gaussian-integer polynomials (re, im, d), the certificate and exact mates

def scaled(x, c: Fraction) -> tuple:
    """The triple x = (re, im, d) times c > 0, with gcd(re, im, d) = 1."""
    k = c.numerator
    re, im, d = [k * a for a in x[0]], [k * a for a in x[1]], x[2]
    d *= c.denominator
    g = math.gcd(*re, *im, d)
    return [a // g for a in re], [a // g for a in im], d // g


def pythagorean_residual(p, q, A, s2: Fraction) -> list[QC]:
    """Coefficients of z^0, z^1, ... of the Laurent polynomial
    s2|A|^2 + |p|^2 - |q|^2 on the circle, p, q and A each (re, im, d):
    empty iff a = s*A/q, s^2 = s2, is the Pythagorean mate of b = p/q,
    |a|^2 + |b|^2 = 1 on the circle.  The residual is Hermitian, so the
    coefficient of z^-m is the conjugate of that of z^m.

    Each |x|^2 is the integer autocorrelation P_+(conj(x) x) over d^2,
    and the sum is cleared of its denominators.  The float backend
    checks the same residual in l1 norm (factor.weight_residual_l1).
    """
    n = max(len(x[0]) for x in (p, q, A))
    dp2, dq2, da2 = p[2] ** 2, q[2] ** 2, A[2] ** 2
    u, v = s2.numerator * dp2 * dq2, s2.denominator * da2
    re, im = [0] * n, [0] * n
    for (xr, xi, _d), k in ((A, u), (p, v * dq2), (q, -v * dp2)):
        pad = [0] * (n - len(xr))
        cr, ci = _pplus_conj(xr, xi, xr + pad, xi + pad)
        re = [a + k * c for a, c in zip(re, cr)]
        im = [a + k * c for a, c in zip(im, ci)]
    return to_qc((re, im, v * dp2 * dq2)) if any(re) or any(im) else []


def to_qc(x) -> list[QC]:
    """The coefficients of (re, im, d) as QC, each in lowest terms."""
    re, im, d = x
    return [_reduced(a, b, d) for a, b in zip(re, im)]


def embedded_inner(x, y, s2: Fraction) -> QC:
    """<f, g>_2 + <f1, g1>_2 / s2 for x = (f, f1) and y = (g, g1), each a
    pair of (re, im, d): the integer dot products over one denominator,
    reduced once."""
    (f, f1), (g, g1) = x, y
    ar, ai = hardy_dot(f[0], f[1], g[0], g[1])
    br, bi = hardy_dot(f1[0], f1[1], g1[0], g1[1])
    kf, km = f1[2] * g1[2] * s2.numerator, f[2] * g[2] * s2.denominator
    return _reduced(ar * kf + br * km, ai * kf + bi * km, f[2] * g[2] * kf)


def hardy_dot(xr, xi, yr, yi) -> tuple:
    """(re, im) of sum_k x_k conj(y_k) for Gaussian-integer coefficient
    lists x = xr + i xi and y = yr + i yi."""
    return _dot(xr, yr) + _dot(xi, yi), _dot(xi, yr) - _dot(xr, yi)


def _dot(x, y) -> int:
    return sum(map(operator.mul, x, y))


def gaussian_gcd(a: int, b: int, c: int, e: int) -> tuple:
    """(re, im) of a gcd of the Gaussian integers a + bi and c + ei, up
    to a unit: Euclid's algorithm, each quotient rounded to the nearest
    Gaussian integer, so the norm at least halves per step."""
    while c or e:
        n = c * c + e * e
        x, y = a * c + b * e, b * c - a * e     # (a + bi) conj(c + ei)
        qr, qi = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b, c, e = c, e, a - qr * c + qi * e, b - qr * e - qi * c
    return a, b


def mate_solve(p, A, h) -> tuple:
    """The g of h's length L with P_+(conj(p) h + conj(A) g) = 0, as
    (re, im, d); p, A and h are (re, im, d), A's integer A(0) = a0 > 0.

    Read from the top coefficient down, the relation is the series
    division g[m] = (dA rhs[m] - sum_(j>=1) conj(A_j) g[m+j]) / a0, with
    rhs = R/D, R = -P_+(conj(p) h) on the numerators and D = dp dh.
    Multiplied through by powers of a0, g[m] = G[m] / (D a0^(L-m)) with

        G[m] = dA a0^(L-1-m) R[m] - sum_(j>=1) a0^(j-1) conj(A_j) G[m+j],

    integers only, with no division and no gcd.  g is returned over
    D a0^L, coefficient m as G[m] a0^m.
    """
    (pr, pi, dp), (ar, ai, da), (hr, hi, dh) = p, A, h
    a0 = ar[0]
    if ai[0] or a0 <= 0:
        raise ArithmeticError("A(0) is not positive")
    n = len(hr)
    rr, ri = _pplus_conj(pr, pi, hr, hi)
    pw = [1]
    for _ in range(n):
        pw.append(pw[-1] * a0)
    # conj(A_j) a0^(j-1) = c - is
    taps = [(j, ar[j] * pw[j - 1], ai[j] * pw[j - 1])
            for j in range(1, min(len(ar), n)) if ar[j] or ai[j]]
    gr, gi = [0] * (n + len(ar)), [0] * (n + len(ai))
    for m in range(n - 1, -1, -1):
        k = -da * pw[n - 1 - m]
        xr, xi = k * rr[m], k * ri[m]
        for j, c, s in taps:
            yr, yi = gr[m + j], gi[m + j]
            xr -= c * yr + s * yi
            xi -= c * yi - s * yr
        gr[m], gi[m] = xr, xi
    del gr[n:], gi[n:]
    if a0 != 1:
        gr = [x * w for x, w in zip(gr, pw)]
        gi = [x * w for x, w in zip(gi, pw)]
    return gr, gi, dp * dh * pw[n]


def mate_residual(p, A, h, g) -> None:
    """Check P_+(conj(p) h + conj(A) g) = 0 exactly, all (re, im, d), g
    of h's length (so no coefficient past the last can be nonzero);
    raise ArithmeticError if it is not.  Both projections are formed
    here from the inputs, independently of mate_solve."""
    (pr, pi, dp), (ar, ai, da), (hr, hi, dh), (gr, gi, dg) = p, A, h, g
    if len(gr) != len(hr) or len(gi) != len(hi):
        raise ArithmeticError("exact mate residual is nonzero")
    sr, si = _pplus_conj(pr, pi, hr, hi)            # over dp dh
    tr, ti = _pplus_conj(ar, ai, gr, gi)            # over dA dg
    u, v = da * dg, dp * dh
    if any(x * u + y * v for x, y in zip(sr, tr)) or \
            any(x * u + y * v for x, y in zip(si, ti)):
        raise ArithmeticError("exact mate residual is nonzero")


def _pplus_conj(xr, xi, yr, yi) -> tuple:
    """Numerators (re, im) of P_+(conj(x) y) to y's length:
    sum_j conj(x_j) y[m+j], one pass over y per nonzero part of x_j."""
    n = len(yr)
    re, im = [0] * n, [0] * n
    for j in range(min(len(xr), n)):
        c, s = xr[j], xi[j]
        if c:           # c y: c yr + i c yi
            re[:n - j] = [u + c * v for u, v in zip(re, yr[j:])]
            im[:n - j] = [u + c * v for u, v in zip(im, yi[j:])]
        if s:           # -is y: s yi - i s yr
            re[:n - j] = [u + s * v for u, v in zip(re, yi[j:])]
            im[:n - j] = [u - s * v for u, v in zip(im, yr[j:])]
    return re, im


def _bareiss(re, im, num: int, den: int) -> list[Fraction]:
    """num/den times the Schur complements of a Hermitian positive definite
    Gaussian-integer matrix re + i im, given on and above its diagonal;
    the last row is the corner.  Fraction-free (Bareiss 1968), in place,
    two pivots a step: with a = A[k][k], b = A[k][k+1], c = A[k+1][k+1]
    and p the pivot two before,

        A'[i][j] = (P A[i][j] + u_i A[k][j] + v_i A[k+1][j]) / p,
        P = (a c - |b|^2) / p,  u_i = conj(b y - c x) / p,
        v_i = conj(conj(b) x - a y) / p,

    x = A[k][i] and y = A[k+1][i], each division exact: a is the leading
    minor P_k and P is P_(k+1).  The corner after pivot k is
    (a corner - |A[k][last]|^2) / p, read before the step, and complement
    k is the corner over P_k.  A remainder or a non-positive pivot raises
    ArithmeticError; the first step's divisor is 1, so its updates skip
    the division."""
    n = len(re)
    last = n - 1
    out, prev, k, cr, ci = [], 1, 0, re[last], im[last]
    while k < last:
        a, rk, ik = re[k][k], re[k], im[k]
        if ik[k] != 0 or a <= 0:
            raise ArithmeticError("Gram pivot is not positive")
        x, y = rk[last], ik[last]
        corner, r = divmod(a * cr[last] - x * x - y * y, prev)
        if r:
            raise ArithmeticError("inexact Bareiss division")
        if ci[last] != 0:
            raise ArithmeticError("exact distance has nonzero imaginary part")
        out.append(Fraction(corner * num, a * den))
        if k + 1 == last:
            break
        rl, il = re[k + 1], im[k + 1]
        br, bi, c = rk[k + 1], ik[k + 1], rl[k + 1]
        piv, r = divmod(a * c - br * br - bi * bi, prev)
        if r:
            raise ArithmeticError("inexact Bareiss division")
        if il[k + 1] != 0 or piv <= 0:
            raise ArithmeticError("Gram pivot is not positive")
        for i in range(k + 2, n):
            xr, xi, yr, yi = rk[i], ik[i], rl[i], il[i]
            ur, r1 = divmod(br * yr - bi * yi - c * xr, prev)
            ui, r2 = divmod(c * xi - br * yi - bi * yr, prev)
            vr, r3 = divmod(br * xr + bi * xi - a * yr, prev)
            vi, r4 = divmod(bi * xr - br * xi + a * yi, prev)
            if r1 or r2 or r3 or r4:
                raise ArithmeticError("inexact Bareiss division")
            ri, ii = re[i], im[i]
            if prev == 1:
                for j in range(i, n):
                    pr, pi, qr, qi = rk[j], ik[j], rl[j], il[j]
                    ri[j] = piv * ri[j] + ur * pr - ui * pi + vr * qr - vi * qi
                    ii[j] = piv * ii[j] + ur * pi + ui * pr + vr * qi + vi * qr
                continue
            for j in range(i, n):
                pr, pi, qr, qi = rk[j], ik[j], rl[j], il[j]
                zr, r1 = divmod(piv * ri[j] + ur * pr - ui * pi +
                                vr * qr - vi * qi, prev)
                zi, r2 = divmod(piv * ii[j] + ur * pi + ui * pr +
                                vr * qi + vi * qr, prev)
                if r1 or r2:
                    raise ArithmeticError("inexact Bareiss division")
                ri[j], ii[j] = zr, zi
        if ci[last] != 0:
            raise ArithmeticError("exact distance has nonzero imaginary part")
        out.append(Fraction(cr[last] * num, piv * den))
        prev, k = piv, k + 2
    return out
