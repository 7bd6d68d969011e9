"""Exact complex-rational arithmetic backend.

Scalars are complex numbers with Fraction real and imaginary parts;
polynomials are lists of such scalars, lowest degree first.  The backend
is used to certify identities (Pythagorean mate relation, mate residuals,
norms, Gram eliminations) that the floating pipeline can only check to
tolerance.  Mates whose outer factor carries an irrational positive
constant s are handled in scaled form a = s*A with s^2 rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


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

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        other = _coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
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
# polynomial helpers (lists of QC, lowest degree first)

def qpoly(coeffs: Iterable) -> list[QC]:
    return [_coerce(c) for c in coeffs]


def qtrim(p: Sequence[QC]) -> list[QC]:
    out = list(p)
    while out and out[-1].is_zero():
        out.pop()
    return out


def qadd(p: Sequence[QC], q: Sequence[QC]) -> list[QC]:
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else QZERO) + (q[k] if k < len(q) else QZERO)
            for k in range(n)]


def qmul(p: Sequence[QC], q: Sequence[QC]) -> list[QC]:
    if not p or not q:
        return []
    out = [QZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def qeval(p: Sequence[QC], z) -> QC:
    z = _coerce(z)
    acc = QZERO
    for c in reversed(list(p)):
        acc = acc * z + c
    return acc


def qinner(p: Sequence[QC], q: Sequence[QC]) -> QC:
    """Hardy-space inner product sum_k p_k conj(q_k)."""
    acc = QZERO
    for k in range(min(len(p), len(q))):
        acc = acc + p[k] * q[k].conj()
    return acc


def ql2sq(p: Sequence[QC]) -> Fraction:
    return sum((c.abs2() for c in p), Fraction(0))


def modulus_sq_coeffs(p: Sequence[QC]) -> list[QC]:
    """Laurent coefficients of |p|^2 on the circle, indices -D..D.

    Returned as a list of length 2*D+1 with index k stored at k+D.
    """
    d = len(p) - 1
    out = [QZERO] * (2 * d + 1)
    for k in range(-d, d + 1):
        acc = QZERO
        for j in range(len(p)):
            if 0 <= j + k < len(p):
                acc = acc + p[j + k] * p[j].conj()
        out[k + d] = acc
    return out


def laurent_add(a: Sequence[QC], b: Sequence[QC]) -> list[QC]:
    """Add two centered Laurent coefficient lists (odd lengths)."""
    da, db = (len(a) - 1) // 2, (len(b) - 1) // 2
    d = max(da, db)
    out = [QZERO] * (2 * d + 1)
    for k in range(-d, d + 1):
        acc = QZERO
        if -da <= k <= da:
            acc = acc + a[k + da]
        if -db <= k <= db:
            acc = acc + b[k + db]
        out[k + d] = acc
    return out


def pythagorean_residual(p: Sequence, q: Sequence, A: Sequence,
                         s2: Fraction) -> list[QC]:
    """Laurent coefficients of s2|A|^2 + |p|^2 - |q|^2 (empty iff exact).

    The identity says that a = s*A/q, s^2 = s2, is the Pythagorean mate
    of b = p/q: |a|^2 + |b|^2 = 1 on the circle.
    """
    p, q, A = qpoly(p), qpoly(q), qpoly(A)
    lhs = laurent_add([QC(s2) * c for c in modulus_sq_coeffs(A)],
                      modulus_sq_coeffs(p))
    resid = laurent_add(lhs, [-c for c in modulus_sq_coeffs(q)])
    return resid if any(not c.is_zero() for c in resid) else []


def analytic_part_of_conj_product(p: Sequence[QC], f: Sequence[QC]) -> list[QC]:
    """Coefficients of P_+(conj(p) f) for polynomials p, f."""
    out = []
    for m in range(len(f)):
        acc = QZERO
        for j in range(len(p)):
            if m + j < len(f):
                acc = acc + p[j].conj() * f[m + j]
        out.append(acc)
    return qtrim(out)


def mate_solve(p: Sequence[QC], A: Sequence[QC], f: Sequence[QC]) -> list[QC]:
    """Solve P_+(conj(p) f + conj(A) g) = 0 for the polynomial g.

    Back substitution from the top coefficient down; requires A[0] != 0.
    p = None takes f as the projection P_+(conj(p) f), already built.
    """
    if not A or A[0].is_zero():
        raise ZeroDivisionError("outer factor must not vanish at 0")
    q = [-c for c in (f if p is None else
                      analytic_part_of_conj_product(p, f))]
    g = [QZERO] * len(q)
    a0c = A[0].conj()
    for m in range(len(q) - 1, -1, -1):
        acc = q[m]
        for j in range(1, len(A)):
            if m + j < len(g):
                acc = acc - A[j].conj() * g[m + j]
        g[m] = acc / a0c
    return qtrim(g)


def mate_residual(p: Sequence[QC], A: Sequence[QC], f: Sequence[QC],
                  g: Sequence[QC]) -> list[QC]:
    """P_+(conj(p) f + conj(A) g) (p as in mate_solve); empty iff exact."""
    r = qadd(f if p is None else analytic_part_of_conj_product(p, f),
             analytic_part_of_conj_product(A, g))
    return qtrim(r)


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
