"""Analytic functions with unit-circle boundary data.

A UnitCircleFunction is a polynomial, a rational function whose
denominator is zero-free on the closed disk (unless explicitly flagged
boundary-singular), or a finite Blaschke product.  The module supplies
evaluation, Fourier coefficients, boundary sampling, root finding, and
Herglotz/Cauchy integrals of (density + finitely many atoms) measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import config, poly
from .errors import DomainError, PoleError

_EVAL_SLACK = 1e-9


class UnitCircleFunction:
    """Polynomial / rational / finite-Blaschke function on the closed disk."""

    def __init__(self, kind, num, den=None, zeros=None, phase=None,
                 boundary_singular=False, den_roots=None):
        self.kind = kind
        self.boundary_singular = bool(boundary_singular)
        num_roots = None
        if kind == "poly":
            self.num = poly.trim(poly.finite(num))
            self.den = np.array([1.0 + 0j])
        elif kind == "rational":
            num, den, num_roots = _normalize_rational(
                num, den, boundary_singular, den_roots)
            self.num, self.den = num, den
        elif kind == "blaschke":
            zs = [complex(z) for z in (zeros or [])]
            if any(abs(z) >= 1 for z in zs):
                raise ValueError("Blaschke zeros must lie in the open disk")
            ph = complex(phase if phase is not None else 1.0)
            if abs(ph) == 0:
                raise ValueError("Blaschke phase must be unimodular")
            self.zeros = zs
            self.phase = ph / abs(ph)
            # prod (z - z_k) over prod (1 - conj(z_k) z), its reversal, kept
            # as built: trim's relative rule would drop small top terms of
            # den that matter where den is small.  Only the zero zeros
            # leave exact zeros on top of den.
            monic = poly.from_roots([(z, 1) for z in zs])
            self.num = self.phase * monic
            self.den = poly.trim(poly.reverse_conj(monic), 0.0)
        else:
            raise ValueError(f"unknown representation kind {kind!r}")
        self._samples: dict[int, np.ndarray] = {}
        # degrees read once: num and den stay fixed
        if kind == "blaschke":
            self.num_degree, self.den_degree = len(zs), self.den.size - 1
        else:       # trimmed; only num, scaled by den[0], needs trim's rule
            self.num_degree = poly.degree(self.num) if kind == "rational" \
                else self.num.size - 1 if self.num.any() else -1
            self.den_degree = self.den.size - 1
        self._num_roots = _carried(self.num_degree, num_roots)

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "UnitCircleFunction":
        return cls("poly", coeffs)

    @classmethod
    def rational(cls, num, den, boundary_singular=False,
                 den_roots=None) -> "UnitCircleFunction":
        """num/den, common roots cancelled and poles checked.

        The cancellation solves den and, when den is nonconstant, num; the
        function keeps the roots of num it leaves (num_roots).  den_roots,
        when given, are the roots with multiplicity of a den the caller has
        already cancelled against num (cancel_with_roots); the cancellation
        and both root solves are then skipped, num's roots are solved on
        first use, and den is trimmed of exact zeros only: its roots give
        its degree, which the relative rule may undercut where den is small.
        """
        return cls("rational", num, den, boundary_singular=boundary_singular,
                   den_roots=den_roots)

    @classmethod
    def _cancelled(cls, num, den, num_roots, den_roots,
                   boundary_singular=False) -> "UnitCircleFunction":
        """rational(num, den, ...) for a pair cancel_with_roots returned,
        carrying the roots it left on both sides: no root solve."""
        fn = cls.rational(num, den, boundary_singular, den_roots)
        fn._num_roots = _carried(fn.num_degree, num_roots)
        return fn

    @classmethod
    def blaschke(cls, zeros, phase=1.0) -> "UnitCircleFunction":
        return cls("blaschke", None, zeros=zeros, phase=phase)

    @classmethod
    def constant(cls, c) -> "UnitCircleFunction":
        return cls("poly", [complex(c)])

    # -- basic structure ----------------------------------------------------

    def as_num_den(self):
        return self.num, self.den

    def is_polynomial(self) -> bool:
        return self.den_degree == 0

    def to_polynomial(self) -> np.ndarray:
        if not self.is_polynomial():
            raise ValueError("function is not a polynomial")
        return self.num / self.den[0]

    def degree(self) -> int:
        return max(self.num_degree, self.den_degree)

    def num_roots(self) -> tuple:
        """Roots with multiplicity of the numerator, () when it is constant:
        carried from construction or solved on first use, then kept."""
        if self._num_roots is None:
            self._num_roots = tuple(poly.roots_with_multiplicity(self.num)
                                    if self.num_degree >= 1 else ())
        return self._num_roots

    def __call__(self, z):
        zin = np.asarray(z, dtype=complex)
        scalar = zin.ndim == 0
        za = np.atleast_1d(zin)
        if np.any(np.abs(za) > 1 + _EVAL_SLACK):
            raise DomainError("evaluation point outside the closed unit disk")
        nv = np.atleast_1d(poly.horner(self.num, za))
        if self.den_degree == 0:
            out = nv / self.den[0]
        else:
            dv = np.atleast_1d(poly.horner(self.den, za))
            bad = np.abs(dv) <= 1e-14 * max(1.0,
                                            float(np.max(np.abs(self.den))))
            if np.any(bad):
                raise PoleError("evaluation at a pole of the denominator")
            out = nv / dv
        return complex(out[0]) if scalar else out

    def boundary_values(self, n: Optional[int] = None) -> np.ndarray:
        """Samples at the n-th roots of unity, by default
        config.QUADRATURE_POINTS of them (cached)."""
        n = int(n or config.QUADRATURE_POINTS)
        if n not in self._samples:
            pts = config.unit_circle_points(n)
            nv = poly.horner(self.num, pts)
            if self.den_degree == 0:
                vals = nv / self.den[0]
            else:
                dv = poly.horner(self.den, pts)
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = nv / dv
            self._samples[n] = vals
        return self._samples[n]

    # -- algebra (rational arithmetic with cancellation) --------------------

    def _rat(self):
        return self.num, self.den

    def __add__(self, other):
        other = _as_ucf(other)
        n1, d1 = self._rat()
        n2, d2 = other._rat()
        num = poly.padd(poly.pmul(n1, d2), poly.pmul(n2, d1))
        return _make_rational(num, poly.pmul(d1, d2))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(_as_ucf(other).__mul__(-1))

    def __rsub__(self, other):
        return _as_ucf(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _make_rational(self.num * complex(other), self.den)
        other = _as_ucf(other)
        return _make_rational(poly.pmul(self.num, other.num),
                              poly.pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return _make_rational(self.num / complex(other), self.den)
        other = _as_ucf(other)
        return _make_rational(poly.pmul(self.num, other.den),
                              poly.pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _as_ucf(other).__truediv__(self)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "poly":
            return {"type": "poly", "coeffs": _pairs(self.num)}
        if self.kind == "rational":
            return {"type": "rational", "num": _pairs(self.num),
                    "den": _pairs(self.den),
                    "boundary_singular": self.boundary_singular}
        return {"type": "blaschke", "zeros": _pairs(self.zeros),
                "phase": [self.phase.real, self.phase.imag]}

    @classmethod
    def from_dict(cls, obj) -> "UnitCircleFunction":
        if isinstance(obj, str):
            obj = json.loads(obj)
        t = obj.get("type")
        if t == "poly":
            return cls.polynomial(_unpairs(obj["coeffs"]))
        if t == "rational":
            return cls.rational(_unpairs(obj["num"]), _unpairs(obj["den"]),
                                boundary_singular=obj.get("boundary_singular",
                                                          False))
        if t == "blaschke":
            ph = obj.get("phase", [1.0, 0.0])
            return cls.blaschke(_unpairs(obj["zeros"]), complex(ph[0], ph[1]))
        raise ValueError(f"unknown function literal type {t!r}")

    def __repr__(self):
        if self.kind == "blaschke":
            return f"UnitCircleFunction(blaschke, zeros={self.zeros})"
        if self.is_polynomial():
            return f"UnitCircleFunction(poly, {_fmt_poly(self.to_polynomial())})"
        return (f"UnitCircleFunction(rational, "
                f"({_fmt_poly(self.num)}) / ({_fmt_poly(self.den)}))")


def _pairs(cs):
    return [[complex(c).real, complex(c).imag] for c in np.atleast_1d(cs)]


def _unpairs(pairs):
    return np.array([complex(p[0], p[1]) for p in pairs])


def _fmt_poly(c):
    terms = []
    for k, v in enumerate(np.atleast_1d(c)):
        if v == 0 and len(np.atleast_1d(c)) > 1:
            continue
        mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        terms.append(f"{complex(v):.6g}{mono}" if mono == "" or v != 1
                     else mono)
    return " + ".join(terms) if terms else "0"


def _as_ucf(x) -> UnitCircleFunction:
    if isinstance(x, UnitCircleFunction):
        return x
    if isinstance(x, (int, float, complex)):
        return UnitCircleFunction.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a function")


def _make_rational(num, den) -> UnitCircleFunction:
    # an overflowed coefficient would make trim's tolerance infinite
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise OverflowError("a coefficient overflows")
    num, den = poly.trim(num), poly.trim(den)
    if poly.degree(den) == 0:
        return UnitCircleFunction.polynomial(num / den[0])
    return UnitCircleFunction.rational(num, den)


def _carried(deg, roots):
    """roots when they account for the degree deg of num, else None (the
    roots are then solved on first use)."""
    if roots is None or sum(m for _r, m in roots) != max(deg, 0):
        return None
    return tuple(roots)


def _normalize_rational(num, den, boundary_singular, den_roots=None):
    """(num, den, roots of num or None), den[0] = 1, poles checked;
    coefficients that are not finite, or overflow when divided by den[0],
    raise ValueError."""
    num = poly.trim(poly.finite(num, "numerator: "))
    den = poly.trim(poly.finite(den, "denominator: "),
                    0.0 if den_roots else 1e-12)
    if poly.degree(den) < 0 or (poly.degree(den) == 0 and den[0] == 0):
        raise ZeroDivisionError("zero denominator")
    num_roots = None
    if den_roots is None:
        rd = poly.roots_with_multiplicity(den) if poly.degree(den) >= 1 \
            else []
        rn = poly.roots_with_multiplicity(num) \
            if rd and poly.degree(num) >= 1 else []
        num, den, num_roots, den_roots = cancel_with_roots(num, den, rn, rd)
    for r, _m in den_roots:
        if abs(r) < 1 - config.PAIRING_RTOL:
            raise PoleError("denominator vanishes inside the open disk")
        if abs(abs(r) - 1) <= config.PAIRING_RTOL and not boundary_singular:
            raise PoleError("denominator vanishes on the circle; "
                            "construct with boundary_singular=True")
    if den[0] == 0:
        raise PoleError("denominator vanishes at 0")
    scale = den[0]
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = num / scale, den / scale
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise ValueError(f"dividing by den[0] = {scale:.6g} overflows a "
                         "coefficient")
    return num, den, num_roots


def cancel_common_roots(num, den, tol: float = 1e-9):
    """Remove shared roots of two polynomials (matched within tol)."""
    num, den = poly.trim(num), poly.trim(den)
    if poly.degree(num) < 1 or poly.degree(den) < 1:
        return num, den
    num, den, _rn, _rd = cancel_with_roots(
        num, den, poly.roots_with_multiplicity(num),
        poly.roots_with_multiplicity(den), tol)
    return num, den


def cancel_with_roots(num, den, num_roots, den_roots, tol: float = 1e-9):
    """cancel_common_roots for polynomials whose roots are already known.

    num_roots and den_roots list (root, multiplicity) pairs of num and
    den.  Each root of den cancels against the first root of num within
    tol (relative), down to the smaller multiplicity; the reduced pair is
    rebuilt from the remaining roots and the leading coefficients.
    Returns (num, den, remaining num roots, remaining den roots).
    """
    num, den = poly.trim(num), poly.trim(den)
    keep_n = [[r, m] for r, m in num_roots]
    keep_d = [[r, m] for r, m in den_roots]
    cancelled = False
    for dn in keep_d:
        for nn in keep_n:
            if abs(dn[0] - nn[0]) <= tol * max(1.0, abs(dn[0])):
                k = min(dn[1], nn[1])
                if k > 0:
                    dn[1] -= k
                    nn[1] -= k
                    cancelled = True
                break
    left_n = [(r, m) for r, m in keep_n if m > 0]
    left_d = [(r, m) for r, m in keep_d if m > 0]
    if not cancelled:
        return num, den, left_n, left_d
    new_num = poly.from_roots(left_n, num[-1])
    new_den = poly.from_roots(left_d, den[-1])
    return poly.trim(new_num), poly.trim(new_den), left_n, left_d


# ---------------------------------------------------------------------------
# arcs

@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc on the circle, angles in radians.

    Normalized so start lies in [0, 2pi); length lies in (0, 2pi] and a
    length of 2pi denotes the full circle.
    """

    start: float
    length: float

    @classmethod
    def from_angles(cls, start: float, end: float) -> "Arc":
        start, end = float(start), float(end)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"arc angles must be finite, not {start}:{end}")
        tau = 2 * np.pi
        s = start % tau
        ln = (end - start) % tau
        if ln == 0.0:
            if end == start:
                raise ValueError("arc must be nonempty")
            ln = tau
        return cls(s, ln)

    @classmethod
    def full_circle(cls) -> "Arc":
        return cls(0.0, 2 * np.pi)

    @property
    def end(self) -> float:
        return self.start + self.length

    def contains_angle(self, theta: float, closed: bool = True,
                       tol: float = 0.0) -> bool:
        tau = 2 * np.pi
        if self.length >= tau:
            return True
        off = (float(theta) - self.start) % tau
        if closed:
            return off <= self.length + tol or off >= tau - tol
        return tol < off < self.length - tol

    def contains_point(self, zeta: complex, closed: bool = True,
                       tol: float = 0.0) -> bool:
        return self.contains_angle(float(np.angle(zeta)) % (2 * np.pi),
                                   closed=closed, tol=tol)

    def distance(self, zeta: complex) -> float:
        """Angular distance from the point zeta to the closed arc."""
        tau = 2 * np.pi
        off = (float(np.angle(zeta)) - self.start) % tau
        if self.length >= tau or off <= self.length:
            return 0.0
        return min(off - self.length, tau - off)


def arcs_cover_circle(arcs: Sequence[Arc], gap_tol: float = 1e-9) -> bool:
    """True when the union of arcs has no angular gap larger than gap_tol."""
    if not arcs:
        return False
    tau = 2 * np.pi
    if any(a.length >= tau for a in arcs):
        return True
    ivs = []
    for a in arcs:
        if a.end <= tau:
            ivs.append((a.start, a.end))
        else:
            ivs.append((a.start, tau))
            ivs.append((0.0, a.end - tau))
    ivs.sort()
    if ivs[0][0] > gap_tol:
        return False
    merged_end = ivs[0][1]
    for s, e in ivs[1:]:
        if s > merged_end + gap_tol:
            return False
        merged_end = max(merged_end, e)
    return merged_end >= tau - gap_tol


def arc_union_contains(arcs: Sequence[Arc], zeta: complex,
                       closed: bool = True, tol: float = 0.0) -> bool:
    return any(a.contains_point(zeta, closed=closed, tol=tol) for a in arcs)


# ---------------------------------------------------------------------------
# measures

@dataclass
class CircleMeasure:
    """Measure on the circle: density w.r.t. dm plus finitely many atoms."""

    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    atoms: list = field(default_factory=list)

    @classmethod
    def lebesgue(cls) -> "CircleMeasure":
        return cls(density=lambda pts: np.ones(len(pts)))

    @classmethod
    def point(cls, zeta: complex, mass: float) -> "CircleMeasure":
        return cls(density=None, atoms=[(complex(zeta), float(mass))])

    @classmethod
    def from_modulus_sq(cls, fn: UnitCircleFunction,
                        atoms=None) -> "CircleMeasure":
        """The absolutely continuous measure |fn|^2 dm (plus given atoms)."""
        def w(pts):
            return np.abs(poly.horner(fn.num, pts)) ** 2 / \
                np.abs(poly.horner(fn.den, pts)) ** 2
        return cls(density=w, atoms=list(atoms or []))

    def density_values(self, pts: np.ndarray) -> np.ndarray:
        if self.density is None:
            return np.zeros(len(pts))
        return np.asarray(self.density(pts), dtype=float)


def _as_measure(measure) -> CircleMeasure:
    if isinstance(measure, CircleMeasure):
        return measure
    if hasattr(measure, "as_measure"):
        return measure.as_measure()
    if isinstance(measure, UnitCircleFunction):
        return CircleMeasure.from_modulus_sq(measure)
    raise TypeError("expected a CircleMeasure, Clark measure, or function")


# ---------------------------------------------------------------------------
# operations

def evaluate(fn: UnitCircleFunction, z) -> complex:
    """Value of fn at a point of the closed disk (Horner for polynomials)."""
    return fn(z)


def fourier_coeffs(fn: UnitCircleFunction, n0: int, n1: int):
    """Taylor/Fourier coefficients of fn for indices n0..n1 inclusive.

    The power series of num/den, exact to roundoff: every representation
    but a boundary-singular one has its poles outside the closed disk (a
    finite Blaschke product's at the reflected zeros 1/conj(z_k)).
    """
    if n1 < n0:
        raise ValueError("empty index range")
    if fn.boundary_singular:
        raise PoleError("Fourier expansion requires a boundary-pole-free "
                        "representation")
    series = poly.series_div(fn.num, fn.den, max(n1 + 1, 1))
    return np.array([series[k] if k >= 0 else 0.0
                     for k in range(n0, n1 + 1)], dtype=complex)


def roots(p, cluster_rtol: float | None = None):
    """Roots with multiplicities of a polynomial (or polynomial function,
    whose kept roots serve the default clustering)."""
    if isinstance(p, UnitCircleFunction):
        coeffs = p.to_polynomial()
        if cluster_rtol is None and poly.degree(coeffs) >= 1:
            return list(p.num_roots())
        p = coeffs
    return poly.roots_with_multiplicity(p, cluster_rtol)


def herglotz(measure, z: complex) -> complex:
    """Herglotz integral of (zeta + z)/(zeta - z) against the measure, the
    density by the trapezoid rule on config.QUADRATURE_POINTS points."""
    z = complex(z)
    if abs(z) >= 1:
        raise DomainError("Herglotz integral requires |z| < 1")
    mu = _as_measure(measure)
    total = 0j
    if mu.density is not None:
        pts = config.unit_circle_points(config.QUADRATURE_POINTS)
        total += complex(np.mean(mu.density_values(pts) *
                                 (pts + z) / (pts - z)))
    for zeta, mass in mu.atoms:
        total += mass * (zeta + z) / (zeta - z)
    return total


def cauchy(measure, h, z: complex) -> complex:
    """Cauchy integral of h(zeta)/(1 - z conj(zeta)) against the measure,
    the density by the trapezoid rule on config.QUADRATURE_POINTS points
    (a sample vector h must have that length)."""
    z = complex(z)
    if abs(z) >= 1:
        raise DomainError("Cauchy integral requires |z| < 1")
    mu = _as_measure(measure)
    pts = config.unit_circle_points(config.QUADRATURE_POINTS)
    if isinstance(h, UnitCircleFunction):
        h_vals = h.boundary_values()
        h_at = h
    elif callable(h):
        h_vals = np.asarray(h(pts), dtype=complex)
        h_at = h
    else:
        h_vals = np.asarray(h, dtype=complex)
        if h_vals.shape != pts.shape:
            raise ValueError(f"sample vector must have "
                             f"{config.QUADRATURE_POINTS} points")
        h_at = None
    total = 0j
    if mu.density is not None:
        total += complex(np.mean(mu.density_values(pts) * h_vals /
                                 (1 - z * np.conj(pts))))
    for zeta, mass in mu.atoms:
        if h_at is None:
            raise ValueError("atomic part needs a callable integrand")
        hv = complex(np.asarray(h_at(np.array([zeta]))).ravel()[0]) \
            if not isinstance(h_at, UnitCircleFunction) else complex(h_at(zeta))
        total += mass * hv / (1 - z * np.conj(zeta))
    return total


# ---------------------------------------------------------------------------
# rational Laurent machinery

def boundary_conjugate(fn: UnitCircleFunction):
    """(num, den) of the function equal to conj(fn) on the circle.

    The result is a rational expression in z that may have poles inside
    the disk; it is raw data for analytic_projection, not a validated
    UnitCircleFunction.
    """
    n, d = fn.as_num_den()
    dn, dd = poly.degree(n), poly.degree(d)
    num = poly.reverse_conj(n)
    den = poly.reverse_conj(d)
    if dd >= dn:
        num = poly.pmul(num, poly.monomial(dd - dn))
    else:
        den = poly.pmul(den, poly.monomial(dn - dd))
    return num, den


def modulus_sq_rational(fn: UnitCircleFunction):
    """(num, den) of |fn|^2 as a rational expression on the circle."""
    cn, cd = boundary_conjugate(fn)
    n, d = fn.as_num_den()
    return poly.pmul(n, cn), poly.pmul(d, cd)


def analytic_projection(num, den) -> UnitCircleFunction:
    """P_+ of a rational expression with no poles on the circle.

    Subtracts the principal parts at all poles in the open disk; the
    result is a rational function analytic on the closed disk, equal on
    the circle to the nonnegative-frequency part of num/den.
    """
    num, den = poly.trim(num), poly.trim(den)
    if poly.degree(den) == 0:
        return UnitCircleFunction.rational(num, den)
    pole_list = poly.roots_with_multiplicity(den)
    inner = []
    for r, m in pole_list:
        if abs(abs(r) - 1) <= config.PAIRING_RTOL:
            raise PoleError("analytic projection undefined for circle poles")
        if abs(r) < 1:
            inner.append((r, m))
    if not inner:
        return UnitCircleFunction.rational(num, den)
    # denominator split: den = den_in * den_out (leading constant in den_out)
    den_out = den.copy()
    for r, m in inner:
        for _ in range(m):
            den_out, rem = poly.synthetic_div(den_out, r)
    den_in = poly.from_roots(inner)
    # principal part u/den_in
    u = np.zeros(1, dtype=complex)
    for r, m in inner:
        gamma = poly.principal_part(num, den, r, m)
        rest = poly.from_roots([(q, mm) for q, mm in inner if q != r])
        shifted = np.zeros(1, dtype=complex)
        base = np.array([1.0 + 0j])
        for i in range(m):
            shifted = poly.padd(shifted, gamma[i] * base)
            base = poly.pmul(base, np.array([-r, 1.0], dtype=complex))
        u = poly.padd(u, poly.pmul(shifted, rest))
    # P_+ = (num - u*den_out)/ (den_in*den_out); the numerator is divisible
    # by den_in, remove it by deflation at the interior poles
    v = poly.psub(num, poly.pmul(u, den_out))
    for r, m in inner:
        for _ in range(m):
            v, rem = poly.synthetic_div(v, r)
    return UnitCircleFunction.rational(poly.trim(v, 1e-11), den_out)
