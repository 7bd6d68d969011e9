"""Bounds for the local non-exposure set of an outer function.

For rational data the set sigma(phi) of circle points where some
pseudocontinuable quotient fails to extend analytically is bracketed
between the Clark-atom sweep (lower bound: the singular supports embed
into sigma) and the unimodular zero set of phi (upper bound: away from
zeros 1/phi is square-summable on an arc, which excludes the arc).
Finite Toeplitz sections of the unimodular symbol conj(phi)/phi give a
trend estimate of the kernel dimension, exactly zero iff phi^2 is an
exposed point of the unit ball of H^1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clark, config, factor, poly
from .boundary import UnitCircleFunction, cancel_common_roots
from .errors import DomainError, MembershipError
from .hb import HbSpace

phi_alpha = clark.phi_alpha
SECTION_MAX_N = 2048     # largest Toeplitz section, n_section * 2**doublings


def phi_for_space(space: HbSpace) -> UnitCircleFunction:
    """The base outer function a/(1-b) of the space."""
    return clark.phi_alpha(space, 1.0)


@dataclass
class SigmaBounds:
    """Certified bracket lower <= sigma(phi) <= upper (finite point sets).

    provenance maps the angle of each lower point to the witnessing alpha
    and atom mass; upper_source names the rule behind the upper set.
    """

    lower: list
    upper: list
    provenance: dict = field(default_factory=dict)
    base_measure_absolutely_continuous: bool = True
    upper_source: str = ""

    def consistent(self, tol: float = 1e-8) -> bool:
        return all(any(abs(p - u) <= tol for u in self.upper)
                   for p in self.lower)


def sigma_upper(phi: UnitCircleFunction) -> list:
    """Unimodular zeros of the numerator of an outer rational function.

    On any closed arc avoiding these points 1/phi is bounded, hence
    square-summable, so no non-exposure point lies there.  The zeros and
    the outer test read phi's kept numerator roots: at most one solve,
    none for a density root of clark, which carries them.
    """
    if not isinstance(phi, UnitCircleFunction):
        phi = UnitCircleFunction.polynomial(phi)
    if not factor.is_outer(phi):
        raise ValueError("upper bound requires an outer function")
    return _dedupe([r / abs(r) for r, _m in phi.num_roots()
                    if abs(abs(r) - 1) <= config.ATOM_LOCATION_TOL])


def sigma_lower(space: HbSpace, alphas=None) -> SigmaBounds:
    """Clark-atom sweep: every singular support point lies in sigma(phi).

    Returns a SigmaBounds with only the lower set filled; provenance maps
    each point to the witnessing alpha.  The flag records whether the
    base measure (alpha = 1) is absolutely continuous.
    """
    points = []
    prov = {}
    base_ac = True
    for a, cm in clark.clark_sweep(space, alphas):
        if abs(a - 1.0) <= 1e-12 and cm.atoms:
            base_ac = False
        for zeta, mass in cm.atoms:
            key = _find(points, zeta)
            if key is None:
                points.append(zeta)
                prov[round(config.circle_angle(zeta), 10)] = {
                    "alpha_angle": config.circle_angle(a),
                    "mass": mass}
    return SigmaBounds(lower=_dedupe(points), upper=[], provenance=prov,
                       base_measure_absolutely_continuous=base_ac)


def sigma_bounds(space: HbSpace, alphas=None) -> SigmaBounds:
    """Both bounds for the space's base outer function; on the default
    sweep phi is the stored alpha = 1 measure's density root."""
    low = sigma_lower(space, alphas)
    low.upper = sigma_upper(phi_for_space(space) if alphas is not None else
                            clark.clark_sweep(space)[0][1].density_root)
    low.upper_source = "unimodular numerator zeros"
    return low


def _dedupe(points, tol: float = 1e-8):
    out = []
    for p in sorted(points, key=config.circle_angle):
        if not any(abs(p - q) <= tol for q in out):
            out.append(complex(p))
    return out


def _find(points, z, tol: float = 1e-8):
    for p in points:
        if abs(p - z) <= tol:
            return p
    return None


# ---------------------------------------------------------------------------
# Toeplitz finite sections

@dataclass
class ToeplitzSectionReport:
    """Singular value data of finite sections of T_{conj(phi)/phi}."""

    sizes: list
    singular_values: dict
    threshold: float
    near_kernel_counts: dict
    smallest: dict
    stable: bool
    estimated_kernel_dim: int | None

    def csv_rows(self):
        rows = []
        for n in self.sizes:
            for k, s in enumerate(self.singular_values[n]):
                rows.append((n, k, float(s)))
        return rows


def unimodular_symbol(phi: UnitCircleFunction):
    """(num, den) of conj(phi)/phi on the circle, circle zeros cancelled.

    The reversed-conjugate numerator shares every circle zero of the
    numerator of phi, so the quotient extends smoothly across them.
    """
    n, d = phi.as_num_den()
    dn, dd = poly.degree(n), poly.degree(d)
    unum = poly.pmul(poly.reverse_conj(n), d)
    uden = poly.pmul(n, poly.reverse_conj(d))
    k = dd - dn
    if k >= 0:
        unum = poly.pmul(unum, poly.monomial(k))
    else:
        uden = poly.pmul(uden, poly.monomial(-k))
    return cancel_common_roots(unum, uden, tol=1e-7)


def toeplitz_kernel_sections(phi: UnitCircleFunction, n_section: int,
                             threshold: float = config.SV_KERNEL_THRESHOLD,
                             doublings: int = 2) -> ToeplitzSectionReport:
    """Finite-section near-kernel trend for the symbol conj(phi)/phi.

    Builds the n x n section with entry (m, k) equal to the symbol's
    Fourier coefficient of index k - m (a discrete transform on
    config.QUADRATURE_POINTS points, doubled until it has 8 n_section),
    for n_section and its doublings, and counts singular values below the
    threshold.  The count is a
    trend diagnostic, not a proof of the kernel dimension.  At the cap
    SECTION_MAX_N (sizes 512, 1024, 2048) a call took 4.8-5.8 s and 167 MB
    peak resident memory on a 2-core x86-64 machine with numpy 2.4.
    """
    if n_section < 1 or n_section & (n_section - 1) or doublings < 0 or \
            n_section << min(doublings, 12) > SECTION_MAX_N:
        raise ValueError(f"need a power of two n_section, doublings >= 0 "
                         f"and n_section * 2**doublings <= {SECTION_MAX_N}")
    if not factor.is_outer(phi):
        raise ValueError("sections require an outer symbol root")
    unum, uden = unimodular_symbol(phi)
    if poly.degree(uden) >= 1:
        for r, _m in poly.roots_with_multiplicity(uden):
            if abs(abs(r) - 1) <= 1e-9:
                raise DomainError("symbol has a genuine circle pole")
    n = config.QUADRATURE_POINTS
    while n < 8 * n_section:
        n *= 2
    pts = config.unit_circle_points(n)
    vals = poly.horner(unum, pts) / poly.horner(uden, pts)
    coeffs = np.fft.fft(vals) / n
    sizes = [n_section * (2 ** j) for j in range(doublings + 1)]

    def section_svals(m: int):
        ks = np.arange(m)
        return np.linalg.svd(coeffs[(ks[None, :] - ks[:, None]) % n],
                             compute_uv=False)

    svs, counts, smallest = {}, {}, {}
    for m in sizes:
        s = section_svals(m)
        svs[m] = s
        counts[m] = int(np.sum(s < threshold))
        smallest[m] = float(s[-1])
    stable = len(set(counts.values())) == 1
    return ToeplitzSectionReport(
        sizes=sizes, singular_values=svs, threshold=threshold,
        near_kernel_counts=counts, smallest=smallest, stable=stable,
        estimated_kernel_dim=counts[sizes[0]] if stable else None)


# ---------------------------------------------------------------------------
# pseudocontinuation on J_phi witnesses

def _product_samples(phi: UnitCircleFunction, h, n: int,
                     conjugate_phi: bool = False) -> np.ndarray:
    """Samples of phi*h (or conj(phi)*h) with rational cancellation."""
    pts = config.unit_circle_points(n)
    if isinstance(h, UnitCircleFunction):
        if conjugate_phi:
            from .boundary import boundary_conjugate
            cn, cd = boundary_conjugate(phi)
            num = poly.pmul(cn, h.num)
            den = poly.pmul(cd, h.den)
        else:
            num = poly.pmul(phi.num, h.num)
            den = poly.pmul(phi.den, h.den)
        num, den = cancel_common_roots(num, den, tol=1e-7)
        nv = poly.horner(num, pts)
        dv = poly.horner(den, pts)
        return nv / dv
    h_vals = np.asarray(h, dtype=complex)
    if h_vals.shape != pts.shape:
        raise ValueError(f"sample vector must have {n} points")
    pv = phi.boundary_values(n)
    return (np.conj(pv) if conjugate_phi else pv) * h_vals


def jphi_membership_residuals(phi: UnitCircleFunction, h):
    """Two-sided membership residuals (r_minus, r_plus).

    r_minus = ||P_-(phi h)||_2 tests phi*h analytic; r_plus =
    ||P_+(conj(phi) h)||_2 tests conj(phi)*h anti-analytic with zero
    mean.  Both must vanish for h to be a pseudocontinuable quotient.
    Both are discrete transforms on config.QUADRATURE_POINTS samples, the
    length a sample vector h must have.
    """
    n = config.QUADRATURE_POINTS
    u = _product_samples(phi, h, n, conjugate_phi=False)
    v = _product_samples(phi, h, n, conjugate_phi=True)
    cu = np.fft.fft(u) / n
    cv = np.fft.fft(v) / n
    r_minus = float(np.sqrt(np.sum(np.abs(cu[n // 2:]) ** 2)))
    r_plus = float(np.sqrt(np.sum(np.abs(cv[: n // 2]) ** 2)))
    return r_minus, r_plus


def pseudocontinuation_eval(phi: UnitCircleFunction, h, z: complex,
                            check_membership: bool = True) -> complex:
    """Two-sided analytic extension of a pseudocontinuable quotient.

    Interior points use the Poisson integral of phi*h divided by phi(z);
    exterior points use the conjugate-phi form at the reflected point.
    The Poisson integrals are evaluated through Fourier coefficients of
    the sampled products, so accuracy is uniform up to the circle.
    """
    z = complex(z)
    if abs(abs(z) - 1) <= 1e-12:
        raise DomainError("extension is defined off the circle only")
    n = config.QUADRATURE_POINTS
    if check_membership:
        r_minus, r_plus = jphi_membership_residuals(phi, h)
        scale = max(1.0, _sample_scale(phi, h, n))
        if max(r_minus, r_plus) > config.MEMBERSHIP_TOL * scale:
            raise MembershipError(
                f"two-sided membership residuals ({r_minus:.3e}, "
                f"{r_plus:.3e}) exceed tolerance")
    if abs(z) < 1:
        u = _product_samples(phi, h, n, conjugate_phi=False)
        val = _poisson_from_samples(u, z)
        pz = complex(phi(z))
        if abs(pz) < 1e-13:
            raise DomainError("phi vanishes at the evaluation point")
        return val / pz
    w = 1 / np.conj(z)
    v = _product_samples(phi, h, n, conjugate_phi=True)
    val = _poisson_from_samples(v, w)
    pw = np.conj(complex(phi(w)))
    if abs(pw) < 1e-13:
        raise DomainError("conj(phi) vanishes at the reflected point")
    return val / pw


def _sample_scale(phi, h, n) -> float:
    u = _product_samples(phi, h, n, conjugate_phi=False)
    u = u[np.isfinite(u)]
    return float(np.sqrt(np.mean(np.abs(u) ** 2))) if u.size else 1.0


def _poisson_from_samples(values: np.ndarray, z: complex) -> complex:
    """Harmonic extension at |z| < 1 from equispaced boundary samples."""
    n = values.size
    coeffs = np.fft.fft(values) / n
    ks = np.arange(1, n // 2)
    plus = np.sum(coeffs[ks] * z ** ks)
    minus = np.sum(coeffs[n - ks] * np.conj(z) ** ks)
    return complex(coeffs[0] + plus + minus)
