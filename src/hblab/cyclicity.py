"""Cyclicity decisions: classifier, decay heuristic, certificates, necessity.

Routes with theorem-grade soundness for rational data report "cyclic" or
"not_cyclic"; the distance-decay estimator only ever reports "likely_*"
or "undetermined".  Evidence items carry the rule name, a plain-language
statement of the rule, and the numbers that fired it, so reports can be
audited and cross-checked between routes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# clark and sigma are imported by the rules that call them, so the
# classifier and decay tables load neither
from . import config, exact, factor, poly
from .boundary import Arc, UnitCircleFunction, arc_union_contains, \
    arcs_cover_circle
from .errors import NormalizationError
from .hb import HbElement, HbSpace, defect_points, defect_spectrum, \
    element_from_rational, gaussian_mate, make_element, rationalize

CYCLIC = "cyclic"
NOT_CYCLIC = "not_cyclic"
LIKELY_CYCLIC = "likely_cyclic"
LIKELY_NOT_CYCLIC = "likely_not_cyclic"
UNDETERMINED = "undetermined"

_THEOREM_GRADE = {CYCLIC, NOT_CYCLIC}
_VERDICTS = _THEOREM_GRADE | {LIKELY_CYCLIC, LIKELY_NOT_CYCLIC, UNDETERMINED}
TABLE_MAX_N = 256           # largest decay table
TABLE_MAX_ROWS = 2 * TABLE_MAX_N    # largest deg f + N: caps a stored factor
# largest under use_exact=True: N = 128 took 0.10-0.19 s on a fresh space and
# 0.003-0.03 s for a second f on its stored factor (README; 2-core x86 host)
EXACT_TABLE_MAX_N = 128
BLOCK = 64                  # column block of a float table's banded QR

# the decay heuristic's calibration (estimate_from_decay)
_FINAL_TOL = 1e-3           # last d_N^2 below this: likely_cyclic
_EXTRAP_TOL = 1e-4          # fitted trend's extrapolation below this too
_FLAT_WINDOW = 10           # last entries read for a stall
_FLAT_RTOL = 1e-4           # their relative spread below this is a stall
_FLAT_FLOOR = 1e-2          # a stall above this: likely_not_cyclic
_POWER_HORIZON = 1e6        # N a power-law fit extrapolates to
_EXP_HORIZON_FACTOR = 4.0   # multiple of the last N an exponential fit does
_MIN_FIT_POINTS = 8         # fewest positive entries a fit takes
_MIN_R2 = 0.98              # least r^2 of a fit that may decide


@dataclass
class Evidence:
    rule: str
    statement: str
    inputs: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)

    def to_dict(self):
        return {"rule": self.rule, "statement": self.statement,
                "inputs": self.inputs, "numbers": self.numbers}


@dataclass
class CyclicityReport:
    """Verdict plus the evidence items backing it."""

    verdict: str
    evidence: list = field(default_factory=list)
    decay: Optional["DecayTable"] = None

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self):
        out = {"verdict": self.verdict,
               "evidence": [e.to_dict() for e in self.evidence]}
        if self.decay is not None:
            out["decay"] = self.decay.to_dict()
        return out

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


# ---------------------------------------------------------------------------
# finite-defect classifier

def classify_finite_defect(space: HbSpace, f) -> CyclicityReport:
    """Exact cyclicity classification for rational b and polynomial f.

    f is cyclic iff it is outer and does not vanish at any unimodular
    zero of a.
    """
    return outer_nonvanishing_rule(
        f, defect_points(space), "finite_defect_classifier",
        "cyclic iff outer and nonvanishing at every unimodular zero of a")


def outer_nonvanishing_rule(f, points, rule: str,
                            statement: str) -> CyclicityReport:
    """Cyclic iff the polynomial f is outer and nonzero at every point.

    The rule behind the finite-defect classifier and the Dirichlet and
    inner-model oracles; points are (zeta, config.circle_angle(zeta))
    for the circle points where the space carries its defect (zeros of
    a, atoms of the measure).
    """
    fn = _candidate(f)
    if fn.num_degree < 0:
        return CyclicityReport(NOT_CYCLIC, [Evidence(
            rule, "the zero function is never cyclic")])
    outer = factor.is_outer(fn)
    rev = fn.num[::-1].tolist()
    values = {round(t, 12): abs(poly.horner_list(rev, complex(z)))
              for z, t in points}
    small = [a for a, v in values.items() if v <= config.POINT_ZERO_TOL]
    verdict = CYCLIC if outer and not small else NOT_CYCLIC
    return CyclicityReport(verdict, [Evidence(
        rule, statement,
        inputs={"defect_points_angle": sorted(values)},
        numbers={"is_outer": outer, "abs_values": values,
                 "vanishing_points": small})])


def _candidate(f) -> UnitCircleFunction:
    """f as a polynomial function, checked and trimmed once, and kept when
    given as one: the rules and the decay table that read it then share
    its degree and one root solve."""
    if isinstance(f, UnitCircleFunction) and f.kind == "poly":
        return f
    if isinstance(f, HbElement):
        f = f.f
    elif isinstance(f, UnitCircleFunction):
        f = f.to_polynomial()
    try:
        return UnitCircleFunction.polynomial(f)
    except ValueError as exc:
        raise ValueError(f"f: {exc}") from None


def _ang(z) -> float:
    return round(config.circle_angle(z), 12)


# ---------------------------------------------------------------------------
# decay tables

@dataclass
class DecayTable:
    """d_N^2 = dist^2(1, span{f, zf, ..., z^{N-1} f}) in H(b)."""

    f: np.ndarray
    entries: list
    norm1_sq: float
    ridge_flags: list = field(default_factory=list)
    exact_entries: Optional[list] = None

    def d2(self) -> np.ndarray:
        return np.array([d for _n, d in self.entries])

    def sizes(self) -> np.ndarray:
        return np.array([n for n, _d in self.entries])

    def csv_rows(self):
        return [(int(n), float(d)) for n, d in self.entries]

    def to_dict(self):
        return {"entries": self.csv_rows(), "norm1_sq": self.norm1_sq,
                "ridge_flags": list(self.ridge_flags)}


def decay_table(space: HbSpace, f, n_max: int,
                use_exact: str | bool = False) -> DecayTable:
    """Distances from 1 to the polynomial-multiple spans of f.

    f is a coefficient list, an HbElement, or a UnitCircleFunction; a
    polynomial UnitCircleFunction (the candidate assess builds once) is
    read as it is, with no second finiteness check or trim.
    Through the embedding, d_N^2 = ||w||^2 - sum of |<w, q_i>|^2 over an
    orthonormal basis q_i of the span of the first N embedded multiples
    z^k f, w the embedded constant.  Stacked, multiples and constant are
    [I; K] [T_f | e_0], K the mate map on polynomials of degree < R =
    deg f + N (HbSpace.embedding_factor), and [I; K] = Q0 R0.  So the
    triangular factor of B = R0 [T_f | e_0], R x (N+1) and deg f + 1
    scaled column slices of R0, is theirs up to a unimodular diagonal:
    R[i, N] = <w, q_i>, and B's column norms are the multiples' H(b)
    norms.  Only the space's own Gram matrix I + K^H K goes through a
    Cholesky, once per space; the conditioning that comes from f stays
    inside Householder QRs.  R0 is upper and T_f lower triangular with
    bandwidth deg f, so B is zero below its (deg f)-th subdiagonal, and
    its QR is blocked, BLOCK (or deg f) columns at a time (_banded_r):
    a slab factors its own columns and hands on deg f rows for the later
    ones, and N <= BLOCK is one QR, of B itself.  Columns whose pivot
    collapses against their closed-form norm are flagged.
    R is at most TABLE_MAX_ROWS.  The exact backend forms the Gram matrix
    of the multiples (exact_entries: one exact mate, the Gram matrix by
    the shift recurrence, one fraction-free elimination over Gaussian
    integers): "auto" computes the first 32, True refuses
    N > EXACT_TABLE_MAX_N.
    """
    fn = _candidate(f)
    if fn.num_degree < 0:
        raise ValueError("decay table needs a nonzero f")
    f = fn.num
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral):
        raise ValueError(f"table size n_max must be an integer, not "
                         f"{n_max!r}")
    cap = EXACT_TABLE_MAX_N if use_exact is True else TABLE_MAX_N
    if not 1 <= n_max <= cap:
        raise ValueError(f"{'exact ' * (use_exact is True)}table size "
                         f"{n_max} is outside 1..{cap}")
    rows = f.size - 1 + n_max
    if rows > TABLE_MAX_ROWS:
        raise ValueError(f"decay table needs deg f + N <= {TABLE_MAX_ROWS}"
                         f" (deg f = {f.size - 1}, N = {n_max})")
    R0, c = space.embedding_factor(rows), space.mate_constants(rows)
    # f and the flag rule |pivot| <= 1e-12 max(1, ||column||) scaled by
    # 2^-e, max|f| < 2^e: exact, and no column norm overflows
    e = math.frexp(max(map(abs, f.tolist())))[1]
    fs = f * 2.0 ** -e
    pivots, proj = _banded_r(R0, fs, n_max)
    # ||w||^2 = ||B[:, N]||^2 = |R0[0, 0]|^2 less |R[i, N]|^2 one at a time
    d2 = np.abs(proj) ** 2
    d2[0] = abs(R0[0, 0]) ** 2 - d2[0]
    d2 = np.subtract.accumulate(d2)
    table = DecayTable(f=f, entries=list(zip(range(1, n_max + 1),
                                             np.maximum(d2, 0.0).tolist())),
                       norm1_sq=float(space.one().norm2),
                       ridge_flags=_ridge_flags(np.abs(pivots), c, fs, e))
    if use_exact in ("auto", True):
        n = n_max if use_exact is True else min(n_max, 32)
        # the stored factor where it was measured faster: 16 deg f <= N
        stored = space.exact is not None and 0 < 16 * (f.size - 1) <= n
        table.exact_entries = (_factor_decay if stored else _exact_decay)(
            space, f, n)
    if table.exact_entries is None and use_exact is True:
        raise NormalizationError("exact decay requested but the data is "
                                 "not exactly representable")
    return table


def _banded_r(R0: np.ndarray, f: np.ndarray, n: int):
    """diag(R)[:n] and R[:n, n] for a QR of B = R0 [T_f | e_0], up to a
    unimodular diagonal.

    B is zero below its d-th subdiagonal (d = deg f), so k = max(BLOCK, d)
    columns at a time reach k + d rows, A: d rows handed on over k new
    rows of B, R0[j0+d : j0+k+d, j0:] [T_f | e_0] (rows [0, k+d) first),
    R0 read in place.  Rows k: of A's R are handed on.  While more than
    k + d columns follow, A is the slab's columns, an identity and w = e_0,
    so those rows are E = Q[:, k:]^H, the slab's complement, and w's; each
    later column gets E times A's rows of it, one GEMM on R0's rows, then
    the d + 1 taps of f.  Else A spans all later columns (n <= k: A is
    B, one QR).
    """
    d = f.size - 1
    k = max(BLOCK, d)
    buf = np.empty((min(k + d, d + n), min(n, 2 * k + d) + 1), complex, "F")
    pivots, proj = np.empty((2, n), dtype=complex)
    j0, top, carry = 0, 0, np.empty((0, n + 1))     # top: rows handed on
    while True:
        r0, r1, m = j0 + top, min(j0 + k + d, d + n), min(k, n - j0)
        e = (k + d) * (n - j0 - m > k + d)      # identity columns
        b = m if e else n - j0                  # B's columns in A
        A = buf[:top + r1 - r0, :b + e + 1]
        if top:
            A[:d, :b], A[:d, -1] = carry[:, :b], carry[:, -1]
        np.multiply(R0[r0:r1, j0:j0 + b], f[0], out=A[top:, :b])
        for i in range(1, d + 1):
            A[top:, :b] += f[i] * R0[r0:r1, j0 + i:j0 + b + i]
        A[top:, -1] = R0[r0:r1, 0]
        if e:
            A[:, b:-1] = np.eye(e)
        h = np.linalg.qr(A, mode="raw")[0]     # R^T in its lower part
        if m == n:                              # one QR, of B itself
            return h.diagonal()[:n], h[-1, :n]
        pivots[j0:j0 + m], proj[j0:j0 + m] = h.diagonal()[:m], h[-1, :m]
        if j0 + m == n:
            return pivots, proj
        h = np.triu(h[m:, m:].T)                # R[m:, m:], handed on
        if e:
            X = h[:, top:e] @ R0[r0:r1, j0 + m:n + d]
            nxt = f[0] * X[:, :n - j0 - m]
            for i in range(1, d + 1):
                nxt += f[i] * X[:, i:i + n - j0 - m]
            nxt += h[:, :top] @ carry[:, m:-1]
            h = np.column_stack((nxt, h[:, -1]))
        carry, top, j0 = h, d, j0 + m


def _ridge_flags(piv: np.ndarray, c: np.ndarray, f: np.ndarray, e: int):
    """1 + the j with piv[j] <= 1e-12 max(2^-e, ||B[:, j]||).  The norms do
    not decrease and by Cauchy-Schwarz are at most ||f|| sqrt(1 + c.size
    ||c||^2); a pivot above 1e-12 max(2^-e, twice that) is no flag, and
    when every pivot is, no norm is formed (_column_sq)."""
    bound = 2 * math.sqrt(float(np.vdot(f, f).real) *
                          (1 + c.size * float(np.vdot(c, c).real)))
    if piv.min() > 1e-12 * max(2.0 ** -e, bound):
        return []
    flags = piv <= 1e-12 * np.maximum(2.0 ** -e, np.sqrt(_column_sq(c, f)))
    return (np.flatnonzero(flags) + 1).tolist()


def _column_sq(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """||B[:, j]||^2 in closed form, c the c.size = deg f + N constants:
    the mate of z^j f is z^j mate(f) + sum_i f_i c_(i+l) z^(j-l), l =
    1..j, so they are running sums of |f_i|^2, |sum_i f_i c_(i+l)|^2."""
    return (np.abs(np.concatenate([f, np.convolve(c, f[::-1])[:c.size]]))
            ** 2).cumsum()[2 * f.size - 1:]


def _exact_decay(space: HbSpace, f, n: int):
    """Exact d_k^2, k <= n, from the exact mate of z^(n-1) f (shift_gram)."""
    pair = gaussian_mate(space, f, n - 1)
    if pair is None:
        return None
    return list(enumerate(exact._bareiss(*exact.shift_gram(
        *pair, space.one().exact_ints[1], space.exact.s2, n)), 1))


def _factor_decay(space: HbSpace, f, n: int):
    """Exact d_k^2, k <= n, deg f = d >= 1, exact space: the multiples of f
    of degree < m = k + d are the kernel of C_m, column i the coefficients
    of z^i mod f, and 1 mod f = 1, so d_k^2 = [M^-1]_00, M = C_m G_m^-1
    C_m^H, G the Gram matrix of 1, z, ... (HbSpace.exact_factor).  Replayed,
    G leaves K = P_m (-M); pivots on its rows d-1..1 leave -p / [M^-1]_00."""
    (fr, fi, _), error, bound = rationalize(f)      # f is finite
    if not error <= bound:
        return None
    d, rows = len(fr) - 1, (n + len(fr)) // 2 * 2  # n + d, made even
    num, den, steps = space.exact_factor(rows)
    # z^(i+1) mod f is z (z^i mod f) less its top term over D = |F_d|^2
    # times f conj(F_d): over D^(rows - d), every column is integral
    D = fr[d] ** 2 + fi[d] ** 2
    gr = [fr[d] * a + fi[d] * b for a, b in zip(fr, fi)]
    gi = [fi[d] * a - fr[d] * b for a, b in zip(fr, fi)]
    br, bi = ([[0] * rows for _ in range(d)] for _ in "ri")
    br[0][0] = D ** (rows - d)
    for i in range(rows - 1):           # row t of C^H: conj(z^i mod f)[t]
        tr, ti = exact._quo(br[-1][i], D), exact._quo(bi[-1][i], D)
        for t in range(d):
            br[t][i + 1] = (t and br[t - 1][i]) - tr * gr[t] + ti * gi[t]
            bi[t][i + 1] = (t and bi[t - 1][i]) - tr * gi[t] - ti * gr[t]
    scale, out = num * D ** (2 * (rows - d)), []
    for p, kr, ki in list(exact.bareiss_replay(steps, br, bi))[d:d + n]:
        for t in range(d - 1, 0, -1):
            a = kr[t][t]
            kr, ki = exact._schur(kr, ki, a, kr[t][:t], ki[t][:t], p)
            p = a
        out.append(Fraction(-p * scale, kr[0][0] * den))
    return list(enumerate(out, 1))


def estimate_from_decay(table: DecayTable) -> CyclicityReport:
    """Heuristic verdict from the decay trend; never theorem-grade.

    likely_cyclic when the table reaches the final tolerance or a clean
    fitted power/exponential trend extrapolates below the target;
    likely_not_cyclic when the table has flattened well above zero.
    """
    if len(table.entries) < 20:
        raise ValueError("estimator needs a table of length >= 20")
    d2 = table.d2()
    last = float(d2[-1])
    numbers = {"last_d2": last, "norm1_sq": table.norm1_sq}
    if last < _FINAL_TOL:
        return CyclicityReport(LIKELY_CYCLIC, [Evidence(
            "decay_heuristic", "distance to constants fell below tolerance",
            numbers=numbers)], decay=table)
    window = d2[-_FLAT_WINDOW:]
    rel_change = float((window.max() - window.min()) / max(last, 1e-300))
    numbers["flat_rel_change"] = rel_change
    if rel_change < _FLAT_RTOL and last > _FLAT_FLOOR:
        return CyclicityReport(LIKELY_NOT_CYCLIC, [Evidence(
            "decay_heuristic",
            "distances stalled at a level far from zero",
            numbers=numbers)], decay=table)
    fit = _trend_fit(table.sizes().astype(float), d2)
    if fit is not None:
        numbers.update(fit)
        if fit["extrapolated_d2"] < _EXTRAP_TOL and \
                fit["r_squared"] >= _MIN_R2:
            return CyclicityReport(LIKELY_CYCLIC, [Evidence(
                "decay_heuristic",
                "fitted decay trend extrapolates below target",
                numbers=numbers)], decay=table)
    return CyclicityReport(UNDETERMINED, [Evidence(
        "decay_heuristic", "no decisive decay pattern", numbers=numbers)],
        decay=table)


def _trend_fit(ns, d2):
    half = max(_MIN_FIT_POINTS, len(d2) // 2)
    xs = ns[-half:]
    ys = d2[-half:]
    mask = ys > 0
    if mask.sum() < _MIN_FIT_POINTS:
        return None
    xs, ys = xs[mask], ys[mask]
    logy = np.log(ys)
    ss_tot = float(((logy - logy.mean()) ** 2).sum()) or 1e-300
    best = None
    for kind, tx, horizon in (
            ("power", np.log(xs), np.log(_POWER_HORIZON)),
            ("exponential", xs, _EXP_HORIZON_FACTOR * xs[-1])):
        A = np.vstack([tx, np.ones_like(tx)]).T
        sol, *_ = np.linalg.lstsq(A, logy, rcond=None)
        slope, intercept = float(sol[0]), float(sol[1])
        r2 = 1 - float(((logy - A @ sol) ** 2).sum()) / ss_tot
        if slope >= 0:
            continue
        extrap = float(np.exp(intercept + slope * horizon))
        cand = {"fit_kind": kind, "slope": slope, "r_squared": r2,
                "extrapolated_d2": extrap}
        if best is None or cand["r_squared"] > best["r_squared"]:
            best = cand
    return best


# ---------------------------------------------------------------------------
# certificates

@dataclass
class TheoremACertificate:
    e_arcs: list
    f_arcs: list
    a_zero_gap: Optional[float]     # angle from closure(E) to a's circle zeros
    f_min: Optional[float]          # min |f| on closure(F)


@dataclass
class TheoremBCover:
    items: list  # [(Arc, eta)]


@dataclass
class CertificateOutcome:
    ok: bool
    rule: str
    report: CyclicityReport
    certificate: object = None
    reasons: list = field(default_factory=list)


def theorem_a_check(space: HbSpace, f, e_arcs: Sequence[Arc],
                    f_arcs: Sequence[Arc]) -> CertificateOutcome:
    """Certificate: 1/a square-summable on E, 1/f bounded on F, E u F = T.

    Sound for rational data through zero locations: a must have no
    unimodular zero in closure(E) and f none in closure(F).  The evidence
    reports the angular gap from closure(E) to the nearest circle zero of
    a, and the minimum of |f| on closure(F) (_arc_minima); each is None
    when there is no zero or no arc to measure.
    """
    from . import sigma
    fn = _candidate(f)
    f = fn.num
    e_arcs, f_arcs = list(e_arcs), list(f_arcs)
    reasons = []
    outer = factor.is_outer(fn)
    if not outer:
        reasons.append("candidate is not outer")
    if not arcs_cover_circle(e_arcs + f_arcs):
        reasons.append("E and F do not cover the circle")
    a_zeros = defect_spectrum(space)
    f_zeros = sigma.sigma_upper(fn) if outer else []
    bad_a = [z for z in a_zeros
             if arc_union_contains(e_arcs, z, closed=True, tol=1e-12)]
    if bad_a:
        reasons.append(f"a vanishes inside closure(E) at angles "
                       f"{[_ang(z) for z in bad_a]}")
    bad_f = [z for z in f_zeros
             if arc_union_contains(f_arcs, z, closed=True, tol=1e-12)]
    if bad_f:
        reasons.append(f"f vanishes inside closure(F) at angles "
                       f"{[_ang(z) for z in bad_f]}")
    gap = min((arc.distance(z) for z in a_zeros for arc in e_arcs),
              default=None)
    f_min = min(_arc_minima(f, f_arcs), default=None)
    ok = not reasons
    cert = TheoremACertificate(e_arcs, f_arcs, gap, f_min) if ok else None
    ev = Evidence(
        "inverse_integrability_certificate",
        "outer candidate with 1/a in L^2 on E and 1/f bounded on F, "
        "E and F covering the circle",
        inputs={"E": [(a.start, a.end) for a in e_arcs],
                "F": [(a.start, a.end) for a in f_arcs]},
        numbers={"a_zero_gap_to_E": gap, "f_min_on_F": f_min,
                 "reasons": reasons})
    verdict = CYCLIC if ok else UNDETERMINED
    return CertificateOutcome(ok, "A", CyclicityReport(verdict, [ev]),
                              cert, reasons)


def _arc_minima(f: np.ndarray, arcs: Sequence[Arc]) -> list:
    """min |f| on each closed arc, for a polynomial f.

    The minimum sits at an endpoint or at a critical point of
    |f(e^it)|^2 = sum_k w_k e^ikt (factor.modulus_sq_laurent), a circle
    root of sum_k k w_k z^k.  Every root of that polynomial, projected to
    the circle, is a candidate where it falls in the arc: each is a
    point of the arc, so the candidates are a superset of the true ones
    and no circle tolerance chooses among them.  The roots are plain
    companion eigenvalues: |f| is flat at a critical point, so an error
    e in its place moves the minimum by O(e^2).
    """
    w = factor.modulus_sq_laurent(f)
    d = w.size // 2
    crit = [r / abs(r) for r in np.roots(np.arange(d, -d - 1, -1) * w[::-1])
            if r != 0]
    minima = []
    for arc in arcs:
        pts = [np.exp(1j * arc.start), np.exp(1j * arc.end)] + \
            [z for z in crit if arc.contains_point(z)]
        minima.append(float(np.min(np.abs(poly.horner(f, np.array(pts))))))
    return minima


def _require_normalized(space: HbSpace):
    """Base-point normalization: mu_1 absolutely continuous, phi unit norm."""
    from . import clark
    cm = clark.clark_measure(space, 1.0)
    if cm.atoms:
        raise NormalizationError(
            "base Clark measure has atoms; renormalize b before using "
            "arc certificates")
    if abs(cm.ac_mass - 1.0) > 1e-6:
        raise NormalizationError(
            f"phi = a/(1-b) has norm^2 = {cm.ac_mass:.9g}, expected 1")
    return cm


def theorem_b_check(space: HbSpace, f, cover: TheoremBCover | Sequence
                    ) -> CertificateOutcome:
    """Certificate: |f| bounded below on arcs covering the non-exposure set.

    The covered set is the sound upper bound for sigma(phi); an empty
    cover certifies every outer candidate exactly when that bound is
    empty (then multiples of a are dense).
    """
    from . import sigma
    phi = _require_normalized(space).density_root
    fn = _candidate(f)
    items = cover.items if isinstance(cover, TheoremBCover) else list(cover)
    if not all(math.isfinite(eta) for _arc, eta in items):
        raise ValueError("cover bounds eta must be finite")
    reasons = []
    outer = factor.is_outer(fn)
    if not outer:
        reasons.append("candidate is not outer")
    upper = sigma.sigma_upper(phi)
    uncovered = [z for z in upper
                 if not any(arc.contains_point(z, closed=False)
                            for arc, _eta in items)]
    if uncovered:
        reasons.append(f"non-exposure bound points at angles "
                       f"{[_ang(z) for z in uncovered]} are not covered")
    f_zeros = sigma.sigma_upper(fn) if outer else []
    bounds = []
    minima = _arc_minima(fn.num, [arc for arc, _eta in items])
    for (arc, eta), f_min in zip(items, minima):
        if eta <= 0:
            reasons.append(f"arc at {arc.start:.6g} has nonpositive bound")
            continue
        inside = [z for z in f_zeros if arc.contains_point(z, closed=True)]
        if inside:
            reasons.append(
                f"f vanishes on the closed arc at angles "
                f"{[_ang(z) for z in inside]}")
            continue
        bounds.append((arc.start, arc.length, eta, f_min))
        if f_min <= eta:
            reasons.append(
                f"minimum {f_min:.6g} of |f| on the closed arc at "
                f"{arc.start:.6g} does not clear eta = {eta:.6g}")
    ok = not reasons
    ev = Evidence(
        "nonexposure_arc_cover_certificate",
        "outer candidate bounded below on open arcs covering every "
        "candidate non-exposure point",
        inputs={"cover": [(a.start, a.end, eta) for a, eta in items]},
        numbers={"upper_bound_angles": [_ang(z) for z in upper],
                 "arc_bounds": bounds, "reasons": reasons})
    verdict = CYCLIC if ok else UNDETERMINED
    return CertificateOutcome(ok, "B", CyclicityReport(verdict, [ev]),
                              TheoremBCover(list(items)) if ok else None,
                              reasons)


def theorem_c_check(space: HbSpace, g) -> tuple:
    """Certificate through the transform image f = Vg, F = f/inner factor.

    Succeeds when the unimodular zero sets of F and of phi are disjoint;
    part of the conclusion is F in H(b), asserted by embedding F through
    its mate.  Returns (F, outcome).
    """
    from . import clark, sigma
    phi = _require_normalized(space).density_root
    g = _candidate(g).num
    f_image = clark.normalized_cauchy_rational(space, 1.0, g)
    theta, big_f = factor.inner_outer(f_image)
    sigma_f = sigma.sigma_upper(big_f)
    sigma_phi = sigma.sigma_upper(phi)
    clash = [z for z in sigma_f
             if any(abs(z - w) <= 1e-6 for w in sigma_phi)]
    reasons = []
    if clash:
        reasons.append(
            f"image zero set meets the non-exposure bound at angles "
            f"{[_ang(z) for z in clash]}")
    member = None
    if not reasons:
        el = element_from_rational(space, big_f)
        member = float(el.norm2)
    ev = Evidence(
        "transform_image_certificate",
        "outer part of the transform image is cyclic when its circle "
        "zeros avoid every candidate non-exposure point",
        inputs={"g_degree": int(poly.degree(g))},
        numbers={"image_zero_angles": [_ang(z) for z in sigma_f],
                 "phi_zero_angles": [_ang(z) for z in sigma_phi],
                 "inner_factor_degree": len(theta.zeros),
                 "member_norm_sq": member, "reasons": reasons})
    ok = not reasons
    verdict = CYCLIC if ok else UNDETERMINED
    return big_f, CertificateOutcome(ok, "C", CyclicityReport(verdict, [ev]),
                                     big_f if ok else None, reasons)


# ---------------------------------------------------------------------------
# necessity

@dataclass
class NecessityOutcome:
    passed: bool
    report: CyclicityReport
    witness: Optional[tuple] = None


def necessity_check(space: HbSpace, f, alphas=None) -> NecessityOutcome:
    """Clark-atom necessity: a cyclic f cannot vanish at any atom.

    Sweeps the Clark measures; the first atom where |f| is below tolerance
    yields a theorem-grade not_cyclic with the witnessing (alpha, atom).
    Non-outer candidates fail outright.
    """
    from . import clark
    fn = _candidate(f)
    if fn.num_degree < 0 or not factor.is_outer(fn):
        rep = CyclicityReport(NOT_CYCLIC, [Evidence(
            "outer_necessity", "cyclic vectors must be outer",
            numbers={"is_outer": False})])
        return NecessityOutcome(False, rep, None)
    sweep = clark.clark_sweep(space, alphas)
    rev, checked = fn.num[::-1].tolist(), 0
    for a, cm in sweep:
        for zeta, mass in cm.atoms:
            checked += 1
            val = abs(poly.horner_list(rev, complex(zeta)))
            if val < config.POINT_ZERO_TOL:
                rep = CyclicityReport(NOT_CYCLIC, [Evidence(
                    "singular_atom_necessity",
                    "a cyclic vector is nonzero at every atom of every "
                    "Clark measure",
                    inputs={"alpha_angle": _ang(a), "atom_angle": _ang(zeta)},
                    numbers={"abs_value": val, "atom_mass": mass})])
                return NecessityOutcome(False, rep, (complex(a),
                                                     complex(zeta)))
    rep = CyclicityReport(UNDETERMINED, [Evidence(
        "singular_atom_necessity",
        "no Clark atom in the sweep annihilates the candidate",
        numbers={"atoms_checked": checked,
                 "alphas_swept": len(sweep)})])
    return NecessityOutcome(True, rep, None)


# ---------------------------------------------------------------------------
# merged assessment

def assess(space: HbSpace, f, n_max: int = 32) -> CyclicityReport:
    """Run classifier, necessity, and decay heuristics; merge the evidence.

    The theorem-grade classifier verdict wins; heuristic evidence is
    appended for cross-checking.  Both rules read one root solve of f.
    """
    fn = _candidate(f)
    report = classify_finite_defect(space, fn)
    evidence = list(report.evidence)
    nec = necessity_check(space, fn)
    evidence.extend(nec.report.evidence)
    table = None
    if fn.num_degree >= 0:
        table = decay_table(space, fn, max(n_max, 20))
        est = estimate_from_decay(table)
        evidence.extend(est.evidence)
        if report.verdict in _THEOREM_GRADE and est.verdict in (
                LIKELY_CYCLIC, LIKELY_NOT_CYCLIC):
            agree = (report.verdict == CYCLIC) == \
                (est.verdict == LIKELY_CYCLIC)
            evidence.append(Evidence(
                "route_agreement", "classifier and decay heuristic compared",
                numbers={"agree": bool(agree)}))
    if not nec.passed and report.verdict == CYCLIC:
        raise ArithmeticError(
            "necessity and classifier disagree; inconsistent space data")
    return CyclicityReport(report.verdict, evidence, decay=table)
