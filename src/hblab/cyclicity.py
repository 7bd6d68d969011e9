"""Cyclicity decisions: classifier, decay heuristic, certificates, necessity.

Routes with theorem-grade soundness for rational data report "cyclic" or
"not_cyclic"; the distance-decay estimator only ever reports "likely_*"
or "undetermined".  Evidence items carry the rule name, a plain-language
statement of the rule, and the numbers that fired it, so reports can be
audited and cross-checked between routes.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import clark, config, exact, factor, poly, sigma
from .boundary import Arc, UnitCircleFunction, arc_union_contains, \
    arcs_cover_circle
from .errors import NormalizationError
from .hb import HbElement, HbSpace, element_from_rational, exact_mate, \
    make_element

CYCLIC = "cyclic"
NOT_CYCLIC = "not_cyclic"
LIKELY_CYCLIC = "likely_cyclic"
LIKELY_NOT_CYCLIC = "likely_not_cyclic"
UNDETERMINED = "undetermined"

_THEOREM_GRADE = {CYCLIC, NOT_CYCLIC}
TABLE_MAX_N = 256           # largest decay table
TABLE_MAX_ROWS = 2 * TABLE_MAX_N    # largest deg f + N: caps a stored factor
EXACT_TABLE_MAX_N = 128     # largest under use_exact=True (N = 128: <1 s)
BLOCK = 64                  # column block of a float table's banded QR


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
        allowed = _THEOREM_GRADE | {LIKELY_CYCLIC, LIKELY_NOT_CYCLIC,
                                    UNDETERMINED}
        if self.verdict not in allowed:
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

def defect_spectrum(space: HbSpace) -> list:
    """Unimodular zeros of a: the boundary points carrying the defect.

    For rational b these are exactly the circle points where every
    element of the space has a finite non-tangential limit and the
    classifier evaluates candidates.
    """
    return sorted(space.a_circle_zeros(),
                  key=config.circle_angle)


def classify_finite_defect(space: HbSpace, f) -> CyclicityReport:
    """Exact cyclicity classification for rational b and polynomial f.

    f is cyclic iff it is outer and does not vanish at any unimodular
    zero of a.
    """
    return outer_nonvanishing_rule(
        f, defect_spectrum(space), "finite_defect_classifier",
        "cyclic iff outer and nonvanishing at every unimodular zero of a")


def outer_nonvanishing_rule(f, points, rule: str,
                            statement: str) -> CyclicityReport:
    """Cyclic iff the polynomial f is outer and nonzero at every point.

    The rule behind the finite-defect classifier and the Dirichlet and
    inner-model oracles; points are the circle points where the space
    carries its defect (zeros of a, atoms of the measure).
    """
    fn = _candidate(f)
    f = fn.num
    if fn.num_degree < 0:
        return CyclicityReport(NOT_CYCLIC, [Evidence(
            rule, "the zero function is never cyclic")])
    outer = factor.is_outer(fn)
    values = {_ang(z): float(abs(poly.horner(f, z))) for z in points}
    small = [a for a, v in values.items() if v <= config.POINT_ZERO_TOL]
    verdict = CYCLIC if outer and not small else NOT_CYCLIC
    return CyclicityReport(verdict, [Evidence(
        rule, statement,
        inputs={"defect_points_angle": sorted(values)},
        numbers={"is_outer": outer, "abs_values": values,
                 "vanishing_points": small})])


def _as_poly(f) -> np.ndarray:
    if isinstance(f, HbElement):
        return f.f
    if isinstance(f, UnitCircleFunction):
        return f.to_polynomial()
    return poly.trim(poly.finite(np.asarray(f, dtype=complex), "f: "))


def _candidate(f) -> UnitCircleFunction:
    """f as a polynomial function, kept when given as one: the rules that
    read its roots then share one solve."""
    if isinstance(f, UnitCircleFunction) and f.kind == "poly":
        return f
    return UnitCircleFunction.polynomial(_as_poly(f))


def _ang(z) -> float:
    return round(config.circle_angle(z), 12)


# ---------------------------------------------------------------------------
# decay tables

@dataclass
class DecayThresholds:
    """Calibration constants for the decay heuristic (overridable)."""

    final_tol: float = 1e-3
    extrap_tol: float = 1e-4
    flat_window: int = 10
    flat_rtol: float = 1e-4
    flat_floor: float = 1e-2
    power_horizon: float = 1e6
    exp_horizon_factor: float = 4.0
    min_fit_points: int = 8
    min_r2: float = 0.98


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
    its QR is blocked, BLOCK (or deg f) columns at a time, each slab
    built from rows of R0 as the QR reaches it (_banded_r): B is never
    formed.  N <= BLOCK is one QR.  Columns whose pivot collapses are
    flagged as near-dependent.
    R is at most TABLE_MAX_ROWS.  The exact backend forms the Gram matrix
    of the multiples (exact_entries: one exact mate, the Gram matrix by
    the shift recurrence, one fraction-free elimination over Gaussian
    integers): "auto" computes the first 32, True refuses
    N > EXACT_TABLE_MAX_N.
    """
    f = _as_poly(f)
    if poly.degree(f) < 0:
        raise ValueError("decay table needs a nonzero f")
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
    R0 = space.embedding_factor(rows)
    pivots, proj, col_sq = _banded_r(R0, f, n_max)
    flags = np.flatnonzero(np.abs(pivots) <=
                           1e-12 * np.maximum(1.0, np.sqrt(col_sq))) + 1
    # ||w||^2 = ||B[:, N]||^2 = |R0[0, 0]|^2 less |R[i, N]|^2 one at a time
    d2 = np.subtract.accumulate(np.concatenate(
        [[abs(R0[0, 0]) ** 2], np.abs(proj) ** 2]))[1:]
    table = DecayTable(f=f, entries=list(zip(range(1, n_max + 1),
                                             np.maximum(d2, 0.0).tolist())),
                       norm1_sq=float(space.one().norm2),
                       ridge_flags=flags.tolist())
    if use_exact in ("auto", True):
        table.exact_entries = _exact_decay(
            space, f, n_max if use_exact is True else min(n_max, 32))
    if table.exact_entries is None and use_exact is True:
        raise NormalizationError("exact decay requested but the data is "
                                 "not exactly representable")
    return table


def _banded_r(R0: np.ndarray, f: np.ndarray, n: int):
    """diag(R)[:n], R[:n, n] and the squared column norms of B[:, :n] for
    a QR of B = R0 [T_f | e_0], up to a unimodular diagonal, without B.

    B is zero below its d-th subdiagonal (d = deg f), so k = max(BLOCK, d)
    columns at a time reach k + d rows: the d that the previous block's R
    carries over and k new rows of B, R0[j0+d : j0+k+d, j0:] [T_f | e_0]
    (rows [0, k+d) for the first block), zero left of column j0.  Each
    slab is formed in one reused buffer next to its QR; every entry of B
    is new in exactly one slab, where its column norm is summed.
    """
    d = f.size - 1
    k = max(BLOCK, d)
    buf = np.empty((min(k + d, d + n), n + 1), dtype=complex, order="F")
    (pivots, proj), col_sq = np.empty((2, n), dtype=complex), np.zeros(n)
    j0 = top = 0                # top: rows carried to the head of buf
    while True:
        r0, r1 = j0 + top, min(j0 + k + d, d + n)      # new rows of B
        new = buf[top:top + r1 - r0, :n - j0 + 1]
        np.multiply(R0[r0:r1, j0:n], f[0], out=new[:, :-1])
        for i in range(1, d + 1):
            new[:, :-1] += f[i] * R0[r0:r1, j0 + i:n + i]
        new[:, -1] = R0[r0:r1, 0]
        col_sq[j0:] += np.sum(np.abs(new[:, :-1]) ** 2, axis=0)
        # raw mode: h is the factored slab transposed, R in its lower part
        h = np.linalg.qr(buf[:top + r1 - r0, :n - j0 + 1], mode="raw")[0]
        m = min(k, n - j0)
        pivots[j0:j0 + m] = h.diagonal()[:m]
        proj[j0:j0 + m] = h[-1, :m]
        if j0 + m == n:
            return pivots, proj, col_sq
        top = d
        buf[:d, :n - j0 + 1 - k] = np.triu(h[k:, k:k + d].T)
        j0 += k


def _exact_decay(space: HbSpace, f, n: int):
    """Exact d_k^2, k <= n, from one exact mate and one elimination.

    mate(z h) = z mate(h) plus a constant, so the exact mate u of
    z^(n-1) f holds every column: mate(z^k f) = u[n-1-k:], with constant
    term u[n-1-k].  As z g has no constant term, G[j][k] = <z^k f, z^j f>
    follows from its first row: G[j][k] = G[j-1][k-1] + u[n-1-k]
    conj(u[n-1-j]) / s2.  G is positive definite (f, zf, ... are
    independent), and the corners of [[G, r], [r*, ||1||^2]] are the
    d_k^2 (exact.bordered_schur)."""
    pair = exact_mate(space, f, n - 1)
    if pair is None:
        return None
    # object arrays, converted once, so the inner products only slice them
    h, u = pair
    h = np.array(h, dtype=object)
    u = np.array(u + (exact.QZERO,) * (h.size - len(u)), dtype=object)
    inv_s2 = exact.QC(1 / space.exact.s2)
    cols = [(h[k:], u[k:]) for k in range(n - 1, -1, -1)]  # z^k f, mate
    cols.append(tuple(np.array(x, dtype=object) for x in space.one().exact))

    def ip(x, y):
        return poly.hardy_inner(x[0], y[0]) + \
            poly.hardy_inner(x[1], y[1]) * inv_s2

    m = [[ip(x, cols[0]) for x in cols]]
    for j in range(1, n):
        c = u[n - 1 - j].conj() * inv_s2
        m.append([None] * j + [m[j - 1][k - 1] + u[n - 1 - k] * c
                               for k in range(j, n)] + [ip(cols[n], cols[j])])
    m.append([None] * n + [ip(cols[n], cols[n])])
    return list(enumerate(exact.bordered_schur(m), 1))


def estimate_from_decay(table: DecayTable,
                        thresholds: DecayThresholds | None = None
                        ) -> CyclicityReport:
    """Heuristic verdict from the decay trend; never theorem-grade.

    likely_cyclic when the table reaches the final tolerance or a clean
    fitted power/exponential trend extrapolates below the target;
    likely_not_cyclic when the table has flattened well above zero.
    """
    th = thresholds or DecayThresholds()
    if len(table.entries) < 20:
        raise ValueError("estimator needs a table of length >= 20")
    d2 = table.d2()
    ns = table.sizes().astype(float)
    last = float(d2[-1])
    numbers = {"last_d2": last, "norm1_sq": table.norm1_sq}
    if last < th.final_tol:
        return CyclicityReport(LIKELY_CYCLIC, [Evidence(
            "decay_heuristic", "distance to constants fell below tolerance",
            numbers=numbers)], decay=table)
    w = th.flat_window
    window = d2[-w:]
    rel_change = float((window.max() - window.min()) / max(last, 1e-300))
    numbers["flat_rel_change"] = rel_change
    if rel_change < th.flat_rtol and last > th.flat_floor:
        return CyclicityReport(LIKELY_NOT_CYCLIC, [Evidence(
            "decay_heuristic",
            "distances stalled at a level far from zero",
            numbers=numbers)], decay=table)
    fit = _trend_fit(ns, d2, th)
    if fit is not None:
        numbers.update(fit)
        if fit["extrapolated_d2"] < th.extrap_tol and \
                fit["r_squared"] >= th.min_r2:
            return CyclicityReport(LIKELY_CYCLIC, [Evidence(
                "decay_heuristic",
                "fitted decay trend extrapolates below target",
                numbers=numbers)], decay=table)
    return CyclicityReport(UNDETERMINED, [Evidence(
        "decay_heuristic", "no decisive decay pattern", numbers=numbers)],
        decay=table)


def _trend_fit(ns, d2, th: DecayThresholds):
    half = max(th.min_fit_points, len(d2) // 2)
    xs = ns[-half:]
    ys = d2[-half:]
    mask = ys > 0
    if mask.sum() < th.min_fit_points:
        return None
    xs, ys = xs[mask], ys[mask]
    logy = np.log(ys)
    best = None
    for kind, tx, horizon in (
            ("power", np.log(xs), np.log(th.power_horizon)),
            ("exponential", xs, th.exp_horizon_factor * xs[-1])):
        A = np.vstack([tx, np.ones_like(tx)]).T
        sol, *_ = np.linalg.lstsq(A, logy, rcond=None)
        slope, intercept = float(sol[0]), float(sol[1])
        pred = A @ sol
        ss_res = float(np.sum((logy - pred) ** 2))
        ss_tot = float(np.sum((logy - logy.mean()) ** 2)) or 1e-300
        r2 = 1 - ss_res / ss_tot
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
    a_inverse_sq_integral: float
    f_essinf: float


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
    unimodular zero in closure(E) and f none in closure(F); grid integrals
    are reported as diagnostics only.
    """
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
    n = space.grid.n
    pts = config.unit_circle_points(n)
    avals = np.abs(space.a.boundary_values(n))
    fvals = np.abs(poly.horner(f, pts))
    e_mask = np.zeros(n, dtype=bool)
    for arc in e_arcs:
        e_mask |= arc.grid_mask(n)
    f_mask = np.zeros(n, dtype=bool)
    for arc in f_arcs:
        f_mask |= arc.grid_mask(n)
    with np.errstate(divide="ignore"):
        a_int = float(np.mean(np.where(e_mask, 1.0 / avals ** 2, 0.0))) \
            if e_mask.any() else 0.0
    f_inf = float(fvals[f_mask].min()) if f_mask.any() else float("inf")
    ok = not reasons
    cert = TheoremACertificate(e_arcs, f_arcs, a_int, f_inf) if ok else None
    ev = Evidence(
        "inverse_integrability_certificate",
        "outer candidate with 1/a in L^2 on E and 1/f bounded on F, "
        "E and F covering the circle",
        inputs={"E": [(a.start, a.end) for a in e_arcs],
                "F": [(a.start, a.end) for a in f_arcs]},
        numbers={"a_inverse_sq_integral_on_E": a_int,
                 "f_grid_min_on_F": f_inf, "reasons": reasons})
    verdict = CYCLIC if ok else UNDETERMINED
    return CertificateOutcome(ok, "A", CyclicityReport(verdict, [ev]),
                              cert, reasons)


def _require_normalized(space: HbSpace):
    """Base-point normalization: mu_1 absolutely continuous, phi unit norm."""
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
    phi = _require_normalized(space).density_root
    fn = _candidate(f)
    items = cover.items if isinstance(cover, TheoremBCover) else list(cover)
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
    n = space.grid.n
    pts = config.unit_circle_points(n)
    fvals = np.abs(poly.horner(fn.num, pts))
    f_zeros = sigma.sigma_upper(fn) if outer else []
    bounds = []
    for arc, eta in items:
        if eta <= 0:
            reasons.append(f"arc at {arc.start:.6g} has nonpositive bound")
            continue
        inside = [z for z in f_zeros if arc.contains_point(z, closed=True)]
        if inside:
            reasons.append(
                f"f vanishes on the closed arc at angles "
                f"{[_ang(z) for z in inside]}")
            continue
        mask = arc.grid_mask(n)
        gmin = float(fvals[mask].min()) if mask.any() else float("inf")
        bounds.append((arc.start, arc.length, eta, gmin))
        if gmin <= eta:
            reasons.append(
                f"grid minimum {gmin:.6g} on the arc at {arc.start:.6g} "
                f"does not clear eta = {eta:.6g}")
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
    phi = _require_normalized(space).density_root
    g = _as_poly(g)
    f_image = clark.normalized_cauchy_rational(space, 1.0, g)
    theta, big_f = factor.inner_outer(f_image, space.grid)
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

    Sweeps the alpha grid; the first atom where |f| is below tolerance
    yields a theorem-grade not_cyclic with the witnessing (alpha, atom).
    Non-outer candidates fail outright.
    """
    fn = _candidate(f)
    f = fn.num
    if fn.num_degree < 0 or not factor.is_outer(fn):
        rep = CyclicityReport(NOT_CYCLIC, [Evidence(
            "outer_necessity", "cyclic vectors must be outer",
            numbers={"is_outer": False})])
        return NecessityOutcome(False, rep, None)
    sweep = clark.clark_sweep(space, alphas)
    checked = 0
    for a, cm in sweep:
        for zeta, mass in cm.atoms:
            checked += 1
            val = float(abs(poly.horner(f, zeta)))
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

def assess(space: HbSpace, f, n_max: int = 32,
           thresholds: DecayThresholds | None = None) -> CyclicityReport:
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
        table = decay_table(space, fn.num, max(n_max, 20))
        est = estimate_from_decay(table, thresholds)
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
