"""End-to-end checks with frozen desk-scale ground truth.

Each criterion is a callable returning a CheckResult; run_all executes
the suite in order and is what the command-line `verify` calls.  All
randomness is seeded so outputs are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import clark, config, cyclicity, exact, factor, hb, models, poly, \
    sigma
from .boundary import Arc, UnitCircleFunction as UCF


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float


def _spaces():
    return {
        "(1+z)/2": hb.make_space(UCF.polynomial([0.5, 0.5])),
        "z/2": hb.make_space(UCF.polynomial([0.0, 0.5])),
        "z(1+z)/2": hb.make_space(UCF.polynomial([0.0, 0.5, 0.5])),
        "(3z+z^2)/4": hb.make_space(UCF.polynomial([0.0, 0.75, 0.25])),
    }


def criterion_1_pythagorean() -> CheckResult:
    """Float relative l1 Laurent residual < 1e-10; exact residual zero."""
    t0 = time.perf_counter()
    bad = []
    for name, sp in _spaces().items():
        res = sp.pythagorean_residual()
        if res >= 1e-10:
            bad.append(f"{name}: float residual {res:.3e}")
        if sp.exact is None:
            bad.append(f"{name}: exact backend not certified")
        elif sp.pythagorean_exact_residual():
            bad.append(f"{name}: nonzero exact residual")
    return CheckResult("pythagorean_identity", not bad,
                       "; ".join(bad) or "all spaces exact and under 1e-10",
                       time.perf_counter() - t0)


def criterion_2_mate_exactness() -> CheckResult:
    """b=(1+z)/2: a=(1-z)/2 exactly, mate(1)=-1, ||z^k||^2 = 4k+2 exact."""
    t0 = time.perf_counter()
    sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
    bad = []
    if sp.exact is None or sp.exact.s2 != 1 or \
            sp.exact.A != ([1, -1], [0, 0], 2):
        bad.append("exact mate is not (1-z)/2")
    e1 = hb.make_element(sp, [1])
    if e1.exact is None or e1.exact[1] != (exact.QC(-1),):
        bad.append(f"exact data of 1: {e1.exact}")
    if e1.norm2_exact != 2:
        bad.append(f"||1||^2 = {e1.norm2_exact}")
    for k in range(9):
        f = [0.0] * k + [1.0]
        ek = hb.make_element(sp, f)
        if ek.norm2_exact != 4 * k + 2:
            bad.append(f"||z^{k}||^2 = {ek.norm2_exact} != {4 * k + 2}")
    return CheckResult("mate_exactness", not bad,
                       "; ".join(bad) or "exact coefficients and norms match",
                       time.perf_counter() - t0)


def criterion_3_kernel_identity() -> CheckResult:
    """Mate-route kernel norm vs closed form, 20 random points, rel 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    bad = []
    spaces = list(_spaces().values())
    for j in range(20):
        sp = spaces[j % len(spaces)]
        lam = 0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi *
                                                     rng.uniform())
        el = hb.kernel_element(sp, lam)
        lhs = float(np.real(hb.inner_product(sp, el, el)))
        rhs = (1 - abs(complex(sp.b(lam))) ** 2) / (1 - abs(lam) ** 2)
        rel = abs(lhs - rhs) / abs(rhs)
        if rel > 1e-8:
            bad.append(f"lam={lam:.4g}: rel err {rel:.3e}")
    return CheckResult("kernel_identity", not bad,
                       "; ".join(bad) or "20 points agree to rel 1e-8",
                       time.perf_counter() - t0)


def criterion_4_clark_triangulation() -> CheckResult:
    """Masses and totals of two worked measures; atom masses to 1e-10."""
    t0 = time.perf_counter()
    bad = []
    sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))
    cm = clark.clark_measure(sp, 1.0)
    if abs(cm.ac_mass - 1 / 3) > 1e-6:
        bad.append(f"ac mass {cm.ac_mass:.8f} != 1/3")
    sp2 = hb.make_space(UCF.polynomial([0.5, 0.5]))
    cm2 = clark.clark_measure(sp2, 1.0)
    for m, mass, total in ((cm, 2 / 3, 1.0), (cm2, 2.0, 3.0)):
        if len(m.atoms) != 1 or abs(m.atoms[0][0] - 1) > 1e-8 or \
                abs(m.atoms[0][1] - mass) > 1e-10:
            bad.append(f"atoms {m.atoms} != mass {mass:.6g} at 1")
        if abs(m.total_mass - total) > 1e-6:
            bad.append(f"total {m.total_mass:.8f} != {total:g}")
    return CheckResult("clark_triangulation", not bad,
                       "; ".join(bad) or "masses 2/3, 1/3, 2 and totals 1, 3",
                       time.perf_counter() - t0)


def criterion_5_unitarity() -> CheckResult:
    """Gram of V-images in H(b) equals Gram in L^2(mu_1), b = z/2."""
    t0 = time.perf_counter()
    sp = hb.make_space(UCF.polynomial([0.0, 0.5]))
    cm = clark.clark_measure(sp, 1.0)
    els = []
    for k in range(7):
        mono = [0.0] * k + [1.0]
        image = clark.normalized_cauchy_rational(sp, 1.0, mono, measure=cm)
        els.append(hb.element_from_rational(sp, image))
    g_hb = np.array([[hb.inner_product(sp, els[j], els[k])
                      for k in range(7)] for j in range(7)])
    n = config.QUADRATURE_POINTS
    pts = config.unit_circle_points(n)
    dens = cm.density_values(pts)
    coeffs = np.fft.fft(dens) / n
    g_mu = np.array([[coeffs[(j - k) % n] for k in range(7)]
                     for j in range(7)])
    err = float(np.max(np.abs(g_hb - g_mu)))
    return CheckResult("transform_unitarity", err < 1e-6,
                       f"max Gram deviation {err:.3e}",
                       time.perf_counter() - t0)


def criterion_6_classifier_vs_decay() -> CheckResult:
    """Classifier truth and decay oracle agree on b=(1+z)/2."""
    t0 = time.perf_counter()
    sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
    bad = []
    rep = cyclicity.classify_finite_defect(sp, [1, 1])
    table = cyclicity.decay_table(sp, [1, 1], 60)
    d2 = table.d2()
    if rep.verdict != cyclicity.CYCLIC:
        bad.append("1+z not classified cyclic")
    if not (d2[-1] < 0.1):
        bad.append(f"d_60^2 = {d2[-1]:.4f} >= 0.1")
    if not np.all(np.diff(d2) <= 1e-10):
        bad.append("decay table not monotone")
    rep2 = cyclicity.classify_finite_defect(sp, [1, -1])
    table2 = cyclicity.decay_table(sp, [1, -1], 12)
    if rep2.verdict != cyclicity.NOT_CYCLIC:
        bad.append("1-z not classified not_cyclic")
    if float(np.max(np.abs(table2.d2() - 2.0))) > 1e-9:
        bad.append("d_N^2 for 1-z differs from 2")
    if cyclicity.classify_finite_defect(sp, [0, 1]).verdict != \
            cyclicity.NOT_CYCLIC:
        bad.append("z not classified not_cyclic")
    rng = np.random.default_rng(1006)
    contradictions = 0
    for _ in range(50):
        deg = int(rng.integers(1, 7))
        f = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        verdict = cyclicity.classify_finite_defect(sp, f).verdict
        est = cyclicity.estimate_from_decay(
            cyclicity.decay_table(sp, f, 32)).verdict
        if verdict == cyclicity.CYCLIC and \
                est == cyclicity.LIKELY_NOT_CYCLIC:
            contradictions += 1
        if verdict == cyclicity.NOT_CYCLIC and \
                est == cyclicity.LIKELY_CYCLIC:
            contradictions += 1
    if contradictions:
        bad.append(f"{contradictions} classifier/decay contradictions")
    return CheckResult("classifier_vs_decay", not bad,
                       "; ".join(bad) or
                       f"d_60^2 = {d2[-1]:.4f}, no contradictions in 50",
                       time.perf_counter() - t0)


def criterion_7_necessity() -> CheckResult:
    """Atom necessity rejects 1-z and passes 1+z for b = z(1+z)/2."""
    t0 = time.perf_counter()
    sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))
    bad = []
    out = cyclicity.necessity_check(sp, [1, -1])
    if out.passed or out.witness is None:
        bad.append("1-z passed necessity")
    else:
        alpha, zeta = out.witness
        if abs(alpha - 1) > 1e-8 or abs(zeta - 1) > 1e-8:
            bad.append(f"wrong witness {out.witness}")
    if not cyclicity.necessity_check(sp, [1, 1]).passed:
        bad.append("1+z failed necessity")
    return CheckResult("atom_necessity", not bad,
                       "; ".join(bad) or "witness (alpha=1, zeta=1) found",
                       time.perf_counter() - t0)


def criterion_8_sigma_machinery() -> CheckResult:
    """Finite sections and the two-sided bounds on the non-exposure set."""
    t0 = time.perf_counter()
    bad = []
    phi1 = UCF.polynomial([1 / np.sqrt(2), -1 / np.sqrt(2)])
    rep1 = sigma.toeplitz_kernel_sections(phi1, 64)
    if any(rep1.near_kernel_counts[m] != 1 for m in rep1.sizes):
        bad.append(f"(1-z)/sqrt2 counts {rep1.near_kernel_counts}")
    phi2 = UCF.rational([np.sqrt(3)], [2.0, 1.0])
    rep2 = sigma.toeplitz_kernel_sections(phi2, 64)
    if any(rep2.near_kernel_counts[m] != 0 for m in rep2.sizes):
        bad.append(f"sqrt3/(2+z) counts {rep2.near_kernel_counts}")
    smalls = [rep2.smallest[m] for m in rep2.sizes]
    if min(smalls) < 0.2 or (max(smalls) - min(smalls)) > 0.1 * min(smalls):
        bad.append(f"sigma_min not stable: {smalls}")
    for make in (lambda: hb.make_space_from_phi(phi1),
                 lambda: hb.make_space_from_phi(phi2),
                 lambda: hb.make_space(UCF.polynomial([0.0, 0.5]))):
        sp = make()
        bounds = sigma.sigma_bounds(sp)
        if not bounds.base_measure_absolutely_continuous:
            bad.append("unexpected atom in a base measure")
        if not bounds.consistent():
            bad.append(f"lower {bounds.lower} not within upper "
                       f"{bounds.upper}")
    return CheckResult("sigma_machinery", not bad,
                       "; ".join(bad) or
                       "section counts 1/0 stable, bounds nested",
                       time.perf_counter() - t0)


def criterion_9_certificates() -> CheckResult:
    """The three certificate rules on their worked examples."""
    t0 = time.perf_counter()
    bad = []
    sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
    outcome = cyclicity.theorem_a_check(
        sp, [1, 1], [Arc.from_angles(0.1, 2 * np.pi - 0.1)],
        [Arc.from_angles(-0.5, 0.5)])
    if not outcome.ok or outcome.report.verdict != cyclicity.CYCLIC:
        bad.append(f"rule A failed: {outcome.reasons}")
    spz = hb.make_space(UCF.polynomial([0.0, 0.5]))
    for f in ([1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0, 1.0]):
        outB = cyclicity.theorem_b_check(spz, f, [])
        if not outB.ok:
            bad.append(f"rule B empty cover rejected outer {f}")
    big_f, outC = cyclicity.theorem_c_check(spz, [1.0])
    if not outC.ok or poly.degree(big_f.num) != 0 or \
            abs(complex(big_f(0)) - 1) > 1e-9:
        bad.append("rule C trivial image is not the constant 1")
    return CheckResult("certificates", not bad,
                       "; ".join(bad) or "rules A, B, C all certify",
                       time.perf_counter() - t0)


def criterion_10_models() -> CheckResult:
    """Dirichlet and inner-model oracles against the classifier."""
    t0 = time.perf_counter()
    bad = []
    spec = models.DirichletSpec([(1.0, 1.0)])
    for f, want in (([1, 1], cyclicity.CYCLIC),
                    ([1, -1], cyclicity.NOT_CYCLIC),
                    ([0, 1], cyclicity.NOT_CYCLIC)):
        got = models.dirichlet_cyclic(spec, f).verdict
        if got != want:
            bad.append(f"D(delta_1) {f}: {got} != {want}")
    m2 = models.theta_model(UCF.blaschke([0, 0]))
    locs = sorted(round(config.circle_angle(z), 6) for z, _ in m2.atoms)
    if locs != [0.0, round(np.pi, 6)]:
        bad.append(f"theta=z^2 atoms at {locs}")
    for _z, mass in m2.atoms:
        if abs(mass - 0.5) > 1e-12:
            bad.append(f"theta=z^2 mass {mass:.6f} != 1/2")
    m1 = models.theta_model(UCF.blaschke([0]))
    sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
    tri = ([1.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [1.0, 0.0, -1.0])
    for f in tri:
        mv = models.theta_cyclic(m1, f).verdict
        cv = cyclicity.classify_finite_defect(sp, f).verdict
        if mv != cv:
            bad.append(f"triangulation split on {f}: {mv} vs {cv}")
    for h in ([0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0]):
        val = clark.poltoratski_limit(sp, 1.0, h, 1.0)
        want = complex(poly.horner(poly.aspoly(h), 1.0))
        if abs(val - want) > 1e-12:
            bad.append(f"boundary limit of {h}: {val:.6f} != {want:.6f}")
    spz2 = hb.make_space(UCF.polynomial([0.5, 0.0, 0.5]))
    for zeta in (1.0, -1.0):
        val = clark.poltoratski_limit(spz2, 1.0, [2.0, 1.0], zeta)
        want = complex(poly.horner(np.array([2.0, 1.0], dtype=complex),
                                   zeta))
        if abs(val - want) > 1e-12:
            bad.append(f"theta=z^2 limit at {zeta}: {val:.6f}")
    return CheckResult("model_oracles", not bad,
                       "; ".join(bad) or
                       "Dirichlet, inner-model, and limits all agree",
                       time.perf_counter() - t0)


def criterion_11_inner_division() -> CheckResult:
    """Inner factors divide out; shifts break cyclicity; a preserves it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1011)
    bad = []
    sp = hb.make_space(UCF.polynomial([0.0, 0.5]))
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        outer_part = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        zero = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi *
                                                     rng.uniform())
        f = poly.pmul(np.array([-zero, 1.0]), outer_part)
        if rng.uniform() < 0.5:
            f = poly.pmul(f, np.array([0.0, 1.0]))
        el = hb.make_element(sp, f)
        divided = hb.divide_inner(sp, el)
        if not np.isfinite(divided.norm2):
            bad.append("non-finite norm after division")
            continue
        if not factor.is_outer(divided.f):
            bad.append("divided element is not outer")
    for f in ([1.0], [1.0, 1.0], [2.0, 1.0, 1.0]):
        f = np.asarray(f, dtype=complex)
        if cyclicity.classify_finite_defect(sp, f).verdict != \
                cyclicity.CYCLIC:
            bad.append(f"{f} unexpectedly not cyclic")
        shifted = poly.pmul(f, np.array([0.0, 1.0]))
        if cyclicity.classify_finite_defect(sp, shifted).verdict != \
                cyclicity.NOT_CYCLIC:
            bad.append("shift of a cyclic vector stayed cyclic")
        a_f = poly.pmul(sp.A, f)
        if cyclicity.classify_finite_defect(sp, a_f).verdict != \
                cyclicity.CYCLIC:
            bad.append("a times a cyclic vector lost cyclicity")
    return CheckResult("inner_division_stability", not bad,
                       "; ".join(bad) or
                       "division, shift, and multiplier checks hold",
                       time.perf_counter() - t0)


ALL_CRITERIA = [
    criterion_1_pythagorean,
    criterion_2_mate_exactness,
    criterion_3_kernel_identity,
    criterion_4_clark_triangulation,
    criterion_5_unitarity,
    criterion_6_classifier_vs_decay,
    criterion_7_necessity,
    criterion_8_sigma_machinery,
    criterion_9_certificates,
    criterion_10_models,
    criterion_11_inner_division,
]


def run_all(echo: bool = False):
    """Run every criterion; returns the list of CheckResults."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if echo:
            mark = "PASS" if res.passed else "FAIL"
            print(f"[{mark}] {res.name} ({res.elapsed:.2f}s): {res.details}")
    return results
