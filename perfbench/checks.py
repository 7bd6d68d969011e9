"""Output checks against the references of refs.py.

Each check raises CheckError with a message naming the operation; none
compares against a stored copy of hblab's own output.  This module needs
only the standard library, so the worker that runs hblab can use it.
"""

from __future__ import annotations

import math
from fractions import Fraction

TWO_PI = 2 * math.pi
HEURISTIC = {"likely_cyclic", "likely_not_cyclic", "undetermined"}


class CheckError(AssertionError):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


def circ_dist(a: float, b: float) -> float:
    d = abs(float(a) - float(b)) % TWO_PI
    return min(d, TWO_PI - d)


def same_angles(got, want, what: str, tol: float = 1e-7):
    got = sorted(float(a) % TWO_PI for a in got)
    want = sorted(float(a) % TWO_PI for a in want)
    require(len(got) == len(want) and
            all(circ_dist(a, b) <= tol for a, b in zip(got, want)),
            f"{what}: angles {got} != reference {want}")


def close(got, want, what: str, rtol: float = 1e-8, atol: float = 1e-12):
    require(abs(complex(got) - complex(want)) <=
            atol + rtol * abs(complex(want)),
            f"{what}: {got} != reference {want}")


# ---------------------------------------------------------------------------
# decay tables

def decay_entries(entries, n: int, norm1: float, lower: float, what: str):
    """d_N^2 for N = 1..n: nonincreasing, within [lower, ||1||^2].

    `lower` is the distance from 1 to the functions vanishing where the
    candidate vanishes (refs.candidate_ref); when it meets ||1||^2 every
    entry must equal it.
    """
    require([k for k, _d in entries] == list(range(1, n + 1)),
            f"{what}: table sizes are not 1..{n}")
    d2 = [float(d) for _k, d in entries]
    slack = 1e-12 * max(1.0, norm1)
    require(all(b <= a + slack for a, b in zip(d2, d2[1:])),
            f"{what}: d_N^2 increases")
    require(min(d2) >= -slack and max(d2) <= norm1 * (1 + 1e-8) + slack,
            f"{what}: d_N^2 outside [0, ||1||^2 = {norm1:.12g}]")
    require(min(d2) >= lower * (1 - 1e-6) - slack,
            f"{what}: d_N^2 = {min(d2):.12g} below the bound {lower:.12g}")
    if lower >= norm1 * (1 - 1e-9):
        require(all(abs(d - norm1) <= 1e-8 * norm1 for d in d2),
                f"{what}: d_N^2 should stay at {norm1:.12g}")


def decay_table(table, n: int, sref: dict, cref: dict, what: str):
    close(table.norm1_sq, sref["norm1_sq"], f"{what}: ||1||^2")
    decay_entries(table.entries, n, sref["norm1_sq"], cref["lower"], what)


def decay_verdict(report, what: str):
    require(report.verdict in HEURISTIC,
            f"{what}: decay estimator issued {report.verdict!r}")


# ---------------------------------------------------------------------------
# classifier, assess and sigma

def assess(report, sref: dict, cref: dict, n: int, what: str):
    require(report.verdict == cref["verdict"],
            f"{what}: verdict {report.verdict} != reference {cref['verdict']}")
    classifier = report.evidence[0]
    require(classifier.rule == "finite_defect_classifier",
            f"{what}: first evidence item is {classifier.rule}")
    same_angles(classifier.inputs["defect_points_angle"], sref["defects"],
                f"{what}: defect points")
    decay_table(report.decay, n, sref, cref, what)


def sigma_sets(lower, upper, nested: bool, base_ac: bool, sref: dict,
               what: str) -> list:
    """The sigma bracket against the defect points; returns the
    (angle, mass) of each defect point kept in the lower set.

    Every defect point is an atom of some Clark measure and belongs to
    the lower set, and to the upper set too, since a vanishes there.  A
    defect point where b = 1 is the exception: phi = a/(1-b) keeps no
    zero there, so the method's two bounds disagree about it, and the
    lower set may hold it or not.  The base measure (alpha = 1) is
    flagged absolutely continuous exactly when no such point exists.
    """
    require(base_ac == all(not t for t in sref["base_atoms"]),
            f"{what}: base measure flagged absolutely continuous={base_ac}")
    kept, kept_base = [], False
    for ang, mass, base in zip(sref["defects"], sref["masses"],
                               sref["base_atoms"]):
        if not any(circ_dist(x, ang) <= 1e-7 for x in lower):
            require(base, f"{what}: defect point {ang:.6f} not in lower set")
            continue
        kept.append((ang, mass))
        kept_base |= base
        if not base:
            require(any(circ_dist(u, ang) <= 1e-7 for u in upper),
                    f"{what}: lower point {ang:.6f} not in upper set")
    require(len(lower) == len(kept),
            f"{what}: lower set {sorted(lower)} holds a point that is not "
            f"a defect point {sref['defects']}")
    require(nested or kept_base, f"{what}: bracket not flagged nested")
    return kept


def angles_of(points) -> list:
    return [math.atan2(z.imag, z.real) % TWO_PI for z in points]


def sigma(bounds, sref: dict, what: str):
    """The bracket of sigma_bounds (sigma_sets), with the atom mass of
    each lower point equal to 1/|b'| (Julia-Caratheodory)."""
    kept = sigma_sets(angles_of(bounds.lower), angles_of(bounds.upper),
                      bounds.consistent(),
                      bounds.base_measure_absolutely_continuous, sref, what)
    keyed = {k: v for k, v in bounds.provenance.items()
             if not isinstance(k, str)}
    for ang, mass in kept:
        hits = [v for k, v in keyed.items() if circ_dist(k, ang) <= 1e-8]
        require(len(hits) == 1, f"{what}: no provenance for angle {ang}")
        close(hits[0]["mass"], mass, f"{what}: atom mass at {ang:.6f}",
              rtol=1e-6)


# ---------------------------------------------------------------------------
# exact reads

def fraction_pair(value):
    """(re, im) of an exact value: a Fraction or an object with re, im."""
    if isinstance(value, Fraction):
        return value, Fraction(0)
    return Fraction(value.re), Fraction(value.im)


def exact_equal(got, want, what: str):
    require(got is not None, f"{what}: no exact value")
    pair = fraction_pair(got)
    want = (Fraction(want[0]), Fraction(want[1]))
    require(pair == want, f"{what}: {pair[0]}+{pair[1]}i != reference "
            f"{want[0]}+{want[1]}i")


def element_pair(e1, e2, ip, ref: dict, what: str):
    exact_equal(e1.norm2_exact, ref["n1"], f"{what}: ||f1||^2")
    exact_equal(e2.norm2_exact, ref["n2"], f"{what}: ||f2||^2")
    exact_equal(ip, ref["ip"], f"{what}: <f1, f2>")
    close(e1.norm2, float(Fraction(ref["n1"][0])), f"{what}: float ||f1||^2",
          rtol=1e-9)


def exact_decay(table, n: int, norm1: str, lower: float, what: str):
    """Exact d_N^2: nonincreasing fractions within [lower, ||1||^2], and
    the float entries of the same table agree with them."""
    ex = table.exact_entries
    require(ex is not None and len(ex) == n, f"{what}: missing exact entries")
    top = Fraction(norm1)
    vals = [Fraction(d) for _k, d in ex]
    require(all(b <= a for a, b in zip(vals, vals[1:])),
            f"{what}: exact d_N^2 increases")
    require(min(vals) >= 0 and max(vals) <= top,
            f"{what}: exact d_N^2 outside [0, {top}]")
    require(float(min(vals)) >= lower * (1 - 1e-12),
            f"{what}: exact d_N^2 below the bound {lower:.12g}")
    if lower >= float(top) * (1 - 1e-12):
        require(all(v == top for v in vals),
                f"{what}: exact d_N^2 should stay at {top}")
    for (_k, d), v in zip(table.entries, vals):
        close(d, float(v), f"{what}: float vs exact d_N^2", rtol=1e-8,
              atol=1e-10)


# ---------------------------------------------------------------------------
# command-line documents

def _poly(doc) -> list:
    return [complex(re, im) for re, im in doc["coeffs"]]


def cli(name: str, doc: dict, ref: dict):
    """Check one command's JSON document against its reference."""
    what = f"cli {name}"
    if name == "mate":
        k = ref["k"]
        want = [0.5] + [0] * (k - 1) + [-0.5]
        got = _poly(doc["a"])
        require(len(got) == len(want), f"{what}: mate degree")
        for g, w in zip(got, want):
            close(g, w, f"{what}: mate coefficient", atol=1e-9)
        require(doc["pythagorean_residual"] <= 1e-10, f"{what}: residual")
    elif name == "validate":
        require(doc["valid"] is True, f"{what}: not valid")
        same_angles(doc["defect_points_angle"], ref["defects"], what)
    elif name == "norm":
        close(doc["norm_sq"], 4 * ref["k"] + 2, what, rtol=1e-10)
        require(doc.get("norm_sq_exact") == str(4 * ref["k"] + 2),
                f"{what}: exact norm {doc.get('norm_sq_exact')}")
    elif name == "decay":
        close(doc["norm1_sq"], ref["norm1_sq"], f"{what}: ||1||^2")
        decay_entries(doc["entries"], 12, ref["norm1_sq"], ref["lower"], what)
        require([d for _n, d in doc["entries_exact"]] == ["2"] * 12,
                f"{what}: exact entries")
    elif name in ("classify", "certify_A", "certify_B", "certify_C"):
        rep = doc if name == "classify" else doc["report"]
        require(rep["verdict"] == ref["verdict"],
                f"{what}: verdict {rep['verdict']} != {ref['verdict']}")
        if name != "classify":
            require(doc["certified"] is True, f"{what}: not certified")
    elif name == "clark":
        same_angles([a for a, _m in doc["atoms"]], ref["defects"], what)
        for (_a, m), want in zip(sorted(doc["atoms"]), ref["masses"]):
            close(m, want, f"{what}: atom mass", rtol=1e-6)
        close(doc["total_mass"], 1.0, f"{what}: total mass", rtol=1e-6)
    elif name in ("sigma", "sigma_defect"):
        sigma_sets(doc["lower_angles"], doc["upper_angles"], doc["nested"],
                   doc["base_measure_absolutely_continuous"], ref, what)
    elif name == "dirichlet":
        close(doc["dirichlet_integral"], float(Fraction(ref["integral"])),
              f"{what}: integral", rtol=1e-10)
        require(doc.get("norm_sq_exact") == ref["norm_sq"],
                f"{what}: exact norm {doc.get('norm_sq_exact')}")
        require(doc["verdict"] == ref["verdict"], f"{what}: verdict")
    elif name == "theta":
        k = ref["k"]
        same_angles([a for a, _m in doc["atoms"]],
                    [TWO_PI * j / k for j in range(k)], what)
        for _a, m in doc["atoms"]:
            close(m, 1 / k, f"{what}: atom mass", rtol=1e-6)
        require(doc["model_dimension"] == k, f"{what}: model dimension")
        close(doc["mass_total"], 1.0, f"{what}: total mass", rtol=1e-6)
        require(doc["verdict"] == ref["verdict"], f"{what}: verdict")
    else:
        raise CheckError(f"no check for command {name}")


def verify(doc: dict, rc: int):
    require(rc == 0, f"verify exited {rc}")
    require(doc.get("passed") == 11 and not doc.get("failed"),
            f"verify: {doc.get('passed')} passed, failed {doc.get('failed')}")
