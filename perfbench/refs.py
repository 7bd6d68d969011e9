"""Reference values computed apart from hblab.

Circle zeros and polynomial roots come from mpmath at 40 digits, exact
norms from sympy rational arithmetic, and |a(0)|^2 from a midpoint
quadrature of log(1 - |b|^2) with one Richardson step.  Nothing here
imports hblab.  Every value is plain JSON (floats, strings of fractions)
so the worker process that runs hblab can compare against it without
importing mpmath or sympy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

from child import complexes, fraction_pairs

mpmath.mp.dps = 40
_ON_CIRCLE = 1e-8       # |abs(root) - 1| below this counts as a circle root
_OUTSIDE = 1e-12        # a root with |r| >= 1 - this is outside the open disk


def _mp(coeffs):
    return [mpmath.mpc(complex(c)) for c in coeffs]


def _polyval(coeffs, z):
    return mpmath.polyval(list(reversed(coeffs)), z)


def poly_roots(coeffs) -> list:
    """All roots of a polynomial (lowest degree first), as complex."""
    c = _mp(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        return []
    roots = mpmath.polyroots(list(reversed(c)), maxsteps=400, extraprec=200)
    return [complex(r) for r in roots]


def angle(z) -> float:
    return float(cmath.phase(z)) % (2 * math.pi)


def defect_points(num, den) -> list:
    """Circle zeros of |q|^2 - |p|^2, i.e. the points where |b| = 1.

    The Laurent polynomial is multiplied by z^d and handed to mpmath;
    circle zeros are double roots and are merged.
    """
    p, q = _mp(num), _mp(den if den is not None else [1])
    d = max(len(p), len(q)) - 1
    w = [mpmath.mpc(0)] * (2 * d + 1)
    for c, sign in ((q, 1), (p, -1)):
        for j, cj in enumerate(c):
            for k, ck in enumerate(c):
                w[d + j - k] += sign * cj * mpmath.conj(ck)
    pts = []
    for r in poly_roots(w):
        if abs(abs(r) - 1) <= _ON_CIRCLE:
            z = r / abs(r)
            if all(abs(z - s) > 1e-6 for s in pts):
                pts.append(z)
    return sorted(pts, key=angle)


def base_atoms(num, den, points) -> list:
    """For each defect point, whether b = 1 there, i.e. whether the Clark
    measure at alpha = 1 has an atom there.  At such a point phi =
    a/(1-b) keeps no zero, so the point is outside the upper bound of
    sigma(phi) although the Clark sweep finds an atom there."""
    return [abs(b_value(num, den, z) - 1) <= 1e-9 for z in points]


def b_value(num, den, z) -> complex:
    den = den if den is not None else [1]
    return complex(_polyval(_mp(num), z) / _polyval(_mp(den), z))


def jc_mass(num, den, zeta) -> float:
    """1/|b'(zeta)|, the Julia-Caratheodory angular derivative value and
    the Clark atom mass at a point where |b(zeta)| = 1."""
    p, q = _mp(num), _mp(den if den is not None else [1])
    dp = [j * c for j, c in enumerate(p)][1:] or [mpmath.mpc(0)]
    dq = [j * c for j, c in enumerate(q)][1:] or [mpmath.mpc(0)]
    z = mpmath.mpc(zeta)
    qz = _polyval(q, z)
    deriv = (_polyval(dp, z) * qz - _polyval(p, z) * _polyval(dq, z)) / qz ** 2
    return float(1 / abs(deriv))


def a0_sq(num, den, n: int = 1 << 14) -> float:
    """|a(0)|^2 = exp(mean log(1 - |b|^2)) for the outer mate a.

    Midpoint nodes avoid the circle zeros of the fixed spaces (roots of
    unity); the 1/n error of their log singularities is removed by one
    Richardson step.  Smooth parts converge spectrally.
    """
    def mean_log(m):
        t = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
        pv = np.polyval(np.asarray(num)[::-1], t)
        qv = np.polyval(np.asarray(den)[::-1], t) if den is not None else 1.0
        return float(np.mean(np.log(1 - np.abs(pv / qv) ** 2)))
    return math.exp(2 * mean_log(2 * n) - mean_log(n))


def norm1_sq(num, den) -> float:
    """||1||_b^2 = 1 + |b(0)|^2 / |a(0)|^2."""
    return 1 + abs(b_value(num, den, 0)) ** 2 / a0_sq(num, den)


def candidate_ref(num, den, f, defects) -> dict:
    """Reference verdict for polynomial f and lower bound for d_N^2.

    f is cyclic iff it is outer and nonzero at every defect point.  Any
    zero w of f in the disk gives d_N^2 >= (1-|w|^2)/(1-|b(w)|^2), the
    distance from 1 to the functions vanishing at w; a zero at a defect
    point zeta gives d_N^2 >= 1/|b'(zeta)| the same way.
    """
    roots = poly_roots(f)
    outer = all(abs(r) >= 1 - _OUTSIDE for r in roots)
    lower = 0.0
    for r in roots:
        if abs(r) < 1 - _OUTSIDE:
            lower = max(lower, (1 - abs(r) ** 2) /
                        (1 - abs(b_value(num, den, r)) ** 2))
    vanishing = [z for z in defects if abs(complex(_polyval(_mp(f), z))) <= 1e-9]
    for z in vanishing:
        lower = max(lower, jc_mass(num, den, z))
    return {"verdict": "cyclic" if outer and not vanishing else "not_cyclic",
            "lower": lower}


def space_ref(space) -> dict:
    num = complexes(space["num"])
    den = None if space["den"] is None else complexes(space["den"])
    pts = defect_points(num, den)
    return {"defects": [angle(z) for z in pts],
            "masses": [jc_mass(num, den, z) for z in pts],
            "base_atoms": base_atoms(num, den, pts),
            "norm1_sq": norm1_sq(num, den), "_num": num, "_den": den,
            "_points": pts}


# ---------------------------------------------------------------------------
# exact norms (sympy)

def _sym(text):
    import sympy
    if text == "sqrt3/2":
        return sympy.sqrt(3) / 2
    return sympy.Rational(text)


def exact_mate(p_text, a_text, f):
    """Mate coefficients of f by an exact triangular Toeplitz solve.

    P_+(conj(b) f + conj(a) f1) = 0 for polynomial b = p and a: the rows
    m = 0..deg f form an upper triangular Toeplitz system in f1.
    """
    import sympy
    p = [_sym(t) for t in p_text]
    a = [_sym(t) for t in a_text]
    fs = [sympy.Rational(re) + sympy.I * sympy.Rational(im) for re, im in f]
    n = len(fs)
    U = sympy.zeros(n, n)
    rhs = sympy.zeros(n, 1)
    for m in range(n):
        for j, aj in enumerate(a):
            if m + j < n:
                U[m, m + j] = sympy.conjugate(aj)
        rhs[m] = -sum(sympy.conjugate(pj) * fs[m + j]
                      for j, pj in enumerate(p) if m + j < n)
    return fs, list(U.upper_triangular_solve(rhs))


def _to_pair(expr):
    import sympy
    re, im = sympy.expand(expr).as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError(f"inner product {expr} is not Gaussian rational")
    return [str(Fraction(int(re.p), int(re.q))),
            str(Fraction(int(im.p), int(im.q)))]


def exact_inner(p_text, a_text, f, g) -> list:
    """<f, g>_b = <f, g>_2 + <f1, g1>_2 as [re, im] fraction strings."""
    import sympy
    fs, f1 = exact_mate(p_text, a_text, f)
    gs, g1 = exact_mate(p_text, a_text, g)
    total = sum(x * sympy.conjugate(y) for x, y in zip(fs, gs))
    total += sum(x * sympy.conjugate(y) for x, y in zip(f1, g1))
    return _to_pair(total)


def closed_form_inner(space_name, f, g):
    """Closed forms: <f, g> on z/2 is f0 conj(g0) + 4/3 sum_k f_k conj(g_k);
    on (1+z)/2 the monomials satisfy ||z^k||^2 = 4k + 2."""
    fs, gs = fraction_pairs(f), fraction_pairs(g)
    if space_name == "z/2":
        re = im = Fraction(0)
        for k, ((fr, fi), (gr, gi)) in enumerate(zip(fs, gs)):
            w = Fraction(1) if k == 0 else Fraction(4, 3)
            re += w * (fr * gr + fi * gi)
            im += w * (fi * gr - fr * gi)
        return [str(re), str(im)]
    if space_name == "(1+z)/2" and f == g:
        nz = [k for k, c in enumerate(fs) if c != (0, 0)]
        if len(nz) == 1 and fs[nz[0]] == (1, 0):
            return [str(4 * nz[0] + 2), "0"]
    return None


def element_pair_ref(space, op) -> dict:
    """Exact ||f1||^2, ||f2||^2 and <f1, f2>; closed forms where they
    exist, the sympy solve elsewhere."""
    p, a = space["num_exact"], space["a_exact"]
    out = {}
    for key, f, g in (("n1", op["f1"], op["f1"]), ("n2", op["f2"], op["f2"]),
                      ("ip", op["f1"], op["f2"])):
        val = closed_form_inner(space["name"], f, g)
        out[key] = val if val is not None else exact_inner(p, a, f, g)
    return out


def exact_norm1_sq(space) -> str:
    """||1||^2 = 1 + |b(0)|^2/|a(0)|^2 in exact arithmetic."""
    b0 = _sym(space["num_exact"][0])
    a0 = _sym(space["a_exact"][0])
    val = 1 + b0 ** 2 / a0 ** 2
    return str(Fraction(int(val.p), int(val.q)))


def exact_mate_is_pythagorean(space) -> bool:
    """|a|^2 + |b|^2 - 1 vanishes identically on the circle (sympy)."""
    import sympy
    z = sympy.symbols("z")
    p = sum(_sym(t) * z ** k for k, t in enumerate(space["num_exact"]))
    a = sum(_sym(t) * z ** k for k, t in enumerate(space["a_exact"]))
    # the coefficients are real, so conj(g) = g(1/z) on the circle
    resid = p * p.subs(z, 1 / z) + a * a.subs(z, 1 / z) - 1
    return sympy.simplify(sympy.expand(resid)) == 0


# ---------------------------------------------------------------------------
# command-line references

def alpha_points(num, den, alpha) -> list:
    """Circle solutions of b = alpha: circle roots of p - alpha q."""
    den = den if den is not None else [1]
    n = max(len(num), len(den))
    diff = [complex(num[j] if j < len(num) else 0) -
            alpha * complex(den[j] if j < len(den) else 0) for j in range(n)]
    pts = [r / abs(r) for r in poly_roots(diff)
           if abs(abs(r) - 1) <= _ON_CIRCLE]
    return sorted(pts, key=angle)


def dirichlet_ref(f) -> dict:
    """D(mu) with mu = delta_1: D = ||(f - f(1))/(z - 1)||^2 and
    ||f||^2 = ||f||_2^2 + D, in exact integers; verdict by the support
    rule (outer and f(1) != 0)."""
    f = [Fraction(c) for c in f]
    shifted = list(f)
    shifted[0] -= sum(f)
    quot, acc = [], Fraction(0)
    for c in reversed(shifted[1:]):
        acc = c + acc
        quot.append(acc)
    integral = sum(c * c for c in quot)
    roots = poly_roots([complex(c) for c in f])
    outer = all(abs(r) >= 1 - _OUTSIDE for r in roots)
    return {"integral": str(integral),
            "norm_sq": str(integral + sum(c * c for c in f)),
            "verdict": "cyclic" if outer and sum(f) != 0 else "not_cyclic"}


def cli_ref(op) -> dict:
    """The reference values one command's output is checked against."""
    name, ref = op["cls"], dict(op["ref"])
    b = ref.get("b")
    if name in ("validate", "sigma", "sigma_defect"):
        pts = defect_points(b, None)
        ref["defects"] = [angle(z) for z in pts]
        ref["masses"] = [jc_mass(b, None, z) for z in pts]
        ref["base_atoms"] = base_atoms(b, None, pts)
    elif name in ("decay", "classify", "certify_A", "certify_B", "certify_C",
                  "theta"):
        cand = candidate_ref(b, None, ref["f"], defect_points(b, None))
        ref.update(cand)
        if name == "decay":
            ref["norm1_sq"] = norm1_sq(b, None)
    elif name == "clark":
        pts = alpha_points(b, None, ref["alpha"])
        ref["defects"] = [angle(z) for z in pts]
        ref["masses"] = [jc_mass(b, None, z) for z in pts]
    elif name == "dirichlet":
        ref.update(dirichlet_ref(ref["f"]))
    return ref
