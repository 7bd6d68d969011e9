"""Seeded inputs for the benchmark workloads.

Every function here is pure: the same seed gives the same spaces,
candidates and command lines.  Coefficients are complex numbers listed
lowest degree first, as hblab expects.  The composition of each round
(which operation classes run on which kind of space) is fixed; the seed
only draws coefficients, roots and small integers, so the amount of work
per round hardly depends on the seed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

import refs
from child import complexes

# the four acceptance spaces of the float workloads: name -> (num, den)
FIXED_FLOAT_SPACES = {
    "z/(2+z)": ([0, 1], [2, 1]),
    "(1+z)/(3+z)": ([1, 1], [3, 1]),
    "(1+z^2)/2": ([0.5, 0, 0.5], None),
    "(1+z^4)/2": ([0.5, 0, 0, 0, 0.5], None),
}
RANDOM_DEGREES = (4, 8, 12)
RANDOM_SUP = 0.9

# certified polynomial spaces of the exact workload, with their outer
# mates in closed form (|a|^2 + |b|^2 = 1 on the circle, a(0) > 0)
EXACT_SPACES = {
    "(1+z)/2": (["1/2", "1/2"], ["1/2", "-1/2"]),
    "z/2": (["0", "1/2"], ["sqrt3/2"]),
    "z(1+z)/2": (["0", "1/2", "1/2"], ["1/2", "-1/2"]),
    "(1+z^2)/2": (["1/2", "0", "1/2"], ["1/2", "0", "-1/2"]),
    "(1+z^4)/2": (["1/2", "0", "0", "0", "1/2"],
                  ["1/2", "0", "0", "0", "-1/2"]),
}
EXACT_DECAY_N = 16
FLOAT_DECAY_N = 32


def pack(coeffs) -> list:
    """Complex coefficients as JSON-friendly [re, im] pairs."""
    return [[float(complex(c).real), float(complex(c).imag)] for c in coeffs]


def from_roots(roots, lead=1.0) -> np.ndarray:
    c = np.array([lead], dtype=complex)
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
    return c


def circle_sup(coeffs, n: int = 1 << 14) -> float:
    pts = np.exp(2j * np.pi * np.arange(n) / n)
    return float(np.max(np.abs(np.polyval(np.asarray(coeffs)[::-1], pts))))


def random_b(rng, degree: int) -> np.ndarray:
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return RANDOM_SUP * c / circle_sup(c)


def _root(rng, rmin: float, rmax: float) -> complex:
    return rng.uniform(rmin, rmax) * cmath.exp(2j * math.pi * rng.uniform())


def _far_from(points, z, gap: float) -> bool:
    return all(abs(z - p) > gap for p in points)


def random_f(rng, kind: str, avoid=(), degree=None) -> np.ndarray:
    """A seeded candidate with a prescribed kind.

    outer:    every root outside the closed disk (|r| in [1.2, 3]);
    inner:    one root inside (|r| in [0.2, 0.8]), the rest outside;
    vanish:   z - zeta times an outer factor, zeta drawn from `avoid`.
    Roots keep a distance from the points in `avoid` (the defect points),
    so the reference verdict is never a near tie.
    """
    degree = degree or int(rng.integers(1, 6))
    roots = []
    if kind == "vanish":
        roots.append(complex(avoid[int(rng.integers(len(avoid)))]))
    elif kind == "inner":
        roots.append(_root(rng, 0.2, 0.8))
    while len(roots) < degree:
        r = _root(rng, 1.2, 3.0)
        if _far_from(avoid, r, 0.2):
            roots.append(r)
    lead = cmath.exp(2j * math.pi * rng.uniform()) * rng.uniform(0.5, 2.0)
    return from_roots(roots, lead)


def defects_of(space: dict) -> list:
    """Circle zeros of a (refs.defect_points), used to steer candidate
    generation away from near ties."""
    return refs.defect_points(complexes(space["num"]), None if
                              space["den"] is None else complexes(space["den"]))


# ---------------------------------------------------------------------------
# library workloads

def _space(name, num, den, exact) -> dict:
    return {"name": name, "num": pack(num),
            "den": None if den is None else pack(den), "exact": exact}


def _float_spaces(rng, extra=()) -> list:
    spaces = [_space(n, num, den, False)
              for n, (num, den) in FIXED_FLOAT_SPACES.items()]
    spaces += [_space(n, num, den, False) for n, (num, den) in extra]
    for d in RANDOM_DEGREES:
        spaces.append(_space(f"random_deg{d}", random_b(rng, d), None, False))
    return spaces


def sweep_float(seed: int) -> dict:
    """Clark sweeps: sigma_bounds and assess on float-only spaces."""
    rng = np.random.default_rng([seed, 1])
    spaces = _float_spaces(rng)
    ops = []
    for i, sp in enumerate(spaces):
        ops.append({"cls": "sigma_bounds", "space": i})
        if sp["name"].startswith("random"):
            ops.append({"cls": "assess", "space": i,
                        "f": pack(random_f(rng, "outer"))})
            continue
        defects = defects_of(sp)
        for f in ([1, 1], [1, -1], [0, 1], random_f(rng, "outer", defects)):
            ops.append({"cls": "assess", "space": i, "f": pack(f)})
    return {"spaces": spaces, "ops": ops}


def decay_long(seed: int) -> dict:
    """Long decay tables: N = 128 for a cyclic and a non-cyclic candidate
    on every space, N = 256 for one of them.  Two thirds of the tables
    have N = 128, so the median latency sits inside one class."""
    rng = np.random.default_rng([seed, 2])
    spaces = _float_spaces(rng, extra=[("(1+z)/2", ([0.5, 0.5], None))])
    ops = []
    for i, sp in enumerate(spaces):
        defects = defects_of(sp)
        cyclic = random_f(rng, "outer", defects, degree=int(rng.integers(1, 4)))
        if sp["name"] == "(1+z)/2":
            blocked = np.array([1, -1], dtype=complex)
        elif defects:
            blocked = random_f(rng, "vanish", defects,
                               degree=int(rng.integers(1, 4)))
        else:
            blocked = random_f(rng, "inner", degree=int(rng.integers(1, 4)))
        # which candidate gets the long table alternates by position only
        for n, f in ((128, cyclic), (128, blocked),
                     (256, cyclic if i % 2 == 0 else blocked)):
            ops.append({"cls": f"decay{n}", "space": i, "f": pack(f), "n": n})
    return {"spaces": spaces, "ops": ops}


def small_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-4, 5)), int(rng.choice([1, 2, 3, 4, 6, 8])))


def small_poly(rng, degree: int) -> list:
    """Gaussian-rational coefficients (re, im) with small denominators and
    a nonzero top coefficient."""
    out = [(small_fraction(rng), small_fraction(rng)) for _ in range(degree + 1)]
    if out[-1] == (0, 0):
        out[-1] = (Fraction(1), Fraction(0))
    return out


def frac_pack(coeffs) -> list:
    return [[str(re), str(im)] for re, im in coeffs]


def _outer_small(rng, avoid) -> list:
    """An outer small-denominator candidate c0 + c1 z (|c0| > |c1|) that
    stays away from zero at the defect points."""
    while True:
        c = small_poly(rng, 1)
        c0, c1 = (complex(float(r), float(i)) for r, i in c)
        if abs(c1) > 0 and abs(c0) >= 1.25 * abs(c1) and \
                all(abs(c0 + c1 * z) > 0.2 for z in avoid):
            return c


def exact_auto(seed: int) -> dict:
    """Default-mode calls on certified spaces: float reads (assess, two
    decay tables) and exact reads (an element pair, an exact decay
    table) on every space; the two decay tables keep the median latency
    inside one class."""
    rng = np.random.default_rng([seed, 3])
    spaces, ops = [], []
    for i, (name, (num, a)) in enumerate(EXACT_SPACES.items()):
        num_f = [float(Fraction(c)) for c in num]
        spaces.append({**_space(name, num_f, None, "auto"),
                       "num_exact": num, "a_exact": a})
        defects = defects_of(spaces[-1])
        ops.append({"cls": "assess", "space": i, "read": "float",
                    "f": pack(random_f(rng, "outer", defects, degree=3))})
        blocked = random_f(rng, "vanish", defects, degree=2) if defects \
            else random_f(rng, "inner", degree=2)
        for f in (random_f(rng, "outer", defects, degree=2), blocked):
            ops.append({"cls": "decay32", "space": i, "read": "float",
                        "n": FLOAT_DECAY_N, "f": pack(f)})
        if name == "(1+z)/2":
            k = int(rng.integers(12, 25))
            f1 = [(Fraction(0), Fraction(0))] * k + [(Fraction(1), Fraction(0))]
        else:
            f1 = small_poly(rng, 24)
        f2 = small_poly(rng, 12)
        ops.append({"cls": "element_pair", "space": i, "read": "exact",
                    "f1": frac_pack(f1), "f2": frac_pack(f2)})
        fd = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))] \
            if name == "(1+z)/2" else _outer_small(rng, defects)
        ops.append({"cls": "decay_exact", "space": i, "read": "exact",
                    "n": EXACT_DECAY_N, "f": frac_pack(fd)})
    return {"spaces": spaces, "ops": ops}


# ---------------------------------------------------------------------------
# cold command-line workload

def cli_cold(seed: int) -> dict:
    """One cold process per README command; arguments drawn from the seed.

    `sigma --b "z(1+z)/2"` is kept although it crashes today (a float
    provenance key sorted against a string key), so it counts as failed
    until mended; `known_fault` marks it.
    """
    rng = np.random.default_rng([seed, 4])
    k_mate = int(rng.choice([1, 2, 4]))
    k_valid = int(rng.choice([1, 2, 4]))
    k_norm = int(rng.integers(0, 13))
    c_cls = int(rng.choice([-2, -1, 1, 2, 3]))
    k_theta = int(rng.choice([2, 3, 4]))
    c_theta = int(rng.choice([-1, 2, 3]))
    dir_f = [int(v) for v in rng.integers(-3, 4, size=3)]
    if dir_f[-1] == 0:
        dir_f[-1] = 1
    dir_text = "+".join(f"({c})z^{j}" for j, c in enumerate(dir_f))
    def half(k):        # (1+z^k)/2
        return [0.5] + [0] * (k - 1) + [0.5]
    b1, bz, bzz = half(1), [0, 0.5], [0, 0.5, 0.5]
    cmds = [
        ("mate", ["mate", "--b", f"(1+z^{k_mate})/2"], {"k": k_mate}),
        ("validate", ["validate", "--b", f"(1+z^{k_valid})/2"],
         {"b": half(k_valid)}),
        ("norm", ["norm", "--b", "(1+z)/2", "--f", f"z^{k_norm}"],
         {"k": k_norm}),
        ("decay", ["decay", "--b", "(1+z)/2", "--f", "1-z", "--n", "12"],
         {"b": b1, "f": [1, -1]}),
        ("classify", ["classify", "--b", "(1+z)/2", "--f", f"({c_cls})+z"],
         {"b": b1, "f": [c_cls, 1]}),
        ("clark", ["clark", "--b", "z(1+z)/2", "--alpha", "0"],
         {"b": bzz, "alpha": 1}),
        ("sigma", ["sigma", "--b", "z/2"], {"b": bz}),
        ("sigma_defect", ["sigma", "--b", "z(1+z)/2"], {"b": bzz}),
        ("certify_A", ["certify", "--rule", "A", "--b", "(1+z)/2", "--f",
                       "1+z", "--e-arcs", "0.1:6.183", "--f-arcs=-0.5:0.5"],
         {"b": b1, "f": [1, 1]}),
        ("certify_B", ["certify", "--rule", "B", "--b", "z/2", "--f", "1+z"],
         {"b": bz, "f": [1, 1]}),
        ("certify_C", ["certify", "--rule", "C", "--b", "z/2", "--g", "1"],
         {"b": bz, "f": [1]}),
        ("dirichlet", ["dirichlet", "--atoms", "0:1", "--f", dir_text],
         {"f": dir_f}),
        ("theta", ["theta", "--theta", f"z^{k_theta}", "--f",
                   f"({c_theta})+z"],
         {"k": k_theta, "b": half(k_theta), "f": [c_theta, 1]}),
    ]
    ops = [{"cls": name, "argv": argv, "ref": ref,
            "known_fault": name == "sigma_defect"}
           for name, argv, ref in cmds]
    return {"spaces": [], "ops": ops}


PLANS = {"sweep_float": sweep_float, "decay_long": decay_long,
         "exact_auto": exact_auto, "cli_cold": cli_cold}
