"""Closed-form model spaces used as independent ground truth.

Two families with exactly known cyclicity behavior: Dirichlet spaces of
finitely supported boundary measures (norm computed from difference
quotients, no spectral factorization involved) and the half-shifted
inner-function spaces b = (1+theta)/2 whose singular support is the
level set theta = 1.  Both supply oracles that the classifier and the
Clark machinery must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import config, cyclicity, factor, hb, poly
from .boundary import UnitCircleFunction
from .errors import DomainError
from .hb import HbSpace, kernel_element, element_from_rational


# ---------------------------------------------------------------------------
# Dirichlet spaces of finitely supported measures

@dataclass(frozen=True)
class DirichletSpec:
    """Finitely many boundary atoms (location, positive weight)."""

    atoms: tuple

    def __init__(self, atoms):
        pairs = []
        for zeta, w in atoms:
            zeta = complex(zeta)
            if not abs(abs(zeta) - 1) <= 1e-9:     # NaN fails too
                raise DomainError("Dirichlet atoms must lie on the circle")
            if not 0 < w < float("inf"):
                raise ValueError("weights must be positive and finite")
            pairs.append((zeta / abs(zeta), float(w)))
        for i, (z1, _w) in enumerate(pairs):
            for z2, _w2 in pairs[i + 1:]:
                if abs(z1 - z2) <= 1e-12:
                    raise ValueError("atom locations must be distinct")
        object.__setattr__(self, "atoms", tuple(pairs))


def dirichlet_integral(spec: DirichletSpec, f) -> float:
    """Sum over atoms of w * ||(f - f(zeta))/(z - zeta)||_2^2, exactly.

    The difference quotient of a polynomial is a polynomial, the quotient
    of f by z - zeta; its coefficient l^2 norm is the local Dirichlet
    integral at the atom.
    """
    f = poly.trim(np.asarray(f, dtype=complex))
    total = 0.0
    for zeta, w in spec.atoms:
        total += w * poly.l2sq(poly.synthetic_div(f, zeta)[0])
    return float(total)


def dirichlet_norm(spec: DirichletSpec, f) -> float:
    """Squared norm: generalized Dirichlet integral plus the H^2 norm."""
    f = poly.trim(np.asarray(f, dtype=complex))
    return dirichlet_integral(spec, f) + poly.l2sq(f)


def dirichlet_norm_exact(spec: DirichletSpec, f) -> Optional[Fraction]:
    """Exact rational norm, or None unless f, every atom and every weight
    pass hb.rationalize's error bound and every rationalized atom lies
    exactly on the circle (re^2 + im^2 = d^2).

    Each local integral is one Horner pass on Gaussian integers: for
    f = F/d of degree n and zeta = Z/e, the quotient of f by z - zeta
    has the coefficient Q_k/(d e^(n-1-k)) at z^k, with Q_(n-1) = F_n and
    Q_(k-1) = F_k e^(n-k) + Z Q_k.
    """
    try:
        (fr, fi, d), error, bound = hb.rationalize(f)
    except (ValueError, TypeError):
        return None
    if not error <= bound:
        return None
    n = len(fr) - 1
    total = Fraction(sum(a * a + b * b for a, b in zip(fr, fi)), d * d)
    for zeta, w in spec.atoms:
        ((zr,), (zi,), e), zeta_error, zeta_bound = hb.rationalize([zeta])
        ((wn,), _zero, wd), w_error, w_bound = hb.rationalize([w])
        if not (zeta_error <= zeta_bound and w_error <= w_bound and
                zr * zr + zi * zi == e * e):
            return None
        pw = [e ** j for j in range(2 * n + 1)]
        qr, qi, local = fr[n], fi[n], 0         # Q_(n-1)
        for k in range(n - 1, -1, -1):          # |Q_k|^2 e^(2k+2), Q_(k-1)
            local += (qr * qr + qi * qi) * pw[2 * k + 2]
            qr, qi = (fr[k] * pw[n - k] + zr * qr - zi * qi,
                      fi[k] * pw[n - k] + zr * qi + zi * qr)
        total += Fraction(wn * local, wd * d * d * pw[2 * n])
    return total


def dirichlet_cyclic(spec: DirichletSpec, f) -> cyclicity.CyclicityReport:
    """Cyclic in D(mu) iff outer and nonvanishing on the support of mu."""
    return cyclicity.outer_nonvanishing_rule(
        f, [(z, config.circle_angle(z)) for z, _w in spec.atoms],
        "dirichlet_support_rule",
        "cyclic iff outer and nonvanishing at every atom of the measure")


# ---------------------------------------------------------------------------
# b = (1 + theta)/2 for finite Blaschke theta

@dataclass
class ThetaModel:
    """The space of b = (1+theta)/2 with its singular boundary measure.

    The measure sits at the unimodular solutions of theta = 1, with the
    masses 1/|theta'(zeta)| of the Clark measure of theta at 1 (for a
    Blaschke product 1/sum (1-|z_k|^2)/|zeta-z_k|^2); the model subspace
    has dimension equal to the degree of theta.
    """

    theta: UnitCircleFunction
    b: UnitCircleFunction
    a: UnitCircleFunction
    atoms: list
    herglotz_mass: float
    model_dimension: int


def theta_model(theta) -> ThetaModel:
    """Build the half-shifted model for a nonconstant finite Blaschke theta.

    theta = tn/td is inner when |tn|^2 = |td|^2 on the circle, checked on
    Laurent coefficients to 1e-10 of ||td||^2.  At a root zeta of tn - td
    on the circle, |theta'(zeta)| = |(tn - td)'(zeta)|/|td(zeta)|
    (clark._atom_mass), and the masses must sum to (1+theta(0))/(1-theta(0)).
    """
    from . import clark     # the Dirichlet oracles load no Clark code
    if not isinstance(theta, UnitCircleFunction):
        theta = UnitCircleFunction.blaschke(list(theta))
    tn, td = theta.as_num_den()
    deg = max(poly.degree(tn), poly.degree(td))
    if deg < 1:
        raise ValueError("theta must be nonconstant")
    if float(np.sum(np.abs(factor.mate_weight(tn, td)))) > \
            1e-10 * poly.l2sq(td):
        raise ValueError("theta must be inner (unimodular boundary values)")
    # over 2 td as theta keeps it; no pole of theta is a root of td +- tn
    if theta.den_degree >= 1:
        poles = [(1 / np.conj(z), 1) for z in theta.zeros if z] \
            if theta.kind == "blaschke" else poly.roots_with_multiplicity(td)
        b = UnitCircleFunction.rational(poly.padd(td, tn), 2.0 * td,
                                       den_roots=poles)
        a = UnitCircleFunction.rational(poly.psub(td, tn), 2.0 * td,
                                       den_roots=poles)
    else:
        b = UnitCircleFunction.polynomial(poly.padd(td, tn) / (2.0 * td[0]))
        a = UnitCircleFunction.polynomial(poly.psub(td, tn) / (2.0 * td[0]))

    atoms = []
    level = poly.psub(tn, td)
    for r, _m in poly.roots_with_multiplicity(level):
        if abs(abs(r) - 1) > 1e-6:
            raise ArithmeticError(
                f"level-set root {r:.6g} strayed from the circle")
        zeta = r / abs(r)
        atoms.append((zeta, clark._atom_mass(td, poly.derivative(level),
                                             zeta)[0]))
    t0 = complex(theta(0.0))
    hmass = float(np.real((1 + t0) / (1 - t0)))
    total = sum(m for _z, m in atoms)
    if abs(total - hmass) > 1e-6 * max(1.0, abs(hmass)):
        raise ArithmeticError(
            f"masses sum to {total:.9g}, transform value {hmass:.9g}")
    return ThetaModel(theta=theta, b=b, a=a, atoms=atoms,
                      herglotz_mass=hmass, model_dimension=deg)


def theta_cyclic(model: ThetaModel, f) -> cyclicity.CyclicityReport:
    """Cyclic iff outer and nonvanishing at every atom of the level measure."""
    return cyclicity.outer_nonvanishing_rule(
        f, [(z, config.circle_angle(z)) for z, _m in model.atoms],
        "inner_level_set_rule",
        "cyclic iff outer and nonzero at every solution of theta = 1")


# ---------------------------------------------------------------------------
# universal facts

def universal_cyclicity(space: HbSpace, n_kernels: int = 5,
                        seed: int = 20240801, decay_n: int = 48,
                        radius: float = 0.6) -> cyclicity.CyclicityReport:
    """Check the universal facts on a space: b itself and the kernels.

    b is cyclic exactly when it is outer (its mate prevents common circle
    zeros), and every reproducing kernel is cyclic; kernels are tested
    through decay tables of Taylor truncations and are expected to come
    back likely_cyclic.
    """
    if space.b.is_polynomial():
        b_poly = space.b.to_polynomial()
    else:
        b_poly = element_from_rational(space, space.b).f
    rep = cyclicity.classify_finite_defect(space, b_poly)
    b_outer = factor.is_outer(space.b)
    agree = (rep.verdict == cyclicity.CYCLIC) == b_outer
    evidence = list(rep.evidence)
    evidence.append(cyclicity.Evidence(
        "b_outer_equivalence",
        "b is cyclic exactly when it is outer",
        numbers={"is_outer": b_outer, "classifier_verdict": rep.verdict,
                 "agree": bool(agree)}))
    if not agree:
        raise ArithmeticError("classifier contradicts the outer test on b")
    rng = np.random.default_rng(seed)
    kernel_verdicts = []
    for _ in range(n_kernels):
        lam = radius * np.sqrt(rng.uniform()) * \
            np.exp(2j * np.pi * rng.uniform())
        el = kernel_element(space, lam)
        table = cyclicity.decay_table(space, el.f, decay_n)
        est = cyclicity.estimate_from_decay(table)
        kernel_verdicts.append((complex(lam), est.verdict))
    evidence.append(cyclicity.Evidence(
        "kernel_cyclicity",
        "reproducing kernels are cyclic; truncated kernels should decay",
        numbers={"verdicts": [(f"{lam:.6g}", v)
                              for lam, v in kernel_verdicts]}))
    return cyclicity.CyclicityReport(rep.verdict, evidence)
