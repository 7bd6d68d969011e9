"""hblab: computational de Branges-Rovnyak spaces for rational data.

Construct H(b) spaces with exact Pythagorean mates, compute norms and
reproducing kernels through the Toeplitz embedding, build Clark measures
and normalized Cauchy transforms, bracket the non-exposure set, and
decide or certify cyclicity by several mutually cross-checking routes.

`import hblab` loads the core that builds spaces and reads function
literals.  The analysis modules (clark, sigma, cyclicity, models) load
on first access to one of their names, so a command that never uses
them never compiles them.
"""

import importlib

from .boundary import (Arc, CircleMeasure, UnitCircleFunction,
                       analytic_projection, cauchy, evaluate, fourier_coeffs,
                       herglotz, roots)
from .errors import (DomainError, ExtremeFunctionError, FactorizationError,
                     HBLabError, MembershipError, NormalizationError,
                     PoleError, SpaceMismatchError, UnitBallError)
from .factor import fejer_riesz, inner_outer, is_outer, mate_of_b
from .hb import (HbElement, HbSpace, boundary_kernel, divide_inner,
                 element_from_rational, inner_product, inner_product_exact,
                 kernel, kernel_element, make_element, make_space,
                 make_space_from_phi, mate)
from .parse import parse_function

_ON_FIRST_USE = {
    "clark": ("ClarkMeasure", "clark_measure", "normalized_cauchy",
              "normalized_cauchy_rational", "poltoratski_limit"),
    "cyclicity": ("CyclicityReport", "DecayTable", "assess",
                  "classify_finite_defect", "decay_table",
                  "estimate_from_decay", "necessity_check",
                  "theorem_a_check", "theorem_b_check", "theorem_c_check"),
    "models": ("DirichletSpec", "ThetaModel", "dirichlet_cyclic",
               "dirichlet_integral", "dirichlet_norm", "theta_cyclic",
               "theta_model", "universal_cyclicity"),
    "sigma": ("SigmaBounds", "ToeplitzSectionReport",
              "jphi_membership_residuals", "phi_alpha",
              "pseudocontinuation_eval", "sigma_bounds", "sigma_lower",
              "sigma_upper", "toeplitz_kernel_sections"),
}
_HOME = {name: module for module, names in _ON_FIRST_USE.items()
         for name in names}


def __getattr__(name):
    """Load an analysis module on first access to it or to one of its
    names (PEP 562); the value is then bound here, so later lookups
    never come back."""
    module = _HOME.get(name, name)
    if module not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_ON_FIRST_USE))


__version__ = "0.1.0"

__all__ = [
    "Arc", "CircleMeasure", "ClarkMeasure", "CyclicityReport", "DecayTable",
    "DirichletSpec", "DomainError", "ExtremeFunctionError",
    "FactorizationError", "HBLabError",
    "HbElement", "HbSpace", "MembershipError", "NormalizationError",
    "PoleError", "SigmaBounds", "SpaceMismatchError", "ThetaModel",
    "ToeplitzSectionReport", "UnitBallError", "UnitCircleFunction",
    "analytic_projection",
    "assess", "boundary_kernel", "cauchy", "clark_measure",
    "classify_finite_defect", "decay_table", "dirichlet_cyclic",
    "dirichlet_integral", "dirichlet_norm", "divide_inner",
    "element_from_rational", "estimate_from_decay", "evaluate",
    "fejer_riesz", "fourier_coeffs", "herglotz", "inner_outer",
    "inner_product", "inner_product_exact", "is_outer",
    "jphi_membership_residuals", "kernel", "kernel_element", "make_element",
    "make_space", "make_space_from_phi", "mate", "mate_of_b",
    "necessity_check", "normalized_cauchy", "normalized_cauchy_rational",
    "parse_function", "phi_alpha", "poltoratski_limit",
    "pseudocontinuation_eval", "roots", "sigma_bounds", "sigma_lower",
    "sigma_upper", "theorem_a_check", "theorem_b_check", "theorem_c_check",
    "theta_cyclic", "theta_model", "toeplitz_kernel_sections",
    "universal_cyclicity",
]
