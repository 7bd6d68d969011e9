"""hblab: computational de Branges-Rovnyak spaces for rational data.

Construct H(b) spaces with exact Pythagorean mates, compute norms and
reproducing kernels through the Toeplitz embedding, build Clark measures
and normalized Cauchy transforms, bracket the non-exposure set, and
decide or certify cyclicity by several mutually cross-checking routes.
"""

from .boundary import (Arc, CircleMeasure, UnitCircleFunction,
                       analytic_projection, cauchy, evaluate, fourier_coeffs,
                       herglotz, roots)
from .clark import (ClarkMeasure, clark_measure, normalized_cauchy,
                    normalized_cauchy_rational, poltoratski_limit)
from .config import DEFAULT_GRID, GridConfig
from .cyclicity import (CyclicityReport, DecayTable, DecayThresholds,
                        assess, classify_finite_defect, decay_table,
                        estimate_from_decay, necessity_check,
                        theorem_a_check, theorem_b_check, theorem_c_check)
from .errors import (DomainError, ExtremeFunctionError, FactorizationError,
                     HBLabError, MembershipError, NormalizationError,
                     PoleError, SpaceMismatchError, UnitBallError)
from .factor import fejer_riesz, inner_outer, is_outer, mate_of_b
from .hb import (HbElement, HbSpace, boundary_kernel, divide_inner,
                 element_from_rational, inner_product, inner_product_exact,
                 kernel, kernel_element, make_element, make_space,
                 make_space_from_phi, mate)
from .models import (DirichletSpec, ThetaModel, dirichlet_cyclic,
                     dirichlet_integral, dirichlet_norm, theta_cyclic,
                     theta_model, universal_cyclicity)
from .parse import parse_function
from .sigma import (SigmaBounds, ToeplitzSectionReport,
                    jphi_membership_residuals, phi_alpha,
                    pseudocontinuation_eval, sigma_bounds, sigma_lower,
                    sigma_upper, toeplitz_kernel_sections)

__version__ = "0.1.0"

__all__ = [
    "Arc", "CircleMeasure", "ClarkMeasure", "CyclicityReport", "DecayTable",
    "DecayThresholds", "DEFAULT_GRID", "DirichletSpec", "DomainError",
    "ExtremeFunctionError", "FactorizationError", "GridConfig", "HBLabError",
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
