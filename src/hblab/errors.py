"""Exception types shared across the package."""


class HBLabError(Exception):
    """Base class for domain errors raised by this package."""


class DomainError(HBLabError, ValueError):
    """Evaluation point outside the permitted region."""


class PoleError(HBLabError, ValueError):
    """Evaluation at (or expansion through) a pole."""


class ExtremeFunctionError(HBLabError, ValueError):
    """b has unimodular boundary values: log(1-|b|) is not integrable."""


class FactorizationError(HBLabError, ValueError):
    """Spectral factorization failed (negative weight, unpaired roots)."""


class UnitBallError(FactorizationError):
    """sup |b| > 1: the weight |q|^2 - |p|^2 is negative on some arc,
    beyond the rounding of its coefficients."""


class NormalizationError(HBLabError, ValueError):
    """Space does not satisfy the normalization a caller required."""


class MembershipError(HBLabError, ValueError):
    """Function failed a membership residual test."""


class SpaceMismatchError(HBLabError, ValueError):
    """Elements of different spaces combined in one inner product."""
