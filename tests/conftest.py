import numpy as np
import pytest

from hblab import hb, poly
from hblab.boundary import UnitCircleFunction as UCF


@pytest.fixture(scope="session")
def space_half_shift():
    """H(b) for b = (1+z)/2."""
    return hb.make_space(UCF.polynomial([0.5, 0.5]))


@pytest.fixture(scope="session")
def space_small_shift():
    """H(b) for b = z/2."""
    return hb.make_space(UCF.polynomial([0.0, 0.5]))


@pytest.fixture(scope="session")
def space_shifted_half():
    """H(b) for b = z(1+z)/2."""
    return hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))


@pytest.fixture(scope="session")
def space_from_one_minus_z():
    """The normalized space generated by phi = (1-z)/sqrt(2)."""
    phi = UCF.polynomial([1 / np.sqrt(2), -1 / np.sqrt(2)])
    return hb.make_space_from_phi(phi)


@pytest.fixture(scope="session")
def all_test_spaces(space_half_shift, space_small_shift, space_shifted_half):
    extra = hb.make_space(UCF.polynomial([0.0, 0.75, 0.25]))
    return {
        "(1+z)/2": space_half_shift,
        "z/2": space_small_shift,
        "z(1+z)/2": space_shifted_half,
        "(3z+z^2)/4": extra,
    }


@pytest.fixture
def root_solves(monkeypatch):
    """The polynomials poly.roots_with_multiplicity is asked to solve,
    trimmed, in call order."""
    solved = []
    solve = poly.roots_with_multiplicity

    def counted(c, *args, **kwargs):
        solved.append(poly.trim(c))
        return solve(c, *args, **kwargs)

    monkeypatch.setattr(poly, "roots_with_multiplicity", counted)
    return solved
