"""Root order, degree-1 roots and circle angles against the numpy forms
they are computed without: np.roots at every degree and np.angle sort
keys, kept here as the reference.  Equality is of repr, so a signed zero
or a last bit counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hblab import config, poly

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def reference_roots(c, cluster_rtol=None):
    """poly.roots_with_multiplicity through np.roots and np.angle keys."""
    arr = poly.trim(c)
    if poly.degree(arr) < 1:
        raise ValueError("root finding needs degree >= 1")
    rtol = config.ROOT_CLUSTER_RTOL if cluster_rtol is None else cluster_rtol
    clusters = []
    for r in sorted(np.roots(arr[::-1]).tolist(),
                    key=lambda t: (abs(t), np.angle(t))):
        for cl in clusters:
            center = cl[0] / cl[1]
            if abs(r - center) <= rtol * max(1.0, abs(center)):
                cl[0] += r
                cl[1] += 1
                break
        else:
            clusters.append([r, 1])
    dp = poly.derivative(arr)
    out = [(poly._polish(arr, dp, complex(total / count), count), count)
           for total, count in clusters]
    out.sort(key=lambda t: (abs(t[0]), np.angle(t[0])))
    return out


def reference_circle_angle(z) -> float:
    a = float(np.angle(z)) % (2 * np.pi)
    return 0.0 if min(a, 2 * np.pi - a) <= config.ANGLE_WRAP_TOL else a


def _outcome(solve, c):
    try:
        return repr(solve(c))
    except ValueError as exc:           # degree < 1 after trimming
        return f"ValueError: {exc}"


def same_roots(c):
    assert _outcome(poly.roots_with_multiplicity, c) == \
        _outcome(reference_roots, c), c


# any finite double, over the whole exponent range
_doubles = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(-1, 1, allow_nan=False)


@st.composite
def _scaled(draw, lo=-1074, hi=1023):
    """A float of any sign and binary exponent in [lo, hi], or a zero."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    return math.ldexp(draw(_unit), draw(st.integers(lo, hi)))


_complex = st.builds(complex, _scaled(), _scaled())
_moderate = st.builds(complex, _scaled(-40, 40), _scaled(-40, 40))


class TestRootOrder:
    @_PROPERTY
    @given(c0=_complex, c1=_complex)
    def test_linear_any_magnitude(self, c0, c1):
        with np.errstate(all="ignore"):     # 1/huge underflows in np.roots
            same_roots([c0, c1])

    @_PROPERTY
    @given(c=st.lists(_moderate, min_size=2, max_size=7))
    def test_random_polynomials(self, c):
        same_roots(c)

    @_PROPERTY
    @given(roots=st.lists(st.sampled_from(
        [1, -1, 1j, -1j, 0.5, -0.5, 2, 0.5 + 0.5j, 0.5 - 0.5j, 0]),
        min_size=1, max_size=6), lead=_moderate)
    def test_repeated_and_equal_modulus_roots(self, roots, lead):
        """Clusters and ties in modulus, where the angle orders."""
        if abs(lead) > 1e-6:
            same_roots(poly.from_roots([(r, 1) for r in roots], lead))

    def test_minus_one(self):
        for re in (1.0, -1.0):
            for im in (0.0, -0.0):
                for lead in (complex(1, 0.0), complex(1, -0.0),
                             complex(-1, 0.0), complex(-1, -0.0)):
                    same_roots([complex(re, im), lead])
        for c in ([1, 2, 1], [1, 0, -1], [1, 0, 0, 0, -1], [-1, 0, 1],
                  [1, 3, 3, 1], [1, 0, 1]):
            same_roots(c)
        assert poly.roots_with_multiplicity([1, 1]) == [(-1 + 0j, 1)]

    def test_zero_root(self):
        for c0 in (0, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
            for c1 in (1, -1, complex(-0.0, 1), complex(2, -3), -1e-300,
                       1e300):
                same_roots([c0, c1])
                same_roots([c0, 0, c1])
                same_roots([c0, c1, 1])

    def test_huge_and_tiny_linear(self):
        for e0 in (-1074, -1000, -500, -460, -450, -300, -140, -1, 0, 300,
                   460, 1000, 1023):
            for e1 in (-1022, -500, -460, -300, 0, 300, 460, 1000, 1023):
                for c0 in (math.ldexp(1, e0), -math.ldexp(3, e0 - 2),
                           complex(0, math.ldexp(1, e0))):
                    with np.errstate(all="ignore"):
                        same_roots([c0, math.ldexp(1.5, e1)])

    def test_degree_one_root_is_the_companion_entry(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            c = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 9, 4)
            c0, c1 = complex(c[0], c[1]), complex(c[2], c[3])
            assert repr(complex(-np.complex128(c0) / c1)) == \
                repr(complex(np.roots([c1, c0])[0]))
            same_roots([c0, c1])

    def test_non_finite_refused(self):
        for c in ([1, np.nan], [np.inf, 1], [1, 2, np.nan]):
            with pytest.raises(ValueError, match="must be finite"):
                poly.roots_with_multiplicity(c)


class TestCircleAngle:
    @_PROPERTY
    @given(z=st.builds(complex, _doubles, _doubles))
    def test_any_point(self, z):
        assert repr(config.circle_angle(z)) == \
            repr(reference_circle_angle(z))

    def test_near_wrap(self):
        tol = config.ANGLE_WRAP_TOL
        for t in (0.0, 1e-12, 0.5 * tol, tol, tol * (1 + 1e-9), 2 * tol,
                  1e-6):
            for theta in (t, -t, 2 * np.pi - t, 2 * np.pi + t):
                for z in (np.exp(1j * theta), complex(np.exp(1j * theta)),
                          2.5 * np.exp(1j * theta)):
                    assert repr(config.circle_angle(z)) == \
                        repr(reference_circle_angle(z)), (t, theta)

    def test_minus_one(self):
        for z in (complex(-1, 0.0), complex(-1, -0.0), -1, -1.0,
                  np.complex128(complex(-1, -0.0))):
            assert repr(config.circle_angle(z)) == \
                repr(reference_circle_angle(z))
            assert config.circle_angle(z) == np.pi
