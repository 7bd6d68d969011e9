import numpy as np
import pytest
from hypothesis import given, settings
from test_clark import RANDOM_B, _random_b

from hblab import boundary, config, cyclicity, factor, hb, models, poly
from hblab.boundary import Arc, UnitCircleFunction as UCF
from hblab.errors import (ExtremeFunctionError, FactorizationError,
                          UnitBallError)
from hblab.factor import fejer_riesz, inner_outer, is_outer, mate_of_b


class TestFejerRiesz:
    def test_half_shift_weight(self):
        a, roots = fejer_riesz([-0.25, 0.5, -0.25])
        assert np.allclose(a, [0.5, -0.5], atol=1e-12)
        (r, m), = roots
        assert abs(r - 1) < 1e-15 and m == 1

    def test_constant(self):
        a, roots = fejer_riesz([0.75])
        assert np.allclose(a, [np.sqrt(3) / 2]) and roots == []
        assert np.allclose(fejer_riesz([1.0])[0], [1.0])

    def test_no_interior_roots_and_positive_at_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = rng.normal(size=4) + 1j * rng.normal(size=4)
            p = 0.3 * p / np.max(np.abs(p))
            w = -np.convolve(p, np.conj(p)[::-1])
            w[len(p) - 1] += 1.0  # 1 - |p|^2 >= 0
            a, roots = fejer_riesz(w)
            assert a[0].real > 0 and abs(a[0].imag) < 1e-12
            # the carried roots are a's, as its own solve finds them
            assert sum(m for _r, m in roots) == poly.degree(a)
            if poly.degree(a) >= 1:
                solved = poly.roots_with_multiplicity(a)
                assert [m for _r, m in roots] == [m for _r, m in solved]
                for (r, _m), (s, _n) in zip(roots, solved):
                    assert abs(r) >= 1 - 1e-10 and abs(r - s) < 1e-12 * abs(s)
            pts = config.unit_circle_points(512)
            wv = sum(w[k + len(p) - 1] * pts ** k
                     for k in range(-(len(p) - 1), len(p)))
            assert np.max(np.abs(np.abs(poly.horner(a, pts)) ** 2 -
                                 wv.real)) < 1e-10

    def test_negative_weight_rejected(self):
        with pytest.raises(FactorizationError):
            fejer_riesz([0.0, -1.0, 0.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(FactorizationError):
            fejer_riesz([0.5, 1.0, 0.2])


class TestMate:
    def test_half_shift(self):
        a = mate_of_b(UCF.polynomial([0.5, 0.5]))
        assert np.allclose(a.to_polynomial(), [0.5, -0.5], atol=1e-12)

    def test_shifted_half(self):
        a = mate_of_b(UCF.polynomial([0.0, 0.5, 0.5]))
        assert np.allclose(a.to_polynomial(), [0.5, -0.5], atol=1e-12)

    def test_small_shift(self):
        a = mate_of_b(UCF.polynomial([0.0, 0.5]))
        assert np.allclose(a.to_polynomial(), [np.sqrt(3) / 2])

    def test_rational_b(self):
        b = UCF.rational([0.0, -1.0], [2.0, -1.0])  # -z/(2-z)
        a = mate_of_b(b)
        n = 4096
        resid = np.abs(a.boundary_values(n)) ** 2 + \
            np.abs(b.boundary_values(n)) ** 2 - 1
        assert np.max(np.abs(resid)) < 1e-10
        assert complex(a(0)).real > 0

    def test_pythagorean_for_all(self, all_test_spaces):
        for name, sp in all_test_spaces.items():
            assert sp.pythagorean_residual() < 1e-10, name

    def test_extreme_rejected(self):
        with pytest.raises(ExtremeFunctionError):
            mate_of_b(UCF.polynomial([0.0, 1.0]))  # b = z, inner

    def test_sup_bound_enforced(self):
        with pytest.raises(ValueError):
            mate_of_b(UCF.polynomial([0.0, 1.1]))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            mate_of_b(UCF.polynomial([0.5]))


def _near_pole(k):
    """k*1e-4/(1 - 0.9999 e^{-i pi/4096} z): sup |b| = k, attained between
    the points of the 4096-point grid, where |q|^2 falls to 1e-8."""
    theta = np.pi / 4096
    return UCF.rational([k * 1e-4], [1.0, -0.9999 * np.exp(-1j * theta)])


def _scaled_degree_12(sup):
    """A degree-12 polynomial scaled to sup |b| = sup on 2^16 points."""
    rng = np.random.default_rng(12)
    c = rng.normal(size=13) + 1j * rng.normal(size=13)
    pts = config.unit_circle_points(1 << 16)
    return UCF.polynomial(c * sup / np.max(np.abs(poly.horner(c, pts))))


def _near_extreme_rational():
    """b = p/q, q = 1 - 0.99z, with |q|^2 - |p|^2 = 3e-10: ||w||_1 is below
    PYTHAGOREAN_TOL times ||q||_2^2, but 1 - |b|^2 = 3e-10/|q|^2 reaches
    3e-6 at z = 1."""
    q = np.array([1.0, -0.99])
    w = factor.mate_weight([0.0], q)
    w[1] -= 3e-10
    return UCF.rational(fejer_riesz(w)[0], q)


def _blaschke_12(c, seed):
    """c times a degree-12 Blaschke product with zeros in |z| < 0.95, in
    p/q form.  For seed 4 the rounding of the weight's coefficients is 40
    times PYTHAGOREAN_TOL min |q|^2, for seed 1 seven times."""
    rng = np.random.default_rng(seed)
    zs = 0.95 * np.sqrt(rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
    B = UCF.blaschke(list(zs))
    return UCF.rational(c * B.num, B.den)


class TestUnitBall:
    """Refusals decided from the weight |q|^2 - |p|^2, with no grid."""

    @pytest.mark.parametrize("k", [0.5, 0.9])
    def test_near_pole_spaces_build(self, k):
        sp = hb.make_space(_near_pole(k))
        assert sp.pythagorean_residual() < config.PYTHAGOREAN_TOL

    @pytest.mark.parametrize("b", [
        _near_extreme_rational(), UCF.polynomial([0, np.sqrt(1 - 1.01e-10)])],
        ids=["q=1-0.99z", "1-|b|^2=1.01e-10"])
    def test_near_extreme_spaces_build(self, b):
        sp = hb.make_space(b, use_exact=False)
        assert sp.pythagorean_residual() < config.PYTHAGOREAN_TOL

    @pytest.mark.parametrize("b", [_near_pole(1.5), UCF.polynomial([0, 1.1]),
                                   _scaled_degree_12(1.001),
                                   _blaschke_12(1 + 1e-9, seed=4)],
                             ids=["near pole k=1.5", "1.1z", "degree 12",
                                  "(1+1e-9)B"])
    def test_leaving_the_ball_is_named(self, b):
        with pytest.raises(UnitBallError, match="leaves the unit ball"):
            hb.make_space(b)

    @pytest.mark.parametrize("b", [
        UCF.polynomial([0, 1]), UCF.rational([-0.5, 1], [1, -0.5]),
        UCF.polynomial([0, np.sqrt(1 - 0.99e-10)]), _blaschke_12(1, seed=4),
        _blaschke_12(1 - 1e-11, seed=4)],
        ids=["z", "(z-0.5)/(1-0.5z)", "1-|b|^2=0.99e-10", "B",
             "(1-1e-11)B"])
    def test_extreme_b_refused(self, b):
        with pytest.raises(ExtremeFunctionError):
            hb.make_space(b)

    def test_sign_change_within_rounding_is_not_named(self):
        """(1 - 1e-10)B lies inside the ball, but the weight's rounding
        hides where: its computed sign change is no UnitBallError."""
        with pytest.raises(FactorizationError, match="only within") as info:
            hb.make_space(_blaschke_12(1 - 1e-10, seed=1))
        assert not isinstance(info.value, UnitBallError)

    def test_near_circle_pair_is_no_sign_change(self):
        """c(1+z)/2, c = 1 - 1e-14: w > 0 on the circle, but its roots
        1 +- 2.8e-7 lie within PAIRING_RTOL of it and do not cluster."""
        c = 1 - 1e-14
        with pytest.raises(FactorizationError, match="too near") as info:
            hb.make_space(UCF.polynomial([c / 2, c / 2]))
        assert not isinstance(info.value, UnitBallError)

    def test_degree_12_inside_builds(self):
        sp = hb.make_space(_scaled_degree_12(0.999), use_exact=False)
        assert sp.pythagorean_residual() < config.PYTHAGOREAN_TOL

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(**RANDOM_B)
    def test_l1_residual_bounds_the_circle(self, num, poles):
        sp = hb.make_space(_random_b(num, poles), use_exact=False)
        w = factor.mate_weight(sp.p, sp.q)
        l1 = float(np.sum(np.abs(factor.weight_residual(sp.A, w))))
        assert l1 <= config.PYTHAGOREAN_TOL * max(1.0, np.sum(np.abs(w)))
        pts = config.unit_circle_points(4096)
        A2, q2, p2 = (np.abs(poly.horner(c, pts)) ** 2
                      for c in (sp.A, sp.q, sp.p))
        # the bound holds up to the rounding of the evaluation itself
        slack = 8 * np.finfo(float).eps * float(np.max(A2 + q2 + p2))
        assert float(np.max(np.abs(A2 - (q2 - p2)))) <= l1 + slack


class TestNoGrid:
    """Space construction, the verdicts and the models evaluate nothing on
    the circle."""

    @pytest.fixture
    def no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("space construction used the grid")
        monkeypatch.setattr(config, "unit_circle_points", refuse)
        monkeypatch.setattr(boundary.UnitCircleFunction, "boundary_values",
                            refuse)

    @pytest.mark.parametrize("use_exact", [False, "auto"])
    def test_make_space_builds(self, no_grid, use_exact):
        with pytest.raises(AssertionError):
            config.unit_circle_points(config.QUADRATURE_POINTS)
        rng = np.random.default_rng(8)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        degree_8 = UCF.polynomial(0.5 * c / np.sum(np.abs(c)))
        for b in (UCF.polynomial([0.5, 0.5]), UCF.rational([0, 1], [2, 1]),
                  degree_8):
            sp = hb.make_space(b, use_exact=use_exact)
            assert sp.pythagorean_residual() < config.PYTHAGOREAN_TOL
            assert (sp.exact is not None) == (use_exact == "auto" and
                                               b is not degree_8)

    def test_verdicts_and_models_build(self, no_grid):
        sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
        assert cyclicity.assess(sp, [1, 1]).verdict == cyclicity.CYCLIC
        assert cyclicity.theorem_a_check(
            sp, [1, 1], [Arc.from_angles(0.1, 6.183)],
            [Arc.from_angles(-0.5, 0.5)]).ok
        spz = hb.make_space(UCF.polynomial([0.0, 0.5]))
        assert cyclicity.theorem_b_check(
            spz, [1, 1], [(Arc.from_angles(-0.1, 0.1), 0.5)]).ok
        divided = hb.divide_inner(spz, hb.make_element(spz, [-0.5, 1.0]))
        assert np.allclose(divided.f, [1.0, -0.5])
        hb.make_space_from_phi(UCF.polynomial([0.8, 0.6]))
        assert len(models.theta_model(UCF.blaschke([0.5, 0.0])).atoms) == 2


class TestIsOuter:
    def test_circle_zero_is_outer(self):
        assert is_outer(np.array([1.0, 1.0]))

    def test_monomial_is_not(self):
        assert not is_outer(np.array([0.0, 1.0]))

    def test_exterior_zeros_are_outer(self):
        assert is_outer(np.convolve([1.0, -1.0], [2.0, 1.0]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_outer(np.array([0.0]))


class TestInnerOuter:
    def test_monomial_factor(self):
        theta, outer = inner_outer(np.array([0.0, 1.0, 1.0]))
        assert theta.zeros == [0j]
        assert np.allclose(outer.to_polynomial(), [1.0, 1.0])

    def test_already_outer(self):
        theta, outer = inner_outer(np.array([1.0, 1.0]))
        assert theta.zeros == [] and abs(theta.phase - 1) < 1e-12
        assert np.allclose(outer.to_polynomial(), [1.0, 1.0])

    def test_interior_zero_reflected(self):
        f = poly.pmul([-0.5, 1.0], [1.0, -1.0])  # (z-1/2)(1-z)
        theta, outer = inner_outer(f)
        assert len(theta.zeros) == 1 and abs(theta.zeros[0] - 0.5) < 1e-10
        pts = config.unit_circle_points(1024)
        fv = poly.horner(poly.aspoly(f), pts)
        assert np.max(np.abs(np.abs(outer.boundary_values(1024)) -
                             np.abs(fv))) < 1e-9
        assert complex(outer(0)).real > 0

    def test_random_factorizations(self):
        rng = np.random.default_rng(31)
        pts = config.unit_circle_points(1024)
        for _ in range(15):
            f = rng.normal(size=6) + 1j * rng.normal(size=6)
            theta, outer = inner_outer(f)
            tv = theta.boundary_values(1024)
            assert np.max(np.abs(np.abs(tv) - 1)) < 1e-10
            fv = poly.horner(poly.aspoly(f), pts)
            ov = outer.boundary_values(1024)
            assert np.max(np.abs(fv - tv * ov)) < 1e-9 * max(
                1.0, float(np.max(np.abs(fv))))
            assert is_outer(outer.num)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            inner_outer(np.array([0.0]))
