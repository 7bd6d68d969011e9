import numpy as np
import pytest

from hblab import config, poly
from hblab.boundary import (Arc, CircleMeasure, UnitCircleFunction as UCF,
                            analytic_projection, arcs_cover_circle, cauchy,
                            evaluate, fourier_coeffs, herglotz,
                            modulus_sq_rational, roots)
from hblab.errors import DomainError, PoleError


class TestEvaluate:
    def test_polynomial_at_one(self):
        assert evaluate(UCF.polynomial([0.5, 0.5]), 1.0) == pytest.approx(1.0)

    def test_one_minus_z_at_one(self):
        assert evaluate(UCF.polynomial([0.5, -0.5]), 1.0) == \
            pytest.approx(0.0)

    def test_rational_at_zero(self):
        assert evaluate(UCF.rational([1.0], [2.0, 1.0]), 0.0) == \
            pytest.approx(0.5)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            UCF.polynomial([1.0, 1.0])(1.5)

    def test_pole_rejected(self):
        fn = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        with pytest.raises(PoleError):
            fn(1.0)

    def test_vectorized(self):
        fn = UCF.polynomial([1.0, 2.0])
        zs = np.array([0.0, 0.5j])
        assert np.allclose(fn(zs), [1.0, 1.0 + 1j])

    def test_scalar_horner_matches_array(self):
        # the scalar path runs in Python complex arithmetic; relative to
        # sum |c_k| |z|^k, the scale of Horner's rounding error
        rng = np.random.default_rng(97)
        for _ in range(500):
            n = rng.integers(1, 21)
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = complex(*rng.uniform(-1.5, 1.5, size=2))
            got = poly.horner(c, z)
            want = poly.horner(c, np.array([z]))[0]
            scale = float(np.sum(np.abs(c) * abs(z) ** np.arange(c.size)))
            assert type(got) is complex
            assert abs(got - want) <= 1e-15 * scale, (c, z)


class TestConstruction:
    def test_rational_interior_pole_rejected(self):
        with pytest.raises(PoleError):
            UCF.rational([1.0], [0.5, 1.0])  # zero at -1/2

    def test_circle_pole_needs_flag(self):
        with pytest.raises(PoleError):
            UCF.rational([1.0], [1.0, -1.0])
        UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)

    def test_blaschke_zero_inside_only(self):
        with pytest.raises(ValueError):
            UCF.blaschke([1.5])

    def test_blaschke_unimodular_on_circle(self):
        fn = UCF.blaschke([0.3, -0.4 + 0.2j], phase=1j)
        vals = np.abs(fn.boundary_values(1024))
        assert np.max(np.abs(vals - 1)) < 1e-12

    def test_common_factor_cancelled(self):
        # (1-z^2)/(1-z) normalizes to 1+z
        fn = UCF.rational([1.0, 0.0, -1.0], [1.0, -1.0],
                          boundary_singular=True)
        assert poly.degree(fn.den) == 0
        assert fn(0.5) == pytest.approx(1.5)

    def test_nonfinite_coefficients_refused(self):
        # checked before trimming: an inf would otherwise make every other
        # coefficient negligible and leave the zero polynomial
        for c in ([1, np.nan], [1, np.inf], [np.inf, 1], [0.5, 1j * np.inf]):
            with pytest.raises(ValueError, match="must be finite"):
                UCF.polynomial(c)

    def test_nonfinite_rational_refused(self):
        for num, den in (([np.inf], [1, 0.1]), ([1], [1, np.nan])):
            with pytest.raises(ValueError, match="must be finite"):
                UCF.rational(num, den)

    def test_rescaling_overflow_refused(self):
        # num / den[0] overflows although num is finite; refused with no
        # RuntimeWarning (which the test settings turn into errors)
        with pytest.raises(ValueError, match="overflows"):
            UCF.rational([1e308], [0.25, 0.1])
        assert UCF.rational([1e300], [0.25, 0.1]).num[0] == 4e300

    def test_degrees_follow_the_trim_rule(self):
        # kept at construction; a rational num is rescaled by den[0] after
        # it is trimmed, which can make its last coefficient negligible
        fn = UCF.rational([1.0, 1.5e-12], [2.0, 1.0])
        assert fn.num.size == 2 and fn.num_degree == 0
        assert fn.num_degree == poly.degree(fn.num)
        assert fn.den_degree == poly.degree(fn.den) == 1
        assert fn.degree() == 1 and not fn.is_polynomial()
        zero = UCF.polynomial([1e-13])
        assert (zero.num_degree, zero.degree(), zero.num_roots()) == \
            (-1, 0, ())
        assert UCF.polynomial([1, 2, 0]).num_degree == 1

    def test_poly_degree_matches_trim(self):
        rng = np.random.default_rng(113)
        cases = [[], [0], [0, 0], [1e-13], [1e-13, 0], [2, 1.5e-12],
                 [2, 2.5e-12], [1, 0, 0], [0, 0, 1], [np.nan, 1e-13],
                 [1e300, 1e289]]
        cases += [rng.normal(size=5) * (rng.random(5) < 0.5)
                  * 10.0 ** rng.integers(-14, 2, size=5) for _ in range(200)]
        for c in cases:
            t = poly.trim(c)
            want = -1 if t.size == 0 or (t.size == 1 and t[0] == 0) \
                else t.size - 1
            assert poly.degree(c) == want, c

    def test_dict_round_trip(self):
        fn = UCF.rational([1.0, 2.0j], [1.0, 0.25])
        back = UCF.from_dict(fn.to_dict())
        zs = 0.9 * config.unit_circle_points(16)
        assert np.allclose(fn(zs), back(zs))


class TestFourier:
    def test_half_plus_half(self):
        got = fourier_coeffs(UCF.polynomial([0.5, 0.5]), 0, 1)
        assert np.allclose(got, [0.5, 0.5])

    def test_geometric_rational(self):
        got = fourier_coeffs(UCF.rational([1.0], [2.0, 1.0]), 0, 2)
        assert np.allclose(got, [0.5, -0.25, 0.125])

    def test_monomial(self):
        got = fourier_coeffs(UCF.polynomial([0, 0, 0, 1.0]), 3, 3)
        assert np.allclose(got, [1.0])

    def test_negative_indices_vanish(self):
        got = fourier_coeffs(UCF.rational([1.0], [2.0, 1.0]), -2, 1)
        assert np.allclose(got, [0.0, 0.0, 0.5, -0.25])

    def test_quadrature_agrees_with_series(self):
        fn = UCF.rational([1.0, 0.5j], [3.0, 1.0])
        series = fourier_coeffs(fn, 0, 10)
        n = 4096
        vals = fn.boundary_values(n)
        dft = np.fft.fft(vals)[:11] / n
        assert np.max(np.abs(series - dft)) < 1e-12

    def test_blaschke_reports_error(self):
        # (z - 1/2)/(1 - z/2) = -1/2 + sum_k (3/4) 2^(1-k) z^k: the series
        # of its rational form, exact in binary
        fn = UCF.blaschke([0.5])
        got = fourier_coeffs(fn, 0, 3)
        assert got.tolist() == [-0.5, 0.75, 0.375, 0.1875]

    def test_boundary_singular_rejected(self):
        fn = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        with pytest.raises(PoleError):
            fourier_coeffs(fn, 0, 4)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        fn = UCF.polynomial(coeffs)
        rec = fourier_coeffs(fn, 0, 8)
        pts = rng.uniform(0, 1, size=64) * np.exp(
            2j * np.pi * rng.uniform(size=64))
        assert np.max(np.abs(poly.horner(rec, pts) - fn(pts))) < 1e-10


class TestRoots:
    def test_simple(self):
        got = roots(np.array([1.0, -1.0]))
        assert len(got) == 1
        r, m = got[0]
        assert abs(r - 1) < 1e-12 and m == 1

    def test_double(self):
        got = roots(poly.pmul([1.0, -1.0], [1.0, -1.0]))
        assert len(got) == 1
        r, m = got[0]
        assert abs(r - 1) < 1e-7 and m == 2

    def test_factored_quadratic(self):
        got = sorted(roots(np.array([2.0, -1.0, -1.0])),
                     key=lambda t: t[0].real)
        assert abs(got[0][0] + 2) < 1e-10 and abs(got[1][0] - 1) < 1e-10

    def test_reexpansion(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
            got = roots(coeffs)
            rebuilt = poly.from_roots(got, lead=coeffs[-1])
            scale = np.max(np.abs(coeffs))
            assert np.max(np.abs(rebuilt - coeffs)) < 1e-8 * scale

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(np.array([3.0]))
        with pytest.raises(ValueError):
            roots(UCF.constant(3.0))

    def test_function_roots_kept(self):
        fn = UCF.polynomial([2.0, -1.0, -1.0])
        assert roots(fn) == roots(fn.to_polynomial()) == list(fn.num_roots())

    def test_polish_matches_horner_loop(self, monkeypatch):
        rng = np.random.default_rng(29)
        cases = []
        for i in range(300):
            deg = int(rng.integers(1, 13))
            if i % 3:
                cases.append(rng.normal(size=deg + 1) +
                             1j * rng.normal(size=deg + 1))
            else:               # repeated roots, multiplicity up to 3
                rs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
                cases.append(poly.from_roots(
                    [(r, int(rng.integers(1, 4))) for r in rs[:4]],
                    lead=rng.normal() + 1j))
        got = [poly.roots_with_multiplicity(c) for c in cases]
        monkeypatch.setattr(poly, "_polish", _polish_over_horner)
        assert got == [poly.roots_with_multiplicity(c) for c in cases]
        assert any(m > 1 for rs in got for _r, m in rs)


def _polish_over_horner(p, dp, z, mult):
    """poly._polish's Newton loop with each value from poly.horner."""
    for _ in range(30):
        pv = poly.horner(p, z)
        dv = poly.horner(dp, z)
        if dv == 0:
            break
        step = mult * pv / dv
        if not np.isfinite(step):
            break
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


class TestHerglotz:
    def test_lebesgue_mean(self):
        assert herglotz(CircleMeasure.lebesgue(), 0.3) == pytest.approx(1.0)

    def test_single_atom(self):
        for r in (0.1, 0.5, 0.9):
            got = herglotz(CircleMeasure.point(1.0, 1.0), r)
            assert got == pytest.approx((1 + r) / (1 - r))

    def test_clark_density_of_small_shift(self):
        # density (3/4)/|1 - z/2|^2 integrates to 1
        phi = UCF.rational([np.sqrt(3) / 2], [1.0, -0.5])
        got = herglotz(CircleMeasure.from_modulus_sq(phi), 0.0)
        assert abs(got - 1.0) < 1e-8

    def test_positivity_on_radial_grid(self):
        phi = UCF.polynomial([0.6, 0.3, 0.1])
        mu = CircleMeasure.from_modulus_sq(phi)
        for r in [1 - 2.0 ** -k for k in range(6, 12)]:
            for zeta in config.unit_circle_points(16):
                assert herglotz(mu, r * zeta).real >= -1e-10

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            herglotz(CircleMeasure.lebesgue(), 1.0)


class TestCauchy:
    def test_constant(self):
        got = cauchy(CircleMeasure.lebesgue(), lambda p: np.ones(len(p)),
                     0.4 + 0.2j)
        assert got == pytest.approx(1.0)

    def test_monomial_reproduced(self):
        z = 0.37 + 0.1j
        got = cauchy(CircleMeasure.lebesgue(), lambda p: p, z)
        assert got == pytest.approx(z)

    def test_atom(self):
        got = cauchy(CircleMeasure.point(1.0, 2.0),
                     lambda p: np.ones(len(p)), 0.5)
        assert got == pytest.approx(4.0)

    def test_analytic_projection_of_trig_poly(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)  # indices -3..3
        def h(p):
            return sum(c[k + 3] * p ** k for k in range(-3, 4))
        z = 0.3 - 0.55j
        want = sum(c[k + 3] * z ** k for k in range(0, 4))
        got = cauchy(CircleMeasure.lebesgue(), h, z)
        assert abs(got - want) < 1e-12


class TestArcs:
    def test_normalization(self):
        a = Arc.from_angles(-0.5, 0.5)
        assert 0 <= a.start < 2 * np.pi
        assert a.contains_angle(0.0)
        assert a.contains_angle(0.49)
        assert not a.contains_angle(1.0)

    def test_wrap_containment(self):
        a = Arc.from_angles(6.0, 0.4)
        assert a.contains_angle(6.2)
        assert a.contains_angle(0.2)
        assert not a.contains_angle(3.0)

    def test_cover(self):
        assert arcs_cover_circle([Arc.full_circle()])
        assert arcs_cover_circle([Arc.from_angles(0, 4.0),
                                  Arc.from_angles(3.9, 6.3)])
        assert not arcs_cover_circle([Arc.from_angles(0.2, 4.0),
                                      Arc.from_angles(4.0, 6.0)])

    def test_empty_arc_rejected(self):
        with pytest.raises(ValueError):
            Arc.from_angles(1.0, 1.0)

    def test_nonfinite_angles_rejected(self):
        for start, end in ((np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0),
                           (0.0, -np.inf), (np.nan, np.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                Arc.from_angles(start, end)


class TestAnalyticProjection:
    def test_smooth_rational(self):
        # P+ of |sqrt(3)/(2+z)|^2 is 1/(1+z/2)
        phi = UCF.rational([np.sqrt(3)], [2.0, 1.0])
        num, den = modulus_sq_rational(phi)
        proj = analytic_projection(num, den)
        zs = 0.8 * config.unit_circle_points(32)
        want = 1.0 / (1.0 + zs / 2)
        assert np.max(np.abs(proj(zs) - want)) < 1e-12

    def test_polynomial_weight(self):
        # P+ of |(1-z)/sqrt2|^2 = 1 - z/2
        phi = UCF.polynomial([1 / np.sqrt(2), -1 / np.sqrt(2)])
        num, den = modulus_sq_rational(phi)
        proj = analytic_projection(num, den)
        assert np.allclose(proj.num, [1.0, -0.5]) and \
            poly.degree(proj.den) == 0

    def test_matches_fft_projection(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        phi = UCF.rational([1.0, 0.3], [2.0, 1.0])
        num, den = modulus_sq_rational(phi)
        proj = analytic_projection(poly.pmul(g, num), den)
        n = 4096
        pts = config.unit_circle_points(n)
        vals = poly.horner(poly.pmul(g, num), pts) / poly.horner(den, pts)
        coeffs = np.fft.fft(vals) / n
        z = 0.65 - 0.2j
        want = poly.horner(coeffs[: n // 2], z)
        assert abs(complex(proj(z)) - complex(want)) < 1e-10

    def test_circle_pole_rejected(self):
        with pytest.raises(PoleError):
            analytic_projection(np.array([1.0]), np.array([1.0, -1.0]))
