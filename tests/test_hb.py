from fractions import Fraction

import numpy as np
import pytest

from hblab import clark, config, exact, factor, hb, poly
from hblab import cyclicity as cy
from hblab.boundary import UnitCircleFunction as UCF
from hblab.errors import (DomainError, ExtremeFunctionError,
                          NormalizationError, SpaceMismatchError)


class TestMakeSpace:
    def test_half_shift_mate(self, space_half_shift):
        assert np.allclose(space_half_shift.a.to_polynomial(), [0.5, -0.5],
                           atol=1e-12)

    def test_small_shift_mate(self, space_small_shift):
        assert np.allclose(space_small_shift.a.to_polynomial(),
                           [np.sqrt(3) / 2])

    def test_roots_of_a_carried_from_the_factorization(self, root_solves):
        # the weight z^D w is a polynomial b's one solve; a rational b adds
        # q, for the cancellation of a = A/q, whose numerator roots it keeps
        for b, solves in ((UCF.polynomial([0.0, 0.5, 0.5]), 1),
                          (UCF.polynomial([0.5, 0.0, 0.5]), 1),
                          (UCF.rational([0.0, 1.0], [2.0, 1.0]), 2),
                          (UCF.rational([1.0, 1.0], [3.0, 1.0]), 2)):
            root_solves.clear()
            sp = hb.make_space(b)
            roots = sp.a_roots()
            hb.defect_spectrum(sp)
            if not b.is_polynomial():
                sp.a.num_roots()
            assert len(root_solves) == solves, b
            want = poly.roots_with_multiplicity(sp.A)
            assert [m for _r, m in roots] == [m for _r, m in want], b
            assert all(abs(r - s) <= 1e-14 * abs(s)
                       for (r, _m), (s, _n) in zip(roots, want)), b

    def test_extreme_rejected(self):
        with pytest.raises(ExtremeFunctionError):
            hb.make_space(UCF.blaschke([0.5]))
        with pytest.raises(ExtremeFunctionError):
            hb.make_space(UCF.polynomial([0.0, 1.0]))

    def test_exact_backend_certified(self, all_test_spaces):
        for name, sp in all_test_spaces.items():
            assert sp.exact is not None, name
            assert sp.pythagorean_exact_residual() == [], name

    def test_exact_scale_folds_when_square(self, space_half_shift):
        assert space_half_shift.exact.s2 == 1
        assert exact.to_qc(space_half_shift.exact.A) == \
            [exact.QC(Fraction(1, 2)), exact.QC(Fraction(-1, 2))]

    def test_exact_scaled_form(self, space_small_shift):
        assert space_small_shift.exact.s2 == Fraction(3, 4)

    def test_exact_flag_off(self):
        sp = hb.make_space(UCF.polynomial([0.0, 0.5]), use_exact=False)
        assert sp.exact is None

    def test_from_phi_round_trip(self, space_from_one_minus_z):
        sp = space_from_one_minus_z
        assert abs(complex(sp.b(0))) < 1e-12
        # b = -z/(2 - z)
        assert abs(complex(sp.b(0.5)) - (-0.5 / 1.5)) < 1e-10

    def test_from_phi_requires_unit_norm(self):
        with pytest.raises(NormalizationError):
            hb.make_space_from_phi(UCF.polynomial([1.0, -1.0]))


class TestNegligibleCoefficients:
    """One rule for a negligible coefficient, poly.trim's 1e-12 times
    max(1, max |c|): fejer_riesz trims the weight's Laurent tails by it,
    root finding trims the lift by it, and the exact backend's rationalized
    p and q must reproduce b within it."""

    def test_rationalization_reproduces_b(self):
        # the constant 9e-11 rationalizes to 0 with denominators <= 10^9
        b = UCF.polynomial([9e-11, 0.9])
        sp = hb.make_space(b)
        assert sp.exact is None
        assert sp.exact_declined.startswith("rationalizing p/q")
        with pytest.raises(NormalizationError, match="rationalizing p/q"):
            hb.make_space(b, use_exact=True)

    def test_tiny_constant_term(self):
        for c in (1e-10, 1e-11, 1e-12):
            sp = hb.make_space(UCF.polynomial([0.9 * c, 0.9]))
            assert sp.pythagorean_residual() < config.PYTHAGOREAN_TOL, c
            # 9e-12 is above the rule, 9e-13 below it: that term is
            # negligible to the factorization and to the rationalization
            if c > 1e-12:
                assert sp.exact is None, c
            else:
                assert exact.to_qc(sp.exact.p) == \
                    [exact.QC(0), exact.QC(Fraction(9, 10))]
                assert sp.A.size == 1

    def test_numerator_rationalized_to_zero(self):
        # b = 5e-14 z/(1 + z/2) is within the rule of b = 0: p is [0]
        sp = hb.make_space(UCF.rational([0.0, 1e-13], [2.0, 1.0]),
                           use_exact=True)
        assert exact.to_qc(sp.exact.p) == [exact.QC(0)]
        assert sp.pythagorean_exact_residual() == []
        assert hb.make_element(sp, [1.0, 2.0]).norm2_exact == 5
        assert hb.make_element(sp, [0.0]).exact == ((exact.QC(0),), ())

    def test_weight_tails_trimmed_by_trim_rule(self):
        a, roots = factor.fejer_riesz([-8.1e-13, 0.19, -8.1e-13])
        assert a.size == 1 and abs(a[0] - np.sqrt(0.19)) < 1e-15
        assert roots == []
        a, roots = factor.fejer_riesz([-8.1e-12, 0.19, -8.1e-12])
        assert a.size == 2 and len(roots) == 1


class TestRationalExact:
    """b = p/q under the exact backend: s2|A|^2 + |p|^2 = |q|^2."""

    @pytest.fixture(scope="class")
    def space(self):
        return hb.make_space(UCF.rational([0.0, 1.0], [2.0, 1.0]),
                             use_exact=True)

    def test_certified(self, space):
        # z/(2+z) = (z/2)/(1+z/2): |1+z/2|^2 - |z/2|^2 = |1+z|^2/2
        assert space.exact.s2 == Fraction(1, 2)
        assert exact.to_qc(space.exact.A) == [exact.QC(1), exact.QC(1)]
        assert space.pythagorean_exact_residual() == []

    def test_exact_norms(self, space):
        for f in ([1.0], [0.0, 1.0], [1.0, -0.5, 0.25j], [0.0, 0.0, 0.0, 2.0]):
            el = hb.make_element(space, f)
            assert el.norm2_exact is not None
            assert abs(float(el.norm2_exact) - el.norm2) < 1e-12

    def test_irrational_factor_refused(self, space):
        # |1+z/3|^2 - |(1+z)/3|^2 factors with the irrational ratio 2 - sqrt3
        b = UCF.rational([1.0, 1.0], [3.0, 1.0])
        with pytest.raises(NormalizationError, match="irrational factor"):
            hb.make_space(b, use_exact=True)
        sp = hb.make_space(b, use_exact="auto")
        assert sp.exact is None
        assert "s2|A|^2 + |p|^2 = |q|^2" in sp.exact_declined
        assert space.exact_declined is None
        assert hb.make_space(b, use_exact=False).exact_declined == \
            "not requested"


class TestMate:
    def test_spec_values(self, space_half_shift, space_small_shift):
        assert np.allclose(hb.mate(space_half_shift, [1.0]), [-1.0])
        assert np.allclose(hb.mate(space_small_shift, [1.0]), [0.0])
        assert np.allclose(hb.mate(space_small_shift, [0.0, 1.0]),
                           [-1 / np.sqrt(3)])

    def test_monomial_mates(self, space_half_shift):
        # mate(z^k) has coefficients -2 below index k and -1 at k
        for k in range(1, 9):
            f = [0.0] * k + [1.0]
            m = hb.mate(space_half_shift, f)
            want = np.array([-2.0] * k + [-1.0])
            assert np.allclose(m, want, atol=1e-12)

    def test_zero_element(self, space_half_shift):
        el = hb.make_element(space_half_shift, [0.0])
        assert el.norm2 == 0.0 and np.allclose(el.mate, [0.0])

    def test_mates_solved_on_first_float_read(self, monkeypatch):
        calls = []
        solve = hb._float_mate

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hb, "_float_mate", counted)
        sp = hb.make_space(UCF.polynomial([0.5, 0.5]), use_exact=True)
        F = hb.make_element(sp, [1.0, 0.5])
        G = hb.make_element(sp, [0.25, 0.0, -1.0])
        assert hb.inner_product_exact(sp, F, G) is not None
        assert F.norm2_exact > 0 and G.norm2_exact > 0
        assert not calls                    # exact reads solve no float mate
        for read in (lambda el: el.mate, lambda el: el.norm2,
                     lambda el: hb.inner_product(sp, el, el)):
            el = hb.make_element(sp, [1.0, 0.5])
            read(el)
            assert len(calls) == 1
            read(el)
            el.mate, el.norm2
            assert len(calls) == 1
            calls.clear()
        hb.inner_product(sp, F, G)          # one solve per element
        hb.inner_product(sp, F, G)
        assert len(calls) == 2
        assert float(F.norm2_exact) == pytest.approx(F.norm2, abs=1e-14)

    def test_mate_residual_raises_at_first_float_read(self, monkeypatch):
        rng = np.random.default_rng(103)
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        b *= 0.5 / np.sum(np.abs(b))
        sp = hb.make_space(UCF.polynomial(b), use_exact=False)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        monkeypatch.setattr(config, "MATE_RESIDUAL_TOL", 1e-30)
        el = hb.make_element(sp, f)
        with pytest.raises(ArithmeticError, match="mate residual"):
            el.norm2

    def test_non_finite_refused(self, space_half_shift, monkeypatch):
        # inf used to set trim's threshold to inf: [1, inf] was the zero
        # element, [1, nan] had norm nan
        sp, finite = space_half_shift, "f: polynomial coefficients must be " \
            "finite"
        for f in ([1, np.inf], [1, np.nan]):
            for embed in (hb.make_element, hb.mate):
                with pytest.raises(ValueError, match=finite):
                    embed(sp, f)
        # the truncated series of kernels and rational functions too
        monkeypatch.setattr(poly, "series_div",
                            lambda num, den, n: np.full(n, np.inf + 0j))
        with pytest.raises(ValueError, match=finite):
            hb.kernel_element(sp, 0.5)
        with pytest.raises(ValueError, match=finite):
            hb.element_from_rational(sp, UCF.rational([1.0], [1.0, -0.4]))

    def test_residuals_random(self, all_test_spaces):
        rng = np.random.default_rng(41)
        for sp in all_test_spaces.values():
            for _ in range(50):
                deg = int(rng.integers(0, 17))
                f = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                f1 = hb.mate(sp, f)  # raises if the residual is large
                lhs = hb_residual(sp, f, f1)
                assert lhs < 1e-10 * max(1.0, float(np.max(np.abs(f))))

    def test_exact_residual_random(self, space_half_shift):
        rng = np.random.default_rng(43)
        for _ in range(50):
            deg = int(rng.integers(0, 17))
            coeffs = rng.integers(-9, 10, size=deg + 1).astype(float) / 4
            el = hb.make_element(space_half_shift, coeffs)
            if poly.degree(el.f) < 0:
                continue
            assert el.exact is not None
            fe, ge = el.exact
            p, A, fe, ge = (np.array(c, dtype=object) for c in (
                exact.to_qc(space_half_shift.exact.p),
                exact.to_qc(space_half_shift.exact.A), fe,
                ge + (exact.QZERO,) * (len(fe) - len(ge))))
            resid = np.correlate(fe, np.conj(p), "full")[p.size - 1:] + \
                np.correlate(ge, np.conj(A), "full")[A.size - 1:]
            assert all(c.is_zero() for c in resid)

    def test_exact_mate_matches_float_complex_data(self):
        # b = (1 + iz)/2, A = (1 - iz)/2: both conjugations in the mate
        # relation act on non-real coefficients
        sp = hb.make_space(UCF.polynomial([0.5, 0.5j]), use_exact=True)
        assert exact.to_qc(sp.exact.A) == [exact.QC(Fraction(1, 2)),
                                           exact.QC(0, Fraction(-1, 2))]
        for f in ([1.0], [0.0, 1.0], [1.0, -0.5j, 0.25], [0.5j, 0, 0, 2.0]):
            el = hb.make_element(sp, f)
            ge = np.array([c.to_complex() for c in el.exact[1]])
            g = np.concatenate([el.mate, np.zeros(max(0, ge.size -
                                                       el.mate.size))])
            assert np.max(np.abs(g[:ge.size] - ge), initial=0) < 1e-14, f
            assert np.max(np.abs(g[ge.size:]), initial=0) < 1e-14, f
            assert abs(float(el.norm2_exact) - el.norm2) < 1e-14, f

    def test_exact_projection_built_once(self, monkeypatch):
        # one solve and one residual check per exact mate, both on the
        # space's stored integer p
        sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]), use_exact=True)
        p_ints = sp.exact.p
        calls = []
        for name in ("mate_solve", "mate_residual"):
            fn = getattr(exact, name)
            monkeypatch.setattr(exact, name, lambda p, *args, fn=fn, name=name:
                                calls.append((name, p == p_ints, id(p)))
                                or fn(p, *args))
        el = hb.make_element(sp, [1.0, -0.5, 0.25])
        assert el.exact is not None
        assert [c[:2] for c in calls] == [("mate_solve", True),
                                          ("mate_residual", True)]
        assert hb.make_element(sp, [0.5, 1.0]).norm2_exact is not None
        assert len({c[2] for c in calls}) == 1

    def test_exact_data_on_first_exact_read(self, space_half_shift,
                                            monkeypatch):
        calls = []
        solve = exact.mate_solve
        monkeypatch.setattr(exact, "mate_solve",
                            lambda p, A, h: calls.append(True)
                            or solve(p, A, h))
        el = hb.make_element(space_half_shift, [1.0, -0.5, 0.25])
        cy.decay_table(space_half_shift, [1.0, 0.5], 32)
        assert calls.count(True) == 0
        assert el.norm2_exact == Fraction(13, 8)
        assert calls.count(True) == 1
        assert el.norm2_exact == Fraction(13, 8)
        assert calls.count(True) == 1

    def test_contractive_in_hardy(self, all_test_spaces):
        rng = np.random.default_rng(47)
        for sp in all_test_spaces.values():
            for _ in range(20):
                f = rng.normal(size=7) + 1j * rng.normal(size=7)
                el = hb.make_element(sp, f)
                assert el.norm2 >= poly.l2sq(f) - 1e-12


def hb_residual(sp, f, f1) -> float:
    f = poly.aspoly(f)
    f1 = poly.aspoly(f1)
    out = 0.0
    for m in range(max(f.size, f1.size)):
        acc = 0j
        for j in range(sp.p.size):
            if m + j < f.size:
                acc += np.conj(sp.p[j]) * f[m + j]
        for j in range(sp.A.size):
            if m + j < f1.size:
                acc += np.conj(sp.A[j]) * f1[m + j]
        out = max(out, abs(acc))
    return out


class TestInnerProduct:
    def test_norm_one(self, space_half_shift):
        one = hb.make_element(space_half_shift, [1.0])
        assert hb.inner_product(space_half_shift, one, one) == \
            pytest.approx(2.0)

    def test_orthogonality(self, space_half_shift):
        one = hb.make_element(space_half_shift, [1.0])
        for k in range(9):
            g = poly.pmul([1.0, -1.0], [0.0] * k + [1.0])
            el = hb.make_element(space_half_shift, g)
            assert abs(hb.inner_product(space_half_shift, one, el)) < 1e-12

    def test_monomial_norms(self, space_half_shift):
        for k in range(9):
            el = hb.make_element(space_half_shift, [0.0] * k + [1.0])
            assert el.norm2 == pytest.approx(4 * k + 2)
            assert el.norm2_exact == 4 * k + 2

    def test_space_mismatch(self, space_half_shift, space_small_shift):
        e1 = hb.make_element(space_half_shift, [1.0])
        e2 = hb.make_element(space_small_shift, [1.0])
        with pytest.raises(SpaceMismatchError):
            hb.inner_product(space_half_shift, e1, e2)
        with pytest.raises(SpaceMismatchError):
            hb.inner_product_exact(space_half_shift, e2, e2)

    def test_exact_inner(self, space_small_shift):
        ez = hb.make_element(space_small_shift, [0.0, 1.0])
        val = hb.inner_product_exact(space_small_shift, ez, ez)
        assert val.re == Fraction(4, 3) and val.im == 0

    def test_cross_representation_small_shift(self, space_small_shift):
        # <Vh, Vg>_b computed by mates vs <h, g> in L^2(mu_1) by transform
        sp = space_small_shift
        cm = clark.clark_measure(sp, 1.0)
        images = []
        for k in range(4):
            fn = clark.normalized_cauchy_rational(sp, 1.0, [0.0] * k + [1.0],
                                                  measure=cm)
            images.append(hb.element_from_rational(sp, fn))
        pts = config.unit_circle_points(config.QUADRATURE_POINTS)
        dens = cm.density_values(pts)
        for j in range(4):
            for k in range(4):
                got = hb.inner_product(sp, images[j], images[k])
                want = complex(np.mean(pts ** j * np.conj(pts) ** k * dens))
                assert abs(got - want) < 1e-6 * max(1.0, abs(want))


class TestKernels:
    def test_at_zero_small_shift(self, space_small_shift):
        k = hb.kernel(space_small_shift, 0.0)
        zs = 0.9 * config.unit_circle_points(16)
        assert np.max(np.abs(k(zs) - 1.0)) < 1e-12

    def test_norm_identity(self, all_test_spaces):
        rng = np.random.default_rng(53)
        for sp in all_test_spaces.values():
            for _ in range(5):
                lam = 0.85 * np.sqrt(rng.uniform()) * np.exp(
                    2j * np.pi * rng.uniform())
                el = hb.kernel_element(sp, lam)
                lhs = hb.inner_product(sp, el, el).real
                rhs = (1 - abs(complex(sp.b(lam))) ** 2) / \
                    (1 - abs(lam) ** 2)
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_reproducing_property(self, space_half_shift):
        rng = np.random.default_rng(59)
        sp = space_half_shift
        for _ in range(10):
            f = rng.normal(size=9) + 1j * rng.normal(size=9)
            lam = 0.6 * np.sqrt(rng.uniform()) * np.exp(
                2j * np.pi * rng.uniform())
            el = hb.make_element(sp, f)
            kel = hb.kernel_element(sp, lam)
            got = hb.inner_product(sp, el, kel)
            want = complex(poly.horner(poly.aspoly(f), lam))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_kernel_truncation_bound(self):
        n = hb.kernel_taylor_degree(0.6, 1e-12)
        assert 0.6 ** n / 0.4 < 1e-12

    def test_outside_disk_rejected(self, space_half_shift):
        with pytest.raises(DomainError):
            hb.kernel(space_half_shift, 1.0)

    def test_nonfinite_parameter_rejected(self, space_half_shift):
        # |nan| < 1 is False too: refused before any root solve
        for lam in (np.nan, complex(np.nan, 0.5), np.inf):
            for fn in (hb.kernel, hb.kernel_element):
                with pytest.raises(DomainError, match="open disk"):
                    fn(space_half_shift, lam)

    def test_boundary_kernel(self, space_half_shift):
        k = hb.boundary_kernel(space_half_shift, 1.0)
        assert np.allclose(k.to_polynomial(), [0.5])
        kel = hb.make_element(space_half_shift, k.to_polynomial())
        for coeffs in ([1.0], [0.0, 1.0], [0.0, 0.0, 1.0]):
            el = hb.make_element(space_half_shift, coeffs)
            got = hb.inner_product(space_half_shift, el, kel)
            want = complex(poly.horner(poly.aspoly(coeffs), 1.0))
            assert abs(got - want) < 1e-12

    def test_boundary_kernel_needs_unimodular_b(self, space_small_shift):
        with pytest.raises(DomainError):
            hb.boundary_kernel(space_small_shift, 1.0)


class TestDivideInner:
    def test_monomial(self, space_small_shift):
        el = hb.make_element(space_small_shift, [0.0, 1.0, 1.0])
        out = hb.divide_inner(space_small_shift, el)
        assert np.allclose(out.f, [1.0, 1.0])
        assert np.isfinite(out.norm2)

    def test_half_shift_z(self, space_half_shift):
        el = hb.make_element(space_half_shift, [0.0, 1.0])
        out = hb.divide_inner(space_half_shift, el)
        assert np.allclose(out.f, [1.0])
        assert out.norm2 == pytest.approx(2.0)

    def test_outer_unchanged(self, space_half_shift):
        el = hb.make_element(space_half_shift, [1.0, 1.0])
        assert hb.divide_inner(space_half_shift, el) is el


class TestRationalElements:
    def test_truncation_matches_series(self, space_small_shift):
        fn = UCF.rational([1.0], [1.0, -0.4])
        el = hb.element_from_rational(space_small_shift, fn)
        want = 0.4 ** np.arange(el.f.size)
        assert np.max(np.abs(el.f - want)) < 1e-12

    def test_interior_pole_rejected(self, space_small_shift):
        fn = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        with pytest.raises(DomainError):
            hb.element_from_rational(space_small_shift, fn)
