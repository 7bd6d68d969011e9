from fractions import Fraction

import numpy as np
import pytest

from hblab import clark, cyclicity as cy, hb, models
from hblab.boundary import UnitCircleFunction as UCF
from hblab.errors import DomainError


class TestDirichlet:
    def test_worked_norms(self):
        spec = models.DirichletSpec([(1.0, 1.0)])
        assert models.dirichlet_integral(spec, [1, -1]) == pytest.approx(1.0)
        assert models.dirichlet_norm(spec, [1, -1]) == pytest.approx(3.0)
        assert models.dirichlet_integral(spec, [1.0]) == 0.0
        assert models.dirichlet_norm(spec, [1.0]) == pytest.approx(1.0)

    def test_two_atoms(self):
        spec = models.DirichletSpec([(1.0, 1.0), (-1.0, 1.0)])
        assert models.dirichlet_integral(spec, [0, 1]) == pytest.approx(2.0)
        assert models.dirichlet_norm(spec, [0, 1]) == pytest.approx(3.0)

    def test_exact_matches_float(self):
        rng = np.random.default_rng(101)
        spec = models.DirichletSpec([(1.0, 1.0), (-1.0, 0.5), (1j, 2.0)])
        for _ in range(10):
            deg = int(rng.integers(0, 9))
            f = rng.integers(-6, 7, size=deg + 1).astype(float) / 8
            ex = models.dirichlet_norm_exact(spec, f)
            assert ex is not None
            assert abs(models.dirichlet_norm(spec, f) - float(ex)) < 1e-12

    def test_exact_four_atoms(self):
        # atoms at 1, -1, i and (3 + 4i)/5, each given as a float (-1 as
        # exp(i pi), whose imaginary part is 1.2e-16): the local integral
        # at zeta is ||quotient of f by z - zeta||^2, summed here on
        # Fractions from its coefficients sum_(j>k) f_j zeta^(j-1-k)
        zetas = [(1, 0), (-1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5))]
        weights = [Fraction(1), Fraction(1, 10), Fraction(3), Fraction(1, 4)]
        spec = models.DirichletSpec([(1.0, 1.0), (np.exp(1j * np.pi), 0.1),
                                     (1j, 3.0), (0.6 + 0.8j, 0.25)])
        f = [Fraction(1, 2), -1, 0, Fraction(2, 3), Fraction(-1, 7)]
        want = sum(c * c for c in f)
        for (zr, zi), w in zip(zetas, weights):
            for k in range(len(f) - 1):
                re = im = Fraction(0)
                pr, pi = Fraction(1), Fraction(0)       # zeta^(j-1-k)
                for j in range(k + 1, len(f)):
                    re, im = re + f[j] * pr, im + f[j] * pi
                    pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
                want += w * (re * re + im * im)
        got = models.dirichlet_norm_exact(spec, [float(c) for c in f])
        assert got == want
        assert abs(float(want) - models.dirichlet_norm(spec, f)) < 1e-12

    def test_exact_needs_rational_data(self):
        # an atom off the rational points of the circle gives no exact
        # norm, though ||1 + z^2||^2 = 4 for every atom of weight 1
        spec = models.DirichletSpec([(np.exp(0.5j), 1.0)])
        assert models.dirichlet_norm(spec, [1, 0, 1]) == pytest.approx(4)
        assert models.dirichlet_norm_exact(spec, [1, 0, 1]) is None
        # weights and coefficients are read as the rationals they round
        # to: 0.1 is 1/10, not the binary float
        spec = models.DirichletSpec([(1.0, 0.1)])
        assert models.dirichlet_norm_exact(spec, [1, -1]) == \
            Fraction(21, 10)
        # f's coefficients must pass the same bound as any exact read
        spec = models.DirichletSpec([(1.0, 1.0)])
        assert models.dirichlet_norm_exact(spec, [1, 1.5e-11]) is None
        assert models.dirichlet_norm_exact(spec, [1, np.nan]) is None
        assert models.dirichlet_norm_exact(spec, [2.5]) == Fraction(25, 4)

    def test_verdicts(self):
        spec = models.DirichletSpec([(1.0, 1.0)])
        assert models.dirichlet_cyclic(spec, [1, 1]).verdict == cy.CYCLIC
        assert models.dirichlet_cyclic(spec, [1, -1]).verdict == \
            cy.NOT_CYCLIC
        assert models.dirichlet_cyclic(spec, [0, 1]).verdict == cy.NOT_CYCLIC
        spec2 = models.DirichletSpec([(1.0, 1.0), (-1.0, 1.0)])
        assert models.dirichlet_cyclic(spec2, [1, 0, -1]).verdict == \
            cy.NOT_CYCLIC

    def test_validation(self):
        with pytest.raises(Exception):
            models.DirichletSpec([(0.5, 1.0)])
        with pytest.raises(ValueError):
            models.DirichletSpec([(1.0, -1.0)])
        with pytest.raises(ValueError):
            models.DirichletSpec([(1.0, 1.0), (1.0, 2.0)])

    def test_nonfinite_atoms_refused(self):
        for zeta in (np.nan, complex(np.nan, 0), complex(1, np.nan),
                     np.inf):
            with pytest.raises(DomainError):
                models.DirichletSpec([(zeta, 1.0)])
        for w in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                models.DirichletSpec([(1.0, w)])


class TestThetaModel:
    def test_theta_z(self):
        m = models.theta_model(UCF.blaschke([0]))
        assert m.model_dimension == 1
        assert len(m.atoms) == 1
        zeta, mass = m.atoms[0]
        assert abs(zeta - 1) < 1e-10 and abs(mass - 1.0) < 1e-8

    def test_theta_z2(self):
        m = models.theta_model(UCF.blaschke([0, 0]))
        assert m.model_dimension == 2
        locs = sorted(z.real for z, _ in m.atoms)
        assert abs(locs[0] + 1) < 1e-8 and abs(locs[1] - 1) < 1e-8
        for _z, mass in m.atoms:
            assert abs(mass - 0.5) < 1e-4

    def test_moebius_theta(self):
        m = models.theta_model(UCF.blaschke([0.5]))
        assert len(m.atoms) == 1
        assert abs(m.atoms[0][0] - 1) < 1e-8
        assert abs(m.herglotz_mass - 1 / 3) < 1e-12
        assert abs(sum(mm for _z, mm in m.atoms) - 1 / 3) < 1e-6

    def test_model_keeps_small_denominator_terms(self):
        # b and a over 2 td as theta keeps td: its z^5 and z^6 terms are
        # below 1e-12 of its largest coefficient, yet td(1) is only 5e-4
        zs = [1e-12, 0.9, 1e-12, 0.9, 0.9, 0.5]
        m = models.theta_model(UCF.blaschke(zs))
        for fn in (m.b, m.a):
            assert (fn.num_degree, fn.den_degree) == (6, 6)
        assert abs(m.b(1.0) - 1) <= 1e-12 and abs(m.a(1.0)) <= 1e-12
        mass, = [mm for z, mm in m.atoms if abs(z - 1) < 1e-9]
        want = 1 / sum((1 - abs(z) ** 2) / abs(1 - z) ** 2 for z in zs)
        assert abs(mass - want) <= 1e-12

    def test_polynomial_theta_literal(self):
        m = models.theta_model(UCF.polynomial([0.0, 0.0, 1.0]))
        assert m.model_dimension == 2

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            models.theta_model(UCF.polynomial([1.0]))

    def test_non_inner_rejected(self):
        with pytest.raises(ValueError):
            models.theta_model(UCF.polynomial([0.0, 0.5]))

    def test_half_shift_space_matches_model(self):
        # b = (1+theta)/2 for theta = z is (1+z)/2; a = (1-z)/2
        m = models.theta_model(UCF.blaschke([0]))
        assert np.allclose(m.b.to_polynomial(), [0.5, 0.5])
        assert np.allclose(m.a.to_polynomial(), [0.5, -0.5])

    def test_verdicts(self):
        m = models.theta_model(UCF.blaschke([0, 0]))
        assert models.theta_cyclic(m, [2, 1]).verdict == cy.CYCLIC
        assert models.theta_cyclic(m, [1, -1]).verdict == cy.NOT_CYCLIC


class TestTriangulation:
    def test_theta_z_vs_classifier(self, space_half_shift):
        m = models.theta_model(UCF.blaschke([0]))
        fns = ([1.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [1.0, 0.0, -1.0])
        for f in fns:
            assert models.theta_cyclic(m, f).verdict == \
                cy.classify_finite_defect(space_half_shift, f).verdict

    def test_heuristic_consistent(self, space_half_shift):
        m = models.theta_model(UCF.blaschke([0]))
        for f in ([1.0, 1.0], [1.0, -1.0]):
            verdict = models.theta_cyclic(m, f).verdict
            est = cy.estimate_from_decay(
                cy.decay_table(space_half_shift, f, 32)).verdict
            if verdict == cy.CYCLIC:
                assert est != cy.LIKELY_NOT_CYCLIC
            else:
                assert est != cy.LIKELY_CYCLIC

    def test_poltoratski_in_model(self, space_half_shift):
        val = clark.poltoratski_limit(space_half_shift, 1.0, [0.5, 0.25],
                                      1.0)
        assert abs(val - 0.75) < 1e-12


class TestUniversal:
    def test_outer_b_is_cyclic(self, space_half_shift):
        rep = models.universal_cyclicity(space_half_shift, n_kernels=2,
                                         decay_n=40)
        assert rep.verdict == cy.CYCLIC
        kern = [e for e in rep.evidence if e.rule == "kernel_cyclicity"][0]
        assert all(v == cy.LIKELY_CYCLIC for _l, v in
                   kern.numbers["verdicts"])

    def test_inner_factor_blocks_b(self, space_shifted_half,
                                   space_small_shift):
        assert models.universal_cyclicity(space_shifted_half, n_kernels=1,
                                          decay_n=40).verdict == \
            cy.NOT_CYCLIC
        assert models.universal_cyclicity(space_small_shift, n_kernels=1,
                                          decay_n=40).verdict == \
            cy.NOT_CYCLIC
