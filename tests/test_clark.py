import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hblab import clark, config, cyclicity, factor, hb, models, poly, sigma
from hblab.boundary import UnitCircleFunction as UCF
from hblab.errors import DomainError

EQUISPACED_64 = np.exp(2j * np.pi * np.arange(64) / 64)


class TestClarkMeasure:
    def test_shifted_half_at_one(self, space_shifted_half):
        cm = clark.clark_measure(space_shifted_half, 1.0)
        assert len(cm.atoms) == 1
        zeta, mass = cm.atoms[0]
        assert abs(zeta - 1) < 1e-10
        assert abs(mass - 2 / 3) < 1e-8
        assert abs(cm.ac_mass - 1 / 3) < 1e-8
        assert abs(cm.total_mass - 1.0) < 1e-8
        # density |1/(2+z)|^2
        pts = config.unit_circle_points(64)
        want = 1.0 / np.abs(2 + pts) ** 2
        assert np.max(np.abs(cm.density_values(pts) - want)) < 1e-10

    def test_half_shift_at_one(self, space_half_shift):
        cm = clark.clark_measure(space_half_shift, 1.0)
        assert len(cm.atoms) == 1
        assert abs(cm.atoms[0][1] - 2.0) < 1e-8
        assert abs(cm.ac_mass - 1.0) < 1e-8
        assert abs(cm.total_mass - 3.0) < 1e-8
        pts = config.unit_circle_points(64)
        assert np.max(np.abs(cm.density_values(pts) - 1.0)) < 1e-10

    def test_small_shift_no_atoms(self, space_small_shift):
        cm = clark.clark_measure(space_small_shift, 1.0)
        assert cm.atoms == []
        assert abs(cm.total_mass - 1.0) < 1e-8
        assert cm.is_absolutely_continuous

    def test_no_atoms_at_random_alphas(self, space_small_shift):
        rng = np.random.default_rng(61)
        for _ in range(32):
            alpha = np.exp(2j * np.pi * rng.uniform())
            cm = clark.clark_measure(space_small_shift, alpha)
            assert cm.atoms == []

    def test_mass_conservation_random(self, all_test_spaces):
        rng = np.random.default_rng(67)
        alphas = np.exp(2j * np.pi * rng.uniform(size=16))
        for name, sp in all_test_spaces.items():
            for alpha in alphas:
                cm = clark.clark_measure(sp, alpha)
                rel = abs(cm.total_mass - cm.herglotz_mass) / \
                    max(1.0, abs(cm.herglotz_mass))
                assert rel < 1e-6, (name, alpha)

    def test_nonunimodular_alpha_rejected(self, space_small_shift):
        with pytest.raises(DomainError):
            clark.clark_measure(space_small_shift, 0.5)
        for alpha in (np.nan, complex(np.nan, 0), complex(1, np.nan),
                      np.inf, complex(np.inf, 1)):
            with pytest.raises(DomainError):
                clark.clark_measure(space_small_shift, alpha)

    def test_csv_rows(self, space_shifted_half):
        cm = clark.clark_measure(space_shifted_half, 1.0)
        rows = cm.csv_rows(density_samples=8)
        assert len(rows) == 9
        kinds = {r[1] for r in rows}
        assert kinds == {"ac", "atom"}


class TestAlphaSweep:
    def test_includes_detected_alphas(self, space_from_one_minus_z):
        alphas = clark.alpha_sweep_values(space_from_one_minus_z)
        # the circle zero of a at 1 maps to b(1) = -1, which the sweep
        # must include even if the equispaced grid missed it
        assert any(abs(a + 1) < 1e-8 for a in alphas)

    def test_atom_at_minus_one(self, space_from_one_minus_z):
        cm = clark.clark_measure(space_from_one_minus_z, -1.0)
        assert len(cm.atoms) == 1
        zeta, mass = cm.atoms[0]
        assert abs(zeta - 1) < 1e-8
        assert abs(mass - 0.5) < 1e-6


def _sweep_spaces(all_test_spaces):
    rng = np.random.default_rng(83)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    c *= 0.9 / np.max(np.abs(poly.horner(c, config.unit_circle_points(4096))))
    return dict(all_test_spaces,
                **{"(1+z^4)/2": hb.make_space(UCF.polynomial(
                    [0.5, 0, 0, 0, 0.5])),
                   "random degree 8": hb.make_space(UCF.polynomial(c),
                                                    use_exact=False)})


# the b strategy of TestClosedForm.test_ac_mass_matches_trapezoid, whose
# source is left as is: derandomized examples are seeded by a test's source
RANDOM_B = dict(
    num=st.lists(st.complex_numbers(max_magnitude=1), min_size=2,
                 max_size=6),
    poles=st.lists(st.tuples(st.floats(1.25, 3.0), st.floats(0, 2 * np.pi)),
                   max_size=3))


def _random_b(num, poles):
    """num over the drawn poles, scaled to sup |b| = 0.9 on 2^16 circle
    points."""
    num = np.array(num)
    assume(np.max(np.abs(num[1:])) > 1e-2)
    den = poly.from_roots([(r * np.exp(1j * t), 1) for r, t in poles])
    pts = config.unit_circle_points(1 << 16)
    scale = 0.9 / float(np.max(np.abs(poly.horner(num, pts) /
                                      poly.horner(den, pts))))
    return UCF.rational(scale * num, den) if poles else \
        UCF.polynomial(scale * num)


class TestSweep:
    """Every swept measure against values computed from b alone."""

    def test_measures_match_closed_forms(self, all_test_spaces):
        pts = config.unit_circle_points(512) * np.exp(0.37j * np.pi / 512)
        for name, sp in _sweep_spaces(all_test_spaces).items():
            p, q = sp.b.num, sp.b.den
            b0 = complex(sp.b(0.0))
            bvals = sp.b(pts)
            sweep = clark.clark_sweep(sp, clark.alpha_sweep_values(sp, 64))
            for alpha, cm in sweep:
                what = (name, complex(alpha))
                for (zeta, mass), err in zip(cm.atoms, cm.atom_errors):
                    # Julia-Caratheodory: the atom mass is 1/|b'(zeta)|
                    qz = poly.horner(q, zeta)
                    db = (poly.horner(poly.derivative(p), zeta) * qz -
                          poly.horner(p, zeta) *
                          poly.horner(poly.derivative(q), zeta)) / qz ** 2
                    assert abs(mass - 1 / abs(db)) <= max(err, 1e-12), what
                    # phi = a/(1 - conj(alpha) b) keeps no pole at the atom:
                    # |phi(zeta)|^2 = |a'(zeta)|^2 / |b'(zeta)|^2, where
                    # a(zeta) = 0 gives a'(zeta) = a.num'(zeta) / a.den(zeta)
                    av = poly.horner(poly.derivative(sp.a.num), zeta) / \
                        poly.horner(sp.a.den, zeta)
                    dens = cm.density_values(np.array([zeta]))[0]
                    assert abs(dens - abs(av / db) ** 2) <= \
                        1e-8 * max(1.0, dens), what
                assert not cm.density_root.boundary_singular, what
                far = np.array([min((abs(z - zeta) for zeta, _m in cm.atoms),
                                    default=1.0) > 1e-2 for z in pts])
                want = (1 - np.abs(bvals) ** 2) / np.abs(alpha - bvals) ** 2
                got = cm.density_values(pts)
                assert np.all(np.abs(got - want)[far] <=
                              1e-8 * np.maximum(1.0, want[far])), what
                h0 = ((1 + np.conj(alpha) * b0) /
                      (1 - np.conj(alpha) * b0)).real
                total = cm.ac_mass + sum(m for _z, m in cm.atoms)
                assert abs(total - h0) <= 1e-6 * max(1.0, h0), what

    def test_one_root_solve_per_measure(self, root_solves):
        for coeffs in ([0.0, 0.5, 0.5], [0.5, 0, 0, 0, 0.5],
                       [0.1, 0.2j, -0.3, 0.25, 0.1j]):
            sp = hb.make_space(UCF.polynomial(coeffs), use_exact=False)
            root_solves.clear()
            sweep = clark.clark_sweep(sp)
            assert len(root_solves) <= len(sweep) + 4, coeffs

    def test_default_sweep_matches_64(self, all_test_spaces,
                                      space_from_one_minus_z):
        # the default sweep (atom alphas plus 8 equispaced measures) finds
        # every lower point, provenance and witness of the 64-measure sweep
        rng = np.random.default_rng(89)
        spaces = dict(_sweep_spaces(all_test_spaces),
                      **{"(1+z^2)/2": hb.make_space(UCF.polynomial(
                          [0.5, 0, 0.5])), "phi=1-z": space_from_one_minus_z})
        for name, sp in spaces.items():
            wide = clark.alpha_sweep_values(sp, 64)
            assert len(clark.alpha_sweep_values(sp)) < len(wide), name
            got, want = sigma.sigma_bounds(sp), sigma.sigma_bounds(sp, wide)
            assert np.allclose(got.lower, want.lower, atol=1e-12), name
            assert got.provenance.keys() == want.provenance.keys(), name
            for key, prov in got.provenance.items():
                assert prov == pytest.approx(want.provenance[key],
                                             rel=1e-12), (name, key)
            cands = [poly.from_roots([(z, 1)]) for z in got.lower[:1]]
            cands += [[1.0, 0.5], rng.normal(size=3) + 3]
            for f in cands:
                nd = cyclicity.necessity_check(sp, f)
                nw = cyclicity.necessity_check(sp, f, wide)
                assert nd.passed == nw.passed, (name, f)
                assert nd.witness == pytest.approx(nw.witness) \
                    if nw.witness else nd.witness is None, (name, f)


def _count_builds(monkeypatch):
    calls = []
    build = clark.clark_measure

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(clark, "clark_measure", counted)
    return calls


class TestStoredSweep:
    """The default sweep is built once per space; explicit ones never kept."""

    def test_one_build_per_default_measure(self, monkeypatch):
        sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))
        calls = _count_builds(monkeypatch)
        sigma.sigma_bounds(sp)
        for f in ([1.0, 1.0], [1.0, -1.0], [2.0, 0.5j, 0.25], [0.0, 1.0]):
            cyclicity.assess(sp, f)
        cyclicity.necessity_check(sp, [3.0, 1.0])
        assert len(calls) == len(clark.alpha_sweep_values(sp))

    def test_explicit_alphas_built_in_full(self, monkeypatch):
        sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))
        wide = clark.alpha_sweep_values(sp, 64)
        assert len(wide) == 64
        n_default = len(clark.alpha_sweep_values(sp))
        calls = _count_builds(monkeypatch)
        sweeps = []
        for alphas, builds in ((wide, 64), (None, n_default), (wide, 64),
                               (None, 0)):
            calls.clear()
            sweeps.append(clark.clark_sweep(sp, alphas))
            assert len(calls) == builds, len(sweeps)
        assert [a for a, _cm in sweeps[1]] == \
            list(clark.alpha_sweep_values(sp))
        assert all(x is y for x, y in zip(sweeps[1], sweeps[3]))
        assert len(sweeps[1]) == len(sweeps[3])
        assert sweeps[0][5][1] is not sweeps[2][5][1]

    def test_failed_build_not_stored(self, monkeypatch):
        sp = hb.make_space(UCF.polynomial([0.0, 0.5, 0.5]))
        monkeypatch.setattr(config, "MASS_RTOL", 1e-30)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="mass conservation"):
                sigma.sigma_bounds(sp)
        monkeypatch.undo()
        assert sigma.sigma_bounds(sp) == sigma.sigma_bounds(
            hb.make_space(UCF.polynomial([0.0, 0.5, 0.5])))

    def test_caller_cannot_change_store(self):
        sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
        first = clark.clark_sweep(sp)
        want = list(first)
        first.reverse()
        first.append(first[0])
        first[1] = None
        again = clark.clark_sweep(sp)
        assert len(again) == len(want)
        assert all(x is y for x, y in zip(again, want))

    def test_measures_frozen(self, space_half_shift):
        (_a, cm), *_rest = clark.clark_sweep(space_half_shift)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cm.ac_mass = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cm.atoms = []

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(**RANDOM_B)
    def test_reused_space_matches_fresh(self, num, poles):
        b = _random_b(num, poles)
        reused = hb.make_space(b, use_exact=False)
        sigma.sigma_bounds(reused)
        cyclicity.necessity_check(reused, [1.0, 0.5])
        for f in ([1.0, 0.5], [1.0, -1.0j], [0.0, 1.0, 2.0]):
            fresh = hb.make_space(b, use_exact=False)
            assert sigma.sigma_bounds(reused) == sigma.sigma_bounds(fresh)
            got = cyclicity.necessity_check(reused, f)
            want = cyclicity.necessity_check(fresh, f)
            assert (got.passed, got.witness) == (want.passed, want.witness)
            assert got.report.to_dict() == want.report.to_dict()


def _carried_matches_fresh(sp):
    """The alpha = 1 density root carries roots of A, and sigma_upper and
    is_outer on them agree with a fresh solve of its numerator; returns
    the carried roots."""
    phi = clark.clark_sweep(sp)[0][1].density_root
    kept = phi.num_roots()
    assert all(any(r == s for s, _m in sp.a_roots()) for r, _m in kept)
    fresh = UCF.rational(phi.num, phi.den)
    assert factor.is_outer(phi) == factor.is_outer(fresh)
    got, want = sigma.sigma_upper(phi), sigma.sigma_upper(fresh)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
    return kept


class TestCarriedRoots:
    """Density roots read the space's roots of A instead of re-solving."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(**RANDOM_B)
    def test_match_fresh_solve(self, num, poles):
        _carried_matches_fresh(hb.make_space(_random_b(num, poles),
                                             use_exact=False))

    @pytest.mark.parametrize("coeffs, left", [
        ([0.5, 0.5], 0), ([0.0, 0.5, 0.5], 0), ([0.5, 0, 0, 0, 0.5], 0),
        ([0.5j, 0.5j], 1)])
    def test_cancelled_cases(self, coeffs, left):
        # in the first three b = 1 at every circle zero of a, so q - p
        # cancels them all; i(1+z)/2 keeps its zero at 1, the upper point
        sp = hb.make_space(UCF.polynomial(coeffs))
        assert len(_carried_matches_fresh(sp)) == left
        assert len(sigma.sigma_bounds(sp).upper) == left


def radial_atom_mass(h_fn, zeta: complex):
    """Reference atom mass at zeta of the measure whose Herglotz transform
    is h_fn: (1-r)/(1+r) Re h(r zeta) at r_k = 1 - 2^-k, k = 6..16,
    extrapolated by two Richardson levels, which remove the O(1-r) and
    O((1-r)^2) terms.  Returns (mass, gap between the last two
    extrapolants)."""
    radii = 1 - 0.5 ** np.arange(6, 17)
    g = np.array([(1 - r) / (1 + r) * np.real(h_fn(r * zeta))
                  for r in radii])
    t1 = 2 * g[1:] - g[:-1]
    t2 = (4 * t1[1:] - t1[:-1]) / 3
    return float(t2[-1]), float(abs(t2[-1] - t2[-2]))


class TestClosedForm:
    """Closed-form atom and ac masses against independent references."""

    def test_power_shifts_conserve_mass(self):
        # z^k(1+z)/2: q - conj(alpha) p has a root just outside the circle
        # near 1, which defeated grid quadrature of the density
        for k in range(2, 7):
            sp = hb.make_space(UCF.polynomial([0.0] * k + [0.5, 0.5]))
            for alpha, cm in clark.clark_sweep(sp, EQUISPACED_64):
                rel = abs(cm.total_mass - cm.herglotz_mass) / \
                    max(1.0, cm.herglotz_mass)
                assert rel < 1e-10, (k, alpha)
            (zeta, mass), = clark.clark_measure(sp, 1.0).atoms
            assert abs(zeta - 1) < 1e-12
            assert abs(mass - 2 / (2 * k + 1)) < 1e-12   # 1/|b'(1)|

    def test_atom_mass_cross_checked_radially(self, space_shifted_half):
        cm = clark.clark_measure(space_shifted_half, 1.0)
        (zeta, mass), = cm.atoms
        assert abs(mass - 2 / 3) < 1e-14 and cm.atom_errors[0] < 1e-13
        radial, err = radial_atom_mass(
            lambda z: clark.herglotz_value(space_shifted_half, 1.0, z), zeta)
        assert abs(radial - mass) < 1e-6 and err < 1e-6

    def test_theta_masses_closed_form(self):
        # theta = z^3 puts 1/3 at each cube root of 1; the Blaschke factor
        # (z - 1/2)/(1 - z/2) puts 1/|theta'(1)| = 0.25/0.75 at 1
        for theta, n, mass in ((UCF.polynomial([0, 0, 0, 1.0]), 3, 1 / 3),
                               (UCF.blaschke([0.5]), 1, 1 / 3)):
            model = models.theta_model(theta)
            assert len(model.atoms) == n
            assert all(abs(m - mass) <= 1e-12 for _z, m in model.atoms)

    def test_blaschke_keeps_small_terms(self):
        # the z^5 and z^6 terms of this denominator are below 1e-12 of its
        # largest coefficient, yet the denominator is only 5e-4 at 1
        zs = [1e-12, 0.9, 1e-12, 0.9, 0.9, 0.5]
        theta = UCF.blaschke(zs)
        assert abs(theta(1.0) - 1) <= 1e-12
        assert (theta.num_degree, theta.den_degree) == (6, 6)
        mass, = [m for z, m in models.theta_model(theta).atoms
                 if abs(z - 1) < 1e-9]
        want = 1 / sum((1 - abs(z) ** 2) / abs(1 - z) ** 2 for z in zs)
        assert abs(mass - want) <= 1e-10 * want
        assert UCF.blaschke([0, 0.5, 0]).den_degree == 1

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(zeros=st.lists(st.tuples(st.floats(0, 0.9),
                                    st.floats(0, 2 * np.pi)),
                          min_size=1, max_size=6))
    def test_theta_masses_match_radial_limits(self, zeros):
        # 1/|theta'| = 1/sum (1-|z_k|^2)/|zeta-z_k|^2 on the circle, and
        # the radial limits of the Herglotz transform (1+theta)/(1-theta),
        # theta evaluated as the product of its factors
        zs = [r * np.exp(1j * t) for r, t in zeros]
        model = models.theta_model(UCF.blaschke(zs))
        assert len(model.atoms) == len(zs)

        def herglotz(w):
            theta = np.prod([(w - z) / (1 - np.conj(z) * w) for z in zs])
            return (1 + theta) / (1 - theta)

        for zeta, mass in model.atoms:
            want = 1 / sum((1 - abs(z) ** 2) / abs(zeta - z) ** 2
                           for z in zs)
            assert abs(mass - want) <= 1e-9 * want
            radial, _err = radial_atom_mass(herglotz, zeta)
            assert abs(radial - mass) <= 1e-9 * mass

    def test_confluent_pole_gram(self):
        r = np.array([1.3 + 0.2j, -1.1 + 0.5j, 0.2 - 1.4j, 1.05j])
        k = np.array([1, 2, 3, 1])
        n = np.arange(3000)
        series = [(-1) ** kk * np.array([math.comb(int(j) + kk - 1, kk - 1)
                                         for j in n], dtype=float)
                  * rr ** (-(n + kk)) for rr, kk in zip(r, k)]
        want = np.array([[np.vdot(sj, si) for sj in series]
                         for si in series])
        got = clark._pole_gram(r, k)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_repeated_poles_match_trapezoid(self):
        roots = [(1.5, 2), (-2.0 + 1j, 1), (0.3 - 1.2j, 3)]
        den = poly.from_roots(roots, lead=0.7)
        pts = config.unit_circle_points(1 << 16)
        for num in ([1.0, -0.5j, 0.25], [0.2, 1, 0, 0, 0, 0, 0, 0, 0.3j]):
            got = clark._h2_norm_sq(poly.aspoly(num), den, roots)
            want = float(np.mean(np.abs(poly.horner(num, pts) /
                                        poly.horner(den, pts)) ** 2))
            assert abs(got - want) < 1e-10 * want, num

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(num=st.lists(st.complex_numbers(max_magnitude=1), min_size=2,
                        max_size=6),
           poles=st.lists(st.tuples(st.floats(1.25, 3.0),
                                    st.floats(0, 2 * np.pi)), max_size=3),
           angle=st.floats(0, 2 * np.pi))
    def test_ac_mass_matches_trapezoid(self, num, poles, angle):
        num = np.array(num)
        assume(np.max(np.abs(num[1:])) > 1e-2)
        den = poly.from_roots([(r * np.exp(1j * t), 1) for r, t in poles])
        pts = config.unit_circle_points(1 << 16)
        bvals = poly.horner(num, pts) / poly.horner(den, pts)
        scale = 0.9 / float(np.max(np.abs(bvals)))
        b = UCF.rational(scale * num, den) if poles else \
            UCF.polynomial(scale * num)
        alpha = np.exp(1j * angle)
        cm = clark.clark_measure(hb.make_space(b, use_exact=False), alpha)
        assert cm.atoms == []
        bvals = scale * bvals
        want = float(np.mean((1 - np.abs(bvals) ** 2) /
                             np.abs(alpha - bvals) ** 2))
        assert abs(cm.ac_mass - want) <= 1e-10 * want


class TestNormalizedCauchy:
    def test_constant_maps_to_one(self, all_test_spaces):
        zs = 0.7 * config.unit_circle_points(16)
        for sp in all_test_spaces.values():
            transform = clark.normalized_cauchy(sp, 1.0, [1.0])
            assert np.max(np.abs(transform(zs) - 1.0)) < 1e-10

    def test_kernel_identity(self, space_small_shift, space_shifted_half):
        rng = np.random.default_rng(71)
        zs = 0.9 * config.unit_circle_points(64)
        for sp in (space_small_shift, space_shifted_half):
            for _ in range(5):
                lam = 0.7 * np.sqrt(rng.uniform()) * np.exp(
                    2j * np.pi * rng.uniform())
                alpha = np.exp(2j * np.pi * rng.uniform())
                klam = UCF.rational([1.0], [1.0, -np.conj(lam)])
                transform = clark.normalized_cauchy(sp, alpha, klam)
                pref = 1 - alpha * np.conj(complex(sp.b(lam)))
                lhs = pref * transform(zs)
                rhs = hb.kernel(sp, lam)(zs)
                assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_unitarity_gram(self, space_small_shift, space_shifted_half):
        for sp in (space_small_shift, space_shifted_half):
            cm = clark.clark_measure(sp, 1.0)
            els = []
            for k in range(7):
                image = clark.normalized_cauchy_rational(
                    sp, 1.0, [0.0] * k + [1.0], measure=cm)
                els.append(hb.element_from_rational(sp, image))
            pts = config.unit_circle_points(config.QUADRATURE_POINTS)
            dens = cm.density_values(pts)
            for j in range(7):
                for k in range(7):
                    got = hb.inner_product(sp, els[j], els[k])
                    want = complex(np.mean(pts ** j * np.conj(pts) ** k *
                                           dens))
                    for zeta, mass in cm.atoms:
                        want += mass * zeta ** j * np.conj(zeta) ** k
                    assert abs(got - want) < 1e-6

    def test_kernel_norm_by_quadrature(self, space_small_shift):
        # third route for ||k_lam||^2: the L^2(mu_alpha) norm of the
        # preimage (1 - alpha conj(b(lam))) k_lam
        sp = space_small_shift
        lam = 0.37 + 0.21j
        cm = clark.clark_measure(sp, 1.0)
        pts = config.unit_circle_points(config.QUADRATURE_POINTS)
        dens = cm.density_values(pts)
        pref = 1 - 1.0 * np.conj(complex(sp.b(lam)))
        vals = pref / (1 - np.conj(lam) * pts)
        quad = float(np.mean(np.abs(vals) ** 2 * dens))
        want = (1 - abs(complex(sp.b(lam))) ** 2) / (1 - abs(lam) ** 2)
        assert abs(quad - want) < 1e-8 * want

    def test_symbolic_matches_quadrature(self, space_small_shift):
        rng = np.random.default_rng(73)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        fn = clark.normalized_cauchy_rational(space_small_shift, 1.0, g)
        transform = clark.normalized_cauchy(space_small_shift, 1.0, g)
        zs = 0.85 * config.unit_circle_points(32)
        assert np.max(np.abs(fn(zs) - transform(zs))) < 1e-8


class TestPoltoratski:
    def test_constant(self, space_shifted_half):
        val = clark.poltoratski_limit(space_shifted_half, 1.0, [1.0], 1.0)
        assert abs(val - 1.0) < 1e-12

    def test_monomial(self, space_shifted_half):
        val = clark.poltoratski_limit(space_shifted_half, 1.0, [0.0, 1.0],
                                      1.0)
        assert abs(val - 1.0) < 1e-12

    def test_square(self, space_half_shift):
        val = clark.poltoratski_limit(space_half_shift, 1.0,
                                      [0.0, 0.0, 1.0], 1.0)
        assert abs(val - 1.0) < 1e-12

    def test_non_atom_rejected(self, space_half_shift):
        with pytest.raises(DomainError):
            clark.poltoratski_limit(space_half_shift, 1.0, [1.0], -1.0)
