import numpy as np
import pytest

from hblab import config, cyclicity, hb, poly, sigma
from hblab.boundary import UnitCircleFunction as UCF
from hblab.errors import DomainError, MembershipError


@pytest.fixture(scope="module")
def phi_one_minus_z():
    return UCF.polynomial([1 / np.sqrt(2), -1 / np.sqrt(2)])


@pytest.fixture(scope="module")
def phi_cayley():
    return UCF.rational([np.sqrt(3)], [2.0, 1.0])


class TestPhiAlpha:
    def test_shifted_half(self, space_shifted_half):
        fn = sigma.phi_alpha(space_shifted_half, 1.0)
        zs = 0.9 * config.unit_circle_points(16)
        assert np.max(np.abs(fn(zs) - 1.0 / (2.0 + zs))) < 1e-10
        assert not fn.boundary_singular

    def test_small_shift(self, space_small_shift):
        fn = sigma.phi_alpha(space_small_shift, 1.0)
        zs = 0.9 * config.unit_circle_points(16)
        want = (np.sqrt(3) / 2) / (1 - zs / 2)
        assert np.max(np.abs(fn(zs) - want)) < 1e-12

    def test_half_shift_collapses_to_one(self, space_half_shift):
        fn = sigma.phi_alpha(space_half_shift, 1.0)
        assert poly.degree(fn.num) == 0 and poly.degree(fn.den) == 0
        assert abs(complex(fn(0.3)) - 1.0) < 1e-10


class TestSigmaBounds:
    def test_upper_no_circle_zeros(self):
        assert sigma.sigma_upper(UCF.rational([1.0], [2.0, 1.0])) == []

    def test_upper_single(self, phi_one_minus_z):
        up = sigma.sigma_upper(phi_one_minus_z)
        assert len(up) == 1 and abs(up[0] - 1) < 1e-10

    def test_upper_pair(self):
        up = sigma.sigma_upper(UCF.polynomial([0.5, 0.0, -0.5]))
        assert len(up) == 2

    def test_upper_requires_outer(self):
        with pytest.raises(ValueError):
            sigma.sigma_upper(UCF.polynomial([0.0, 1.0]))

    def test_lower_found_by_sweep(self, space_from_one_minus_z):
        bounds = sigma.sigma_bounds(space_from_one_minus_z)
        assert len(bounds.lower) == 1 and abs(bounds.lower[0] - 1) < 1e-8
        assert bounds.consistent()
        assert bounds.base_measure_absolutely_continuous

    def test_lower_empty_small_shift(self, space_small_shift):
        bounds = sigma.sigma_bounds(space_small_shift)
        assert bounds.lower == [] and bounds.upper == []

    def test_degenerate_constant_phi(self):
        # phi = 1 corresponds to sigma upper empty
        assert sigma.sigma_upper(UCF.polynomial([1.0])) == []

    def test_power_shifts(self):
        # z^k(1+z)/2: the one atom, at 1, has mass 1/|b'(1)| = 2/(2k+1)
        for k in range(2, 7):
            sp = hb.make_space(UCF.polynomial([0.0] * k + [0.5, 0.5]))
            bounds = sigma.sigma_bounds(sp)
            assert len(bounds.lower) == 1, k
            assert abs(bounds.lower[0] - 1) < 1e-12, k
            (prov,) = bounds.provenance.values()
            assert abs(prov["mass"] - 2 / (2 * k + 1)) < 1e-12, k
            assert cyclicity.assess(sp, [1.0, -1.0]).verdict == \
                cyclicity.NOT_CYCLIC, k
            assert cyclicity.assess(sp, [3.0, 1.0]).verdict == \
                cyclicity.CYCLIC, k

    def test_power_shift_atom_reads_angle_zero(self):
        # the atom at 1 of z^k(1+z)/2 comes out of the root solve with an
        # imaginary part of either sign; it reads angle 0 for every k
        for k in range(2, 7):
            b = UCF.polynomial([0.0] * k + [0.5, 0.5])
            bounds = sigma.sigma_bounds(hb.make_space(b))
            assert [config.circle_angle(z) for z in bounds.lower] == [0.0]
            assert list(bounds.provenance) == [0.0], k

    def test_circle_angle(self):
        assert config.circle_angle(1 - 1e-32j) == 0.0
        assert config.circle_angle(1 + 1.2e-31j) == 0.0
        assert config.circle_angle(np.exp(-1e-10j)) == 0.0
        assert config.circle_angle(-1) == np.pi
        assert config.circle_angle(-1j) == 1.5 * np.pi
        assert config.circle_angle(np.exp(-1e-6j)) == \
            pytest.approx(2 * np.pi - 1e-6, abs=1e-15)

    def test_unnormalized_space_flagged(self, space_shifted_half):
        bounds = sigma.sigma_lower(space_shifted_half)
        assert not bounds.base_measure_absolutely_continuous


class TestToeplitzSections:
    def test_shift_symbol(self, phi_one_minus_z):
        num, den = sigma.unimodular_symbol(phi_one_minus_z)
        # conj(phi)/phi = -1/z on the circle
        pts = config.unit_circle_points(64)
        vals = poly.horner(num, pts) / poly.horner(den, pts)
        assert np.max(np.abs(vals + np.conj(pts))) < 1e-10

    def test_single_kernel_dimension(self, phi_one_minus_z):
        rep = sigma.toeplitz_kernel_sections(phi_one_minus_z, 64)
        assert rep.sizes == [64, 128, 256]
        assert all(rep.near_kernel_counts[m] == 1 for m in rep.sizes)
        assert rep.stable and rep.estimated_kernel_dim == 1

    def test_exposed_symbol(self, phi_cayley):
        rep = sigma.toeplitz_kernel_sections(phi_cayley, 64)
        assert all(rep.near_kernel_counts[m] == 0 for m in rep.sizes)
        assert min(rep.smallest.values()) > 0.2
        assert rep.estimated_kernel_dim == 0

    def test_identity_symbol(self):
        rep = sigma.toeplitz_kernel_sections(UCF.polynomial([1.0]), 64)
        assert all(rep.near_kernel_counts[m] == 0 for m in rep.sizes)
        assert all(abs(s - 1) < 1e-12 for s in rep.smallest.values())

    def test_interior_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma.toeplitz_kernel_sections(UCF.polynomial([0.0, 1.0]), 64)

    def test_size_validation(self, phi_one_minus_z):
        with pytest.raises(ValueError):
            sigma.toeplitz_kernel_sections(phi_one_minus_z, 63)

    def test_section_cap(self, phi_one_minus_z):
        # refusals come before any section is allocated
        for n, doublings in ((4096, 0), (1024, 2), (4, 10), (1, 10 ** 18),
                             (64, -1)):
            with pytest.raises(ValueError, match=r"2\*\*doublings <= 2048"):
                sigma.toeplitz_kernel_sections(phi_one_minus_z, n,
                                               doublings=doublings)

    def test_csv_rows(self, phi_one_minus_z):
        rep = sigma.toeplitz_kernel_sections(phi_one_minus_z, 64,
                                             doublings=1)
        rows = rep.csv_rows()
        assert len(rows) == 64 + 128
        assert rows[0][0] == 64


class TestPseudocontinuation:
    def test_interior_matches_rational(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        got = sigma.pseudocontinuation_eval(phi_one_minus_z, k1, -0.9)
        assert abs(got - 1 / 1.9) < 1e-10

    def test_exterior_matches_rational(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        z = -1 / 0.9
        got = sigma.pseudocontinuation_eval(phi_one_minus_z, k1, z)
        assert abs(got - 1 / (1 - z)) < 1e-10

    def test_forty_random_points(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        rng = np.random.default_rng(79)
        for _ in range(40):
            r = rng.uniform(0.2, 0.95)
            if rng.uniform() < 0.5:
                r = 1 / r
            z = r * np.exp(2j * np.pi * rng.uniform())
            if abs(z - 1) < 0.3:
                continue  # stay away from the genuine singularity
            got = sigma.pseudocontinuation_eval(phi_one_minus_z, k1, z)
            assert abs(got - 1 / (1 - z)) < 1e-6

    def test_two_sided_agreement_near_circle(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        r = 1 - 2.0 ** -10
        zeta = -1.0
        vi = sigma.pseudocontinuation_eval(phi_one_minus_z, k1, r * zeta)
        ve = sigma.pseudocontinuation_eval(phi_one_minus_z, k1, zeta / r)
        assert abs(vi - ve) < 1e-3

    def test_membership_rejects_non_witness(self, phi_cayley):
        with pytest.raises(MembershipError):
            sigma.pseudocontinuation_eval(phi_cayley, UCF.polynomial([1.0]),
                                          0.5)

    def test_circle_point_rejected(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        with pytest.raises(DomainError):
            sigma.pseudocontinuation_eval(phi_one_minus_z, k1, 1j)

    def test_membership_residuals_of_witness(self, phi_one_minus_z):
        k1 = UCF.rational([1.0], [1.0, -1.0], boundary_singular=True)
        r_minus, r_plus = sigma.jphi_membership_residuals(phi_one_minus_z, k1)
        assert r_minus < 1e-12 and r_plus < 1e-12
