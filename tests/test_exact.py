from fractions import Fraction

import numpy as np
import pytest

from hblab import exact, factor, hb, poly
from hblab.exact import QC


class TestQC:
    def test_arithmetic(self):
        a = QC(Fraction(1, 2), Fraction(1, 3))
        b = QC(2, -1)
        assert (a + b) == QC(Fraction(5, 2), Fraction(-2, 3))
        assert (a * b).re == Fraction(4, 3)
        assert (a / a) == QC(1)
        assert (-a) + a == QC(0)

    def test_conj_abs2(self):
        a = QC(3, 4)
        assert a.conj() == QC(3, -4)
        assert a.abs2() == 25

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QC(1) / QC(0)

    def test_from_complex(self):
        a = QC.from_complex(0.5 - 0.25j)
        assert a == QC(Fraction(1, 2), Fraction(-1, 4))

    def test_frac_sqrt(self):
        assert exact.frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert exact.frac_sqrt(Fraction(3, 4)) is None
        assert exact.frac_sqrt(Fraction(-1)) is None

    def test_scalar_broadcasts_over_object_array(self):
        # QC's operators defer to numpy for operands that are not numbers,
        # so a QC works on either side of an object array
        arr = _obj([QC(1, 2), Fraction(1, 3)])
        for got, want in ((QC(2) * arr, arr * QC(2)),
                          (QC(2) + arr, arr + QC(2)),
                          (QC(2) - arr, -(arr - QC(2))),
                          (QC(2) / arr, 1 / (arr / QC(2)))):
            assert got.dtype == object and list(got) == list(want)
        assert list(Fraction(1, 2) * arr) == list(arr * QC(Fraction(1, 2)))


class TestPolynomials:
    """Exact polynomials are object arrays through the float helpers."""

    def test_mul_eval(self):
        p = exact.qpoly([1, 1])
        q = poly.pmul(p, p)
        assert list(q) == exact.qpoly([1, 2, 1])
        assert poly.synthetic_div(q, QC(2))[1] == QC(9)

    def test_inner_and_norm(self):
        p = exact.qpoly([1, QC(0, 1)])
        assert poly.hardy_inner(p, p).re == 2
        assert poly.hardy_inner(p, p) == QC(2)

    def test_modulus_sq_coeffs(self):
        # |1 + z/2|^2 has Laurent coefficients (1/2, 5/4, 1/2)
        p = exact.qpoly([1, Fraction(1, 2)])
        c = factor.modulus_sq_laurent(p)
        assert list(c) == exact.qpoly([Fraction(1, 2), Fraction(5, 4),
                                       Fraction(1, 2)])


def _obj(coeffs):
    return np.array(exact.qpoly(coeffs), dtype=object)


def _is_zero(arr):
    return all(c.is_zero() for c in arr)


def reference_back_substitution(A, rhs):
    """g with P_+(conj(A) g) = rhs, from the top coefficient down."""
    g = [0] * len(rhs)
    for m in range(len(rhs) - 1, -1, -1):
        acc = rhs[m]
        for j in range(1, len(A)):
            if m + j < len(g):
                acc = acc - A[j].conjugate() * g[m + j]
        g[m] = acc / A[0].conjugate()
    return g


class TestMateSolve:
    """The float mate solve of hb, run on exact scalars."""

    def test_half_shift_mate_of_one(self):
        p = _obj([Fraction(1, 2), Fraction(1, 2)])
        A = _obj([Fraction(1, 2), Fraction(-1, 2)])
        g, resid = hb._solve_mate(p, A, _obj([1]))
        assert list(g) == exact.qpoly([-1])
        assert _is_zero(resid)

    def test_prebuilt_projection(self):
        # the projection P_+(conj(p) f) is the right-hand side of the
        # back substitution, built once by _solve_mate
        p = _obj([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
        A = _obj([Fraction(3, 4), Fraction(-1, 4)])
        f = _obj([1, Fraction(-2, 3), 0, Fraction(1, 5)])
        rhs = -hb._pplus_conj_product(p, f)
        g = hb._back_substitute(A, rhs)
        assert list(g) == list(hb._solve_mate(p, A, f)[0])
        assert _is_zero(hb._pplus_conj_product(A, g) - rhs)
        shifted = np.append(g[1:], exact.QZERO)
        assert not _is_zero(hb._pplus_conj_product(A, shifted) - rhs)

    def test_back_substitute_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            roots = [(r, 1) for r in (1.2 + 2 * rng.uniform(size=3)) *
                     np.exp(2j * np.pi * rng.uniform(size=3))]
            A = poly.from_roots(roots[:int(rng.integers(0, 4))],
                                lead=rng.normal() + 1j * rng.normal())
            size = int(rng.integers(1, 40))
            rhs = rng.normal(size=size) + 1j * rng.normal(size=size)
            g = hb._back_substitute(A, rhs)
            want = np.array(reference_back_substitution(A, rhs))
            # relative to the size of the terms each step sums
            scale = np.max(np.abs(want)) * np.sum(np.abs(A)) / abs(A[0])
            assert np.max(np.abs(g - want)) <= 1e-15 * scale
        for A, rhs in (([Fraction(1, 2), Fraction(-1, 2)], [1, 0, -3]),
                       ([QC(3, 1), QC(0, -1), Fraction(1, 7)],
                        [QC(1, 1), Fraction(2, 5), 0, QC(0, -4), 1])):
            A, rhs = _obj(A), _obj(rhs)
            assert list(hb._back_substitute(A, rhs)) == \
                reference_back_substitution(A, rhs)

    def test_pythagorean_residual(self):
        b = exact.qpoly([Fraction(1, 2), Fraction(1, 2)])
        A = exact.qpoly([Fraction(1, 2), Fraction(-1, 2)])
        assert exact.pythagorean_residual(b, [1], A, Fraction(1)) == []
        assert exact.pythagorean_residual(b, [1], A, Fraction(2)) != []

    def test_scaled_backend(self):
        # b = z/2: A = 1, s^2 = 3/4
        b = exact.qpoly([0, Fraction(1, 2)])
        A = exact.qpoly([1])
        assert exact.pythagorean_residual(b, [1], A, Fraction(3, 4)) == []
