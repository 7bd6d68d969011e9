from fractions import Fraction

import pytest

from hblab import exact
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


class TestPolynomials:
    def test_mul_eval(self):
        p = exact.qpoly([1, 1])
        q = exact.qmul(p, p)
        assert q == exact.qpoly([1, 2, 1])
        assert exact.qeval(q, QC(2)) == QC(9)

    def test_inner_and_norm(self):
        p = exact.qpoly([1, QC(0, 1)])
        assert exact.ql2sq(p) == 2
        assert exact.qinner(p, p) == QC(2)

    def test_modulus_sq_coeffs(self):
        # |1 + z/2|^2 has Laurent coefficients (1/2, 5/4, 1/2)
        p = exact.qpoly([1, Fraction(1, 2)])
        c = exact.modulus_sq_coeffs(p)
        assert c == exact.qpoly([Fraction(1, 2), Fraction(5, 4),
                                 Fraction(1, 2)])


class TestMateSolve:
    def test_half_shift_mate_of_one(self):
        p = exact.qpoly([Fraction(1, 2), Fraction(1, 2)])
        A = exact.qpoly([Fraction(1, 2), Fraction(-1, 2)])
        g = exact.mate_solve(p, A, exact.qpoly([1]))
        assert g == exact.qpoly([-1])
        assert exact.mate_residual(p, A, exact.qpoly([1]), g) == []

    def test_prebuilt_projection(self):
        # p = None: f is P_+(conj(p) f), built once by the caller
        p = exact.qpoly([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
        A = exact.qpoly([Fraction(3, 4), Fraction(-1, 4)])
        f = exact.qpoly([1, Fraction(-2, 3), 0, Fraction(1, 5)])
        rhs = exact.analytic_part_of_conj_product(p, f)
        g = exact.mate_solve(None, A, rhs)
        assert g == exact.mate_solve(p, A, f)
        assert exact.mate_residual(None, A, rhs, g) == []
        assert exact.mate_residual(None, A, rhs, g[1:]) != []

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
