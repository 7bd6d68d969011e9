import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

# ---------------------------------------------------------------------------
# QC against a reference on (re, im) Fraction pairs

def _ref(x):
    """An int, Fraction, float, complex or QC as a (re, im) Fraction pair."""
    if isinstance(x, QC):
        return Fraction(x.a, x.d), Fraction(x.b, x.d)
    if isinstance(x, complex):
        return Fraction(x.real), Fraction(x.imag)
    return Fraction(x), Fraction(0)


def _ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


_OPS = [(operator.add, _ref_add), (operator.sub, _ref_sub),
        (operator.mul, _ref_mul), (operator.truediv, _ref_div)]


def _assert_canonical(z, want):
    assert type(z) is QC and (z.re, z.im) == want
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1


def _complex_hash(re, im):
    """hash(complex(re, im)) computed from the parts' hashes, in the
    platform's hash width."""
    half = 1 << (sys.hash_info.width - 1)
    h = (hash(re) + sys.hash_info.imag * hash(im) + half) % (2 * half) - half
    return -2 if h == -1 else h


_fractions = st.one_of(st.integers(-10**30, 10**30),
                       st.fractions(max_denominator=10**12))
_qcs = st.builds(QC, _fractions, _fractions)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_others = st.one_of(st.integers(-10**20, 10**20), st.fractions(),
                    _floats, st.complex_numbers(allow_nan=False,
                                                allow_infinity=False))
# float parts for from_complex: ties at m = 1, signed zeros, subnormals,
# powers of two far from 1 and integers up to 2^53
_parts = st.one_of(
    _floats, st.integers(-2 ** 53, 2 ** 53).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 5e-324, -2.5e-310, 2.0 ** 60,
                     -2.0 ** 60, 2.0 ** -60, 1 / 3, -math.pi]))
_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


class TestQCProperties:
    @_PROPERTY
    @given(_qcs, _qcs)
    def test_binary_ops_match_reference(self, x, y):
        for op, ref in _OPS:
            try:
                want = ref(_ref(x), _ref(y))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            _assert_canonical(op(x, y), want)

    @_PROPERTY
    @given(_qcs, _others)
    def test_mixed_operands_on_both_sides(self, x, y):
        for op, ref in _OPS:
            for left, right in ((x, y), (y, x)):
                try:
                    want = ref(_ref(left), _ref(right))
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                    continue
                _assert_canonical(op(left, right), want)

    @_PROPERTY
    @given(_fractions, _fractions)
    def test_unary_ops_and_constructor(self, re, im):
        x = QC(re, im)
        _assert_canonical(x, (re, im))
        _assert_canonical(-x, (-re, -im))
        _assert_canonical(x.conj(), (re, -im))
        assert x.abs2() == re * re + im * im
        assert type(x.abs2()) is Fraction
        assert x.is_zero() == (re == 0 and im == 0)

    @_PROPERTY
    @given(_others)
    def test_division_by_zero(self, y):
        x = exact.qpoly([y])[0]
        with pytest.raises(ZeroDivisionError):
            y / QC(0)
        for zero in (QC(0), 0, Fraction(0), 0.0, 0j):
            with pytest.raises(ZeroDivisionError):
                x / zero

    @_PROPERTY
    @given(_others)
    def test_hash_agrees_with_equal_numbers(self, y):
        x = exact.qpoly([y])[0]
        assert x == y and y == x and hash(x) == hash(y)
        assert len({x, y}) == 1

    @_PROPERTY
    @given(_fractions, _fractions)
    def test_hash_formula(self, re, im):
        x = QC(re, im)
        assert hash(x) == _complex_hash(re, im)
        if im == 0:
            assert hash(x) == hash(Fraction(re))

    @_PROPERTY
    @given(_parts, _parts, st.sampled_from([1, 7, 10**9, 10**12]))
    def test_from_complex_matches_limit_denominator(self, x, y, m):
        got = QC.from_complex(complex(x, y), m)
        want = QC(Fraction(x).limit_denominator(m),
                  Fraction(y).limit_denominator(m))
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
        _assert_canonical(got, (want.re, want.im))

    def test_from_complex_refusals(self):
        with pytest.raises(ValueError, match="max_denominator"):
            QC.from_complex(0.5 + 0.25j, 0)
        with pytest.raises(OverflowError):
            QC.from_complex(complex(0.5, math.inf))
        with pytest.raises(ValueError):
            QC.from_complex(complex(math.nan, 0.5))

    def test_hash_examples(self):
        assert len({QC(1), 1}) == 1 and hash(QC(1)) == hash(1)
        assert hash(QC(Fraction(1, 2))) == hash(0.5)
        assert hash(QC(0.5, -0.25)) == hash(0.5 - 0.25j)
        assert hash(QC(-1)) == hash(-1) == -2


def _ref_schur(m):
    """The corners c - r_k* G_k^-1 r_k of the full Hermitian matrix m, by
    Gaussian elimination on (re, im) Fraction pairs."""
    m = [row[:] for row in m]
    n, out = len(m), []
    for k in range(n - 1):
        for i in range(k + 1, n):
            f = _ref_div(m[i][k], m[k][k])
            for j in range(k + 1, n):
                m[i][j] = _ref_sub(m[i][j], _ref_mul(f, m[k][j]))
        assert m[n - 1][n - 1][1] == 0
        out.append(m[n - 1][n - 1][0])
    return out


class TestBorderedSchur:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.lists(
        st.tuples(st.fractions(-3, 3, max_denominator=12),
                  st.fractions(-3, 3, max_denominator=12)),
        min_size=n * n, max_size=n * n)))
    def test_mixed_denominators_match_elimination(self, entries):
        # M = B B* + I is Hermitian positive definite, with entries over
        # many different denominators
        n = math.isqrt(len(entries))
        B = [entries[i * n:(i + 1) * n] for i in range(n)]
        conj = [[(re, -im) for re, im in row] for row in B]
        M = []
        for i in range(n):
            M.append([])
            for j in range(n):
                acc = (Fraction(int(i == j)), Fraction(0))
                for k in range(n):
                    acc = _ref_add(acc, _ref_mul(B[i][k], conj[j][k]))
                M[i].append(acc)
        m = [[None] * i + [QC(*M[i][j]) for j in range(i, n)]
             for i in range(n)]
        assert exact.bordered_schur(m) == _ref_schur(M)


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
