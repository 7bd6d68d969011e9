import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hblab import cyclicity as cy, exact, factor, hb, models, poly
from hblab.boundary import UnitCircleFunction as UCF
from hblab.errors import NormalizationError
from hblab.exact import QC


def qpoly(coeffs) -> list:
    """Numbers as a list of QC."""
    return [exact._coerce(c) for c in coeffs]


def gaussian_ints(*polys) -> list:
    """Lists of QC as (re, im) integer lists over their lcm denominator d:
    the pairs, then d."""
    d = math.lcm(*(c.d for p in polys for c in p))
    return [([c.a * (d // c.d) for c in p], [c.b * (d // c.d) for c in p])
            for p in polys] + [d]


def gaussian_poly(coeffs) -> tuple:
    """A list of QC as (re, im, d) over its lcm denominator d."""
    (re, im), d = gaussian_ints(coeffs)
    return re, im, d


def qc_inner(p, q):
    """sum_k p_k conj(q_k) of two sequences of QC, as a QC."""
    n = min(len(p), len(q))
    return np.dot(np.array(p[:n], dtype=object),
                  np.conj(np.array(q[:n], dtype=object))) if n else QC(0)


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
        x = qpoly([y])[0]
        with pytest.raises(ZeroDivisionError):
            y / QC(0)
        for zero in (QC(0), 0, Fraction(0), 0.0, 0j):
            with pytest.raises(ZeroDivisionError):
                x / zero

    @_PROPERTY
    @given(_others)
    def test_hash_agrees_with_equal_numbers(self, y):
        x = qpoly([y])[0]
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


def bordered_schur(m) -> list:
    """Schur complements c - r_k* G_k^-1 r_k, k = 1..n, of a Hermitian
    [[G, r], [r*, c]] given as QC on and above its diagonal, G positive
    definite and G_k its leading k x k block, by exact._bareiss of the
    matrix times the lcm D of its denominators: the reference that exact
    decay tables are checked against."""
    *rows, scale = gaussian_ints(*(row[j:] for j, row in enumerate(m)))
    re, im = ([[0] * j + r[t] for j, r in enumerate(rows)] for t in (0, 1))
    return exact._bareiss(re, im, 1, scale)


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
        assert bordered_schur(m) == _ref_schur(M)


def _obj(coeffs):
    return np.array(qpoly(coeffs), dtype=object)


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


def _gp(coeffs):
    """Coefficients as a Gaussian-integer polynomial (re, im, d)."""
    return gaussian_poly(qpoly(coeffs))


def qc_rationalize(coeffs, max_den=10**9):
    """Float coefficients as a list of QC, QC.from_complex of each,
    without trailing zeros (zero is [0]): the route hb.rationalize
    replaced, kept as its reference."""
    out = [QC.from_complex(c, max_den) for c in poly.finite(coeffs).tolist()]
    return exact.qtrim(out) or [exact.QZERO]


def qc_matches(fe, f, tol=1e-12) -> bool:
    """Whether the QC list fe is within tol max(1, max|f|) of the float
    coefficients f: the reference of hb.rationalize's error and bound."""
    vals = np.array([c.to_complex() for c in fe] + [0] * (len(f) - len(fe)))
    if vals.size < f.size:
        return False
    return bool(np.max(np.abs(vals[:f.size] - f)) <= tol *
                max(1.0, float(np.max(np.abs(f)))))


def _near_ties(max_den):
    """Floats nearest to, and one ulp either side of, the midpoints of
    Farey neighbours of order max_den: limit_denominator's closest calls."""
    out = []
    for a, b, c, d in ((0, 1, 1, max_den), (1, 3, max_den // 3,
                       3 * (max_den // 3) + 1), (1, 2, max_den // 2 - 1,
                       max_den - 1)):
        x = (Fraction(a, b) + Fraction(c, d)) / 2
        out += [math.nextafter(float(x), -math.inf), float(x),
                math.nextafter(float(x), math.inf)]
    return out


# coefficient parts across the exponent range, below the overflow of |z|,
# with the signed zeros, subnormals and near-ties of _parts and _near_ties
_rational_parts = st.one_of(
    _parts.filter(lambda x: abs(x) < 2.0 ** 1000),
    st.sampled_from(_near_ties(10**9) + [-x for x in _near_ties(10**9)]))
# trailing coefficients that rationalize to 0 at max_den 10^9 (or not)
_tails = st.lists(st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310,
                                             4e-10, 6e-10, 1e-300]),
                            st.sampled_from([0.0, -0.0, 5e-324, 1e-300])),
                  max_size=3)


class TestGaussianGcd:
    @_PROPERTY
    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_common_factor(self, a, b, c, e, s, t):
        # gcd((s + ti) x, (s + ti) y) is (s + ti) gcd(x, y) up to a unit,
        # and it divides both
        x, y = (a + b * 1j) * (s + t * 1j), (c + e * 1j) * (s + t * 1j)
        gr, gi = exact.gaussian_gcd(int(x.real), int(x.imag),
                                    int(y.real), int(y.imag))
        hr, hi = exact.gaussian_gcd(a, b, c, e)
        assert gr * gr + gi * gi == (hr * hr + hi * hi) * (s * s + t * t)
        n = gr * gr + gi * gi
        for z in (x, y):
            zr, zi = int(z.real), int(z.imag)
            assert n == 0 and zr == zi == 0 or \
                (zr * gr + zi * gi) % n == (zi * gr - zr * gi) % n == 0

    def test_examples(self):
        for args, norm in (((2, 0, 1, 1), 2), ((5, 0, 2, 1), 5),
                           ((0, 0, 3, 4), 25), ((3, 4, 0, 0), 25),
                           ((4, 0, 6, 0), 4), ((7, 0, 3, 0), 1)):
            gr, gi = exact.gaussian_gcd(*args)
            assert gr * gr + gi * gi == norm, args


class TestRationalize:
    @_PROPERTY
    @given(st.lists(st.tuples(_rational_parts, _rational_parts), min_size=1,
                    max_size=5), _tails, st.sampled_from([1, 7, 10**9]))
    def test_matches_qc_route(self, head, tail, m):
        f = np.array([complex(x, y) for x, y in head + tail])
        ints, error, bound = hb.rationalize(f, m)
        ref = qc_rationalize(f, m)
        assert ints == gaussian_poly(ref)
        assert (error <= bound) == qc_matches(ref, f)
        assert bound == 1e-12 * max(1.0, float(np.max(np.abs(f))))

    def test_examples(self):
        assert hb.rationalize([0.5, 1 / 3, 0]) == (([3, 2], [0, 0], 6),
                                                   0.0, 1e-12)
        assert hb.rationalize([0.0, -0.0, 1e-300])[0] == ([0], [0], 1)
        # the nearest rational rounds back to the float itself: error 0
        assert hb.rationalize([3.14159265358979, 1]) == (
            ([789453460, 251290841], [0, 0], 251290841), 0.0,
            1e-12 * 3.14159265358979)
        # a coefficient below 1/(2 10^9) rationalizes to 0 and is dropped
        assert hb.rationalize([1, 1.5e-11]) == (([1], [0], 1), 1.5e-11,
                                                1e-12)
        for bad in ([1, math.nan], [complex(0, math.inf)]):
            with pytest.raises(ValueError, match="finite"):
                hb.rationalize(bad)


def test_exact_reads_build_no_qc(monkeypatch):
    """The space certificate, gaussian_mate, the exact decay table and
    exact Dirichlet norms run on integer triples: QC is built only where
    the public API returns it."""
    built = []
    new, init = exact._new, QC.__init__

    def counted_new(cls):
        built.append(cls)
        return new(cls)

    def counted_init(self, *args):
        built.append(QC)
        init(self, *args)

    spec = models.DirichletSpec([(1, 1), (-1, 0.5), (0.6 + 0.8j, 0.25)])
    for b in (UCF.polynomial([0, 0.5, 0.5]), UCF.rational([0, 1], [2, 1]),
              UCF.polynomial([0, 0.5])):
        f = np.array([1, -1 / 3, 0.25j])
        with monkeypatch.context() as m:
            m.setattr(exact, "_new", counted_new)
            m.setattr(QC, "__init__", counted_init)
            sp = hb.make_space(b, use_exact=True)
            assert hb.gaussian_mate(sp, f, 2) is not None
            assert len(cy._exact_decay(sp, f, 16)) == 16
            assert len(cy._factor_decay(sp, f, 16)) == 16
            assert models.dirichlet_norm_exact(spec, f) is not None
            assert built == []
            hb.exact_mate(sp, f)            # the public boundary does
            assert built
        built.clear()


def reference_exact_mate(space, f, shift=0):
    """(h, s-scaled mate of h), h = z^shift f, by the QC object-array route:
    P_+(conj(p) h) by np.correlate with an explicit conj, the back
    substitution on exact scalars, and the residual of the mate relation
    checked exactly."""
    e = space.exact
    p, A = (np.array(exact.to_qc(c), dtype=object) for c in (e.p, e.A))
    h = np.array([exact.QZERO] * shift + qc_rationalize(f), dtype=object)
    rhs = -np.correlate(h, np.conj(p), "full")[p.size - 1:]
    g = np.array(reference_back_substitution(A, rhs), dtype=object)
    assert _is_zero(np.correlate(g, np.conj(A), "full")[A.size - 1:] - rhs)
    return tuple(h), tuple(exact.qtrim(g))


def reference_try_exact(b, A_float):
    """hb._try_exact's certificate on QC object arrays, the route it
    replaced: (p, q, A, s2), p, q and A tuples of QC, or
    NormalizationError with the same text.  Each |x|^2 is np.convolve of
    x, zero-padded to the longest of the three, with its reversed
    conjugate; the whole Laurent residual is checked."""
    try:
        (p, ep, bp), (q, eq, bq) = hb.rationalize(b.num), \
            hb.rationalize(b.den)
        j0 = int(np.argmax(np.abs(A_float)))
        A = hb.rationalize(A_float / A_float[j0])[0]
    except ValueError as exc:
        raise NormalizationError(str(exc)) from None
    if not (ep <= bp and eq <= bq):
        raise NormalizationError(
            "rationalizing p/q to denominators <= 1000000000 "
            "moves a coefficient by more than 1e-12")
    p, q, A = (exact.to_qc(x) for x in (p, q, A))
    n = max(len(p), len(q), len(A))

    def modulus_sq(x):
        x = np.array(x + [exact.QZERO] * (n - len(x)), dtype=object)
        return np.convolve(x, np.conj(x)[::-1])

    w, a2 = modulus_sq(q) - modulus_sq(p), modulus_sq(A)
    s2 = (w[n - 1] / a2[n - 1]).re
    if s2 <= 0:
        raise NormalizationError(f"s2 = {s2} is not positive")
    root = exact.frac_sqrt(s2)
    if root is not None:
        A, s2 = [QC(root) * c for c in A], Fraction(1)
    if not _is_zero(QC(s2) * modulus_sq(A) - w):
        raise NormalizationError(
            "the rationalized data fail s2|A|^2 + |p|^2 = |q|^2 "
            "(irrational factor)")
    if A[0].im != 0 or A[0].re <= 0:
        raise NormalizationError("A(0) is not positive")
    return tuple(p), tuple(q), tuple(A), s2


# the five exact_auto spaces, z/(2+z), and spaces whose integer pivot
# a0 = A(0) times A's denominator is not 1: A = 4/5, (7 - z)/10,
# (7 - iz)/10 and (7 - z^2)/10
MATE_SPACES = {"(1+z)/2": UCF.polynomial([0.5, 0.5]),
               "z/2": UCF.polynomial([0, 0.5]),
               "z(1+z)/2": UCF.polynomial([0, 0.5, 0.5]),
               "(1+z^2)/2": UCF.polynomial([0.5, 0, 0.5]),
               "(1+z^4)/2": UCF.polynomial([0.5, 0, 0, 0, 0.5]),
               "z/(2+z)": UCF.rational([0, 1], [2, 1]),
               "3z/5": UCF.polynomial([0, 0.6]),
               "(7+z)/10": UCF.polynomial([0.7, 0.1]),
               "(7+iz)/10": UCF.polynomial([0.7, 0.1j]),
               "(7+z^2)/10": UCF.polynomial([0.7, 0, 0.1])}


@pytest.fixture(scope="module")
def mate_spaces():
    return {name: hb.make_space(b, use_exact=True)
            for name, b in MATE_SPACES.items()}


GAUSSIAN_F = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                                st.sampled_from([1, 2, 3, 5, 7, 9, 11, 16])),
                      min_size=1, max_size=6)


def _complex_f(coeffs):
    return np.array([complex(re, im) / den for re, im, den in coeffs])


class TestMateSolve:
    """exact.mate_solve and exact.mate_residual on Gaussian integers."""

    def test_half_shift_mate_of_one(self):
        p = _gp([Fraction(1, 2), Fraction(1, 2)])
        A = _gp([Fraction(1, 2), Fraction(-1, 2)])
        g = exact.mate_solve(p, A, _gp([1]))
        assert exact.to_qc(g) == qpoly([-1])
        exact.mate_residual(p, A, _gp([1]), g)

    def test_prebuilt_projection(self):
        # the projection -P_+(conj(p) f) is the right-hand side of the
        # back substitution; the residual check forms it again itself
        p = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        A = [Fraction(3, 4), Fraction(-1, 4)]
        f = [1, Fraction(-2, 3), 0, Fraction(1, 5)]
        rhs = -np.correlate(_obj(f), np.conj(_obj(p)), "full")[len(p) - 1:]
        g = exact.mate_solve(_gp(p), _gp(A), _gp(f))
        assert exact.to_qc(g) == reference_back_substitution(_obj(A), rhs)
        exact.mate_residual(_gp(p), _gp(A), _gp(f), g)
        re, im, d = g
        for shifted in ((re[1:] + [0], im[1:] + [0], d),
                        (re[:-1], im[:-1], d)):
            with pytest.raises(ArithmeticError, match="exact mate residual"):
                exact.mate_residual(_gp(p), _gp(A), _gp(f), shifted)

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
        # exactly: with p = -1 the mate relation is P_+(conj(A) g) = rhs
        for A, rhs in (([Fraction(1, 2), Fraction(-1, 2)], [1, 0, -3]),
                       ([3, QC(0, -1), Fraction(1, 7)],
                        [QC(1, 1), Fraction(2, 5), 0, QC(0, -4), 1])):
            g = exact.mate_solve(_gp([-1]), _gp(A), _gp(rhs))
            assert exact.to_qc(g) == \
                reference_back_substitution(_obj(A), _obj(rhs))

    def test_pivot_must_be_positive(self):
        for A in ([0, 1], [-1, Fraction(1, 2)], [QC(1, 1)]):
            with pytest.raises(ArithmeticError, match="A\\(0\\)"):
                exact.mate_solve(_gp([1]), _gp(A), _gp([1, 2]))

    def test_integer_pivots(self, mate_spaces):
        pivots = {name: sp.exact.A[0][0]
                  for name, sp in mate_spaces.items()}
        assert {name for name, a0 in pivots.items() if a0 != 1} == \
            {"3z/5", "(7+z)/10", "(7+iz)/10", "(7+z^2)/10"}

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(name=st.sampled_from(sorted(MATE_SPACES)), f=GAUSSIAN_F,
           g=GAUSSIAN_F, shift=st.integers(0, 40))
    def test_integer_mates_match_reference(self, mate_spaces, name, f, g,
                                           shift):
        sp = mate_spaces[name]
        f, g = _complex_f(f), _complex_f(g)
        fh, f1 = reference_exact_mate(sp, f, shift)
        assert hb.exact_mate(sp, f, shift) == (fh, f1)
        gh, g1 = reference_exact_mate(sp, g)
        F = hb.make_element(sp, np.concatenate([np.zeros(shift), f]))
        G = hb.make_element(sp, g)
        want = qc_inner(fh, gh) + qc_inner(f1, g1) / QC(sp.exact.s2)
        assert hb.inner_product_exact(sp, F, G) == want
        assert F.norm2_exact == (qc_inner(fh, fh) + qc_inner(f1, f1) /
                                 QC(sp.exact.s2)).re

    def test_pythagorean_residual(self):
        b = _gp([Fraction(1, 2), Fraction(1, 2)])
        A = _gp([Fraction(1, 2), Fraction(-1, 2)])
        assert exact.pythagorean_residual(b, _gp([1]), A, Fraction(1)) == []
        # 2|A|^2 + |b|^2 - 1 = 1/2 - z/4 - conj(z)/4 on the circle
        assert exact.pythagorean_residual(b, _gp([1]), A, Fraction(2)) == \
            qpoly([Fraction(1, 2), Fraction(-1, 4)])

    def test_scaled_backend(self):
        # b = z/2: A = 1, s^2 = 3/4
        b = _gp([0, Fraction(1, 2)])
        assert exact.pythagorean_residual(b, _gp([1]), _gp([1]),
                                          Fraction(3, 4)) == []


def _canonical(x) -> bool:
    """(re, im, d) with gcd(re, im, d) = 1, d > 0 and no trailing zero
    pair unless it is zero, ([0], [0], 1)."""
    re, im, d = x
    return d > 0 and math.gcd(*re, *im, d) == 1 and len(re) == len(im) and \
        (re[-1] != 0 or im[-1] != 0 or (re, im, d) == ([0], [0], 1))


def _rational_b(nums, t, extra):
    """b = p/(1 + t z) with Gaussian-integer p over a denominator that
    keeps sum |p_k| + |t| below 1, so b maps the disk into itself."""
    den = sum(abs(a) + abs(c) for a, c in nums) + extra
    scale = 1 - abs(t.real) - abs(t.imag)
    p = [complex(a, c) * scale / den for a, c in nums]
    return UCF.polynomial(p) if t == 0 else UCF.rational(p, [1, t])


RATIONAL_B = st.builds(
    _rational_b,
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1,
             max_size=5),
    st.sampled_from([0, 0.5, -1 / 3, 0.25j, 0.2 - 0.4j]),
    st.sampled_from([1, 2, 5, 31]))


class TestCertificate:
    """hb._try_exact on integer triples against the object-array route."""

    @staticmethod
    def check(b):
        try:
            A = factor.mate_and_factor(b)[1]
        except ValueError:
            return None                 # no mate: nothing to certify
        try:
            want = reference_try_exact(b, A)
        except NormalizationError as exc:
            with pytest.raises(NormalizationError) as got:
                hb._try_exact(b, A)
            assert str(got.value) == str(exc)
            return str(exc)
        got = hb._try_exact(b, A)
        assert all(map(_canonical, (got.p, got.q, got.A)))
        assert (tuple(exact.to_qc(got.p)), tuple(exact.to_qc(got.q)),
                tuple(exact.to_qc(got.A)), got.s2) == want
        return None

    def test_mate_spaces(self):
        for name, b in MATE_SPACES.items():
            assert self.check(b) is None, name

    def test_refusals(self):
        # an irrational factor, irrational data and a p/q that moves
        assert "irrational factor" in self.check(
            UCF.rational([1.0, 1.0], [3.0, 1.0]))
        assert "irrational factor" in self.check(
            UCF.polynomial([0.5, 0.5 / math.sqrt(2)]))
        assert self.check(UCF.polynomial([9e-11, 0.9])).startswith(
            "rationalizing p/q")

    @_PROPERTY
    @given(st.one_of(st.sampled_from(sorted(MATE_SPACES)).map(
        MATE_SPACES.get), RATIONAL_B))
    def test_matches_object_array_route(self, b):
        self.check(b)
