import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_clark import RANDOM_B, _random_b

from hblab import cli, clark, config, cyclicity as cy, exact, hb, poly, sigma
from hblab.boundary import Arc, UnitCircleFunction as UCF
from hblab.errors import NormalizationError


class TestClassifier:
    def test_worked_examples(self, space_half_shift):
        sp = space_half_shift
        assert cy.classify_finite_defect(sp, [1, 1]).verdict == cy.CYCLIC
        assert cy.classify_finite_defect(sp, [1, -1]).verdict == \
            cy.NOT_CYCLIC
        assert cy.classify_finite_defect(sp, [0, 1]).verdict == cy.NOT_CYCLIC

    def test_defect_spectrum(self, all_test_spaces):
        assert [abs(z - 1) < 1e-10 for z in
                cy.defect_spectrum(all_test_spaces["(1+z)/2"])] == [True]
        assert cy.defect_spectrum(all_test_spaces["z/2"]) == []

    def test_every_outer_cyclic_when_no_defect(self, space_small_shift):
        rng = np.random.default_rng(83)
        for _ in range(10):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            want = cy.CYCLIC if __import__("hblab").is_outer(f) else \
                cy.NOT_CYCLIC
            assert cy.classify_finite_defect(space_small_shift, f).verdict \
                == want

    def test_report_serialization(self, space_half_shift):
        rep = cy.classify_finite_defect(space_half_shift, [1, 1])
        doc = rep.to_json()
        assert '"verdict": "cyclic"' in doc


class TestDecay:
    def test_flat_table(self, space_half_shift):
        table = cy.decay_table(space_half_shift, [1, -1], 24)
        assert np.max(np.abs(table.d2() - 2.0)) < 1e-9
        assert cy.estimate_from_decay(table).verdict == cy.LIKELY_NOT_CYCLIC

    def test_constant_candidate(self, space_half_shift):
        table = cy.decay_table(space_half_shift, [1.0], 20)
        assert table.d2()[0] < 1e-12
        assert cy.estimate_from_decay(table).verdict == cy.LIKELY_CYCLIC

    def test_closed_form_decay(self, space_half_shift):
        # for f = 1+z the distances are exactly 2/(2N+1)
        table = cy.decay_table(space_half_shift, [1, 1], 30,
                               use_exact="auto")
        for n, d in table.entries:
            assert abs(d - 2 / (2 * n + 1)) < 1e-10
        from fractions import Fraction
        for n, d in table.exact_entries:
            assert d == Fraction(2, 2 * n + 1)

    def test_float_route_matches_exact_route(self, all_test_spaces):
        # dyadic coefficients are exact in floats, so both routes see the
        # same f and their distances must agree to rounding
        rng = np.random.default_rng(61)
        spaces = dict(all_test_spaces)
        spaces["z/(2+z)"] = hb.make_space(UCF.rational([0.0, 1.0], [2.0, 1.0]),
                                          use_exact=True)
        for name, sp in spaces.items():
            f = (rng.integers(-4, 5, size=4) +
                 1j * rng.integers(-4, 5, size=4)) / 4
            f[0] = 2 + f[0]
            table = cy.decay_table(sp, f, 64, use_exact=True)
            assert len(table.exact_entries) == 64, name
            for (n, d), (ne, de) in zip(table.entries, table.exact_entries):
                assert n == ne
                assert abs(d - float(de)) < 1e-10, (name, n)

    def test_monotone_bounded(self, space_half_shift):
        rng = np.random.default_rng(89)
        for _ in range(10):
            f = rng.normal(size=5) + 1j * rng.normal(size=5)
            table = cy.decay_table(space_half_shift, f, 24)
            d2 = table.d2()
            assert np.all(np.diff(d2) <= 1e-10)
            assert np.all(d2 <= table.norm1_sq + 1e-10)

    def test_short_table_rejected_by_estimator(self, space_half_shift):
        table = cy.decay_table(space_half_shift, [1, 1], 12)
        with pytest.raises(ValueError):
            cy.estimate_from_decay(table)

    def test_cap(self, space_half_shift):
        for n in (0, -3, 300):
            with pytest.raises(ValueError, match="outside"):
                cy.decay_table(space_half_shift, [1, 1], n)
        with pytest.raises(ValueError, match="exact table size 129"):
            cy.decay_table(space_half_shift, [1, 1], 129, use_exact=True)
        table = cy.decay_table(space_half_shift, [1, 1], 128, use_exact=True)
        assert table.exact_entries == [(n, Fraction(2, 2 * n + 1))
                                       for n in range(1, 129)]

    def test_bad_arguments_are_named(self, space_half_shift):
        sp = space_half_shift
        for f in ([1, np.nan], [1, np.inf], [np.inf, 1], [1, -np.inf * 1j]):
            with pytest.raises(ValueError, match="f: polynomial "
                               "coefficients must be finite"):
                cy.decay_table(sp, f, 8)
        for n in (True, False, 2.0, 8.5, "8", None, np.float64(8)):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                cy.decay_table(sp, [1, 1], n)
        for n in (np.int64(8), np.int32(8), np.uint8(8)):
            assert cy.decay_table(sp, [1, 1], n).entries == \
                cy.decay_table(sp, [1, 1], 8).entries
        with pytest.raises(ValueError, match="outside"):
            cy.decay_table(sp, [1, 1], np.int64(0))

    def test_exact_request_needs_exact_space(self):
        sp = hb.make_space(UCF.polynomial([0.5, 0.5]), use_exact=False)
        with pytest.raises(NormalizationError):
            cy.decay_table(sp, [1, 1], 8, use_exact=True)

    def test_embedding_factor_matches_monomial_mates(self):
        # R0^H R0 is the Gram matrix of the embedded monomials, each mate
        # solved on its own: the shift structure K[i, k] = c_(k-i) holds
        rng = np.random.default_rng(101)
        b8 = rng.normal(size=9) + 1j * rng.normal(size=9)
        b8 *= 0.9 / np.sum(np.abs(b8))
        spaces = [UCF.polynomial([0.5, 0.5]), UCF.polynomial([0, 0.5, 0.5]),
                  UCF.rational([0, 1], [2, 1]), UCF.rational([1, 1], [3, 1]),
                  UCF.polynomial([0.5, 0, 0, 0, 0.5]), UCF.polynomial(b8)]
        rows = 258
        for b in spaces:
            sp = hb.make_space(b, use_exact=False)
            R0 = sp.embedding_factor(rows)
            assert R0.shape == (rows, rows)
            assert not np.any(np.tril(R0, -1))
            assert np.all(np.diag(R0).real >= 1) and not np.any(
                np.diag(R0).imag)
            K = np.zeros((rows, rows), dtype=complex)
            for k in range(rows):
                g = hb.mate(sp, [0] * k + [1])
                K[:g.size, k] = g
            gram = np.eye(rows) + K.conj().T @ K
            err = np.max(np.abs(R0.conj().T @ R0 - gram))
            assert err <= 1e-13 * np.max(np.abs(gram)), (b, err)
            # a stored factor serves fewer rows as its leading block
            assert np.array_equal(sp.embedding_factor(40), R0[:40, :40])

    def test_one_back_substitution_per_table(self, monkeypatch):
        calls = []
        solve = hb._back_substitute

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hb, "_back_substitute", counted)
        f = [1, 0.5, 0.25j]
        for b in ([0.5, 0.5], [0.1, 0.2j, -0.3, 0.25, 0.1j]):
            sp = hb.make_space(UCF.polynomial(b), use_exact=False)
            sp.one()
            # a build makes one, a stored factor none, a larger N rebuilds
            for n, builds in ((20, 1), (20, 0), (1, 0), (256, 1), (64, 0),
                              (256, 0)):
                calls.clear()
                cy.decay_table(sp, f, n)
                assert len(calls) == builds, (b, n)
            calls.clear()
            cy.decay_table(sp, [1, 1], 256)     # deg f + N = 257 < 258
            assert not calls

    def test_table_size_bound(self, space_half_shift, capsys):
        sp = space_half_shift
        table = cy.decay_table(sp, [0] * 256 + [1], 256)
        assert len(table.entries) == 256        # deg f + N = 512
        assert cy.TABLE_MAX_ROWS == 512
        with pytest.raises(ValueError, match=r"deg f = 257, N = 256"):
            cy.decay_table(sp, [0] * 257 + [1], 256)
        with pytest.raises(ValueError, match=r"deg f = 500, N = 13"):
            cy.decay_table(sp, [1] + [0] * 499 + [1], 13)
        assert cli.main(["decay", "--b", "(1+z)/2", "--f", "z^256",
                         "--n", "256"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["decay", "--b", "(1+z)/2", "--f", "1+z^500",
                      "--n", "13"])
        assert exc.value.code == 2
        assert "500 + 13" in capsys.readouterr().out

    def test_mate_residual_still_checked(self, monkeypatch):
        rng = np.random.default_rng(103)
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        b *= 0.5 / np.sum(np.abs(b))
        sp = hb.make_space(UCF.polynomial(b), use_exact=False)
        sp.one()
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        monkeypatch.setattr(config, "MATE_RESIDUAL_TOL", 1e-30)
        with pytest.raises(ArithmeticError, match="mate residual"):
            cy.decay_table(sp, f, 64)

    def test_no_contradictions_random(self, space_half_shift):
        rng = np.random.default_rng(97)
        for _ in range(25):
            deg = int(rng.integers(1, 7))
            f = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            verdict = cy.classify_finite_defect(space_half_shift, f).verdict
            est = cy.estimate_from_decay(
                cy.decay_table(space_half_shift, f, 32)).verdict
            if verdict == cy.CYCLIC:
                assert est != cy.LIKELY_NOT_CYCLIC
            else:
                assert est != cy.LIKELY_CYCLIC


def reference_decay(space, f, n):
    """The stacked route: (d_1^2, ..., d_n^2) and the ridge flags from the
    triangular factor of [F; G | w], F holding z^k f and G their mates
    (windows of the one back substitution for the mate of z^(n-1) f), w
    the embedded constant."""
    f = poly.trim(np.asarray(f, dtype=complex))
    rows, pad = f.size + n - 1, np.zeros(n - 1, dtype=complex)
    h = np.concatenate([pad, f, pad])       # z^(n-1) f, then n-1 zeros
    u = np.concatenate([hb._solve_mate(space.p, space.A, h[:rows])[0], pad])
    idx = np.arange(rows)[:, None] - np.arange(n) + (n - 1)
    one = space.one()
    Mw = np.zeros((2 * rows, n + 1), dtype=complex)
    Mw[:rows, :n], Mw[rows:, :n] = h[idx], u[idx]
    Mw[:one.f.size, n] = one.f
    Mw[rows:rows + one.mate.size, n] = one.mate
    R = np.linalg.qr(Mw, mode="r")
    col_scale = np.sqrt(np.sum(np.abs(Mw[:, :n]) ** 2, axis=0))
    flags = [k + 1 for k in range(n)
             if abs(R[k, k]) <= 1e-12 * max(1.0, float(col_scale[k]))]
    d2 = np.sum(np.abs(Mw[:, n]) ** 2) - np.cumsum(np.abs(R[:n, n]) ** 2)
    return np.maximum(d2, 0.0), flags


def _matches_stacked_route(space, f):
    for n in (1, 20, 64, 256):
        table = cy.decay_table(space, f, n)
        d2, flags = reference_decay(space, f, n)
        assert np.max(np.abs(table.d2() - d2)) <= 1e-10, (f, n)
        assert table.ridge_flags == flags, (f, n)


# candidates of degree <= 5: a double and a triple circle zero, outer
# ones with roots off the circle, and one with a root inside the disk
FACTOR_ROUTE_F = [[1.0], [1, -1], [1, 1], [1, -2, 1], [1, -3, 3, -1],
                  [2, 1 - 0.5j, 0.25], [0.3, 1, 0.5j],
                  [1.5, -0.4 + 0.3j, 0.2, 0.1j, -0.05, 0.02 + 0.01j]]


class TestFactorRoute:
    """decay_table on the stored factor against the stacked route."""

    @pytest.mark.parametrize("b", [
        UCF.polynomial([0.5, 0.5]), UCF.polynomial([0, 0.5, 0.5]),
        UCF.polynomial([0.5, 0, 0, 0, 0.5]), UCF.rational([0, 1], [2, 1]),
        UCF.rational([1, 1], [3, 1])],
        ids=["(1+z)/2", "z(1+z)/2", "(1+z^4)/2", "z/(2+z)", "(1+z)/(3+z)"])
    def test_named_spaces(self, b):
        sp = hb.make_space(b, use_exact=False)
        for f in FACTOR_ROUTE_F:
            _matches_stacked_route(sp, f)

    def test_multiple_circle_zeros_on_small_shift(self, space_small_shift):
        for f in ([1, -3, 3, -1], [1, -4, 6, -4, 1]):     # (1-z)^3, (1-z)^4
            _matches_stacked_route(space_small_shift, f)

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(**RANDOM_B, k=st.sampled_from(range(len(FACTOR_ROUTE_F))))
    def test_random_spaces(self, num, poles, k):
        sp = hb.make_space(_random_b(num, poles), use_exact=False)
        _matches_stacked_route(sp, FACTOR_ROUTE_F[k])


FACTOR_ROUTE_SPACES = {"(1+z)/2": UCF.polynomial([0.5, 0.5]),
                       "z(1+z)/2": UCF.polynomial([0, 0.5, 0.5]),
                       "(1+z^4)/2": UCF.polynomial([0.5, 0, 0, 0, 0.5]),
                       "z/(2+z)": UCF.rational([0, 1], [2, 1]),
                       "(1+z)/(3+z)": UCF.rational([1, 1], [3, 1])}


@pytest.fixture(scope="module")
def factor_route_spaces():
    return {name: hb.make_space(b, use_exact=False)
            for name, b in FACTOR_ROUTE_SPACES.items()}


def dense_multiples(space, f, n):
    """B = R0 [T_f | e_0], (deg f + n) x (n + 1), formed whole: deg f + 1
    scaled column slices of the embedding factor R0, then its first
    column."""
    rows = f.size - 1 + n
    R0 = space.embedding_factor(rows)
    B = np.empty((rows, n + 1), dtype=complex, order="F")
    np.multiply(R0[:, :n], f[0], out=B[:, :n])
    for i in range(1, f.size):
        B[:, :n] += f[i] * R0[:, i:i + n]
    B[:, n] = R0[:, 0]
    return B


def single_qr_table(space, f, n):
    """d_k^2, ridge flags, R, ||1||^2 and the squared column norms from
    one dense QR of the whole B = R0 [T_f | e_0]."""
    f = poly.trim(np.asarray(f, dtype=complex))
    B = dense_multiples(space, f, n)
    col_sq = np.sum(np.abs(B[:, :n]) ** 2, axis=0)
    R = np.linalg.qr(B, mode="r")
    flags = np.flatnonzero(np.abs(np.diag(R)[:n]) <=
                           1e-12 * np.maximum(1.0, np.sqrt(col_sq))) + 1
    norm_w = abs(B[0, n]) ** 2
    d2 = np.subtract.accumulate(np.concatenate(
        [[norm_w], np.abs(R[:n, n]) ** 2]))[1:]
    return np.maximum(d2, 0.0).tolist(), flags.tolist(), R, norm_w, col_sq


def _random_f(deg, seed):
    rng = np.random.default_rng([seed, deg])
    return rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)


class TestBandedQR:
    """The blocked QR, its slabs formed from R0, against one dense QR of
    the whole B."""

    @pytest.mark.parametrize("name", FACTOR_ROUTE_SPACES)
    def test_single_block_is_the_dense_qr(self, factor_route_spaces, name):
        sp = factor_route_spaces[name]
        for f in FACTOR_ROUTE_F + [_random_f(31, 1), _random_f(40, 1)]:
            for n in (1, 12, cy.BLOCK - 1, cy.BLOCK):
                table = cy.decay_table(sp, f, n)
                d2, flags, _R, _w, _c = single_qr_table(sp, f, n)
                assert [d for _n, d in table.entries] == d2, (f, n)
                assert table.ridge_flags == flags, (f, n)

    @pytest.mark.parametrize("name", FACTOR_ROUTE_SPACES)
    def test_blocks_match_the_dense_qr(self, factor_route_spaces, name):
        sp = factor_route_spaces[name]
        for deg in (0, 1, 3, 31, 32, 33):
            f = _random_f(deg, 2)
            for n in (33, 64, 100, 256):
                _matches_dense_qr(sp, f, n)

    @pytest.mark.parametrize("name", ["(1+z)/2", "z/(2+z)"])
    def test_band_and_table_straddle_the_block(self, factor_route_spaces,
                                               name):
        # deg f about one block wide; N one past a block, two blocks, one
        # past two, and the largest table
        sp = factor_route_spaces[name]
        for deg in (cy.BLOCK - 1, cy.BLOCK, cy.BLOCK + 1):
            f = _random_f(deg, 5)
            for n in (cy.BLOCK + 1, 2 * cy.BLOCK, 2 * cy.BLOCK + 1, 256):
                _matches_dense_qr(sp, f, n)

    def test_largest_table(self, factor_route_spaces):
        # deg f + N = TABLE_MAX_ROWS; the block width deg f = N: one QR
        f = _random_f(256, 3)
        _matches_dense_qr(factor_route_spaces["z/(2+z)"], f, 256)

    def test_wide_band_takes_blocks_of_deg_f(self, factor_route_spaces):
        f = _random_f(100, 4)
        _matches_dense_qr(factor_route_spaces["(1+z)/(3+z)"], f, 256)

    def test_transient_memory_is_about_one_factor(self):
        # B is never formed: past the unpacked R0 (rows^2 complex
        # numbers), a table holds only slab-sized arrays
        sp = hb.make_space(UCF.rational([0, 1], [2, 1]), use_exact=False)
        f, n = [1, -0.5, 0.25j, 0.1], 256
        cy.decay_table(sp, f, n)        # builds and stores the factor
        tracemalloc.start()
        try:
            cy.decay_table(sp, f, n)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * (len(f) - 1 + n) ** 2 * 16, peak


def _matches_dense_qr(space, f, n):
    d2, flags, R, norm_w, col_sq = single_qr_table(space, f, n)
    pivots, proj, got_sq = cy._banded_r(
        space.embedding_factor(f.size - 1 + n), f, n)
    want = np.abs(np.diag(R)[:n])
    assert np.max(np.abs(np.abs(pivots) - want) / want) <= 1e-12, n
    assert np.max(np.abs(np.abs(proj) ** 2 - np.abs(R[:n, n]) ** 2)) <= \
        1e-12 * norm_w, n
    assert np.max(np.abs(got_sq - col_sq) / col_sq) <= 1e-12, n
    table = cy.decay_table(space, f, n)
    assert table.ridge_flags == flags, n
    assert np.max(np.abs(table.d2() - d2)) <= 1e-12 * norm_w, n


def reference_exact_decay(space, f, n):
    """The per-column exact route: an HbElement and an exact mate for each
    z^k f, pairwise exact inner products, and one bordered elimination
    over Fractions."""
    f = poly.trim(np.asarray(f, dtype=complex))
    vecs = [hb.make_element(space, np.concatenate([np.zeros(k), f]))
            for k in range(n)]
    vecs.append(space.one())
    if any(v.exact is None for v in vecs):
        return None
    m = [[hb.inner_product_exact(space, vecs[k], vecs[j]) if k >= j else None
          for k in range(n + 1)] for j in range(n + 1)]
    out = []
    for k in range(n):
        inv = 1 / m[k][k]
        for i in range(k + 1, n + 1):
            c = m[k][i].conj() * inv
            for j in range(i, n + 1):
                m[i][j] = m[i][j] - c * m[k][j]
        assert m[n][n].im == 0
        out.append((k + 1, m[n][n].re))
    return out


EXACT_SPACES = {"(1+z)/2": UCF.polynomial([0.5, 0.5]),
                "z(1+z)/2": UCF.polynomial([0, 0.5, 0.5]),
                "z/2": UCF.polynomial([0, 0.5]),
                "(1+z^2)/2": UCF.polynomial([0.5, 0, 0.5]),
                "(1+z^4)/2": UCF.polynomial([0.5, 0, 0, 0, 0.5]),
                "z/(2+z)": UCF.rational([0, 1], [2, 1])}


@pytest.fixture(scope="module")
def exact_spaces():
    return {name: hb.make_space(b, use_exact=True)
            for name, b in EXACT_SPACES.items()}


class TestExactDecay:
    def test_matches_reference(self, exact_spaces):
        f = np.array([2, 0.75 - 0.5j, 0, -0.25j])
        for name, sp in exact_spaces.items():
            for n in (1, 2, 16, 32):
                want = reference_exact_decay(sp, f, n)
                assert cy.decay_table(sp, f, n, use_exact=True)\
                    .exact_entries == want, (name, n)
        sp = exact_spaces["z(1+z)/2"]
        assert cy.decay_table(sp, [1, -0.5j], 64, use_exact=True)\
            .exact_entries == reference_exact_decay(sp, [1, -0.5j], 64)

    def test_exact_spaces_reproduce_b(self, exact_spaces):
        for name, sp in exact_spaces.items():
            for exact_c, c in ((sp.exact.p, sp.b.num), (sp.exact.q, sp.b.den)):
                assert hb._matches(list(exact_c), c), name

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(name=st.sampled_from(sorted(EXACT_SPACES)),
           coeffs=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                                     st.sampled_from([1, 2, 3, 4, 8])),
                           min_size=1, max_size=4),
           n=st.integers(1, 12))
    def test_matches_reference_random(self, exact_spaces, name, coeffs, n):
        f = np.array([complex(re, im) / den for re, im, den in coeffs])
        if not np.any(f):
            f[0] = 1
        sp = exact_spaces[name]
        assert cy.decay_table(sp, f, n, use_exact="auto").exact_entries == \
            reference_exact_decay(sp, poly.trim(f), n)

    def test_one_exact_mate_per_table(self, monkeypatch):
        calls = []
        solve = hb._back_substitute

        def counted(A, rhs):
            if rhs.dtype == object:     # an exact mate
                calls.append(1)
            return solve(A, rhs)

        monkeypatch.setattr(hb, "_back_substitute", counted)
        for name in ("(1+z)/2", "z/(2+z)"):
            sp = hb.make_space(EXACT_SPACES[name], use_exact=True)
            for n, mode, want in ((20, "auto", 2), (1, True, 1),
                                  (64, True, 1), (100, "auto", 1)):
                calls.clear()
                table = cy.decay_table(sp, [1, 0.5, 0.25j], n, use_exact=mode)
                assert len(table.exact_entries) == \
                    (min(n, 32) if mode == "auto" else n)
                assert len(calls) == want, (name, n)    # + space.one() once

    def test_exact_mate_residual_checked(self, monkeypatch):
        solve = hb._back_substitute

        def perturbed(A, rhs):
            g = solve(A, rhs).copy()
            if g.dtype == object:
                g[0] = g[0] + exact.QC(1, 2 ** -40)
            return g

        monkeypatch.setattr(hb, "_back_substitute", perturbed)
        sp = hb.make_space(EXACT_SPACES["z(1+z)/2"], use_exact=True)
        for mode in ("auto", True):
            with pytest.raises(ArithmeticError, match="exact mate residual"):
                cy.decay_table(sp, [1, 1], 8, use_exact=mode)

    def test_unrepresentable_f(self, exact_spaces):
        sp, f = exact_spaces["(1+z)/2"], [1, 1.5e-11]
        table = cy.decay_table(sp, f, 20, use_exact="auto")
        assert table.exact_entries is None and len(table.entries) == 20
        with pytest.raises(NormalizationError):
            cy.decay_table(sp, f, 8, use_exact=True)

    def test_bordered_schur_guards(self):
        q = exact.QC
        assert exact.bordered_schur([[q(2), q(1)], [None, q(1)]]) == \
            [Fraction(1, 2)]
        # G = [[4, 2i], [-2i, 2]], r = (1, 1), c = 2: G^-1 = [[1/2, -i/2],
        # [i/2, 1]], so the corners are 2 - 1/4 and 2 - 3/2
        m = [[q(4), q(0, 2), q(1)], [None, q(2), q(1)], [None, None, q(2)]]
        assert exact.bordered_schur(m) == [Fraction(7, 4), Fraction(1, 2)]
        for bad in ([[q(0), q(1)], [None, q(1)]],
                    [[q(-1), q(1)], [None, q(1)]],
                    [[q(1, 1), q(1)], [None, q(1)]]):
            with pytest.raises(ArithmeticError, match="pivot"):
                exact.bordered_schur(bad)
        with pytest.raises(ArithmeticError, match="imaginary"):
            exact.bordered_schur([[q(1), q(0)], [None, q(1, 1)]])


class TestCertificates:
    def test_rule_a_worked_example(self, space_half_shift):
        out = cy.theorem_a_check(
            space_half_shift, [1, 1],
            [Arc.from_angles(0.1, 2 * np.pi - 0.1)],
            [Arc.from_angles(-0.5, 0.5)])
        assert out.ok and out.report.verdict == cy.CYCLIC
        assert out.certificate.a_inverse_sq_integral > 0

    def test_rule_a_full_circle_fails(self, space_half_shift):
        out = cy.theorem_a_check(space_half_shift, [1, 1],
                                 [Arc.full_circle()],
                                 [Arc.from_angles(-0.5, 0.5)])
        assert not out.ok and any("closure(E)" in r for r in out.reasons)

    def test_rule_a_coverage_gap(self, space_half_shift):
        out = cy.theorem_a_check(space_half_shift, [1, 1],
                                 [Arc.from_angles(0.5, 2.0)],
                                 [Arc.from_angles(2.5, 3.0)])
        assert not out.ok

    def test_rule_a_constant_mate(self, space_small_shift):
        out = cy.theorem_a_check(space_small_shift, [1, 1],
                                 [Arc.full_circle()], [])
        assert out.ok

    def test_rule_a_agrees_with_classifier(self, space_half_shift):
        out = cy.theorem_a_check(
            space_half_shift, [1, 1],
            [Arc.from_angles(0.1, 2 * np.pi - 0.1)],
            [Arc.from_angles(-0.5, 0.5)])
        rep = cy.classify_finite_defect(space_half_shift, [1, 1])
        assert out.ok and rep.verdict == cy.CYCLIC

    def test_rule_b_worked_example(self, space_from_one_minus_z):
        out = cy.theorem_b_check(space_from_one_minus_z, [1, 1],
                                 [(Arc.from_angles(-0.2, 0.2), 0.5)])
        assert out.ok and out.report.verdict == cy.CYCLIC

    def test_rule_b_agrees_with_classifier(self, space_from_one_minus_z):
        sp = space_from_one_minus_z
        out = cy.theorem_b_check(sp, [1, 1],
                                 [(Arc.from_angles(-0.2, 0.2), 0.5)])
        rep = cy.classify_finite_defect(sp, [1, 1])
        assert out.ok and rep.verdict == cy.CYCLIC

    def test_rule_b_zero_on_arc(self, space_from_one_minus_z):
        out = cy.theorem_b_check(space_from_one_minus_z, [1, -1],
                                 [(Arc.from_angles(-0.2, 0.2), 0.5)])
        assert not out.ok

    def test_rule_b_empty_cover(self, space_small_shift):
        assert cy.theorem_b_check(space_small_shift, [1, 1], []).ok
        assert not cy.theorem_b_check(space_small_shift, [0, 1], []).ok

    def test_rule_b_requires_normalization(self, space_half_shift):
        with pytest.raises(NormalizationError):
            cy.theorem_b_check(space_half_shift, [1, 1], [])

    def test_rule_b_missing_cover(self, space_from_one_minus_z):
        out = cy.theorem_b_check(space_from_one_minus_z, [1, 1], [])
        assert not out.ok

    def test_rule_c_trivial(self, space_small_shift):
        big_f, out = cy.theorem_c_check(space_small_shift, [1.0])
        assert out.ok
        assert abs(complex(big_f(0.3)) - 1.0) < 1e-9

    def test_rule_c_truncated_kernel(self, space_from_one_minus_z):
        g = 0.5 ** np.arange(33)
        big_f, out = cy.theorem_c_check(space_from_one_minus_z, g)
        assert out.ok
        assert all(abs(z - 1) > 1e-3
                   for z in out.report.evidence[0].numbers
                   ["image_zero_angles"] or [10])

    def test_rule_c_engineered_failure(self, space_from_one_minus_z):
        sp = space_from_one_minus_z
        # one linear constraint makes the image vanish at 1
        from hblab import clark
        v1 = clark.normalized_cauchy_rational(sp, 1.0, [1.0])
        vz = clark.normalized_cauchy_rational(sp, 1.0, [0.0, 1.0])
        c0 = -complex(vz(0.999999)) / complex(v1(0.999999))
        # refine with the exact boundary value via small radii
        from hblab import poly as _p
        c0 = -complex(_p.horner(vz.num, 1.0) / _p.horner(vz.den, 1.0)) / \
            complex(_p.horner(v1.num, 1.0) / _p.horner(v1.den, 1.0))
        big_f, out = cy.theorem_c_check(sp, [c0, 1.0])
        assert not out.ok and out.reasons


class TestNecessity:
    def test_witness(self, space_shifted_half):
        out = cy.necessity_check(space_shifted_half, [1, -1])
        assert not out.passed
        alpha, zeta = out.witness
        assert abs(alpha - 1) < 1e-8 and abs(zeta - 1) < 1e-8
        assert out.report.verdict == cy.NOT_CYCLIC

    def test_pass(self, space_shifted_half):
        assert cy.necessity_check(space_shifted_half, [1, 1]).passed

    def test_no_atoms_passes_outer(self, space_small_shift):
        assert cy.necessity_check(space_small_shift, [1, -1]).passed

    def test_non_outer_fails(self, space_small_shift):
        out = cy.necessity_check(space_small_shift, [0, 1])
        assert not out.passed and out.report.verdict == cy.NOT_CYCLIC

    def test_necessity_blocks_other_routes(self, space_shifted_half):
        # when necessity says not cyclic, the classifier agrees
        out = cy.necessity_check(space_shifted_half, [1, -1])
        rep = cy.classify_finite_defect(space_shifted_half, [1, -1])
        assert not out.passed and rep.verdict == cy.NOT_CYCLIC


class TestAssess:
    def test_merged_report(self, space_half_shift):
        rep = cy.assess(space_half_shift, [1, 1], n_max=24)
        assert rep.verdict == cy.CYCLIC
        rules = {e.rule for e in rep.evidence}
        assert "finite_defect_classifier" in rules
        assert "decay_heuristic" in rules
        agree = [e for e in rep.evidence if e.rule == "route_agreement"]
        assert agree and agree[0].numbers["agree"]


def _multiple(c, d) -> bool:
    """True when the polynomials c and d are proportional."""
    c, d = poly.trim(c), poly.trim(d)
    return c.size == d.size and np.allclose(c / c[-1], d / d[-1],
                                            rtol=0, atol=1e-12)


class TestRootSolves:
    """One root solve per polynomial: rules share the candidate's roots,
    and stored or carried roots are read, not solved again."""

    SPACES = ([0.5, 0.5], [0.0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0, 0, 0, 0.5],
              [0.1, 0.2j, -0.3, 0.25, 0.1j])

    @pytest.mark.parametrize("coeffs", SPACES)
    def test_assess_solves_f_once(self, coeffs, root_solves):
        sp = hb.make_space(UCF.polynomial(coeffs), use_exact=False)
        clark.clark_sweep(sp)
        for f in ([1, 1], [1, -1], [0, 1], [2.0, 0.5j, 0.25]):
            root_solves.clear()
            cy.assess(sp, f)
            assert len(root_solves) == 1 and \
                np.array_equal(root_solves[0], poly.trim(f)), f
        fn = UCF.polynomial([3.0, 1.0])
        root_solves.clear()
        cy.assess(sp, fn)
        cy.assess(sp, fn)
        assert len(root_solves) == 1

    @pytest.mark.parametrize("coeffs", SPACES)
    def test_sigma_bounds_reads_stored_sweep(self, coeffs, root_solves):
        sp = hb.make_space(UCF.polynomial(coeffs), use_exact=False)
        root_solves.clear()
        first = sigma.sigma_bounds(sp)
        assert len(root_solves) <= len(clark.clark_sweep(sp)) + 4
        root_solves.clear()
        assert sigma.sigma_bounds(sp) == first
        assert root_solves == []

    def test_certificate_a_solves_f_once(self, root_solves):
        sp = hb.make_space(UCF.polynomial([0.5, 0.5]))
        sp.a_roots()
        for f in ([1, 1], [0, 1]):
            root_solves.clear()
            cy.theorem_a_check(sp, f, [Arc.from_angles(0.1, 6.183)],
                               [Arc.from_angles(-0.5, 0.5)])
            assert len(root_solves) == 1 and \
                np.array_equal(root_solves[0], poly.trim(f)), f

    def test_certificate_b_solves_f_not_phi(self, root_solves):
        sp = hb.make_space_from_phi(UCF.polynomial([1 / np.sqrt(2),
                                                    -1 / np.sqrt(2)]))
        sp.a_roots()
        for f, ok in (([1, 1], True), ([-np.exp(0.1j), 1], False)):
            root_solves.clear()
            out = cy.theorem_b_check(sp, f,
                                     [(Arc.from_angles(-0.2, 0.2), 0.5)])
            solved = list(root_solves)
            phi = sigma.phi_for_space(sp)
            assert out.ok == ok and poly.degree(phi.num) >= 1
            assert sum(_multiple(c, f) for c in solved) == 1, f
            assert not any(_multiple(c, phi.num) for c in solved), f
