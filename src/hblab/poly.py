"""Dense complex polynomial helpers.

Coefficients are 1-D complex arrays, lowest degree first, so [1, 2, 3]
is 1 + 2z + 3z^2.  The exact backend has its own polynomials, integer
triples (hblab.exact).  Root finding is companion-matrix eigenvalues
followed by multiplicity clustering and modified Newton polishing.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import config


def aspoly(c) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1:
        if c.ndim:
            raise ValueError("polynomial coefficients must be one-dimensional")
        c = c.reshape(1)
    return c


def finite(c, what: str = "") -> np.ndarray:
    """aspoly(c), refused unless every coefficient is finite."""
    arr = aspoly(c)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}polynomial coefficients must be finite")
    return arr


def _kept(arr: np.ndarray, rtol: float) -> int:
    """How many leading coefficients trim keeps; 0 when all are negligible
    relative to the max.  The max is of np.abs over the array and the tail
    test uses the scalar abs; the two can differ in the last bit (numpy's
    SIMD loops)."""
    n = arr.size
    tol = rtol * max(1.0, float(np.abs(arr).max()) if n else 0.0)
    while n > 0 and abs(arr[n - 1]) <= tol:
        n -= 1
    return n


def trim(c, rtol: float = 1e-12) -> np.ndarray:
    """Strip trailing coefficients that are negligible relative to the max."""
    arr = aspoly(c)
    n = _kept(arr, rtol)
    if n == 0 and arr.size and rtol > 0:
        return np.zeros(1, dtype=complex)
    return arr[:max(n, 1)].copy()


def degree(c) -> int:
    """Degree under trim's rule, -1 for the zero polynomial; no copy."""
    return _kept(aspoly(c), 1e-12) - 1


def padd(p, q) -> np.ndarray:
    p, q = aspoly(p), aspoly(q)
    n = max(p.size, q.size)
    out = np.zeros(n, dtype=complex)
    out[: p.size] += p
    out[: q.size] += q
    return out


def psub(p, q) -> np.ndarray:
    return padd(p, -aspoly(q))


def pmul(p, q) -> np.ndarray:
    p, q = aspoly(p), aspoly(q)
    return np.convolve(p, q)


def horner(c, z):
    """Evaluate at an array of points, or at a scalar in complex arithmetic."""
    arr = aspoly(c)[::-1]
    if isinstance(z, numbers.Number) or np.ndim(z) == 0:
        return horner_list(arr.tolist(), complex(z))
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, arr[0], dtype=complex)
    for a in arr[1:]:
        acc = acc * z + a
    return acc


def horner_list(rev: list, z: complex) -> complex:
    """horner's scalar loop on rev, the coefficients highest first."""
    acc = rev[0]
    for a in rev[1:]:
        acc = acc * z + a
    return acc


def monomial(k: int) -> np.ndarray:
    """Coefficients of z^k."""
    out = np.zeros(k + 1, dtype=complex)
    out[k] = 1.0
    return out


def reverse_conj(c) -> np.ndarray:
    """z^deg * conj(p(1/conj(z))): reflects roots across the circle."""
    return np.conj(aspoly(c))[::-1].copy()


def l2sq(c) -> float:
    arr = aspoly(c)
    return float(np.sum(np.abs(arr) ** 2))


def hardy_inner(p, q):
    """sum_k p_k conj(q_k)."""
    p, q = aspoly(p), aspoly(q)
    n = min(p.size, q.size)
    return complex(np.sum(p[:n] * np.conj(q[:n])))


def synthetic_div(c, root):
    """Divide by (z - root); returns (quotient, remainder)."""
    arr = aspoly(c)
    out = np.zeros(max(arr.size - 1, 1), dtype=complex)
    acc = arr[-1]
    for k in range(arr.size - 2, -1, -1):
        out[k] = acc
        acc = arr[k] + acc * root
    return out, complex(acc)


def series_div(num, den, n: int) -> np.ndarray:
    """Power series coefficients of num/den to order n-1 (den[0] != 0).

    The coefficients are built in reverse storage, rev[n-1-m] = out[m],
    so each step's sum over earlier coefficients is a dot product with a
    forward slice, which numpy hands to BLAS.
    """
    num, den = aspoly(num), aspoly(den)
    if den[0] == 0:
        raise ZeroDivisionError("series division needs den(0) != 0")
    rev = np.zeros(n, dtype=complex)
    m = min(n, num.size)
    rev[n - m:] = num[:m][::-1]
    tail, d, d0 = den[1:], den.size - 1, den[0]
    for i in range(n - 1, -1, -1):
        k = min(n - 1 - i, d)
        rev[i] = (rev[i] - np.dot(tail[:k], rev[i + 1:i + 1 + k])) / d0
    return rev[::-1]


def taylor_shift(c, center: complex, n: int | None = None) -> np.ndarray:
    """Coefficients of p(center + t) as a polynomial in t (the first n)."""
    arr = aspoly(c).copy()
    n = arr.size if n is None else n
    out = np.empty(n, dtype=complex)
    for k in range(n):
        arr, rem = synthetic_div(arr, center) if arr.size > 1 else (
            np.zeros(1, dtype=complex), complex(arr[0]))
        out[k] = rem
    return out


def principal_part(num, den, root: complex, mult: int) -> np.ndarray:
    """g with num/den = sum_k g[k] (z - root)^(k - mult) + (analytic at
    root), mult the multiplicity: the Taylor head of num/(den/(z-root)^mult).
    """
    e = aspoly(den)
    for _ in range(mult):
        e, _rem = synthetic_div(e, root)
    return series_div(taylor_shift(num, root, mult),
                      taylor_shift(e, root, mult), mult)


def derivative(c) -> np.ndarray:
    arr = aspoly(c)
    if arr.size == 1:
        return np.zeros(1, dtype=complex)
    return arr[1:] * np.arange(1, arr.size)


def from_roots(root_mult_pairs, lead: complex = 1.0) -> np.ndarray:
    """Expand lead * prod (z - r)^m."""
    out = np.array([complex(lead)])
    for r, m in root_mult_pairs:
        for _ in range(int(m)):
            out = pmul(out, np.array([-r, 1.0], dtype=complex))
    return out


def _polish(p, dp, z: complex, mult: int) -> complex:
    """At most 30 modified Newton steps z -= mult p(z)/p'(z), evaluated by
    horner's scalar loop on coefficient lists built once."""
    p0, *ps = p[::-1].tolist()
    d0, *ds = dp[::-1].tolist()
    for _ in range(30):
        pv, dv = p0, d0
        for a in ps:
            pv = pv * z + a
        for a in ds:
            dv = dv * z + a
        if dv == 0:
            break
        step = mult * pv / dv
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def roots_with_multiplicity(c, cluster_rtol: float | None = None):
    """All complex roots with multiplicities.

    Companion-matrix eigenvalues, clustered at the configured relative
    radius, then polished with the multiplicity-aware Newton step; a
    single root goes straight to the polish.  c must be finite; it is
    read under trim's rule, without a copy.  At degree 1 the root is read
    off as np.roots returns it: 0.0 when c0 = 0, else the one entry of
    the 1 x 1 companion matrix, -c0/c1 in numpy arithmetic, where LAPACK
    returns it unscaled (|c0/c1| within 1e-130..1e130; LAPACK rescales a
    matrix whose norm leaves about 1e-138..1e138).
    """
    arr = finite(c)
    arr = arr[:_kept(arr, 1e-12)]
    if arr.size < 2:
        raise ValueError("root finding needs degree >= 1")
    root = -arr[0] / arr[1] if arr.size == 2 else 0
    raw = [complex(root)] if 1e-130 < abs(root) < 1e130 else \
        _companion_roots(arr)
    dp = derivative(arr)
    if len(raw) == 1:           # the division keeps a signed zero
        return [(_polish(arr, dp, complex(raw[0] / 1), 1), 1)]
    rtol = config.ROOT_CLUSTER_RTOL if cluster_rtol is None else cluster_rtol
    clusters: list[list] = []           # [sum of members, member count]
    for r in _modulus_order(raw):
        for cl in clusters:
            center = cl[0] / cl[1]
            if abs(r - center) <= rtol * max(1.0, abs(center)):
                cl[0] += r
                cl[1] += 1
                break
        else:
            clusters.append([r, 1])
    out = []
    for total, count in clusters:
        z = _polish(arr, dp, complex(total / count), count)
        out.append((z, count))
    return _modulus_order(out, lambda t: t[0])


def _companion_roots(arr: np.ndarray) -> list:
    """np.roots(arr[::-1]).tolist(), arr[-1] != 0: zero roots split off,
    the eigenvalues of the rest's companion matrix as np.roots builds it."""
    z = int(np.flatnonzero(arr)[0])
    p = arr[z:][::-1]
    if p.size == 1:
        return [0.0] * z
    A = np.diag(np.ones(p.size - 2, complex), -1)
    A[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(A).tolist() + [0j] * z


def _modulus_order(items, root=lambda t: t) -> list:
    """items sorted by (|root|, np.angle(root)), np.angle read only where
    moduli tie."""
    runs: dict = {}
    for t in items:
        runs.setdefault(abs(root(t)), []).append(t)
    return [t for m in sorted(runs) for t in (runs[m] if len(runs[m]) == 1
            else sorted(runs[m], key=lambda t: np.angle(root(t))))]
