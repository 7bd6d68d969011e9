"""A fixed calibration kernel that tracks the host's momentary speed.

The benchmark host is a shared virtual machine whose speed drifts by
20-30% within seconds (the same hblab call varies from 75 to 130 ms),
and CPU time drifts with wall time, so neither clock alone is steady.
The kernel below mixes the work hblab does (short numpy calls from
Python loops, a small eigenvalue problem, Fraction arithmetic).  It is
timed on the same moment of the host as a measured time, which is then
scaled by REFERENCE_MS over the kernel's time: a time taken on a slow
moment of the host is scaled down, one on a fast moment up.

- Library calls in the worker process (child.Runner): the kernel runs
  just before and just after each call, and the mean is used.  In ten
  runs per workload this cut the spread of ops_per_s from 0.08-0.13 of
  the median to 0.03-0.05 (README.md, "Timing on a noisy host").
- Set-up probes: the kernel runs three times in the probe's own process
  right after the set-up, and the median is used.  Over 120 probes,
  medians of 11 consecutive probes varied by 0.12 of their mean raw,
  and by 0.05 scaled.
- Cold `hblab` commands are not scaled by this kernel: a kernel sample
  taken in the parent between two child processes does not track them,
  and scaling widened the spread of cold command times from 0.02 to 0.2
  of the median in a five-seed trial.  They are scaled by a cold
  baseline process instead (run.py, BASELINE).  `verify` is timed raw.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# median kernel time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6); it only sets the scale in which normalized times read
REFERENCE_MS = 4.0

_C = np.diag(np.ones(15), -1).astype(complex)
_C[:, -1] = np.arange(16) + 1j
_A = np.arange(64.0) + 0.5j


def kernel():
    s = 0.0
    for i in range(400):
        s += abs(np.dot(_A[: i % 64], _A[: i % 64]))
    for _ in range(8):
        np.linalg.eigvals(_C)
    q = Fraction(0)
    for k in range(1, 300):
        q += Fraction(k, k + 1) * Fraction(1, 3)
    return s, q


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, kernel: float) -> float:
    """A time at the reference speed, given the kernel's time (seconds)
    on the same moment of the host."""
    return seconds * REFERENCE_MS / 1e3 / kernel
