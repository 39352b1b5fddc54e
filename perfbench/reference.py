"""Reference kernel that states timings at one machine speed.

On a shared host the speed of a core changes by up to 1.5x within tens of
seconds. The kernel below does the same kind of work as the program's hot
path (small dense linear algebra driven from Python), so both slow down by
the same factor. Timing the kernel next to an op and multiplying the op's
time by NOMINAL_MS / kernel time gives the op's time at the speed the
kernel had on the host the benchmark was defined on. On that host, over
mc runs of 20 s, this cut the seed-to-seed spread of goodput from 0.24 to
0.02 (IQR over median).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Fastest-of-3 kernel time on the defining host (2-core x86_64, Python 3.11,
# numpy 2.4 with OpenBLAS) in its fast phase.
NOMINAL_MS = 1.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((9, 9))
_M = _A @ _A.T + 9.0 * np.eye(9)
_V = _rng.standard_normal(9)


def _kernel() -> float:
    s = 0.0
    for _ in range(30):
        L = np.linalg.cholesky(_M)
        y = np.linalg.solve(L, _V)
        w, Q = np.linalg.eigh(_M)
        s += float(y @ y) + float(w[0]) + float(np.max(np.abs(Q @ y)))
    return s


def kernel_ms(reps: int = 3) -> float:
    """Fastest of `reps` timings of the kernel, in ms."""
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def scale(before_ms: float, after_ms: float) -> float:
    """Factor taking a time measured between two kernel timings to the
    nominal machine speed."""
    return NOMINAL_MS / (0.5 * (before_ms + after_ms))
