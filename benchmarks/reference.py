"""Host-speed reference: a fixed kernel timed between the program's calls.

The shared host's speed drifts by up to about 40% over seconds to minutes,
and CPU time drifts with wall time, so the drift is not descheduling. Raw
wall times of one commit therefore spread more between runs than a
regression bound can allow. The benchmark runs this kernel after every
timed call, for a fixed share of that call's wall time, and scales the
call's wall time by REF_MS / (the kernel's mean time in that slice). The
scaled time is what the call would take on a host that runs the kernel in
REF_MS. A change to the program moves the call's time and not the
kernel's, so it shows in full; a change of host speed moves both.

The kernel imports nothing from scseg, so no change to the program can
change it. It is a frozen copy of the shape of the program's inner loop:
the four-split ADMM sweep of scseg 0.1 on one 64x64 block, with the same
numpy and scipy calls and allocations per iteration. The closer the kernel
is to the program's instruction mix, the more exactly host drift cancels:
interleaved block by block with the program on a 2-core Xeon VM, a kernel
of a few generic numpy calls left 3% of spread between 10-second windows,
and this one 0.4%.
The slices are a call's length apart, so the scaling is only as good as
the host is steady over one call; that is why the pages are small.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Nominal time of a round of kernels, by thread count: round figures near
# the medians on the 2-core Xeon (Sapphire Rapids) VM the first numbers come
# from. Two threads share the interpreter lock, so a round of two takes
# longer than two kernels in turn.
REF_MS = {1: 15.0, 2: 55.0}
# Kernel time after each call, as a share of the call's wall time.
REF_SHARE = 0.25

_N = 64
_K = 10
_ITERS = 50


def _operands():
    rng = np.random.default_rng(20240611)
    basis = rng.standard_normal((_N * _N, _K))
    system = cho_factor(basis.T @ basis + np.eye(_K))
    block = rng.standard_normal(_N * _N) * 50.0
    return basis, system, block


_BASIS, _SYSTEM, _BLOCK = _operands()


def _soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _group_soft(a, lam, axis):
    norms = np.linalg.norm(a, axis=axis, keepdims=True)
    return a * np.where(norms > lam, 1.0 - lam / np.where(norms > 0, norms, 1.0), 0.0)


def kernel() -> float:
    """Fifty fixed ADMM sweeps on one 64x64 block; returns a checksum."""
    b, system, f, n = _BASIS, _SYSTEM, _BLOCK, _N
    alpha = beta = w2 = np.zeros(_K)
    s, y, z, w1, v1, v2 = (np.zeros(n * n) for _ in range(6))
    for _ in range(_ITERS):
        alpha = cho_solve(system, b.T @ w1 - w2 + beta + b.T @ (f - s))
        beta = _soft(alpha + w2, 1.0)
        smooth = b @ alpha
        s = _soft(w1 - v1 - v2 + (f - smooth) + y + z, 0.5) / 3.0
        m = s.reshape(n, n)
        y = _group_soft(m + v1.reshape(n, n), 0.5, axis=1).ravel()
        z = _group_soft(m + v2.reshape(n, n), 0.5, axis=0).ravel()
        w1 = w1 + (f - smooth - s)
        w2 = w2 + (alpha - beta)
        v1 = v1 + (s - y)
        v2 = v2 + (s - z)
        if not (np.isfinite(alpha).all() and np.isfinite(s).all()):
            raise FloatingPointError("reference kernel went non-finite")
        for r in (f - b @ alpha - s, alpha - beta, s - y, s - z):
            float(np.linalg.norm(r))
    return float(alpha.sum())


def at_reference(wall_s: float, ref_ms: float, threads: int = 1) -> float:
    """`wall_s` scaled to a host that runs a round of `threads` kernels in REF_MS[threads]."""
    return wall_s * REF_MS[threads] / ref_ms


class HostSpeed:
    """Runs the kernel in slices and keeps its timings.

    With `threads` > 1 a slice runs rounds of one kernel per thread at once,
    as a call with that many workers loads that many cores; the time of a
    round counts as one kernel time. The threads exist only during a slice.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.kernels = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> float:
        """Run the kernel at least once and until `seconds` have passed; returns its mean ms."""
        if self.threads == 1:
            return self._sample(seconds, kernel)
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return self._sample(seconds, lambda: list(pool.map(lambda _: kernel(), range(self.threads))))

    def _sample(self, seconds: float, run) -> float:
        start = time.perf_counter()
        n = 0
        while True:
            run()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.kernels += n
        self.seconds += elapsed
        return elapsed * 1e3 / n

    def mean_ms(self) -> float:
        return self.seconds * 1e3 / self.kernels if self.kernels else float("nan")
