"""Machine-speed calibration: a fixed kernel timed between the program's ops.

On a shared host the cores change speed by up to 60% for a minute or more
at a time (frequency, and contention for resources shared with other
tenants), and every timing of a run moves with them.  The benchmark times
this kernel, whose work never changes, before the first op and after every
op, and scales each op's time by ``REF_S`` over the mean of the two kernel
times around it.  A scaled time is what the op takes on a machine where the
kernel takes ``REF_S``; the raw times are printed next to the scaled ones.

The kernel does the kind of work the program does: interpreted Python
around small dense LAPACK calls, on matrices of the sizes the secular
solver builds (12 x 12 for shift_small, 64 x 64 for wide_window).
"""
from __future__ import annotations

import time

import numpy as np

REF_S = 0.1  # seconds; the kernel takes about this long on a 2.1 GHz Xeon
ITERS = 2500

# bound here, before a traced run wraps numpy.linalg.svd
_svd = np.linalg.svd
_rng = np.random.default_rng(20190701)
_SMALL = [_rng.standard_normal((12, 12)) for _ in range(32)]
_LARGE = [_rng.standard_normal((64, 64)) for _ in range(4)]


def kernel_s() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(ITERS):
        m = _LARGE[i % 4] if i % 16 == 0 else _SMALL[i % 32]
        acc += float(_svd(m, compute_uv=False)[-1])
        row = [0.0] * 12
        for j in range(12):
            row[j] = m[j, 0] * 1.5 + j
        acc += sum(row)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """``times[i]`` at reference speed, from the kernel runs just before and after it."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before the first and after every timing")
    return [t * 2.0 * REF_S / (kernels[i] + kernels[i + 1]) for i, t in enumerate(times)]
