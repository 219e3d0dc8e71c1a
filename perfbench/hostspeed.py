"""Host speed reference for the end-to-end timings.

The benchmark shares a few cores of a host with other tenants, and a
busy neighbour can slow every instruction by a third or more for
anything from a few seconds to longer than a whole run. Taking the
fastest repeat of a command filters short slow spells but not long ones.

So a run also times a fixed reference kernel, in the same process,
before every iteration and once after the last: Python loops over a
NumPy grid with dict and string work, and small-array NumPy math, the
kinds of work the CLI commands do. It does not call ``riskcbf``, and the
cyclic garbage collector is off while it runs, so neither a change to
the program nor the garbage the program leaves behind can move it.

An iteration's slowdown is the geometric mean of the samples taken just
before and just after it, over ``NOMINAL_S``. The commands slow by less
than the kernel does: across 55 s runs on a busy 2-core host, the log of
a run's unscaled ``wall_s`` rose by 0.72 (field_maps, 15 runs) and 0.76
(sim_crowd, 10 runs) of the log of its median kernel sample. So a
command's seconds are divided by its iteration's slowdown to the power
``EXPONENT``.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Kernel time on the 2-core reference machine (Python 3.11, NumPy 2.4)
# when no neighbour slowed it. A constant: it sets the speed that the
# scaled seconds are at.
NOMINAL_S = 0.019
EXPONENT = 0.75

_GRID = (np.arange(48 * 48, dtype=float).reshape(48, 48) * 0.37) % 1.0 - 0.5
_STATE = np.linspace(-1.0, 1.0, 4)


def kernel() -> int:
    """The fixed work; returns a checksum so none of it is skipped."""
    g = _GRID
    crossings = {}
    for i in range(47):
        for j in range(47):
            case = (g[i, j] > 0) | (g[i + 1, j] > 0) << 1 | (g[i + 1, j + 1] > 0) << 2 | (g[i, j + 1] > 0) << 3
            if case not in (0, 15):
                crossings[("h", i, j)] = f"{float(g[i, j]):.6g},{float(g[i + 1, j]):.6g}"
    v = _STATE
    norm = 0.0
    for _ in range(3000):
        v = np.tanh(v * 1.01 + 0.1)
        norm += float(np.dot(v, v))
    return len(crossings) + int(norm)


def sample() -> float:
    """Seconds of the faster of two back-to-back kernel runs; the first
    also warms the caches that the iteration before left cold."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def factors(samples: list[float]) -> list[float]:
    """The factor that takes each iteration's seconds to the reference
    speed, from the samples taken before each iteration and after the
    last one."""
    return [(NOMINAL_S / math.sqrt(a * b)) ** EXPONENT for a, b in zip(samples, samples[1:])]
