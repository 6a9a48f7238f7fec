"""A fixed reference kernel that tracks the CPU's current speed.

On a shared host the same code runs up to about 1.9 times slower for
seconds or minutes at a time, because of what the host's other guests are
doing. The benchmark times a fixed kernel of Python and numpy work between
operations and scales each operation's time by how fast the kernel ran
around it, so the reported times are those of a CPU on which the kernel takes
``NOMINAL_S``. The kernel calls nothing in the package, so changes to the
package cannot move it.

Raw, unscaled times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the kernel's time on an Intel Xeon vCPU of a 2-vCPU KVM guest,
# Python 3.11, in its fast state. Only its constancy matters: it sets the
# scale.
NOMINAL_S = 1.0e-3
# Kernel size: a float loop with calls and dict traffic, the mix the
# package's Python layers run, then whole-array numpy passes over a market
# grid's worth of bins, which the market and sampling layers run.
_ITERS = 2000
_ARRAY_PASSES = 10
_BINS = 4096
# A reference sample is this many back-to-back kernel timings; its value
# is their median, which a single interrupt cannot move.
_REPEAT = 3

_grid = np.linspace(-4.0, 4.0, _BINS)


def _kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    sqrt, log = math.sqrt, math.log
    for i in range(_ITERS):
        x = (i % 97) * 0.37
        acc += sqrt(x + 1.0) * log(x + 2.0)
        table[i & 63] = acc
        if acc > 1e6:
            acc = table.get(i & 31, 0.0) * 1e-3
    for k in range(_ARRAY_PASSES):
        dens = np.exp(-0.5 * (_grid - 0.01 * k) ** 2)
        acc += float(np.log(np.cumsum(dens) + 1.0).sum())
    return acc


def sample() -> tuple[float, float]:
    """(wall s, CPU s) of one kernel run, as medians of a few repeats."""
    walls, cpus = [], []
    for _ in range(_REPEAT):
        c0 = time.process_time()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        c1 = time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return statistics.median(walls), statistics.median(cpus)


def local_scales(refs: list[tuple[float, float]], slot: int, width: int = 2) -> tuple[float, float]:
    """(wall, CPU) scale factors for work done between refs[slot] and
    refs[slot + 1]: NOMINAL_S over the median of the ``width`` samples on
    each side of it."""
    window = refs[max(slot - width + 1, 0):slot + width + 1]
    wall = statistics.median(w for w, _ in window)
    cpu = statistics.median(c for _, c in window)
    return NOMINAL_S / wall, NOMINAL_S / max(cpu, 1e-9)
