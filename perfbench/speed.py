"""Times at a nominal machine speed.

On a shared machine, neighbours loading the same cores change its
speed: a 2-vCPU Xeon virtual machine slowed by up to 1.6x, in episodes
lasting from seconds to minutes, and raw 30 s runs of this benchmark
spread by 20-35% (IQR over median) across seeds.  So the benchmark
times a fixed reference computation next to everything it measures and
scales each time by NOMINAL_S / (median reference time next to it).
The reference does the same kind of work as the library (small numpy
convolutions and a Python complex Horner loop) and calls no logsurf
code.  A reported time is thus the time on a machine where the
reference takes NOMINAL_S: it moves with the program, and hardly with
the neighbours.  Unscaled figures are printed on stderr.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.5e-3
REPS = 4
_KERNEL = np.arange(1, 34) * (1 + 0.5j) / 33


def _reference() -> complex:
    acc = np.zeros(1, dtype=complex)
    for _ in range(60):
        acc = np.convolve(acc, _KERNEL)[:33]
        acc[0] += 1.0
    total = 0j
    for c in acc.tolist() * 20:
        total = total * (0.3 + 0.1j) + c
    return total


def sample(reps: int = REPS) -> list[float]:
    """Seconds taken by each of `reps` runs of the reference."""
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        _reference()
        out.append(time.perf_counter() - t)
    return out


def scale(seconds: float, *samples: list[float]) -> float:
    """`seconds` at nominal speed, judged by the reference samples taken next to it."""
    return seconds * NOMINAL_S / statistics.median([x for s in samples for x in s])
