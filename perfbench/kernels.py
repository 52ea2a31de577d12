"""Kernel sweep: series and germ kernels timed at several truncation orders.

Inputs are seeded series of full length N + 1 with geometrically
decaying coefficients, so |h| stays well below 1/2 on the unit disc.
The order is set only through ``config.trunc_order``; the caller
checks that the global order is back at its default afterwards.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import logsurf as ls
import speed
from logsurf import config, germs, series

ORDERS = (16, 32, 64, 128)
MIN_REPS = 5
MAX_REPS = 400
CELL_SECONDS = 0.2


def _coeffs(rng, n: int, scale: float) -> list:
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return list(scale * z * 0.5 ** np.arange(n + 1))


def _median_us(fn) -> float:
    """Median microseconds per call, at nominal machine speed."""
    before = speed.sample(5)
    times = []
    start = time.perf_counter()
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or time.perf_counter() - start < CELL_SECONDS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return speed.scale(statistics.median(times), before, speed.sample(5)) * 1e6


def sweep(seed: int) -> dict:
    """Median microseconds per call, as kernel.<layer>.<fn>.N<n>.us."""
    rng = np.random.default_rng([seed, 3])
    out = {}
    for n in ORDERS:
        with config.trunc_order(n):
            a, b = _coeffs(rng, n, 1.0), _coeffs(rng, n, 1.0)
            inner = [0j, 1.0 + 0j] + _coeffs(rng, n, 0.1)[2:]
            h = [0j] + _coeffs(rng, n, 0.05)[1:]
            phi = germs.make_germ(ls.LPoint(1.0, 1.1), 1, h, 1.0)
            psi = germs.make_germ(ls.LPoint(1.0, 0.4), 1, [0j] + _coeffs(rng, n, 0.05)[1:], 1.0)
            cells = {
                "series.ps_mul": lambda: series.ps_mul(a, b),
                "series.ps_compose": lambda: series.ps_compose(a, inner),
                "series.binom_pow": lambda: series.binom_pow(h, 1.0 / 3.0),
                "series.reversion": lambda: series.reversion(inner),
                "germs.compose": lambda: germs.compose(phi, psi),
                "germs.invert": lambda: germs.invert(phi),
            }
            for name, fn in cells.items():
                out[f"kernel.{name}.N{n}.us"] = _median_us(fn)
    return out
