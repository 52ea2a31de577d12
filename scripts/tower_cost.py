"""Time the reflection tower against truncation order and depth, for a straight and a curved corner.

The straight corner is ``<root>/scenarios/reflect_wedge.json``'s, built as
``logsurf run`` builds it, through ``cli._parse_corner``.  The curved corner
is the manufactured corner of ``scenario_digests.curved_corner`` at seed 0,
the one the ``curved_tower`` digests are taken over.  For each truncation
order N in 16, 32, 64 and 128 and each depth in 3, 5 and 8 the script builds
``tower(corner, depth, N)`` once untimed, counting its truncated products
(``series._product``; ``np.convolve`` in a tree that predates it),
``np.dot`` (the v recurrence of ``series.reversion``) and
``germs.sampled_h_sup`` calls, then reads every level's ``h`` and
``phi_inv`` and counts again, then builds the tower ``--repeats`` times
timed.  It prints one row per corner, order and depth: the median and
quartiles of the time per tower and the three call counts, as
product/dot/sampled, twice: "built" for the build alone, and "+ read" for
the build and every level read, which adds the top level's data and
inverse, made on first read.  The product and dot counts are every kernel
call a tower makes.  Each row also splits the median build in two: kernel
ms, the median over ``--repeats`` more builds of the time spent inside
``series.correlate`` (``np.convolve`` in a tree without it) and ``np.dot``,
and glue ms, the median build less that kernel time, which is the Python
and numpy work between the kernel calls.  Only those extra builds wrap
the kernels in timers, each read just before and just after its call, so
the median column is of plain builds.  The logsurf package is imported
from ``<root>/src``, so two trees whose ``tower`` and ``cli._parse_corner``
take the order are timed with one copy of this script:

    python scripts/tower_cost.py --root base
    python scripts/tower_cost.py

It is a measurement, not a test, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from scenario_digests import curved_corner

ORDERS = (16, 32, 64, 128)
DEPTHS = (3, 5, 8)


def counted_build(tower, germs, series, corner, depth, order) -> tuple[str, str]:
    """The truncated product, np.dot and sampled_h_sup calls of one
    tower(corner, depth, order), as "product/dot/sampled": after the build, and
    after every level's h and phi_inv is read as well."""
    calls = {"product": 0, "dot": 0, "sampled": 0}
    # a tree without series._product makes its products with np.convolve
    owner, name = (series, "_product") if hasattr(series, "_product") else (np, "convolve")
    product, dot, sampled = getattr(owner, name), np.dot, germs.sampled_h_sup

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    setattr(owner, name, counting("product", product))
    np.dot, germs.sampled_h_sup = counting("dot", dot), counting("sampled", sampled)
    counts = lambda: "/".join(str(calls[kind]) for kind in ("product", "dot", "sampled"))
    try:
        states = tower(corner, depth, order)
        built = counts()
        for st in states:
            st.h, st.phi_inv
    finally:
        setattr(owner, name, product)
        np.dot, germs.sampled_h_sup = dot, sampled
    return built, counts()


def kernel_ms(tower, series, corner, depth, order) -> float:
    """Milliseconds spent inside the correlate and np.dot calls of one
    tower(corner, depth, order)."""
    spent = [0.0]
    owner, name = (series, "correlate") if hasattr(series, "correlate") else (np, "convolve")
    kernel, dot = getattr(owner, name), np.dot

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start
        return wrapper

    setattr(owner, name, timed(kernel))
    np.dot = timed(dot)
    try:
        tower(corner, depth, order)
    finally:
        setattr(owner, name, kernel)
        np.dot = dot
    return spent[0] * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="source tree holding src/logsurf and scenarios/ (default: this checkout)",
    )
    parser.add_argument("--repeats", type=int, default=9, help="timed builds per row")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from logsurf import cli, germs, series, tower

    obj = json.loads((root / "scenarios" / "reflect_wedge.json").read_text())
    print(f"tower cost, tree {root}")
    print(f"{'corner':>8} {'order':>5} {'depth':>5} {'median ms':>9} {'q1 ms':>7} {'q3 ms':>7} "
          f"{'kernel ms':>9} {'glue ms':>7} {'built':>12} {'+ read':>12}   (product/dot/sampled calls)")
    for name in ("straight", "curved"):
        for order in ORDERS:
            if name == "straight":
                corner = cli._parse_corner(obj["corner"], "$.corner", order)
            else:
                corner, _ = curved_corner(np.random.default_rng([0, 5]))
            for depth in DEPTHS:
                built, read = counted_build(tower, germs, series, corner, depth, order)
                times = []
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    tower(corner, depth, order)
                    times.append((time.perf_counter() - start) * 1e3)
                # one build is its own median and quartiles
                q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
                kernel = statistics.median(kernel_ms(tower, series, corner, depth, order)
                                           for _ in range(args.repeats))
                print(f"{name:>8} {order:5d} {depth:5d} {median:9.2f} {q1:7.2f} {q3:7.2f} "
                      f"{kernel:9.2f} {median - kernel:7.2f} {built:>12} {read:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
