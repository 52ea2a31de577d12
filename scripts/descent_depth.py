"""Time extend_eval against its descent depth, on a straight or a curved corner.

The corner and the base evaluator come from ``<root>/scenarios/reflect_wedge.json``
(or ``--scenario``), built as ``logsurf run`` builds them: ``cli._parse_corner``
and the closed-form wedge base of ``cli._straight_wedge_base``.  A straight
wedge's germs are rays, whose series are empty, so its descent never sums
a series.  With ``--curved`` the corner is instead the manufactured curved
corner of ``scenario_digests.curved_corner`` at seed 0 (the one the
``curved_tower`` digests and ``tower_cost.py`` use), with its polynomial
base, and every level of the descent sums its germs' series.  For each
truncation order N in 16, 32 and 64 the script builds a tower of LEVELS
levels and takes, in every non-empty window (from the previous level's
``ReflectionState.upper``, or the first level's ``lower``, to this level's
``upper``, within radius s_k), a grid of points whose least level is k, so
extend_eval descends k - 1 reflections before it reaches the base.  It
times one extend_eval call per point and prints one row per window: the
order, the level, the depth, the number of points, the median and
quartiles of the time per point over ``--repeats`` passes after one
warm-up, and two counts per point from one more, untimed, pass: the
``series.ps_eval`` sums (wrapped wherever a logsurf module binds it) and
the complex powers w**(1/d), as ``cmath.exp`` calls (the straight wedge's
base adds its own; the curved base adds none).  The order is passed to
``tower`` and ``cli._parse_corner``.  The logsurf package is imported
from ``<root>/src``, so two trees whose ``tower`` and
``cli._parse_corner`` take the order are timed, and counted, with one copy
of this script:

    python scripts/descent_depth.py --root base
    python scripts/descent_depth.py
    python scripts/descent_depth.py --curved

It is a measurement, not a test, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import cmath
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from scenario_digests import curved_corner

ORDERS = (16, 32, 64)
LEVELS = 6
ANGLES = 10
RADII = 10


def window_points(states, membership, LPoint) -> list:
    """(level, points) for each non-empty window of the tower, with every
    point's least level checked to be that level."""
    out, lo = [], states[0].lower
    for st in states:
        hi = st.upper
        if not hi > lo:
            continue
        pad = (hi - lo) * 1e-3
        points = [
            LPoint(st.s * 10.0 ** (-3.0 * i / RADII - 1e-3),
                   lo + pad + (hi - lo - 2 * pad) * j / (ANGLES - 1))
            for j in range(ANGLES)
            for i in range(RADII)
        ]
        if any(membership(states, z) != st.k for z in points):
            raise RuntimeError(f"a point of the level-{st.k} window lies in another window")
        out.append((st.k, points))
        lo = hi
    return out


def counted_pass(extend_eval, states, base, points) -> tuple[float, float]:
    """The series.ps_eval and cmath.exp calls per point of one extend_eval
    pass over the points, counted through wrappers put back afterwards."""
    from logsurf import series

    calls = {"sums": 0, "powers": 0}
    ps_eval, exp = series.ps_eval, cmath.exp

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    bound = [mod for name, mod in sys.modules.items()
             if name.startswith("logsurf") and getattr(mod, "ps_eval", None) is ps_eval]
    for mod in bound:
        mod.ps_eval = counting("sums", ps_eval)
    cmath.exp = counting("powers", exp)
    try:
        for z in points:
            extend_eval(states, base, z)
    finally:
        for mod in bound:
            mod.ps_eval = ps_eval
        cmath.exp = exp
    return calls["sums"] / len(points), calls["powers"] / len(points)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="source tree holding src/logsurf and scenarios/ (default: this checkout)",
    )
    corners = parser.add_mutually_exclusive_group()
    corners.add_argument("--scenario", default="reflect_wedge.json",
                         help="a file under <root>/scenarios with a straight corner")
    corners.add_argument("--curved", action="store_true",
                         help="time scenario_digests.curved_corner at seed 0 instead")
    parser.add_argument("--repeats", type=int, default=21, help="timed passes per window")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from logsurf import LPoint, cli, extend_eval, membership, tower

    if args.curved:
        label = "curved_corner seed 0"
    else:
        label = args.scenario
        obj = json.loads((root / "scenarios" / args.scenario).read_text())
    print(f"{label}: {LEVELS} levels, tree {root}")
    print(f"{'order':>5} {'level':>5} {'depth':>5} {'points':>6} "
          f"{'median us':>9} {'q1 us':>7} {'q3 us':>7} {'sums/pt':>7} {'pows/pt':>7}")
    for order in ORDERS:
        if args.curved:
            corner, base = curved_corner(np.random.default_rng([0, 5]))
        else:
            corner = cli._parse_corner(obj["corner"], "$.corner", order)
            base, _ = cli._straight_wedge_base(corner, "$.corner")
        states = tower(corner, LEVELS, order)
        for level, points in window_points(states, membership, LPoint):
            times = []
            for _ in range(args.repeats + 1):
                start = time.perf_counter()
                for z in points:
                    extend_eval(states, base, z)
                times.append((time.perf_counter() - start) * 1e6 / len(points))
            runs = times[1:]  # one run is its own median and quartiles
            q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
            sums, powers = counted_pass(extend_eval, states, base, points)
            print(f"{order:5d} {level:5d} {level - 1:5d} {len(points):6d} "
                  f"{median:9.2f} {q1:7.2f} {q3:7.2f} {sums:7.2f} {powers:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
