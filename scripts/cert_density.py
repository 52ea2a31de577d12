"""Time certify_expansion against its sample density, on one scenario's corner.

The corner, the tower and gamma come from ``<root>/scenarios/expansion_sanity.json``
(or ``--scenario``), built by the runner's own set-up, ``cli._expansion_setup``:
the closed-form wedge base, its expansion truncated at R (log-free when the
file sets strip_logs), and the file's number of levels, at the truncation
order ``logsurf run`` takes for the file.  For each (angle_samples, radial_samples)
the script times ``certify_expansion`` and prints one row: the samples of
the first pass (windows x angles x radii) and of the second (windows x
angles x 6, fewer when the scales underflow), the median and quartiles
of the time over ``--repeats`` runs after one warm-up, whether the
certificate's windows passed, and a sha256 over the repr of its floats
``(A, step_bounds, window_rows, ok)``.  The logsurf package is imported
from ``<root>/src``, so two trees whose ``cli._expansion_setup`` takes the
order are timed, and their certificates compared, with one copy of this
script:

    python scripts/cert_density.py --root base
    python scripts/cert_density.py

It is a measurement, not a test, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

DENSITIES = ((5, 8), (10, 16), (16, 25))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="source tree holding src/logsurf and scenarios/ (default: this checkout)",
    )
    parser.add_argument("--scenario", default="expansion_sanity.json",
                        help="an expansion_compare file under <root>/scenarios")
    parser.add_argument("--repeats", type=int, default=21, help="timed runs per density")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from logsurf import certify_expansion, cli

    obj = json.loads((root / "scenarios" / args.scenario).read_text())
    order = cli._trunc_order(obj)
    states, base, gamma, R, _ = cli._expansion_setup(obj, order)
    windows = sum(st.upper > st.lower for st in states)
    print(f"{args.scenario}: {len(states)} levels, order {order}, tree {root}")
    print(f"{'angles':>6} {'radii':>5} {'pass 1':>6} {'pass 2':>6} "
          f"{'median ms':>9} {'q1 ms':>7} {'q3 ms':>7}  ok    sha256")
    for angles, radii in DENSITIES:
        times = []
        for _ in range(args.repeats + 1):
            start = time.perf_counter()
            cert = certify_expansion(states, base, gamma, R, angles, radii)
            times.append((time.perf_counter() - start) * 1e3)
        runs = times[1:]  # one run is its own median and quartiles
        q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
        floats = repr((cert.A, cert.step_bounds, cert.window_rows, cert.ok))
        print(f"{angles:6d} {radii:5d} {windows * angles * radii:6d} "
              f"{windows * angles * 6:6d} {median:9.2f} {q1:7.2f} {q3:7.2f}  {cert.ok!s:5} "
              f"{hashlib.sha256(floats.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
