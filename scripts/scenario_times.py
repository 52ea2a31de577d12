"""Time ``cli.run`` per scenario file: the wall time of ``logsurf run`` per file.

For each ``<root>/scenarios/*.json`` the script times ``cli.run`` over
``--repeats`` passes, after one warm-up pass; a pass runs every file once,
in name order, each into a fresh output directory.  One row per file gives
the median and quartiles of the whole run, then the medians of its two
parts: the runner (the scenario kind's function in ``cli._RUNNERS``, timed
by a wrapper put in its place) and the rest (reading and checking the
file, and writing the report).  The towers that ``cli._tower`` keeps
for later runs are dropped by ``cli.clear_towers`` before each timed
run, so a row is what one
file's ``logsurf run`` costs in a fresh process, whatever files ran
before it.  The logsurf package is imported from
``<root>/src``, so two trees are timed with one copy of this script:

    python scripts/scenario_times.py --root base
    python scripts/scenario_times.py

It is a measurement, not a test, and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _quartiles(values: list) -> tuple:
    """(q1, median, q3); one value is its own median and quartiles."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="source tree holding src/logsurf and scenarios/ (default: this checkout)",
    )
    parser.add_argument("--repeats", type=int, default=21, help="timed passes over the files")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from logsurf import cli

    files = sorted((root / "scenarios").glob("*.json"))
    if not files:
        parser.error(f"no scenario files under {root / 'scenarios'}")

    runner_s = [0.0]

    def timed(runner):
        def wrapper(*a):
            start = time.perf_counter()
            try:
                return runner(*a)
            finally:
                runner_s[0] += time.perf_counter() - start
        return wrapper

    cli._RUNNERS = {kind: timed(runner) for kind, runner in cli._RUNNERS.items()}
    totals = {path: [] for path in files}
    runners = {path: [] for path in files}
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(args.repeats + 1):
            for i, path in enumerate(files):
                runner_s[0] = 0.0
                getattr(cli, "clear_towers", lambda: None)()  # trees before the tower memo keep none
                start = time.perf_counter()
                cli.run(path, Path(tmp) / f"{n}-{i}")
                elapsed = time.perf_counter() - start
                if n:  # the first pass warms up
                    totals[path].append(elapsed * 1e3)
                    runners[path].append(runner_s[0] * 1e3)

    print(f"{len(files)} files, {args.repeats} passes, tree {root}")
    print(f"{'file':<24} {'median ms':>9} {'q1 ms':>7} {'q3 ms':>7} {'runner ms':>9} {'rest ms':>7}")
    for path in files:
        q1, median, q3 = _quartiles(totals[path])
        rest = [t - r for t, r in zip(totals[path], runners[path])]
        print(f"{path.stem:<24} {median:9.3f} {q1:7.3f} {q3:7.3f} "
              f"{statistics.median(runners[path]):9.3f} {statistics.median(rest):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
