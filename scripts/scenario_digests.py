"""Print sha256 digests of every shipped scenario's output, as one JSON map.

Each scenario in ``<root>/scenarios/*.json`` runs through ``logsurf.cli.run``
at seed {file, 1, 7} x trunc_order {file, 16, 48}.  A digest covers
``summary.json`` without its provenance timestamp, plus every csv the run
wrote.  The logsurf package is imported from ``<root>/src``, so two trees
can be compared with one copy of this script:

    python scripts/scenario_digests.py --root base > base.json
    python scripts/scenario_digests.py > head.json
    diff base.json head.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (None, 1, 7)
ORDERS = (None, 16, 48)


def digest_outputs(out: Path) -> str:
    """sha256 over the run's files by name; summary.json loses its timestamp."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["provenance"]["timestamp"]
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest()


def scenario_digests(root: Path) -> dict:
    from logsurf import cli

    digests = {}
    for path in sorted((root / "scenarios").glob("*.json")):
        for seed in SEEDS:
            for order in ORDERS:
                key = f"{path.stem} seed={seed or 'file'} order={order or 'file'}"
                with tempfile.TemporaryDirectory() as out:
                    cli.run(path, out, trunc_order=order, seed=seed)
                    digests[key] = digest_outputs(Path(out))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="source tree holding src/logsurf and scenarios/ (default: this checkout)",
    )
    root = parser.parse_args(argv).root.resolve()
    sys.path.insert(0, str(root / "src"))
    import logsurf

    if not Path(logsurf.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported logsurf from {logsurf.__file__}, not from {root / 'src'}")
    json.dump(scenario_digests(root), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
