"""Print sha256 digests of every shipped scenario's output, as one JSON map.

Each scenario in ``<root>/scenarios/*.json`` runs through ``logsurf.cli.run``
at seed {file, 1, 7} x trunc_order {file, 16, 48}.  A digest covers
``summary.json`` without its provenance timestamp, plus every csv the run
wrote.  Each ``curved_tower seed=s order=N`` key, for s in {0, 1, 2} and
N in {16, 32, 64}, digests the exact floats of an 8-level tower over a
seeded manufactured curved corner: every germ's coefficients, arguments
and radii, every level's data series and radii, and 64 ``extend_eval``
values dealt over its windows.  Each ``straight_tower alpha=a order=N`` key,
for a in {0, 0.4} and N in {16, 32, 64}, digests the same floats of an
8-level tower over a wedge whose sides are rays at a and a + 1, every
level's data and inverse read.  Both towers are built from public
constructors only.  Every key runs in one process, so the later runs of a
corner read the towers that ``cli._tower`` kept from its first: a tree
with that memo matching one without it shows that warm runs write what
cold ones do.  The logsurf package is imported from ``<root>/src``,
so two trees can be compared with one copy of this script:

    python scripts/scenario_digests.py --root base > base.json
    python scripts/scenario_digests.py > head.json
    diff base.json head.json
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

SEEDS = (None, 1, 7)
ORDERS = (None, 16, 48)
CURVED_SEEDS = (0, 1, 2)
TOWER_ORDERS = (16, 32, 64)
TOWER_LEVELS = 8
CURVED_POINTS = 64
STRAIGHT_ALPHAS = (0.0, 0.4)


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


def _poly_mul(p: list, q: list) -> list:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_eval(coeffs, w: complex) -> complex:
    total = 0j
    for c in reversed(coeffs):
        total = total * w + c
    return total


def curved_corner(rng):
    """A seeded manufactured curved corner and its base evaluator, (corner, base).

    F is a random cubic and chi(t) = e**(i theta) t (1 + h(t)) a curved
    boundary germ; the data are Re F on the real ray and Re F(chi(t)) on
    chi, so the extension is F itself.  The corner is built from public
    constructors, and F(chi(t)) by the plain polynomial algebra above.
    """
    import logsurf as ls

    theta = float(rng.uniform(0.7, 1.4))
    F = [0j] + [complex(rng.normal(), rng.normal()) / n for n in (1, 2, 3)]
    h = [0j] + [amp * cmath.exp(2j * math.pi * rng.random()) for amp in (0.1, 0.05)]
    a = cmath.exp(1j * theta)
    shadow = [0j, a] + [a * c for c in h[1:]]
    on_chi, power = [], [1 + 0j]
    for c in F:
        on_chi = [x + c * y for x, y in zip_longest(on_chi, power, fillvalue=0j)]
        power = _poly_mul(power, shadow)

    def f(z):
        return _poly_eval(F, cmath.rect(z.r, z.phi))

    chi = ls.make_germ(ls.LPoint(1.0, theta), 1, tuple(h), 1.0)
    g0 = ls.puiseux([c.real for c in F], 10.0)
    g1 = ls.puiseux([c.real for c in on_chi], 10.0)
    corner = ls.CornerSpec(ls.identity_germ(), chi, ls.IrrationalAngle(theta), g0, g1, 1.0)
    return corner, ls.HarmonicEvaluator(lambda z: f(z).real, f)


def _putter(digest):
    """put(*values): feed the float hex of each value, both parts of a
    complex, so that the sign of a zero counts, to the digest."""
    def put(*values):
        for v in values:
            for x in (v.real, v.imag) if isinstance(v, complex) else (v,):
                digest.update(float(x).hex().encode() + b" ")
    return put


def _put_levels(put, states):
    """Every level's r, s, data h and germs phi, phi_inv and omega, each read."""
    import logsurf as ls

    for st in states:
        # the radius of h in z, then in w = z**(1/d)
        put(st.r, st.s, st.h.radius, st.h.radius ** (1.0 / st.h.d), *st.h.base.coeffs)
        for germ in (st.phi, st.phi_inv, ls.compose(st.phi, ls.tau_conj(st.phi_inv))):
            put(germ.a.r, germ.a.phi, germ.radius, *germ.h.coeffs)


def curved_tower_digest(seed: int, order: int) -> str:
    """sha256 over the float hex of a manufactured curved tower and its extension.

    The corner is curved_corner's, drawn from the seed; the points are
    drawn after it from the same generator.
    """
    import logsurf as ls

    rng = np.random.default_rng([seed, 5])
    digest = hashlib.sha256()
    put = _putter(digest)
    with ls.trunc_order(order):
        corner, base = curved_corner(rng)
        states = ls.tower(corner, TOWER_LEVELS)
        _put_levels(put, states)
        lo = states[0].lower
        windows = []
        for st in states:
            if st.upper > lo:
                windows.append((lo, st.upper, st.s))
                lo = st.upper
        for j in range(CURVED_POINTS):
            lo, hi, s = windows[j % len(windows)]
            r = s * 10.0 ** rng.uniform(-3.0, -1e-3)
            z = ls.LPoint(r, lo + (hi - lo) * rng.uniform(1e-3, 1.0 - 1e-3))
            put(z.r, z.phi, complex(ls.extend_eval(states, base, z)))
    return digest.hexdigest()


def curved_digests() -> dict:
    return {
        f"curved_tower seed={seed} order={order}": curved_tower_digest(seed, order)
        for seed in CURVED_SEEDS
        for order in TOWER_ORDERS
    }


def straight_tower_digest(alpha: float, order: int) -> str:
    """sha256 over the float hex of an 8-level straight tower, every level read.

    The corner is a wedge of opening 1 between the rays at alpha and
    alpha + 1, rotation germs both, with data t + t**2/2 on the first and
    t**(1/2)/4 - t**(3/2)/5 on the second, so the data have d = 2.  Every
    germ of the tower is a ray; at alpha != 0 the first ray is no identity,
    and init_state inverts it.
    """
    import logsurf as ls

    digest = hashlib.sha256()
    put = _putter(digest)
    g0 = ls.puiseux([0.0, 1.0, 0.5], 2.0)
    g1 = ls.puiseux([0.0, 0.25, 0.0, -0.2], 2.0, 2)
    corner = ls.CornerSpec(ls.rotation_germ(alpha), ls.rotation_germ(alpha + 1.0),
                           ls.IrrationalAngle(1.0), g0, g1, 1.0)
    with ls.trunc_order(order):
        _put_levels(put, ls.tower(corner, TOWER_LEVELS))
    return digest.hexdigest()


def straight_digests() -> dict:
    return {
        f"straight_tower alpha={alpha:g} order={order}": straight_tower_digest(alpha, order)
        for alpha in STRAIGHT_ALPHAS
        for order in TOWER_ORDERS
    }


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
    json.dump(scenario_digests(root) | curved_digests() | straight_digests(), sys.stdout, indent=1,
              sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
