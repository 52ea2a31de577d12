"""The benchmark's workloads: set-up builds the inputs, ``op(i)`` runs op i.

Each workload is a class whose constructor is the set-up and whose
``op(i)`` returns True when op i passed its correctness gate.  Inputs
come only from the seed, so the same seed gives the same ops.  Library
calls go through module attributes (``ls.tower``, ``series.ps_compose``)
so that a trace installed later sees them.

* ``scenario_batch`` runs the shipped scenario files through
  ``logsurf.cli.run``, cycling through all of them.  An op fails when the
  report does not pass, or when its outputs differ from that file's
  first op (summary.json without its timestamp, and every csv).
* ``curved_tower`` builds a fresh manufactured curved corner per op into
  an 8-level tower and checks 16 points against the oracle.
* ``dense_eval`` builds one 6-level curved tower in set-up; an op
  evaluates a fresh batch of 256 points and checks each against the
  oracle.

The manufactured solution: an entire polynomial F, a curved boundary
germ chi, and boundary data Re F on the real ray and Re F(chi(t)) on
chi.  The extension must reproduce F in every window, to the README's
oracle tolerance.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import logsurf as ls
from logsurf import cli, germs, series

ORACLE_TOL = 1e-8
THETA_MAX = 1.4


def _poly(coeffs, w: complex) -> complex:
    total = 0j
    for c in reversed(coeffs):
        total = total * w + c
    return total


def manufactured_corner(rng, theta_min: float = 0.7):
    """A seeded curved corner whose extension is a known entire F.

    Returns the corner, its base evaluator and F as a function of
    surface points, evaluated by this module's own code.
    """
    theta = float(rng.uniform(theta_min, THETA_MAX))
    F = (0j,) + tuple(complex(rng.normal(), rng.normal()) / n for n in (1, 2, 3))
    h = (0j,) + tuple(amp * cmath.exp(2j * math.pi * rng.random()) for amp in (0.1, 0.05))
    chi = ls.make_germ(ls.LPoint(1.0, theta), 1, h, 1.0)
    g0 = ls.puiseux([c.real for c in F], 10.0)
    g1 = ls.puiseux([c.real for c in series.ps_compose(F, germs.s_series(chi))], 10.0)
    corner = ls.CornerSpec(ls.identity_germ(), chi, ls.IrrationalAngle(theta), g0, g1, 1.0)

    def f(z):
        return _poly(F, cmath.rect(z.r, z.phi))

    base = ls.HarmonicEvaluator(lambda z: f(z).real, f)
    return corner, base, f


def windows(states) -> list:
    """The non-empty windows of a tower as (lowest arg, highest arg, radius).

    The level-k window spans arguments from the previous level's upper
    edge to arg a(phi_k), less pi/2 on a curved side, within radius s_k;
    its points descend k - 1 levels.
    """
    lo = states[0].alpha + (0.0 if ls.is_ray(states[0].psi) else math.pi / 2)
    out = []
    for st in states:
        hi = st.phi.a.phi - (0.0 if ls.is_ray(st.phi) else math.pi / 2)
        if hi > lo:
            out.append((lo, hi, st.s))
            lo = hi
    return out


def deal_points(wins, rng, count: int) -> list:
    """count seeded points dealt in turn to the windows."""
    points = []
    for j in range(count):
        a, b, s = wins[j % len(wins)]
        phi = a + (b - a) * rng.uniform(1e-3, 1.0 - 1e-3)
        points.append(ls.LPoint(s * 10.0 ** rng.uniform(-3.0, -1e-3), phi))
    return points


class _OracleCheck:
    worst_err = 0.0
    bytes_written = 0

    def check(self, states, base, f, points) -> bool:
        ok = True
        for z in points:
            ref = f(z)
            err = abs(ls.extend_eval(states, base, z) - ref) / abs(ref)
            self.worst_err = max(self.worst_err, err)
            ok = ok and err <= ORACLE_TOL
        return ok

    def close(self):
        pass


class CurvedTower(_OracleCheck):
    group = 1
    levels = 8
    points = 16

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def op(self, i: int) -> bool:
        rng = np.random.default_rng([self.seed, 1, i])
        corner, base, f = manufactured_corner(rng)
        states = ls.tower(corner, self.levels)
        return self.check(states, base, f, deal_points(windows(states), rng, self.points))


class DenseEval(_OracleCheck):
    group = 1
    levels = 6
    points = 256
    # Above pi/4 every window from level 2 up is non-empty, so each seed
    # deals its points over the same five depths and costs the same.
    theta_min = 0.8

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        corner, self.base, self.f = manufactured_corner(
            np.random.default_rng([seed, 0]), self.theta_min
        )
        self.states = ls.tower(corner, self.levels)
        self.windows = windows(self.states)

    def op(self, i: int) -> bool:
        points = deal_points(self.windows, np.random.default_rng([self.seed, 2, i]), self.points)
        return self.check(self.states, self.base, self.f, points)


def _digest(out: Path) -> tuple[str, int]:
    """Digest of a run's outputs without the summary timestamp, and their size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["provenance"]["timestamp"]
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), size


class ScenarioBatch:
    worst_err = 0.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.files = sorted((root / "scenarios").glob("*.json"))
        if not self.files:
            raise FileNotFoundError(f"no scenario files under {root / 'scenarios'}")
        self.group = len(self.files)
        out_root = root / ".perfbench_out"
        out_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=out_root))
        self.first = {}
        self.bytes_written = 0

    def op(self, i: int) -> bool:
        path = self.files[i % len(self.files)]
        with tempfile.TemporaryDirectory(dir=self.tmp) as out:
            report = cli.run(path, out, seed=self.seed)
            digest, size = _digest(Path(out))
        self.bytes_written += size
        return report.passed and self.first.setdefault(path.name, digest) == digest

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {
    "scenario_batch": ScenarioBatch,
    "curved_tower": CurvedTower,
    "dense_eval": DenseEval,
}
