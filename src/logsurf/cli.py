"""Scenario runner: json descriptions in, summary.json plus csv tables out.

A scenario file is a json object whose "scenario" key selects one of
the kinds wedge, reflect, expansion_compare, poisson, green, envelope.
Every run writes <out>/summary.json (sorted keys, stable float
formatting; the timestamp is the only line that varies between
identical runs) and one csv file per table.  The process exits 0
exactly when every check of every scenario passed, 1 when a check
failed, and 2 on schema or scenario errors, which are reported with
their json location; no failure of a runner escapes as a traceback.
Every number must be finite, and the readers _as_int, _as_real and _as_list
hold each field's range, refused at the field in one form ("expected a
number > 0, got -0.0").  Counts, coefficient indices and the truncation
order (at most MAX_TRUNC_ORDER = 1024, from the file or --trunc-order)
are bounded, so no file asks for unbounded work; a tower's steps are at most
_DEEPEST_LEVEL = 155, the last level whose radius scale 100**(k - 1) is a float, and are
read before any tower is built.  Flags are json booleans.  A check whose error is nan
fails.  The reflect runner's checks fold the levels of reflect.tower_errors.
_tower, shared by the reflect and expansion runners (the envelope reads level 1 alone),
keeps up to four towers (~2.5 MiB) for later runs of a corner at an order; clear_towers drops them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import config
from .config import MAX_TRUNC_ORDER
from .corner import (
    CornerSpec,
    IrrationalAngle,
    RationalPi,
    WedgeProblem,
    angle_value,
    disk_green_reference,
    fd_laplacian,
    green_function,
    green_pole,
    is_resonant,
    unit_disk_solver,
    wedge_solve,
)
from .errors import DegenerateTerm, LogSurfError, PowerUnderflow, SchemaError, ScenarioError, WindowEmpty
from .germs import Germ, is_ray, make_germ
from .logpower import is_log_free, log_power_series, truncate
from .reflect import (
    certify_expansion,
    conjugate_corner,
    conjugate_evaluator,
    envelope,
    envelope_levels,
    exponent_window,
    extend_eval_many,
    init_state,
    rotate_evaluator,
    tower,
    tower_errors,
    worst,
)
from .series import PuiseuxSeries, dense_coeffs, puiseux_from_terms
from .surface import LPoint

from . import __version__

MAX_COUNT = 100_000  # the most nodes, samples, oracle points or grid points

# ----------------------------------------------------------------------
# schema helpers
# ----------------------------------------------------------------------

@contextmanager
def _at(loc: str, error=ScenarioError):
    """Report a library or arithmetic failure in the block as `error` at loc.

    Schema and scenario errors raised inside keep their own location.
    """
    try:
        yield
    except (SchemaError, ScenarioError):
        raise
    except (ValueError, ArithmeticError, LogSurfError) as exc:
        raise error(str(exc), loc) from exc


def _need(obj, key: str, loc: str):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", loc)
    if key not in obj:
        raise SchemaError(f"missing required key '{key}'", loc)
    return obj[key]


def _as_int(v, loc: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"expected an integer, got {v!r}", loc)
    if minimum is not None and v < minimum:
        raise SchemaError(f"expected an integer >= {minimum}, got {v}", loc)
    if maximum is not None and v > maximum:
        raise SchemaError(f"expected an integer <= {maximum}, got {v}", loc)
    return v


def _as_real(v, loc: str, above: float | None = None, minimum: float | None = None) -> float:
    """v as a finite float, refused at loc unless it is > above and >= minimum (-0.0 is not > 0)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"expected a number, got {v!r}", loc)
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"expected a finite number, got {v!r}", loc)
    if above is not None and not x > above:
        raise SchemaError(f"expected a number > {above:g}, got {v!r}", loc)
    if minimum is not None and not x >= minimum:
        raise SchemaError(f"expected a number >= {minimum:g}, got {v!r}", loc)
    return x


def _as_bool(v, loc: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(f"expected true or false, got {v!r}", loc)
    return v


def _as_list(v, loc: str, nonempty: bool = False) -> list:
    """v as a json array, refused at loc when it is empty and nonempty is set."""
    if not isinstance(v, list):
        raise SchemaError(f"expected an array, got {v!r}", loc)
    if nonempty and not v:
        raise SchemaError("expected a nonempty array, got []", loc)
    return v


def _parse_theta(obj, loc: str):
    kind = _need(obj, "kind", loc)
    if kind == "rational_pi":
        p = _as_int(_need(obj, "p", loc), f"{loc}.p", 1)
        q = _as_int(_need(obj, "q", loc), f"{loc}.q", 1)
        with _at(loc, SchemaError):
            return RationalPi(p, q)
    if kind == "irrational":
        value = _as_real(_need(obj, "value", loc), f"{loc}.value")
        with _at(f"{loc}.value", SchemaError):
            return IrrationalAngle(value)
    raise SchemaError(f"unknown angle kind {kind!r}", f"{loc}.kind")


def _parse_series(obj, loc: str, order: int) -> PuiseuxSeries:
    d = _as_int(_need(obj, "d", loc), f"{loc}.d", 1)
    radius = _as_real(_need(obj, "radius", loc), f"{loc}.radius", above=0.0)
    terms = []
    for i, term in enumerate(_as_list(_need(obj, "terms", loc), f"{loc}.terms")):
        tloc = f"{loc}.terms[{i}]"
        num = _as_int(_need(term, "num", tloc), f"{tloc}.num", 0)
        den = _as_int(_need(term, "den", tloc), f"{tloc}.den", 1)
        re = _as_real(_need(term, "re", tloc), f"{tloc}.re")
        im = _as_real(term.get("im", 0.0), f"{tloc}.im")
        if im != 0:
            raise SchemaError("boundary data must be real", f"{tloc}.im")
        n, off_lattice = divmod(num * d, den)
        if off_lattice or n > order:
            raise SchemaError(
                f"exponent {num}/{den} is not on the 1/{d} lattice up to the truncation order", tloc
            )
        terms.append((n, complex(re, im)))
    with _at(loc, SchemaError):
        return puiseux_from_terms(terms, radius, d)


def _parse_germ(obj, loc: str, order: int) -> Germ:
    a_r = _as_real(_need(obj, "a_r", loc), f"{loc}.a_r", above=0.0)
    a_phi = _as_real(_need(obj, "a_phi", loc), f"{loc}.a_phi")
    k = _as_int(_need(obj, "k", loc), f"{loc}.k", 1)  # a corner's curves have k >= 1
    radius = _as_real(_need(obj, "radius", loc), f"{loc}.radius", above=0.0)
    terms = []
    for i, term in enumerate(_as_list(obj.get("h_terms", []), f"{loc}.h_terms")):
        tloc = f"{loc}.h_terms[{i}]"
        deg = _as_int(_need(term, "deg", tloc), f"{tloc}.deg", 1, order)
        re = _as_real(_need(term, "re", tloc), f"{tloc}.re")
        im = _as_real(term.get("im", 0.0), f"{tloc}.im")
        terms.append((deg, complex(re, im)))
    with _at(loc, SchemaError):
        return make_germ(LPoint(a_r, a_phi), k, dense_coeffs(terms), radius)


def _parse_corner(obj, loc: str, order: int) -> CornerSpec:
    psi = _parse_germ(_need(obj, "psi", loc), f"{loc}.psi", order)
    chi = _parse_germ(_need(obj, "chi", loc), f"{loc}.chi", order)
    theta = _parse_theta(_need(obj, "theta", loc), f"{loc}.theta")
    g0 = _parse_series(_need(obj, "g0", loc), f"{loc}.g0", order)
    g1 = _parse_series(_need(obj, "g1", loc), f"{loc}.g1", order)
    eps = _as_real(_need(obj, "eps", loc), f"{loc}.eps", above=0.0)
    with _at(loc, SchemaError):
        return CornerSpec(psi, chi, theta, g0, g1, eps)


def _parse_edge(arr, loc: str) -> list:
    out = []
    for i, term in enumerate(_as_list(arr, loc)):
        tloc = f"{loc}[{i}]"
        coeff = _as_real(_need(term, "coeff", tloc), f"{tloc}.coeff")
        num = _as_int(_need(term, "beta_num", tloc), f"{tloc}.beta_num", 0)
        den = _as_int(_need(term, "beta_den", tloc), f"{tloc}.beta_den", 1)
        beta = Fraction(num, den)
        if beta > sys.float_info.max:
            raise SchemaError("the exponent beta_num / beta_den has no float: it is past the largest", tloc)
        if beta and not float(beta):
            raise SchemaError("a positive exponent rounds to 0.0 as a float", tloc)
        out.append((beta, coeff))
    return out


def _parse_disc_point(obj, loc: str, what: str = "evaluation points") -> complex:
    xi = complex(_as_real(_need(obj, "re", loc), f"{loc}.re"),
                 _as_real(_need(obj, "im", loc), f"{loc}.im"))
    if abs(xi) >= 1.0:
        raise SchemaError(f"{what} must lie in the open unit disc", loc)
    return xi


def _parse_grid(obj, loc: str, defaults: dict) -> dict:
    grid = dict(defaults)
    if obj is None:
        return grid
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", loc)
    for key in obj:
        if key not in defaults:
            raise SchemaError(f"unknown grid key '{key}'", loc)
        if key.endswith("_n"):
            grid[key] = _as_int(obj[key], f"{loc}.{key}", 2, math.isqrt(MAX_COUNT))
        else:
            grid[key] = _as_real(obj[key], f"{loc}.{key}", above=0.0)
    return grid


# ----------------------------------------------------------------------
# checks and tables
# ----------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    observed: float
    tolerance: float


def _check_max(name: str, observed: float, tolerance: float) -> Check:
    return Check(name, bool(observed <= tolerance), float(observed), float(tolerance))


def _check_flag(name: str, passed: bool) -> Check:
    return Check(name, bool(passed), 0.0 if passed else 1.0, 0.0)


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def emit_grid(r_values, phi_values, evaluate) -> list:
    """Tabulate an evaluator over the grid r_values x phi_values, phi-major.

    evaluate(r, phi) takes the grid points as two float lists, phi-major,
    and returns one (u, f) pair or one exception per point.  A point whose
    exception is a LogSurfError gets status 'outside' and empty value
    cells; any other exception is raised when its point is reached.
    """
    r = [float(x) for _ in phi_values for x in r_values]
    phi = [float(y) for y in phi_values for _ in r_values]
    rows = []
    for x, y, value in zip(r, phi, evaluate(r, phi)):
        if isinstance(value, LogSurfError):
            rows.append([x, y, "", "", "", "outside"])
        elif isinstance(value, Exception):
            raise value
        else:
            u, f = value
            rows.append([x, y, u, f.real, f.imag, "ok"])
    return rows


GRID_HEADER = ["r", "phi", "u", "re_f", "im_f", "status"]


# ----------------------------------------------------------------------
# scenario runners
# ----------------------------------------------------------------------

def _data_eval(edge, t: float) -> float:
    return sum(c * t ** float(b) for b, c in edge)


def _run_wedge(obj, rng, order):
    theta = _parse_theta(_need(obj, "theta", "$.theta"), "$.theta")
    edge0 = _parse_edge(_need(obj, "edge0", "$.edge0"), "$.edge0")
    edge1 = _parse_edge(_need(obj, "edge1", "$.edge1"), "$.edge1")
    zero_terms = [f"$.edge{side}[{i}]" for side, edge in enumerate((edge0, edge1))
                  for i, (beta, _) in enumerate(edge) if beta == 0]
    with _at(zero_terms[-1] if zero_terms else "$", SchemaError):  # only the constants can disagree
        problem = WedgeProblem(theta, tuple(edge0), tuple(edge1))
    with _at("$"):
        try:
            evaluator, expansion = wedge_solve(problem)
        except DegenerateTerm as exc:
            raise SchemaError(exc.reason, f"$.edge{exc.side}[{exc.index}]") from exc
    tv = angle_value(theta)
    grid = _parse_grid(obj.get("grid"), "$.grid",
                       {"r_min": 0.05, "r_max": 1.0, "r_n": 8, "phi_n": 7})
    if not grid["r_max"] > grid["r_min"]:
        raise SchemaError("r_max must exceed r_min", "$.grid.r_max")

    worst_lap = 0.0
    try:
        for r in np.geomspace(0.5, 1.0, 6):
            for phi in np.linspace(tv * 0.1, tv * 0.9, 6):
                z = LPoint(float(r), float(phi))
                lap = fd_laplacian(evaluator.u, z, 1e-3)
                worst_lap = worst(worst_lap, abs(lap) / (1.0 + abs(evaluator.u(z))))
    except OverflowError:
        # past |z| = 1, r**beta overflows first for the largest exponent
        _, side, i = max((float(b), side, i) for side, edge in enumerate((problem.edge0, problem.edge1))
                         for i, (b, c) in enumerate(edge) if c)
        raise SchemaError("z**beta overflows a float at the harmonicity stencil, just past |z| = 1",
                          f"$.edge{side}[{i}]") from None

    # One pass over the grid, phi-major, f before u at each point; its
    # first and last rows lie on the edges 0 and theta.
    ts = np.linspace(grid["r_min"], grid["r_max"], grid["r_n"])
    phis = np.linspace(0.0, tv, grid["phi_n"])
    points = [LPoint(float(r), float(phi)) for phi in phis for r in ts]
    try:
        fu = [(evaluator.f(z), evaluator.u(z)) for z in points]
        b0 = worst(*(abs(u - _data_eval(problem.edge0, t)) for t, (_, u) in zip(ts, fu)))
        b1 = worst(*(abs(u - _data_eval(problem.edge1, t)) for t, (_, u) in zip(ts, fu[-len(ts):])))
    except OverflowError:
        raise SchemaError(f"the solution overflows a float on the grid, at r up to {grid['r_max']!r}",
                          "$.grid.r_max") from None
    worst_re = worst(0.0, *(abs(u - f.real) / (1.0 + abs(f)) for f, u in fu))

    has_resonance = any(
        beta > 0 and c != 0 and is_resonant(theta, beta)
        for edge in (problem.edge0, problem.edge1)
        for beta, c in edge
    )
    dichotomy = is_log_free(expansion) == (not has_resonance)

    checks = [
        _check_max("boundary_edge0", b0, 1e-10),
        _check_max("boundary_edge1", b1, 1e-10),
        _check_max("harmonicity", worst_lap, 1e-4),
        _check_max("re_compatibility", worst_re, 1e-12),
        _check_flag("log_dichotomy", dichotomy),
    ]

    grid_rows = emit_grid(ts, phis, lambda r, phi: [(u, f) for f, u in fu])
    exp_rows = [[float(alpha), m, c.real, c.imag]
                for alpha, poly in expansion.terms for m, c in enumerate(poly)]
    tables = {
        "grid": (GRID_HEADER, grid_rows),
        "expansion": (["alpha", "log_degree", "re", "im"], exp_rows),
    }
    constants = {"theta": tv}
    return checks, constants, tables


def _straight_wedge_base(corner: CornerSpec, loc: str):
    """Closed-form base solution for a corner whose curves are rays.

    A first ray at argument alpha != 0 rotates the wedge solution by
    reflect.rotate_evaluator, phi -> phi - alpha."""
    if not (is_ray(corner.psi) and is_ray(corner.chi)):
        raise ScenarioError(
            "closed-form bases exist only for straight boundary rays", loc
        )
    edge = {0: [], 1: []}
    for side, g in ((0, corner.g0), (1, corner.g1)):
        for n, c in enumerate(g.base.coeffs):
            if c != 0:
                edge[side].append((Fraction(n, g.d), c.real))
    with _at(loc):
        problem = WedgeProblem(corner.theta, tuple(edge[0]), tuple(edge[1]))
        evaluator, expansion = wedge_solve(problem)
    alpha = corner.psi.a.phi
    return (evaluator if alpha == 0.0 else rotate_evaluator(evaluator, alpha)), expansion


_DEEPEST_LEVEL = 155  # the last level whose radius scale 100**(k - 1) is a float: the most steps
_TOWERS = {}  # (repr(corner), order): its levels, the least recently used first
_MAX_TOWERS, _MAX_KEPT = 4, 2**14  # towers, and levels times order over them: ~2.5 MiB at most
clear_towers = _TOWERS.clear  # the next run of each corner builds its tower anew


def _s1_field(corner, s1: float) -> str:
    """Where a radius that underflows is refused: within _DEEPEST_LEVEL levels only a small s_1
    underflows, so at the first corner field equal to s_1 (eps, then the psi, chi, g0 and g1
    radii), or at $.corner itself when s_1 is a radius transported by a curve."""
    fields = (("eps", corner.eps), ("psi.radius", corner.psi.radius), ("chi.radius", corner.chi.radius),
              ("g0.radius", corner.g0.radius), ("g1.radius", corner.g1.radius))
    return next((f"$.corner.{name}" for name, v in fields if v == s1), "$.corner")


def _tower(corner, steps, order):
    """tower(corner, steps, order), its errors at $.corner; an underflowing radius is a
    SchemaError at _s1_field.

    Up to _MAX_TOWERS towers of _MAX_KEPT levels times order in all are kept, keyed by the
    corner's repr (every float's digits and zero's sign, which == misses) and the order, the
    least recently used dropped first.  A level does not depend on deeper ones, so a kept
    tower of at least `steps` levels gives its first.
    """
    key = (repr(corner), order)
    states = _TOWERS.pop(key, [])
    if len(states) < steps:
        with _at("$.corner"):
            try:
                states = tower(corner, steps, order)
            except WindowEmpty as exc:
                raise SchemaError(str(exc), _s1_field(corner, init_state(corner, order).s)) from None
    _TOWERS[key] = states
    while len(_TOWERS) > _MAX_TOWERS or sum(len(v) * k[1] for k, v in _TOWERS.items()) > _MAX_KEPT:
        del _TOWERS[next(iter(_TOWERS))]
    return states[:steps]


def _reflect_checks(corner, base, steps, order, rng, n_oracle, suffix=""):
    """One tower's checks: four from its levels' fields, and the worst level of each tower_errors row."""
    states = _tower(corner, steps, order)
    s1, r1 = states[0].s, states[0].r
    theta, alpha = states[0].theta, states[0].alpha

    drift = angle_err = mod_err = 0.0
    # h0, h_1 and the sums of the transport have denominators dividing d_top
    d_top = math.lcm(states[0].h0.d, states[0].h.d)
    d_stable = True
    for st in states:
        scale = 100.0 ** (st.k - 1)
        drift = worst(drift, abs(st.s * scale / s1 - 1.0), abs(st.r * scale / r1 - 1.0))
        angle_err = worst(angle_err, abs((st.phi.a.phi - alpha) - 2.0 ** (st.k - 1) * theta))
        mod_err = worst(mod_err, abs(st.phi.a.r - 1.0))
        d_stable = d_stable and d_top % st.h.d == 0

    boundary, oracle = tower_errors(states, base, rng, n_oracle)
    checks = [
        _check_max(f"radius_recursion{suffix}", drift, 1e-12),
        _check_max(f"angle_doubling{suffix}", angle_err, 1e-10),
        _check_max(f"unit_modulus{suffix}", mod_err, 1e-10),
        _check_flag(f"denominator_stable{suffix}", d_stable),
        _check_max(f"boundary_data{suffix}", worst(0.0, *boundary), 1e-8),
        _check_max(f"oracle_match{suffix}", worst(0.0, *oracle), 1e-8),
    ]
    return states, checks


def _run_reflect(obj, rng, order):
    corner = _parse_corner(_need(obj, "corner", "$.corner"), "$.corner", order)
    steps = _as_int(_need(obj, "steps", "$.steps"), "$.steps", 2, _DEEPEST_LEVEL)
    n_oracle = _as_int(obj.get("oracle_points", 100), "$.oracle_points", 1, MAX_COUNT)
    negative = _as_bool(obj.get("negative", False), "$.negative")
    grid = _parse_grid(obj.get("grid"), "$.grid", {"r_n": 6, "phi_n": 7})
    base, _ = _straight_wedge_base(corner, "$.corner")
    with _at("$.corner"):
        states, checks = _reflect_checks(corner, base, steps, order, rng, n_oracle)

    if negative:
        mirror = conjugate_corner(corner)
        mbase = conjugate_evaluator(base)
        with _at("$.negative"):
            _, mchecks = _reflect_checks(mirror, mbase, steps, order, rng, n_oracle, "_mirror")
        checks.extend(mchecks)

    state_rows = [
        [st.k, st.r, st.s, st.phi.a.phi, st.phi.a.r, st.h.d, st.h.radius]
        for st in states
    ]
    lower, upper = states[-1].lower, states[-1].upper
    span = upper - lower
    grid_rows = emit_grid(
        np.geomspace(states[-1].s * 0.3, states[0].s * 0.5, grid["r_n"]),
        np.linspace(lower + span * 1e-3, upper - span * 1e-3, grid["phi_n"]),
        lambda r, phi: [fv if isinstance(fv, Exception) else (fv.real, fv)
                        for fv in extend_eval_many(states, base, r, phi)],
    )
    tables = {
        "states": (["k", "r", "s", "arg_a", "abs_a", "d", "h_radius"], state_rows),
        "extension_grid": (GRID_HEADER, grid_rows),
    }
    constants = {"s1": states[0].s, "theta": states[0].theta, "alpha": states[0].alpha}
    return checks, constants, tables


def _expansion_setup(obj, order):
    """An expansion_compare file's (states, base, gamma, R, expect_ok) at the given order."""
    corner = _parse_corner(_need(obj, "corner", "$.corner"), "$.corner", order)
    steps = _as_int(obj.get("steps", 5), "$.steps", 3, _DEEPEST_LEVEL)
    R = _as_real(_need(obj, "R", "$.R"), "$.R", minimum=0.0)
    strip_logs = _as_bool(obj.get("strip_logs", False), "$.strip_logs")
    expect_ok = _as_bool(obj.get("expect_windows_ok", not strip_logs), "$.expect_windows_ok")
    if corner.psi.a.phi != 0.0 or not is_ray(corner.psi):
        raise ScenarioError(
            "expansion comparison needs the first curve to be the real ray",
            "$.corner.psi",
        )
    base, expansion = _straight_wedge_base(corner, "$.corner")
    gamma = truncate(expansion, R)
    if strip_logs:
        gamma = log_power_series(
            [(alpha, poly[:1]) for alpha, poly in gamma.terms]
        )
    with _at("$.R", SchemaError):
        exponent_window(gamma, R)
    return _tower(corner, steps, order), base, gamma, R, expect_ok


def _run_expansion_compare(obj, rng, order):
    states, base, gamma, R, expect_ok = _expansion_setup(obj, order)
    with _at("$"):
        try:
            cert = certify_expansion(states, base, gamma, R)
        except PowerUnderflow as exc:
            raise SchemaError(f"{exc}; a smaller R avoids it, as do fewer steps", "$.R") from None

    # C_k and the window ratios are nonnegative, so a leading 0.0 is max()'s default.
    cascade = worst(0.0, *(ck / ak for _, ck, ak, _ in cert.step_bounds if ak > 0))
    worst_window = worst(0.0, *(row[3] for row in cert.window_rows))
    checks = [
        _check_flag("exponent_window", cert.R < cert.S < cert.R_prime),
        _check_max("cascade_bound", cascade, 1.0),
        _check_flag("scale_windows", cert.ok == expect_ok),
    ]
    rows = [[k, ck, ak, tk, t_lo, ratio, ok]
            for (k, ck, ak, tk), (_, _, t_lo, ratio, ok) in zip(cert.step_bounds, cert.window_rows)]
    tables = {
        "certificate": (
            ["k", "C_k", "A_pow_k", "t_k", "t_next", "window_ratio", "window_ok"],
            rows,
        )
    }
    constants = {
        "R": cert.R,
        "R_prime": cert.R_prime,
        "S": cert.S,
        "A": cert.A,
        "worst_window_ratio": worst_window,
    }
    return checks, constants, tables


def _trig_values(terms, eta: np.ndarray, r: float = 1.0) -> np.ndarray:
    """The sum of r**n * (a * cos(n * phi) + b * sin(n * phi)) over the terms at each eta, phi = arg eta,
    bit for bit a Python loop's: math's atan2, cos and sin per element, and float(n) * phi."""
    phi = np.array(list(map(math.atan2, eta.imag.tolist(), eta.real.tolist())))
    total = np.zeros(len(phi))
    for n, a, b in terms:
        nphi = (float(n) * phi).tolist()
        cos, sin = np.array(list(map(math.cos, nphi))), np.array(list(map(math.sin, nphi)))
        total = total + r ** float(n) * (a * cos + b * sin)
    return total


def _run_poisson(obj, rng, order):
    """The Poisson integral at each point against its closed form; one solve, on the node array."""
    data = _need(obj, "data", "$.data")
    kind = _need(data, "kind", "$.data")
    nodes = _as_int(obj.get("nodes", 512), "$.nodes", 16, MAX_COUNT)
    points = _as_list(_need(obj, "points", "$.points"), "$.points", nonempty=True)
    if kind == "constant":
        value = _as_real(_need(data, "value", "$.data"), "$.data.value")
        h = lambda eta: np.full(len(eta), value)
        ref = lambda xi: value
        tol = 1e-10
    elif kind == "re":
        h = lambda eta: eta.real
        ref = lambda xi: xi.real
        tol = 1e-6
    elif kind == "trig":
        terms = []
        for i, t in enumerate(_as_list(_need(data, "terms", "$.data"), "$.data.terms")):
            tloc = f"$.data.terms[{i}]"
            n = _as_int(_need(t, "n", tloc), f"{tloc}.n", 0)
            if n > sys.float_info.max:  # the data takes n * phi as a float
                raise SchemaError("n has no float: it is past the largest", f"{tloc}.n")
            if not math.isfinite(n * math.pi):  # |phi| <= pi
                raise SchemaError(f"n * pi overflows a float for n = {n:.3e}", f"{tloc}.n")
            a = _as_real(t.get("cos", 0.0), f"{tloc}.cos")
            b = _as_real(t.get("sin", 0.0), f"{tloc}.sin")
            terms.append((n, a, b))
        h = lambda eta: _trig_values(terms, eta)  # r**n = 1.0 on the circle
        ref = lambda xi: float(_trig_values(terms, np.array([xi]), abs(xi))[0])
        tol = 1e-6
    else:
        raise SchemaError(f"unknown data kind {kind!r}", "$.data.kind")

    with _at("$.data"):
        u = unit_disk_solver(nodes)(h)
    rows = []
    worst_err = 0.0
    for i, p in enumerate(points):
        ploc = f"$.points[{i}]"
        xi = _parse_disc_point(p, ploc)
        with _at(ploc):
            got = u(xi)
        want = ref(xi)
        err = abs(got - want)
        worst_err = worst(worst_err, err)
        rows.append([xi.real, xi.imag, got, want, err])
    checks = [_check_max(f"poisson_{kind}", worst_err, tol)]
    tables = {"values": (["re_xi", "im_xi", "computed", "reference", "abs_err"], rows)}
    return checks, {"nodes": float(nodes)}, tables


def _run_green(obj, rng, order):
    y = _parse_disc_point(_need(obj, "y", "$.y"), "$.y", "the pole")
    nodes = _as_int(obj.get("nodes", 1024), "$.nodes", 16, MAX_COUNT)
    solve = unit_disk_solver(nodes)
    green_y = green_pole(solve, y)
    rows = []
    worst_ref = 0.0
    worst_sym = 0.0
    x_list = _as_list(_need(obj, "x_list", "$.x_list"), "$.x_list", nonempty=True)
    for i, p in enumerate(x_list):
        ploc = f"$.x_list[{i}]"
        x = _parse_disc_point(p, ploc)
        with _at(ploc):
            got = green_y(x)
            swapped = green_function(solve, x, y)
            want = disk_green_reference(y, x)
        worst_ref = worst(worst_ref, abs(got - want))
        worst_sym = worst(worst_sym, abs(got - swapped))
        rows.append([x.real, x.imag, got, want, swapped, abs(got - want)])
    checks = [
        _check_max("green_closed_form", worst_ref, 1e-5),
        _check_max("green_symmetry", worst_sym, 1e-5),
    ]
    tables = {
        "green": (["re_x", "im_x", "value", "reference", "swapped", "abs_err"], rows)
    }
    return checks, {"nodes": float(nodes)}, tables


def _run_envelope(obj, rng, order):
    """The envelope's domain against the windows at samples of x, leveled in one sweep.
    The envelope reads level 1 alone, so `steps` is bounded but builds no level."""
    corner = _parse_corner(_need(obj, "corner", "$.corner"), "$.corner", order)
    _as_int(_need(obj, "steps", "$.steps"), "$.steps", 3, _DEEPEST_LEVEL)
    phi_max = _as_real(obj.get("phi_max", 1e4), "$.phi_max", minimum=1.0)
    samples = _as_int(obj.get("samples", 64), "$.samples", 2, MAX_COUNT)
    with _at("$.corner"):
        level = init_state(corner, order)
    xs = np.geomspace(1.0, phi_max, samples).tolist()  # xs[-1] is phi_max exactly
    with _at("$"):
        theta, s1 = level.theta, level.s
        try:
            levels = envelope_levels(theta, xs)
        except OverflowError:  # level 1025's reach 2**1024 * theta - pi/2 has no float
            raise SchemaError(f"phi_max = {phi_max:.3e} needs a level past 1024, whose radius scale "
                              f"100**1024 or more overflows a float", "$.phi_max") from None
        if levels[-1] > _DEEPEST_LEVEL:  # the deepest level envelope reads
            raise SchemaError(f"level {levels[-1]}'s radius scale 100**{levels[-1] - 1} overflows a float",
                              "$.phi_max")
        try:
            env = envelope([level], phi_max)
        except WindowEmpty as exc:
            raise SchemaError(str(exc), _s1_field(corner, s1)) from None

    violations = 0
    for x, lev in zip(xs, levels):
        window_radius = s1 / 100.0 ** (lev - 1)
        envelope_radius = env.domain.c * math.exp(-env.domain.C * math.sqrt(x))
        if envelope_radius > window_radius:
            violations += 1
    checks = [
        _check_max("window_cover", float(violations), 0.0),
        _check_flag("constants_positive", env.K > 1.0 and env.domain.C > 0.0),
    ]
    rows = [[x, lev, wr, nk] for x, lev, wr, nk in env.rows]
    tables = {"envelope": (["x", "level", "window_radius", "needed_K"], rows)}
    constants = {"K": env.K, "c": env.domain.c, "C": env.domain.C}
    return checks, constants, tables


_RUNNERS = {
    "wedge": _run_wedge,
    "reflect": _run_reflect,
    "expansion_compare": _run_expansion_compare,
    "poisson": _run_poisson,
    "green": _run_green,
    "envelope": _run_envelope,
}


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _trunc_order(obj: dict, override: int | None = None) -> int:
    """A run's truncation order: override, else the file's trunc_order, else
    the default of logsurf.config."""
    order = obj.get("trunc_order") if override is None else override
    return config.get_trunc_order() if order is None else _as_int(
        order, "$.trunc_order", 1, MAX_TRUNC_ORDER)


@dataclass
class Report:
    name: str
    passed: bool
    checks: list


def run(path: str | Path, out_dir: str | Path, trunc_order: int | None = None,
        seed: int | None = None) -> Report:
    """Run one scenario file and write its report."""
    path = Path(path)
    out = Path(out_dir)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}", "$")
    except (ValueError, RecursionError) as exc:  # bad json, bytes or digit counts are ValueErrors
        raise SchemaError(f"invalid json: {exc}", "$")
    if not isinstance(obj, dict):
        raise SchemaError("scenario file must hold a json object", "$")
    kind = _need(obj, "scenario", "$")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise SchemaError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(_RUNNERS)}",
            "$.scenario",
        )
    eff_seed = _as_int(seed if seed is not None else obj.get("seed", 0), "$.seed", 0)
    eff_order = _trunc_order(obj, trunc_order)
    rng = np.random.default_rng(eff_seed)

    # A float that overflows fails its check or raises; numpy's warnings about it are noise.
    with _at("$"), np.errstate(all="ignore"):
        checks, constants, tables = _RUNNERS[kind](obj, rng, eff_order)

    payload = {
        "scenario": obj,
        "checks": [dict(vars(c)) for c in sorted(checks, key=lambda c: c.name)],
        "constants": {k: float(v) for k, v in sorted(constants.items())},
        "passed": all(c.passed for c in checks),
        "tables": sorted(tables),
        "provenance": {
            "version": __version__,
            "seed": eff_seed,
            "trunc_order": eff_order,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            with open(out / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt_cell(v) for v in row])
        (out / "summary.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write the report to {out}: {exc}", "$") from exc
    return Report(path.stem, payload["passed"], checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="run verification scenarios for the reflection library",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file or a directory of them")
    runp.add_argument("scenario", nargs="?", help="path to a scenario json file")
    runp.add_argument("--batch", metavar="DIR", help="run every *.json file under DIR")
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument("--trunc-order", type=int, default=None,
                      help=f"the run's series truncation order (at most {MAX_TRUNC_ORDER})")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the scenario sampling seed")
    args = parser.parse_args(argv)

    if (args.scenario is None) == (args.batch is None):
        parser.error("provide exactly one of a scenario file or --batch DIR")

    if args.batch is not None:
        files = sorted(Path(args.batch).glob("*.json"))
        if not files:
            print(f"error: no scenario files under {args.batch}", file=sys.stderr)
            return 2
        jobs = [(f, Path(args.out) / f.stem) for f in files]
    else:
        jobs = [(Path(args.scenario), Path(args.out))]

    # every file runs; the exit code is the worst file's, 2 over 1 over 0
    code = 0
    for path, out in jobs:
        try:
            report = run(path, out, args.trunc_order, args.seed)
        except (SchemaError, ScenarioError) as exc:
            print(f"error ({path.name}): {exc}", file=sys.stderr)
            code = 2
            continue
        n_pass = sum(1 for c in report.checks if c.passed)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{verdict} {report.name}: {n_pass}/{len(report.checks)} checks -> {out}")
        if not report.passed:
            code = max(code, 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
