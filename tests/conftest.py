from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from logsurf import (Germ, LPoint, NotInvertible, cli, config, cpow, logmap, make_germ, mul, power, project,
                     puiseux)
from logsurf.germs import s_series, sampled_h_sup
from logsurf.series import PowerSeries, reversion


def make_star_germ(rng, radius=1.0, degree=6, scale=0.25, unit=False, k=1):
    """A random invertible-class germ; unit=True pins |a| = 1."""
    coeffs = [0j]
    for j in range(1, degree + 1):
        coeffs.append(
            scale * (rng.standard_normal() + 1j * rng.standard_normal()) / (j * j + 1)
        )
    a_r = 1.0 if unit else 0.5 + 1.5 * rng.random()
    a = LPoint(a_r, rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    return make_germ(a, k, tuple(coeffs), radius)


def star_germs(k=st.just(1)):
    """Hypothesis germs drawn as make_star_germ draws them: degree 6, h_j
    with parts in [-0.75, 0.75] / (j*j + 1), |a| in [0.5, 2], radius 1."""
    part = st.floats(-0.75, 0.75) | st.just(0.0)
    h = st.tuples(*(st.builds(complex, part, part).map(lambda c, j=j: c / (j * j + 1))
                    for j in range(1, 7)))
    return st.builds(lambda a_r, a_phi, k, h: make_germ(LPoint(a_r, a_phi), k, (0j, *h), 1.0),
                     st.floats(0.5, 2.0), st.floats(-2.0 * math.pi, 2.0 * math.pi), k, h)


def surface_dist(z1: LPoint, z2: LPoint) -> float:
    """Distance in the log chart: matches points sheet by sheet."""
    return abs(math.log(z1.r) - math.log(z2.r)) + abs(z1.phi - z2.phi)


SIGNED_ZEROS = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])

_INVALID_POINTS = [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                   (1.0, -math.inf)]


def surface_points(top: float):
    """Lists of (r, phi): r over [1e-300, 1e300], and in [0.5, 2] where
    numpy's log rounds unlike math.log most often, with |phi| <= 1e6 and
    signed zero arguments; r whose real exponent top * log r lies in
    [690, 720], across cmath.exp's large-argument branch (from about 708.4)
    and its OverflowError (from about 709.8); and invalid points."""
    phi = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    plain = st.tuples(st.floats(-300.0, 300.0).map(lambda t: 10.0 ** t) | st.floats(0.5, 2.0), phi)
    large = st.tuples(st.floats(690.0, 720.0).map(lambda x: math.exp(min(x / top, 709.0))), phi)
    return st.lists(plain | large | st.sampled_from(_INVALID_POINTS), min_size=1, max_size=32)


def plain_power(alpha: float, r: float, phi: float) -> bool:
    """Whether (r, phi) is a valid point where alpha * logmap has a finite
    imaginary part and a finite real part of at most 700."""
    if not (0 < r < math.inf and math.isfinite(phi)):
        return False
    e = alpha * complex(math.log(r), phi)
    return alpha == 0 or (math.isfinite(e.real) and e.real <= 700 and math.isfinite(e.imag))


def bits(*values) -> tuple:
    """The exact floats of real or complex values, -0.0 told apart from 0.0."""
    return tuple(float(x).hex() for v in values for x in (v.real, v.imag))


def outcome(call, *args) -> tuple:
    """The float hex of call(*args), or the type and message of the exception it raises."""
    try:
        return bits(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def lp_evaluate_per_term(g, z: LPoint) -> complex:
    """Reference logpower.evaluate: cpow per term, which takes its own
    logmap and float of the exponent."""
    lam = logmap(z)
    total = 0j
    for alpha, poly in g.terms:
        pv = 0j
        for c in reversed(poly):
            pv = pv * lam + c
        total += pv * cpow(float(alpha), z)
    return total


def ps_eval_loop(coeffs, w: complex) -> complex:
    """Reference ps_eval: the ascending sum over every coefficient, trailing zeros included."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n, c in enumerate(coeffs):
        if n > 0:
            term *= w
        total += c * term
    return total


def eval_pairs_full(f) -> tuple:
    """Reference PowerSeries.eval_pairs: numpy's running maximum of |c_m| over
    trimmed[1:] and a trailing zero, reversed, and doubled."""
    mags = np.abs(np.array(f.trimmed[1:] + (0j,), dtype=complex))
    bounds = (2.0 * np.maximum.accumulate(mags[::-1])[::-1]).tolist()
    return tuple(zip(f.trimmed, bounds))


def on_surface_full(r, phi) -> bool:
    """Reference LPoint rule, for values of any type: whether LPoint(r, phi)
    is built rather than raising."""
    return (isinstance(r, (int, float)) and 0 < r < math.inf
            and isinstance(phi, (int, float)) and -math.inf < phi < math.inf)


def apply_germ_composed(phi, z: LPoint) -> LPoint:
    """Reference apply_germ: a * z**k * (1 + h(z)) as products of surface points."""
    unit = 1.0 + ps_eval_loop(phi.h.coeffs, project(z))
    lifted = LPoint(abs(unit), cmath.phase(unit))
    return mul(phi.a, mul(power(phi.k, z), lifted))


def ps_compose_full(f, g, order):
    """Reference ps_compose: Horner's scheme over every coefficient of f, trailing zeros included."""
    g_arr = np.asarray(g, dtype=complex)
    acc = np.zeros(1, dtype=complex)
    for c in reversed(np.asarray(f, dtype=complex)):
        acc = np.convolve(acc, g_arr)[: order + 1]
        acc[0] += c
    return tuple(acc.tolist())


def binom_pow_full(h, alpha: float, order: int) -> tuple:
    """Reference binom_pow: the binomial series, h**j by repeated products of the whole of h."""
    h_arr = np.asarray(h, dtype=complex)
    coeffs = np.zeros(order + 1, dtype=complex)
    b = 1.0 + 0.0j
    for j in range(order + 1):
        coeffs[j] = b
        b *= (alpha - j) / (j + 1)
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = coeffs[0]
    pw = np.ones(1, dtype=complex)
    for j in range(1, order + 1):
        pw = np.convolve(pw, h_arr)[: order + 1]
        if coeffs[j] == 0 or not pw.any():
            break
        acc[: len(pw)] += coeffs[j] * pw
    return tuple(acc.tolist())


def spread_loop(coeffs, stride: int, order: int) -> np.ndarray:
    """Reference series._spread: coeffs[n] written at index n * stride one
    coefficient at a time, up to index order of a length order + 1 array."""
    arr = np.zeros(order + 1, dtype=complex)
    for n, c in enumerate(coeffs):
        if n * stride > order:
            break
        arr[n * stride] = c
    return arr


def compose_full(phi, psi):
    """Reference compose: the data laws by the full products, whatever psi is."""
    order = config.get_trunc_order()
    factor1 = binom_pow_full(psi.h.coeffs, float(phi.k), order)
    factor2 = list(ps_compose_full(phi.h.coeffs, s_series(psi), order))
    factor2[0] += 1.0
    h_new = np.convolve(np.asarray(factor1, dtype=complex), np.asarray(factor2, dtype=complex))
    h_new = [0.0] + h_new[1 : order + 1].tolist()
    radius = 0.1 * min(phi.radius, psi.radius) / max(1.0, psi.a.r)
    a = mul(phi.a, power(float(phi.k), psi.a))
    return Germ(a, phi.k * psi.k, PowerSeries(tuple(h_new)), radius)


def reversion_full(f, order: int) -> tuple:
    """Reference reversion: Lagrange inversion with the v recurrence and every power of v."""
    f_arr = np.zeros(order + 1, dtype=complex)
    f_arr[: min(len(f), order + 1)] = np.asarray(f, dtype=complex)[: order + 1]
    v = np.zeros(order, dtype=complex)
    v[0] = 1 / f_arr[1]
    for m in range(1, order):
        v[m] = -np.dot(f_arr[2 : m + 2], v[m - 1 :: -1]) / f_arr[1]
    g = np.zeros(order + 1, dtype=complex)
    vn = np.ones(1, dtype=complex)
    for n in range(1, order + 1):
        vn = np.convolve(vn, v)[:order]
        g[n] = vn[n - 1] / n
    return tuple(g.tolist())


def invert_full(phi):
    """Reference invert: series.reversion of the shadow whatever h is, and
    the radius halved by sampling alone.  Not reversion_full: for a linear
    shadow with 1 / |a| past about 1e154, its powers of v overflow and put
    nan where reversion computes only g_1."""
    if phi.k != 1:
        raise NotInvertible("only k = 1 germs are invertible")
    b = LPoint(1.0 / phi.a.r, -phi.a.phi)
    g = reversion(s_series(phi), config.get_trunc_order())
    a1 = project(phi.a)
    h_tilde = (0j,) + tuple(c * a1 for c in g[2:].tolist())
    return Germ(b, 1, PowerSeries(h_tilde), shrink_by_sampling(h_tilde, phi.radius))


def compose_germ_full(g, phi):
    """Reference compose_germ: a block for every coefficient of g and the whole unit series."""
    order = config.get_trunc_order()
    d = g.d
    s = min(phi.radius, (g.radius / (2.0 * phi.a.r)) ** (1.0 / phi.k))
    out = np.zeros(order + 1, dtype=complex)
    unit = np.asarray(binom_pow_full(phi.h.coeffs, 1.0 / d, order // d), dtype=complex)
    block = np.ones(1, dtype=complex)
    for n, c in enumerate(g.base.coeffs):
        size = (order - n * phi.k) // d + 1
        if size <= 0:
            break
        if n > 0:
            block = np.convolve(block[:size], unit[:size])[:size]
        if c != 0:
            out[n * phi.k :: d][: len(block)] += c * cpow(n / d, phi.a) * block
    return puiseux(out.tolist(), s, d)


def sampled_h_sup_full(h_coeffs, radius: float) -> float:
    """Reference sampled_h_sup: polyval on every circle, whatever the
    coefficients; a nan sample on any circle makes the sup nan."""
    coeffs = np.asarray(h_coeffs, dtype=complex)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    sups = [float(np.max(np.abs(np.polyval(coeffs[::-1], radius * frac * angles))))
            for frac in (1.0, 0.5, 0.25)]
    return math.nan if any(math.isnan(x) for x in sups) else max(sups)


def shrink_by_sampling(h_coeffs, radius: float) -> float:
    """Reference germs._shrink_to_bound: halve until the sampled |h| <= 1/2, sampling every radius."""
    r = float(radius)
    for _ in range(200):
        if sampled_h_sup(h_coeffs, r) <= 0.5:
            return r
        r /= 2.0
    raise ValueError("could not certify |h| <= 1/2 by radius halving")


@pytest.fixture(autouse=True)
def empty_tower_memo():
    """Each test starts with no towers kept by cli._tower, whatever ran before it."""
    cli.clear_towers()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
