"""Finite log-power series: sums of terms z**alpha * P(log z).

Terms are stored sorted by strictly increasing exponent alpha >= 0, with
each P a dense polynomial in the symbol lambda = log z.  Exponents are
exact rationals (fractions.Fraction) when declared rational and floats
otherwise; the two kinds compare and merge exactly, since ints and
floats are exact rationals.

The module provides evaluation at one surface point (evaluate) or at
many, as float64 arrays with the same floats (evaluate_many), its
support, truncation by exponent cutoff, the two composition rules
(with power maps and with germs), and the sampled coefficient-bound
certificate for the germ rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from . import config
from .errors import InvalidGerm, OutOfRadius
from .germs import sampled_h_sup
from .series import PowerSeries, _nonzero_len, _product, binom_pow, log1p_series, ps_add, ps_eval
from .surface import LPoint, cpow, cpow_many, log_many, logmap, project, valid_many

Exponent = Fraction | float


def _exp(x) -> Exponent:
    """Normalize an exponent: ints and Fractions stay exact, floats stay floats."""
    if isinstance(x, bool):
        raise ValueError("exponent cannot be a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return x
    raise ValueError(f"unsupported exponent type {type(x).__name__}")


@dataclass(frozen=True)
class LogPowerSeries:
    """Finite sum over terms (alpha, poly): poly[m] multiplies (log z)**m."""

    terms: tuple

    def __post_init__(self):
        for alpha, poly in self.terms:
            if alpha < 0:
                raise ValueError(f"exponents must be nonnegative, got {alpha}")
            if alpha == 0 and len(poly) > 1:
                raise ValueError("the constant term may not carry log powers")
        exps = [alpha for alpha, _ in self.terms]
        if any(not (a < b) for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")

    @cached_property
    def float_exponents(self) -> tuple:
        """float(alpha) for each term, converted once per series."""
        return tuple(float(alpha) for alpha, _ in self.terms)


def log_power_series(terms: Iterable[tuple]) -> LogPowerSeries:
    """Build from (alpha, poly) pairs; merges equal exponents, drops zeros."""
    bucket: dict = {}
    for alpha, poly in terms:
        key = _exp(alpha)
        cur = list(bucket.get(key, ()))
        poly = [complex(c) for c in poly]
        if len(cur) < len(poly):
            cur += [0j] * (len(poly) - len(cur))
        for m, c in enumerate(poly):
            cur[m] += c
        bucket[key] = tuple(cur)
    out = []
    for alpha in sorted(bucket):
        poly = bucket[alpha][: _nonzero_len(bucket[alpha])]
        if poly:
            out.append((alpha, poly))
    return LogPowerSeries(tuple(out))


def monomial(alpha, log_degree: int = 0, coeff: complex = 1.0) -> LogPowerSeries:
    """The single term coeff * z**alpha * (log z)**log_degree."""
    poly = (0j,) * log_degree + (complex(coeff),)
    return log_power_series([(alpha, poly)])


def evaluate(g: LogPowerSeries, z: LPoint) -> complex:
    """Evaluate at a surface point; finite sums are entire on the surface.

    Each term is P(lambda) * cpow(alpha, z) with lambda = logmap(z),
    which is taken once: cpow(alpha, z) is exp(alpha * lambda), or 1 for
    alpha = 0.
    """
    lam = logmap(z)
    total = 0j
    for alpha, (_, poly) in zip(g.float_exponents, g.terms):
        pv = 0j
        for c in reversed(poly):
            pv = pv * lam + c
        total += pv * (cmath.exp(alpha * lam) if alpha != 0 else 1.0 + 0.0j)
    return total


def evaluate_many(g: LogPowerSeries, r, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """evaluate(g, LPoint(r[i], phi[i])) at many points, as (re, im, ok).

    Where ok is True, re[i] + i*im[i] is the complex evaluate returns, bit
    for bit; where it is False (an invalid point, or a power cpow_many
    leaves to cpow), run the point through evaluate, which gives its value
    or raises.  math.log runs once per point.  Each lambda-polynomial runs
    evaluate's Horner loop on split real and imaginary float64 arrays,
    with Python's complex product written out as in ps_eval_many, and
    each term takes one cpow_many.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ok = valid_many(r, phi)
    total_r, total_i = np.zeros(len(r)), np.zeros(len(r))
    with np.errstate(all="ignore"):
        log_r = log_many(r, ok)
        for alpha, (_, poly) in zip(g.float_exponents, g.terms):
            pv_r, pv_i = np.zeros(len(r)), np.zeros(len(r))
            for c in reversed(poly):
                c = complex(c)
                pv_r, pv_i = (pv_r * log_r - pv_i * phi + c.real,
                              pv_r * phi + pv_i * log_r + c.imag)
            p_r, p_i, p_ok = cpow_many(alpha, r, phi, log_r)
            total_r = total_r + (pv_r * p_r - pv_i * p_i)
            total_i = total_i + (pv_r * p_i + pv_i * p_r)
            ok &= p_ok
    return total_r, total_i, ok


def support(g: LogPowerSeries) -> tuple:
    return tuple(alpha for alpha, _ in g.terms)


def truncate(g: LogPowerSeries, R) -> LogPowerSeries:
    """Keep exactly the terms with alpha <= R."""
    return LogPowerSeries(tuple((alpha, poly) for alpha, poly in g.terms if alpha <= R))


def is_log_free(g: LogPowerSeries) -> bool:
    return all(len(poly) <= 1 for _, poly in g.terms)


def compose_pow(g: LogPowerSeries, rho) -> LogPowerSeries:
    """Substitute the power map: z**a (log z)**m becomes rho**m z**(a*rho) (log z)**m.

    Exponent arithmetic is exact: a float rho is converted to the exact
    rational it represents before scaling rational exponents.
    """
    if isinstance(rho, float):
        if not (math.isfinite(rho) and rho > 0):
            raise ValueError(f"power must be a positive real, got {rho!r}")
        rho_exact: Fraction | int = Fraction(rho)
    elif isinstance(rho, (int, Fraction)):
        if rho <= 0:
            raise ValueError(f"power must be a positive real, got {rho!r}")
        rho_exact = Fraction(rho)
    else:
        raise ValueError(f"unsupported power type {type(rho).__name__}")
    out = []
    for alpha, poly in g.terms:
        if isinstance(alpha, Fraction):
            new_alpha: Exponent = alpha * rho_exact
        else:
            new_alpha = alpha * float(rho_exact)
        new_poly = tuple(c * float(rho_exact ** m) for m, c in enumerate(poly))
        out.append((new_alpha, new_poly))
    return log_power_series(out)


@dataclass(frozen=True)
class LogPowerGermImage:
    """Image of a log-power series under germ substitution.

    Each term is (alpha, series_list): the function
    z**alpha * sum(series_list[m](z) * (log z)**m), where the
    coefficients are power series valid for |z| < radius.
    """

    terms: tuple
    radius: float


@dataclass(frozen=True)
class BoundRow:
    alpha: float
    m: int
    ell: int
    observed: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class BoundCertificate:
    """Sampled coefficient bounds for the germ substitution rule.

    The printed bound 2**(m+alpha) * (|arg a| + 3)**m applies to k = 1
    germs with |a| = 1; `applicable` records whether the input germ is in
    that range.  Rows are emitted for every monomial either way.
    """

    applicable: bool
    rows: tuple
    ok: bool


def compose_germ_lp(g: LogPowerSeries, phi, order: int | None = None) -> tuple[LogPowerSeries | LogPowerGermImage, BoundCertificate]:
    """Substitute a germ: each z**a (log z)**m becomes z**(k a) * sum g_l(z) (log z)**l.

    The coefficient series follow the product-rule expansion
    g_l = k**l * C(m, l) * a**a_pow * (1 + h)**a * (log(a(1+h)))**(m-l),
    where log(a(1+h)) = logmap(a) + log(1 + h) uses the argument carried
    by a.  Coefficients are returned as truncated power series, not
    numbers.  The certificate samples each |g_l| against the printed
    bound.
    """
    if phi.k == 0:
        raise InvalidGerm("substitution needs a germ with k >= 1")
    order = config.order_or_default(order)
    log_factor = log1p_series(phi.h.coeffs, order=order)
    log_factor[0] += logmap(phi.a)
    arg_a = abs(phi.a.phi)
    applicable = phi.k == 1 and abs(phi.a.r - 1.0) <= 1e-9

    bucket: dict = {}
    rows = []
    for alpha, poly in g.terms:
        alpha_f = float(alpha)
        new_alpha = alpha * phi.k
        a_pow = cpow(alpha_f, phi.a)
        unit_pow = binom_pow(phi.h.coeffs, alpha_f, order)
        base = a_pow * unit_pow
        m_top = len(poly) - 1
        # log_powers[j] = (log(a(1+h)))**j truncated
        log_powers = [np.ones(1, dtype=complex)]
        for _ in range(m_top):
            log_powers.append(_product(log_powers[-1], log_factor, order + 1))
        for m, c_m in enumerate(poly):
            if c_m == 0:
                continue
            for ell in range(m + 1):
                canonical = (
                    float(phi.k) ** ell
                    * math.comb(m, ell)
                    * _product(base, log_powers[m - ell], order + 1)
                )
                observed = sampled_h_sup(canonical, phi.radius)
                bound = 2.0 ** (m + alpha_f) * (arg_a + 3.0) ** m
                rows.append(BoundRow(alpha_f, m, ell, observed, bound, observed <= bound))
                contrib = c_m * canonical
                by_ell = bucket.setdefault(new_alpha, {})
                by_ell[ell] = ps_add(by_ell.get(ell, (0j,)), contrib)

    terms = []
    for new_alpha in sorted(bucket):
        by_ell = bucket[new_alpha]
        top = max(by_ell)
        series_list = tuple(PowerSeries(by_ell.get(ell, (0j,))) for ell in range(top + 1))
        terms.append((new_alpha, series_list))
    image = LogPowerGermImage(tuple(terms), phi.radius)
    ok = (not applicable) or all(row.ok for row in rows)
    return image, BoundCertificate(applicable, tuple(rows), ok)


def evaluate_image(img: LogPowerGermImage, z: LPoint) -> complex:
    """Evaluate a germ-substitution image inside its radius."""
    if z.r >= img.radius:
        raise OutOfRadius(f"|z| = {z.r} is not below the image radius {img.radius}")
    lam = logmap(z)
    w = project(z)
    total = 0j
    for alpha, series_list in img.terms:
        inner = 0j
        lam_pow = 1.0 + 0j
        for m, ps in enumerate(series_list):
            if m > 0:
                lam_pow *= lam
            inner += ps_eval(ps, w) * lam_pow
        total += cpow(float(alpha), z) * inner
    return total
