"""Local biholomorphism germs at the puncture and their composition algebra.

A germ is the data (a, k, h, radius) describing the map

    phi(z) = a * z**k * (1 + h(z))

on the logarithmic surface, where a is a surface point (its argument is
part of the data), k is a nonnegative integer, and h is a power series
with h(0) = 0 and |h| <= 1/2 on the stated radius.  Germs with k >= 1
are stable under composition; germs with k = 1 form a group.

Composed radii always use the fixed printed formula
r = (1/10) * min(r(phi), r(psi)) / max(1, |a(psi)|), never a numerically
estimated improvement, so radius recursions stay bit-for-bit
reproducible.  The factory make_germ verifies the smallness of h by
circle sampling and shrinks the radius by halving until the sampled
bound holds; algebraic operations construct directly from the printed
formulas.  Exact shortcuts skip work whose outcome is known, each with
every float, zero sign, length and exception of the work it skips, at
every integer order:
* a radius whose coefficient majorant M(r) = sum |c_n| r**n is at most
  1/2 less a margin for rounding is accepted without sampling (the
  sampled bound holds there, so the radius is the one halving would
  certify);
* compose with an identity inner germ copies h in closed form;
* compose of two rays (h = 0, every germ of a straight tower) gives
  h = 0 in closed form, and invert of a ray gives its inverse's zeros,
  with the radius kept, without a series product or a reversion.
Every series kernel returns a complex128 array: the general compose
hands those of binom_pow and ps_compose to its one product, and its h
becomes a tuple once, in PowerSeries.
apply_germ_many is apply_germ on float64 arrays, with its floats, for
k = 1 germs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import config, series
from .config import MAX_TRUNC_ORDER
from .errors import InvalidGerm, NotInvertible, OutOfRadius
from .series import (
    PowerSeries,
    _nonzero_len,
    binom_pow,
    ps_compose,
    ps_eval,
    ps_eval_many,
    reversion,
)
from .surface import LPoint, mul, power, project, tau, valid_many

IDENTITY_RADIUS = 1e12

_SAMPLE_FRACTIONS = (1.0, 0.5, 0.25)
_SAMPLE_ANGLES = 64
_FLOOR = 2.0**-1000  # majorant's floor on each factor


@dataclass(frozen=True)
class Germ:
    """Germ data (a, k, h, radius); member of the group class iff k = 1; radius gates apply_germ."""

    a: LPoint
    k: int
    h: PowerSeries
    radius: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        if self.h.coeffs[0] != 0:
            raise ValueError("h must vanish at the origin")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be a finite positive real, got {self.radius!r}")


def sampled_h_sup(h_coeffs: tuple, radius: float) -> float:
    """Max of |h| sampled on the circles radius * {1, 1/2, 1/4} x 64 angles; h is any series.

    One polyval over every coefficient covers all three circles; h = 0 is
    0.0 without sampling.  A nan sample gives nan, which certifies nothing.
    """
    if not any(h_coeffs):
        return 0.0
    angles = np.exp(2j * np.pi * np.arange(_SAMPLE_ANGLES) / _SAMPLE_ANGLES)
    w = np.concatenate([radius * frac * angles for frac in _SAMPLE_FRACTIONS])
    return float(np.max(np.abs(np.polyval(np.asarray(h_coeffs, dtype=complex)[::-1], w))))


def majorant(h_coeffs: tuple, radius: float) -> float:
    """The coefficient majorant M(r) = sum |c_n| r**n of h at r = radius,
    in floats, each factor raised by the floor 2**-1000:

        sum over n <= N of (|c_n| + 2**-1000) * (p_n + 2**-1000),

    where N is the index of the last nonzero coefficient and p_n = r**n is
    formed by repeated products.  The floor covers underflow (see
    _shrink_to_bound); it changes no normal-sized sum.  h = 0 gives 0.0,
    a nan coefficient or radius gives nan, and an overflow gives inf.
    """
    total, power = 0.0, 1.0
    for c in h_coeffs[: _nonzero_len(h_coeffs)]:
        total += (abs(c) + _FLOOR) * (power + _FLOOR)
        power *= radius
    return total


def _shrink_to_bound(h_coeffs: tuple, radius: float) -> float:
    """The first of radius, radius / 2, radius / 4, ... at which the
    sampled |h| <= 1/2 holds; ValueError after 200 halvings.

    A radius r >= 0 is accepted at once, without sampling, when h has at
    most MAX_TRUNC_ORDER + 1 = 1025 coefficients up to its last nonzero
    one and majorant(h, r) <= 1/2 - 2**-30.  Then sampled_h_sup(h, r) <=
    1/2 holds as well, so the radius returned is the one sampling alone
    would return.  The proof, with u = 2**-53, N <= 1024 and B the
    majorant as computed:
    * Rounding.  The sample points w = (r * f) * e**(2 pi i j / 64), with
      f in {1, 1/2, 1/4}, have |w| <= r (1 + 8u) where they are normal;
      np.polyval's Horner scheme runs N steps of one complex product and
      one sum past the trailing zeros (whose steps give exact zeros), and
      np.abs is within an ulp.  So relative rounding moves the sampled
      sup by a factor below (1 + 8u)**(5N + 20) < 1 + 2**-31 from
      sum |c_n| |w|**n, and B undershoots sum |c_n| r**n by no more.
    * Underflow.  A subnormal result errs by at most 2**-1074 per part.
      In Horner's scheme such an error is carried by |w|**j into the
      value; in B, p_n errs below n * 2**-1075 <= 2**-1000 when r < 1.
      The floor's cross terms 2**-1000 * sum (|c_n| + p_n) in B exceed
      all of these, since 2**-1000 is 2**74 subnormal units.
    * Overflow.  B >= 2**-1000 * sum |c_n| bounds every |c_n| by 2**999,
      so every Horner value, at most sum |c_n| where |w| <= 1 and at most
      B (1 + 2**-31) where |w| > 1, stays finite.
    So the sampled sup is at most B (1 + 2**-31)**2 < 1/2.  A nan
    or inf majorant, a longer h or a negative r always falls through to
    sampling, which decides as before.
    """
    r = float(radius)
    short = _nonzero_len(h_coeffs) <= MAX_TRUNC_ORDER + 1
    for _ in range(200):
        if short and r >= 0.0 and majorant(h_coeffs, r) <= 0.5 - 2**-30:
            return r
        if sampled_h_sup(h_coeffs, r) <= 0.5:
            return r
        r /= 2.0
    raise ValueError("could not certify |h| <= 1/2 by radius halving")


def make_germ(a: LPoint, k: int, h_coeffs, radius: float) -> Germ:
    """Construct a germ, halving the radius until the sampled |h| <= 1/2 holds."""
    coeffs = tuple(complex(c) for c in h_coeffs) or (0.0 + 0.0j,)
    if coeffs[0] != 0:
        raise InvalidGerm("h must vanish at the origin")
    r = _shrink_to_bound(coeffs, radius)
    return Germ(a, k, PowerSeries(coeffs), r)


def identity_germ() -> Germ:
    return Germ(LPoint(1.0, 0.0), 1, PowerSeries((0.0,)), IDENTITY_RADIUS)


def rotation_germ(angle: float, radius: float = IDENTITY_RADIUS) -> Germ:
    """The germ z -> (r, phi + angle): a = (1, angle), k = 1, h = 0."""
    return Germ(LPoint(1.0, angle), 1, PowerSeries((0.0,)), radius)


def power_germ(m: int, radius: float = IDENTITY_RADIUS) -> Germ:
    """The monomial germ z -> z**m for integer m >= 1."""
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"power germ needs a positive integer, got {m!r}")
    return Germ(LPoint(1.0, 0.0), m, PowerSeries((0.0,)), radius)


def is_identity(phi: Germ) -> bool:
    return phi.k == 1 and phi.a.r == 1.0 and phi.a.phi == 0.0 and not phi.h.trimmed


def is_ray(phi: Germ) -> bool:
    """True when the germ maps rays near 0 to exact rays: h vanishes identically."""
    return not phi.h.trimmed


def root_pullback(phi: Germ, m: int, order: int | None = None) -> Germ:
    """The germ of p_(1/m) o phi, defined when m divides k(phi).

    Data laws: a -> a**(1/m) on the surface, k -> k/m, and
    1 + h -> (1 + h)**(1/m) with the principal branch, which matches the
    surface root of the unit factor because |h| <= 1/2.  The radius
    starts unchanged and halves only if the sampled bound on the new h
    fails, so germs with h = 0 keep their radius exactly.
    """
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"root order must be a positive integer, got {m!r}")
    if phi.k % m != 0:
        raise InvalidGerm(f"root order {m} does not divide k = {phi.k}")
    if m == 1:
        return phi
    a = power(1.0 / m, phi.a)
    h_new = binom_pow(phi.h.coeffs, 1.0 / m, order)
    h_new[0] = 0
    h = PowerSeries(h_new)
    return Germ(a, phi.k // m, h, _shrink_to_bound(h.coeffs, phi.radius))


def s_series(phi: Germ) -> tuple:
    """Coefficients of the plane shadow a * w**k * (1 + h(w)) of the germ."""
    a1, h = project(phi.a), phi.h.coeffs
    return (0j,) * phi.k + (a1 * (h[0] + 1.0), *[a1 * c for c in h[1:]])


def apply_germ(phi: Germ, z: LPoint) -> LPoint:
    """Apply the germ to a surface point inside its radius.

    The unit factor 1 + h(z) is lifted with its principal argument,
    which lies in (-pi/2, pi/2) because |h| <= 1/2.  The floats are those
    of mul(a, mul(power(k, z), lifted unit)), in its operation order,
    built as one LPoint, so an inf, 0 or nan on the way still fails its
    check.  k = 0 needs no case: 0 * phi = -0.0 would only matter if
    phase(1 + h) were -0.0.  reflect.extend_eval writes this map out for
    its descent: a change here is a change there.
    """
    if z.r >= phi.radius:
        raise OutOfRadius(f"|z| = {z.r} is not below the germ radius {phi.radius}")
    unit = 1.0 + ps_eval(phi.h, cmath.rect(z.r, z.phi))
    return LPoint(phi.a.r * (z.r ** phi.k * abs(unit)), phi.a.phi + (phi.k * z.phi + cmath.phase(unit)))


def apply_germ_many(g: Germ, r: np.ndarray, phi: np.ndarray) -> tuple:
    """apply_germ(g, LPoint(r[i], phi[i])) at many points, as (r, phi, ok).

    Where ok, the image is apply_germ's, bit for bit; ok is False where
    apply_germ or LPoint raises.  Like invert, it takes only k = 1 germs.
    A ps_eval sum is never -0.0, so 1.0 + h keeps the imaginary part of h;
    a ray's unit is exactly 1 + 0j and needs no trig.  np.hypot is abs,
    np.cos and np.sin form cmath.rect, and math.atan2 (per element) phase.
    """
    if g.k != 1:
        raise InvalidGerm("apply_germ_many takes only k = 1 germs")
    if g.h.trimmed:
        tr, unit_i = ps_eval_many(g.h, r * np.cos(phi), r * np.sin(phi))
        unit_r = 1.0 + tr
        modulus = np.hypot(unit_r, unit_i)
        phase = np.array(list(map(math.atan2, unit_i.tolist(), unit_r.tolist())))
    else:
        modulus, phase = 1.0, 0.0
    out_r = g.a.r * (r * modulus)
    out_phi = g.a.phi + (phi + phase)
    return out_r, out_phi, (r < g.radius) & valid_many(out_r, out_phi)


def compose(phi: Germ, psi: Germ, order: int | None = None) -> Germ:
    """The germ of phi after psi.

    Data laws: a = a(phi) * a(psi)**k(phi) on the surface,
    k = k(phi) * k(psi), and
    1 + h = (1 + h(psi))**k(phi) * (1 + h(phi) o s(psi)).
    The radius is the printed (1/10)*min(r(phi), r(psi))/max(1, |a(psi)|).

    Two rays (h = 0 in both) give h = N + 1 zeros, each 0j, at an order
    N >= 0.  These are the floats of the products above: binom_pow of a
    zero h is 1 followed by np.zeros, ps_compose of a zero h(phi) makes
    no product (s(psi) is finite, as a finite a(psi) times 1 and zeros)
    and returns np.zeros, so the one product multiplies +0s and 1s into
    +0s, after which h[0] = 0.0 becomes 0j.  The signs of the zeros in
    either h do not reach them.

    An identity psi with finite h(phi) gives h in closed form: h(phi)'s
    coefficients 1..N, each plus 0j, after a zero and padded with zeros
    to N + 1 entries, N the truncation order.  These are the floats of
    the products above, where each coefficient is multiplied by 1 and
    summed with zero products; the + 0j turns a -0.0 part into the +0.0
    those sums give.  An inf or nan coefficient takes the products,
    which spread nan through the zero products.

    a, k and the radius are made first on every path, so their errors
    come first, and the Germ checks the radius last.
    """
    if psi.k == 0:
        raise InvalidGerm("inner germ must have k >= 1")
    order = config.order_or_default(order)
    a = mul(phi.a, power(float(phi.k), psi.a))
    k = phi.k * psi.k
    radius = 0.1 * min(phi.radius, psi.radius) / max(1.0, psi.a.r)
    if is_ray(phi) and is_ray(psi) and order >= 0:
        h_new = (0j,) * (order + 1)
    elif is_identity(psi) and all(map(cmath.isfinite, phi.h.coeffs)):
        h_new = (0j, *[c + 0j for c in phi.h.coeffs[1 : order + 1]])
        h_new += (0j,) * (order + 1 - len(h_new))
    else:
        factor2 = ps_compose(phi.h.coeffs, s_series(psi), order)
        factor2[0] += 1.0
        h_new = series._product(binom_pow(psi.h.coeffs, float(phi.k), order), factor2, order + 1)
        h_new[0] = 0
    return Germ(a, k, PowerSeries(h_new), radius)


def invert(phi: Germ, order: int | None = None) -> Germ:
    """Group inverse for k = 1 germs, by Lagrange inversion of the shadow.

    series.reversion inverts the plane shadow f = s_series(phi).  The
    inverse shadow is f'(0)**-1 * w * (1 + h~(w)); its leading factor
    is the surface point b with a * b = (1, 0).  The radius starts at
    r(phi) and halves until the sampled bound on h~ holds, so germs with
    h = 0 keep their radius exactly.

    A ray (h = 0) at an order N >= 1 gives h~ in closed form: 0j, then
    N - 1 copies of 0j * a1, a1 = project(a), with r(phi) kept.  These
    are the floats of the reversion: b is made first, so an invalid b
    raises as before; a1 is finite and nonzero for a valid b, so the
    shadow's tail a1 * 0 is zero and reversion computes g_1 alone, with
    g_2 .. g_N left as np.zeros' +0s, and h~ is those +0s times a1, in
    that operand order, which sets the signs of its zeros.  A zero h~
    has majorant 0, so _shrink_to_bound keeps the radius.
    """
    if phi.k != 1:
        raise NotInvertible("only k = 1 germs are invertible")
    b = LPoint(1.0 / phi.a.r, -phi.a.phi)
    order = config.order_or_default(order)
    a1 = project(phi.a)
    if is_ray(phi) and order >= 1:
        return Germ(b, 1, PowerSeries((0j,) + (0j * a1,) * (order - 1)), phi.radius)
    g = reversion(s_series(phi), order)
    h_tilde = (0.0 + 0.0j,) + tuple(c * a1 for c in g[2:].tolist())
    r = _shrink_to_bound(h_tilde, phi.radius)
    return Germ(b, 1, PowerSeries(h_tilde), r)


def tau_conj(phi: Germ) -> Germ:
    """Conjugation by tau: a -> tau(a), h coefficients conjugated, radius kept."""
    return Germ(tau(phi.a), phi.k, PowerSeries(tuple(map(complex.conjugate, phi.h.coeffs))), phi.radius)

