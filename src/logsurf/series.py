"""Truncated power series, and Puiseux series that hold their radius.

A PowerSeries is a truncated Taylor series a_0 + a_1 w + ... + a_N w**N:
its coefficients alone.  A PuiseuxSeries wraps one in the variable
w = z**(1/d), holds the radius in z on which it is asserted valid, and
evaluates on the logarithmic surface, where fractional powers are single
valued.  A radius lives once, on the object that is evaluated: the
PuiseuxSeries here, the Germ whose h is a PowerSeries, the
LogPowerGermImage whose terms are.

All radius claims propagate by fixed printed formulas, never by numeric
estimation; evaluate raises OutOfRadius at or past the radius, as
apply_germ and evaluate_image do at theirs.
Coefficients are complex floats, truncated at the order N that each
operation takes as its `order` argument, the default of logsurf.config
when it is None.  binom_pow, reversion (by Lagrange inversion) and
compose_germ each make O(N) numpy calls at most.  The work scales with
the nonzero length of the inputs: ps_compose and compose_germ stop at
the last nonzero coefficient of the outer series, binom_pow returns 1
at once for h = 0, reversion inverts a linear series with one product,
and compose_germ composes with a ray (h = 0) through copies of a unit
block, made without binom_pow.  So rays and short series cost a few
calls at any N.  Every truncated product
is one _product call: the call np.convolve makes into numpy's C
correlate, after np.convolve's own checks and operand swap, so its
floats are np.convolve's and only the Python wrapper is skipped.
Outputs keep their lengths, and every product still made keeps its
operand lengths, so the floats are those of the full loops, which
call np.convolve; reversion's linear shortcut gives exact zeros where
the full loop has nan (see there).  binom_pow with alpha = 1
skips its one product, whose floats are known: 1 + h in closed form.
Around the numpy calls the kernels keep only scalar work that sets a
float, each in a form with the same floats: compose_germ takes each
a**(n/d) by cpow's own expression from one log of a, weights its
blocks, one row each, in one multiply and sums them in one
np.add.reduce, reversion divides its diagonal by 1, 2, ... in one array
division, and _spread, the one rule that pads and truncates
coefficients (add, sub, ps_add and reversion use it), writes them
through one strided slice, which copies them exactly.  Between kernels
coefficients stay complex128 arrays: every kernel returns a complex128
array; a PowerSeries makes its tuple once and keeps the array, as
_array, which add, scale, conj_tau and eval_pairs read.  ps_eval stops
its sum once no later term can change a bit of it: inside the unit disc, when
the largest coefficient still to come times the current power of w is
below a quarter ulp of both parts of the total.  Each skipped addend
then rounds straight back to the total, so the float is that of the
full sum.  It adds the first two terms before it first checks the
rule: a later check is exact too, since the total no longer changes once
the rule holds.  The coefficients and their bounds are cached together,
as PowerSeries.eval_pairs.  ps_eval_many and evaluate_many are ps_eval
and evaluate on float64 arrays, with their floats; ps_eval_many sums
every term.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from numpy._core.multiarray import correlate

from . import config
from .errors import InvalidGerm, OutOfRadius
from .surface import LPoint, cpow, cpow_many

if TYPE_CHECKING:
    from .germs import Germ


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series sum(coeffs[n] * w**n): its coefficients alone.

    It holds no radius.  The object it is the series of (a Germ's h, a
    PuiseuxSeries' base, a term of a LogPowerGermImage) holds the radius
    that gates its evaluation.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = self.coeffs
        if len(coeffs) == 0:
            raise ValueError("a power series needs at least the constant coefficient")
        # A kernel's complex128 result becomes a tuple once and is kept as _array.
        if type(coeffs) is np.ndarray and coeffs.dtype.char == "D" and coeffs.ndim == 1:
            object.__setattr__(self, "coeffs", tuple(coeffs.tolist()))
            vars(self)["_array"] = coeffs
        # Callers mostly pass tuples of complex already, which need no copy.
        elif type(coeffs) is not tuple or set(map(type, coeffs)) != {complex}:
            object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))

    @cached_property
    def trimmed(self) -> tuple:
        """coeffs up to the last nonzero one; empty when the series is zero."""
        return self.coeffs[: _nonzero_len(self.coeffs)]

    @cached_property
    def _array(self) -> np.ndarray:
        """coeffs as a complex128 array: the operand a kernel reads, never writes."""
        return np.array(self.coeffs, dtype=complex)

    @cached_property
    def eval_pairs(self) -> tuple:
        """(c_n, 2 * max |c_m| over the m > n of trimmed) for each n of
        trimmed: ps_eval's coefficients with its stop rule's bounds.  The
        bound is 0.0 at the last n, and nan when a later coefficient is
        nan; doubling is exact (or inf, as 2.0 * M is in Python)."""
        mags = np.abs(self._array[1 : len(self.trimmed)])
        bounds = (2.0 * np.maximum.accumulate(mags[::-1])[::-1]).tolist()
        return tuple(zip(self.trimmed, bounds + [0.0]))


def _nonzero_len(coeffs: Sequence[complex]) -> int:
    """Length up to the last nonzero coefficient, scanning only the
    trailing zeros; 0 at once when no coefficient is nonzero (a ray's h)."""
    if not any(coeffs):
        return 0
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return n


def ps_eval(f: PowerSeries, w: complex) -> complex:
    """Evaluate at a complex point by the ascending sum, total += c * term
    and term *= w, over the coefficients up to the last nonzero one,
    stopping as soon as no later term can change a bit of the total.

    Trailing zeros cannot change a finite sum (it starts at +0, so it is
    never -0), and skipping them keeps w**n from overflowing to inf,
    where 0 * inf would be nan.

    The stop rule.  When |w| <= 1, the sum stops after the term of c_n
    once both parts p of the total satisfy

        2 * M * (|term| + 1e-300) + 1e-280 < 2**-55 * |p|,

    where term = w**(n+1) as computed and M is the largest |c_m| still to
    come; f.eval_pairs holds each c_n with 2 * M, the float Python forms
    first in 2.0 * M * (...).  The rule is exact:
    * no later |term| exceeds this one by more than rounding, which the
      factor 2 covers, or by more than a few subnormal units once the
      terms underflow, which the 1e-300 covers;
    * so each later addend is below 2**-55 * |p|, under a quarter of p's
      ulp, and the 1e-280 keeps p normal;
    * such an addend rounds straight back to p, also below a power of
      two, where the spacing is half an ulp.
    The total never changes again: it is the float of the full loop, bit
    for bit.  A nan or overflowing bound and a nan or zero part never
    meet the rule, so those sums run to the end.  An inf part stays inf,
    since a finite bound keeps every later addend finite.  Where |w| > 1
    or w is nan the sum takes no check: it is the full loop.

    The unchecked head.  The rule is first checked after c_2, not c_0:
    the first two terms are added unchecked.  Checking later is exact
    too.  Once the rule holds, no later addend changes a bit of the
    total, so the total at any later check, or at the end of the loop,
    is still the full loop's float; a skipped check only moves the stop
    to a later term.  A series of at most two terms is its head alone
    and takes no check (a ray's h has no term at all), so it never
    computes |w|.

    >>> f = PowerSeries(tuple(0.5 ** n * (1 + 1j) for n in range(33)))
    >>> w = 0.001 - 0.002j
    >>> full, term = 0j, 1 + 0j
    >>> for c in f.coeffs:
    ...     full, term = full + c * term, term * w
    >>> ps_eval(f, w) == full
    True
    """
    pairs = f.eval_pairs
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    if len(pairs) < 3 or not abs(w) <= 1.0:
        for c, _ in pairs:
            total += c * term
            term *= w
        return total
    rest = iter(pairs)
    total += next(rest)[0] * term
    term *= w
    total += next(rest)[0] * term
    term *= w
    for c, m2 in rest:
        total += c * term
        term *= w
        bound = m2 * (abs(term) + 1e-300) + 1e-280
        if bound < 2**-55 * abs(total.real) and bound < 2**-55 * abs(total.imag):
            break
    return total


def ps_eval_many(f: PowerSeries, wr: np.ndarray, wi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ps_eval at the points wr + i*wi, as (real parts, imaginary parts).

    The complex values are kept split in two float64 arrays, with
    Python's complex product written out, (a + bi)(c + di) = (ac - bd) +
    (ad + bc)i.  The sum runs over every coefficient of trimmed at every
    point: ps_eval stops early only where the terms it skips cannot
    change its total, so the full sum has ps_eval's floats too.  Only
    elementwise products, sums and differences run on the arrays, and
    these round as Python's floats do, so every value is the float
    ps_eval returns, bit for bit, inf and nan included; nothing runs per
    point.  (numpy's complex128 products do not round that way.)
    """
    total_r = np.zeros(len(wr))
    total_i = np.zeros(len(wr))
    term_r = np.ones(len(wr))
    term_i = np.zeros(len(wr))
    last = len(f.trimmed) - 1
    for n, c in enumerate(f.trimmed):
        total_r += c.real * term_r - c.imag * term_i
        total_i += c.real * term_i + c.imag * term_r
        if n < last:
            term_r, term_i = term_r * wr - term_i * wi, term_r * wi + term_i * wr
    return total_r, total_i


def ps_add(f: Sequence[complex], g: Sequence[complex]) -> np.ndarray:
    n = max(len(f), len(g)) - 1
    return _spread(f, 1, n) + _spread(g, 1, n)


def _product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n entries of the full np.convolve of 1-d complex arrays.

    It raises np.convolve's errors for an empty operand, swaps the
    operands when b is longer, as np.convolve does, and then makes
    np.convolve's own call: numpy's C correlate of a with b reversed, in
    full mode.  So every float is np.convolve's; only its Python wrapper
    is skipped.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        raise ValueError("a cannot be empty")
    if len_b == 0:
        raise ValueError("v cannot be empty")
    if len_b > len_a:
        a, b = b, a
    return correlate(a, b[::-1], 2)[:n]


def ps_mul(f: Sequence[complex], g: Sequence[complex], order: int | None = None) -> np.ndarray:
    order = config.order_or_default(order)
    return _product(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex), order + 1)


def ps_compose(f: Sequence[complex], g: Sequence[complex], order: int | None = None) -> np.ndarray:
    """Coefficients of f(g(w)) truncated; requires g(0) = 0.

    Horner's scheme runs over f up to its last nonzero coefficient.  The
    trailing zeros of f would only grow a zero accumulator, so it starts
    at the length they would have given it: every product sees the
    operands, and sums in the order, of the scheme over all of f.  The
    first product of that zero accumulator with g puts nan wherever the
    skipped steps would (0 * inf and 0 * nan), so the floats are the
    full scheme's.  An f with no nonzero coefficient makes no product at
    all, so it runs the full scheme when g has an inf or nan.
    """
    order = config.order_or_default(order)
    g_arr = np.asarray(g, dtype=complex)
    if len(g_arr) and g_arr[0] != 0:
        raise ValueError("inner series must have zero constant term")
    top = _nonzero_len(f)
    if top == 0 and not np.isfinite(g_arr).all():
        top = len(f)
    acc = np.zeros(min(1 + (len(f) - top) * (len(g_arr) - 1), order + 1), dtype=complex)
    for c in reversed(np.asarray(f[:top], dtype=complex).tolist()):
        acc = _product(acc, g_arr, order + 1)
        acc[0] += c
    return acc


def _binomials(alpha: float) -> Iterator[complex]:
    """C(alpha, j) for j = 0, 1, 2, ... by the product recurrence."""
    b = 1.0 + 0.0j
    for j in itertools.count():
        yield b
        b *= (alpha - j) / (j + 1)


def binom_coefficients(alpha: float, count: int) -> np.ndarray:
    """Generalized binomial coefficients C(alpha, j) for j = 0..count-1."""
    return np.array(list(itertools.islice(_binomials(alpha), count)), dtype=complex)


def binom_pow(h: Sequence[complex], alpha: float, order: int | None = None) -> np.ndarray:
    """Coefficients of (1 + h(w))**alpha via the binomial series; h(0) = 0.

    Converges wherever |h| <= 1/2, the standing smallness bound; at the
    truncated level the expansion is exact polynomial algebra because
    h**j has valuation >= j.  It is finite for a nonnegative integer alpha:
    the binomial coefficients are made one at a time, and the first zero,
    C(alpha, alpha + 1), ends the sum before its power of h is made, so
    alpha = k makes k products.  h = 0 returns 1 at once.
    Otherwise each power of h is one product with the whole of h as
    given: cutting its trailing zeros here would change the rounding of
    those products.

    alpha = 1 with every coefficient up to the order finite returns 1
    followed by c + 0j for each coefficient c of h, padded to N + 1, and
    makes no product.  These are the sum's floats: its one product is
    h times 1 + 0j, twice (in the product and by C(1, 1) = 1 + 0j), and
    c.real * 1 - c.imag * 0 and c.real * 0 + c.imag * 1 are c's parts up
    to the sign of a zero; adding to the zero accumulator turns a -0.0
    into +0.0, as + 0j does.  An inf or nan coefficient takes the
    product, where the zero parts meet it and make nan.
    """
    order = config.order_or_default(order)
    h_arr = np.asarray(h, dtype=complex)
    if len(h_arr) and h_arr[0] != 0:
        raise ValueError("binomial base must be 1 + (series without constant term)")
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = 1.0
    if not any(h):
        return acc
    if alpha == 1 and all(map(cmath.isfinite, h[1 : order + 1])):
        head = h_arr[1 : order + 1]
        acc[1 : len(head) + 1] += head
        return acc
    pw = np.ones(1, dtype=complex)
    for b in itertools.islice(_binomials(alpha), 1, order + 1):
        if b == 0:
            break
        pw = _product(pw, h_arr, order + 1)
        if not pw.any():
            break
        acc[: len(pw)] += b * pw
    return acc


def log1p_series(h: Sequence[complex], order: int | None = None) -> np.ndarray:
    """Coefficients of log(1 + h(w)) (principal branch); h(0) = 0."""
    order = config.order_or_default(order)
    h_arr = np.asarray(h, dtype=complex)
    if len(h_arr) and h_arr[0] != 0:
        raise ValueError("log1p base must be 1 + (series without constant term)")
    acc = np.zeros(order + 1, dtype=complex)
    pw = np.ones(1, dtype=complex)
    for j in range(1, order + 1):
        pw = _product(pw, h_arr, order + 1)
        if not pw.any():
            break
        acc[: len(pw)] += ((-1) ** (j + 1) / j) * pw
    return acc


def reversion(f: Sequence[complex], order: int | None = None) -> np.ndarray:
    """Compositional inverse of f = f_1 w + f_2 w**2 + ... with f_1 != 0.

    Returns g with f(g(w)) = w up to the truncation order, by Lagrange
    inversion: g_n = [w**(n-1)] v**n / n with v = w / f(w).  A linear f
    has the constant v = 1 / f_1, whose powers never reach w**(n-1) past
    n = 1, so only g_1 is computed and g_2, g_3, ... are the zeros of the
    exact inverse w / f_1.  The full loop forms every power of v: once
    1 / f_1**2 overflows (|f_1| below about 7.5e-155) it meets 0 * inf
    and has nan from g_3 on.  Otherwise the work is O(N) products.

    The v recurrence reads f_1 and the tail f_2, f_3, ... from one scalar
    and one view made before its loop, so each np.dot sees the slices it
    always saw.  The diagonal [w**(n-1)] v**n is collected in g and
    divided by 1, 2, ... in one array division: numpy divides each
    complex128 by n cast to complex128, as the scalar vn[n - 1] / n
    does, so every g_n is the same float.
    """
    order = config.order_or_default(order)
    f_arr = _spread(f, 1, order)
    if f_arr[0] != 0:
        raise ValueError("reversion needs zero constant term")
    if f_arr[1] == 0:
        raise ValueError("reversion needs a nonzero linear coefficient")
    top = order + 1 if any(f[2 : order + 1]) else 2
    f1, tail = f_arr[1], f_arr[2:]
    v = np.zeros(order, dtype=complex)
    v[0] = 1 / f1
    for m in range(1, top - 1):
        v[m] = -np.dot(tail[:m], v[m - 1 :: -1]) / f1
    g = np.zeros(order + 1, dtype=complex)
    vn = np.ones(1, dtype=complex)
    for n in range(1, top):
        vn = _product(vn, v, order)
        g[n] = vn[n - 1]
    g[1:top] /= np.arange(1, top)
    return g


@dataclass(frozen=True)
class PuiseuxSeries:
    """Series sum(a_n z**(n/d)): a PowerSeries base in w = z**(1/d),
    asserted valid for |z| < radius.

    The radius is measured in z, and it is the series' only one: evaluate
    raises OutOfRadius at or past it.
    """

    d: int
    base: PowerSeries
    radius: float

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"denominator must be a positive integer, got {self.d!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be a finite positive real, got {self.radius!r}")


def puiseux(coeffs: Iterable[complex], radius: float, d: int = 1) -> PuiseuxSeries:
    """Build a Puiseux series from base coefficients (index n means z**(n/d));
    a complex128 array is kept as the base's array."""
    return PuiseuxSeries(d, PowerSeries(coeffs if type(coeffs) is np.ndarray else tuple(coeffs)), float(radius))


def dense_coeffs(terms: Iterable[tuple[int, complex]]) -> list:
    """Sum sparse (n, coefficient) pairs into coefficients 0..max n (at least one)."""
    terms = list(terms)
    coeffs = [0j] * (max((n for n, _ in terms), default=0) + 1)
    for n, c in terms:
        if n < 0:
            raise ValueError("exponents must be nonnegative")
        coeffs[n] += complex(c)
    return coeffs


def puiseux_from_terms(terms: Iterable[tuple[int, complex]], radius: float, d: int = 1) -> PuiseuxSeries:
    """Build from sparse (n, coefficient) pairs, n counted in units of 1/d."""
    return puiseux(dense_coeffs(terms), radius, d)


def evaluate(g: PuiseuxSeries, z: LPoint) -> complex:
    """Evaluate on the surface: the base at w = z**(1/d), on the sheet of z."""
    if z.r >= g.radius:
        raise OutOfRadius(f"|z| = {z.r} is not below the asserted radius {g.radius}")
    return ps_eval(g.base, cpow(1.0 / g.d, z))


def evaluate_many(g: PuiseuxSeries, r, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """evaluate(g, LPoint(r[i], phi[i])) at many points, as (re, im, ok).

    Where ok, re[i] + i*im[i] is evaluate's complex, bit for bit, from
    cpow_many and ps_eval_many.  ok is False where evaluate or LPoint
    raises, or where cpow_many leaves w to cpow.
    """
    r = np.asarray(r, dtype=float)
    w_r, w_i, ok = cpow_many(1.0 / g.d, r, phi)
    total_r, total_i = ps_eval_many(g.base, w_r, w_i)
    return total_r, total_i, ok & (r < g.radius)


def tail_bound(c: float, d: int, radius: float, N: int, z: LPoint) -> float:
    """Cauchy-estimate bound on the modulus of the tail past order N.

    For a series with denominator d, sup bound c on the disc of the given
    radius, the tail after the z**(N/d) term is at most
    c * x**((N+1)/d) / (1 - x**(1/d)) with x = |z| / radius.
    """
    if c <= 0 or radius <= 0 or d < 1 or N < 0:
        raise ValueError("need c > 0, radius > 0, d >= 1, N >= 0")
    if z.r >= radius:
        raise OutOfRadius(f"|z| = {z.r} is not below the asserted radius {radius}")
    x = z.r / radius
    return c * x ** ((N + 1) / d) / (1 - x ** (1.0 / d))


def conj_tau(g: PuiseuxSeries) -> PuiseuxSeries:
    """The series with conjugated coefficients; equals conj(g(tau(z))) pointwise."""
    return PuiseuxSeries(g.d, PowerSeries(g.base._array.conj()), g.radius)


def _spread(coeffs: Sequence[complex], stride: int, order: int) -> np.ndarray:
    """Place coeffs[n] at index n * stride of a length order + 1 array, truncating."""
    arr = np.zeros(order + 1, dtype=complex)
    count = min(len(coeffs), order // stride + 1)
    arr[: stride * count : stride] = coeffs[:count]
    return arr


def add(g1: PuiseuxSeries, g2: PuiseuxSeries, order: int | None = None) -> PuiseuxSeries:
    """Sum after rescaling to the common denominator lcm(d1, d2)."""
    order = config.order_or_default(order)
    L = lcm(g1.d, g2.d)
    a1, a2 = (_spread(g.base._array, L // g.d, order) for g in (g1, g2))
    return puiseux(a1 + a2, min(g1.radius, g2.radius), L)


def scale(c: complex, g: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(g.d, PowerSeries(c * g.base._array), g.radius)


def sub(g1: PuiseuxSeries, g2: PuiseuxSeries, order: int | None = None) -> PuiseuxSeries:
    return add(g1, scale(-1.0, g2), order)


def param_power(g: PuiseuxSeries, m: int, order: int | None = None) -> PuiseuxSeries:
    """Precompose with the power map: t**(n/d) becomes t**(m*n/d).

    Used by corner normalization when a boundary parameter is rescaled
    t -> t**m.  The denominator is unchanged; the radius becomes
    radius**(1/m).
    """
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"parameter power must be a positive integer, got {m!r}")
    if m == 1:
        return g
    arr = _spread(g.base._array, m, config.order_or_default(order))
    return puiseux(arr, g.radius ** (1.0 / m), g.d)


def compose_germ(g: PuiseuxSeries, phi: "Germ", order: int | None = None) -> PuiseuxSeries:
    """Compose a Puiseux series with a germ: z -> g(phi(z)).

    Term n becomes c_n a**(n/d) z**(nk/d) u**n with u = (1 + h)**(1/d);
    each u**n is one truncated product of the previous one.  The
    denominator d is preserved.  The radius is the printed value
    s = min(r(phi), (g.radius / (2|a(phi)|)) ** (1/k(phi))).  Requires
    k(phi) >= 1.  The loop stops at the last nonzero coefficient of g, and
    a ray (h = 0) has u = 1, so its blocks are copies.  At an order N >= 0
    a ray's u is np.ones(1), made without binom_pow: binom_pow of a zero
    h is that 1 followed by zeros, of which the blocks would read only
    the 1.

    The weight c_n a**(n/d) is c_n times cmath.exp((n/d) * lg), with
    lg = complex(log |a|, arg a) formed once: the expression cpow
    evaluates, with its 1 + 0j at n = 0, so the same floats.  Each term
    copies its block into its own row of a zero array, at the entries
    n*k, n*k + d, ... that it covers; one multiply makes weight * row
    (in that operand order, which numpy rounds unlike row * weight),
    with weight 0 for c_n = 0, and one np.add.reduce over the rows, a
    zero row first, adds them in the full loop's order.  A finite weight
    makes zeros of a row's other entries, and a zero added to a total
    that is never -0.0 changes nothing; a ray's block is its 1 alone,
    and the zeros after it are the full loop's.  A non-finite weight
    makes nan of zeros, so then the multiply is masked to the entries
    the full loop weights: n*k, n*k + d, ... up to the order, and at
    n = 0 the first alone.
    """
    if phi.k == 0:
        raise InvalidGerm("composition needs a germ with k >= 1")
    order = config.order_or_default(order)
    d = g.d
    s = min(phi.radius, (g.radius / (2.0 * phi.a.r)) ** (1.0 / phi.k))
    if phi.h.trimmed or order < 0:
        # Any u but 1 keeps its trailing zeros: a shorter factor would
        # change the length of the product's inner sums, and with it
        # their rounding.
        unit = binom_pow(phi.h.coeffs, 1.0 / d, order // d)
    else:
        unit = np.ones(1, dtype=complex)  # u = 1 makes each block an exact copy
    lg = complex(math.log(phi.a.r), phi.a.phi)
    terms = g.base.trimmed[: order // phi.k + 1]
    rows = np.zeros((len(terms) + 1, order + 1), dtype=complex)
    weights = [0j] * (len(terms) + 1)
    block = np.ones(1, dtype=complex)
    for n, c in enumerate(terms):
        start = n * phi.k
        size = (order - start) // d + 1
        if n > 0:
            block = _product(block[:size], unit[:size], size)
        if c != 0:
            weights[n + 1] = c * (cmath.exp((n / d) * lg) if n else 1 + 0j)
            rows[n + 1, start : start + d * len(block) : d] = block
    covered = True
    if not all(map(cmath.isfinite, weights)):  # weight only the entries the full loop writes
        starts = np.arange(-1, len(terms))[:, None] * phi.k
        covered = (np.arange(order + 1) >= starts) & ((np.arange(order + 1) - starts) % d == 0)
        covered[1, 1:] = False
    np.multiply(np.array(weights)[:, None], rows, out=rows, where=covered)
    return puiseux(np.add.reduce(rows, axis=0), s, d)

