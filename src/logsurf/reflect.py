"""Iterated reflection of a corner solution across its boundary curves.

Starting from a solved corner problem in normalized position (first
curve the real ray, second curve a k = 1 germ, unit tangent moduli),
each step reflects the current domain across the current image curve:

    phi_{k+1} = phi_k o tau_conj(phi_k^{-1} o psi),
    w(z)      = phi_k(tau(phi_k^{-1}(z))),
    f_{k+1}(z) = -conj((f_k - h_k)(w)) + h_k(z),

where h_k is the boundary data transported to the k-th curve, h_{k+1}
by w, which is phi_{k+1} itself when psi is the identity.  Radii follow
the printed recursion r_{k+1} = r_k / 100, s_{k+1} = s_k / 100 and the
transported data is valid on radius s_k / 4; these values are set by
the recursion, never re-estimated.  A tower has one truncation
order, given to tower (the default of logsurf.config when none is), and
every level builds at it: step builds phi_{k+1}, and the data h_{k+1}
and the inverse phi_{k+1}^{-1} are made on first read.  Only the next
step and a descent from above level k + 1 read them, so the top level
of a tower that no one reads past never makes its own.  The union of the rotated
sectors reached after k steps covers arguments up to 2**(k-1) * theta
(minus a fixed pi/2 haircut for curvature), which is what makes the
extension reach every quadratic domain.

extend_eval evaluates the extension at one point, carrying it as the
floats (r, phi) through the descent, with apply_germ and evaluate written
out in its loop, and each point's power z**(1/d) made once in the
unwinding; extend_eval_many evaluates many points on float64 arrays,
with extend_eval's floats and exceptions.
tower_errors checks a tower against its base, level by level: f against
h_k on each curve phi_k, and against base.f at random points of each window.
envelope_levels is the one home of the reach rule: it gives the covering
level of every shifted argument, one x or many, in one sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Sequence

import numpy as np

from . import config
from .corner import CornerSpec, HarmonicEvaluator, angle_value
from .errors import (
    NotNormalized,
    OutOfRadius,
    OutsideExtension,
    PowerUnderflow,
    WindowEmpty,
)
from .germs import (
    Germ,
    apply_germ,
    apply_germ_many,
    compose,
    invert,
    is_identity,
    is_ray,
    tau_conj,
)
from .logpower import LogPowerSeries
from .logpower import evaluate as lp_evaluate
from .logpower import evaluate_many as lp_evaluate_many
from .logpower import support
from .series import (
    PuiseuxSeries,
    add,
    compose_germ,
    conj_tau,
    evaluate,
    evaluate_many,
    ps_eval,
    scale,
    sub,
)
from .surface import LPoint, QuadraticDomain, fallback_many, raising, tau, valid_many


@dataclass(frozen=True)
class ReflectionState:
    """One level of the reflection tower.

    phi is the k-th image curve as a germ, h the boundary data on it
    written as a function of z, and r, s the printed domain radii.  The
    germ radii of phi and its inverse may be smaller than r for curved
    corners; they gate evaluation, while r and s drive the covering
    windows.  order is the tower's truncation order: phi is made at it,
    and h and phi_inv = invert(phi) on first read, whatever the default
    order then is, and kept: h from the level below (its phi, phi_inv, h
    and omega = phi o tau_conj(phi^{-1}), which is this level's phi if
    psi is the identity, else made and dropped), or given by init_state
    at level 1.  alpha = arg a(psi) and the window edges are made on
    first read too: `lower` is alpha, plus pi/2 when psi is curved, and
    `upper` is arg a(phi), minus pi/2 when phi is curved.  So is
    `descent`, the one tuple extend_eval reads from a level it descends
    through.  Only levels below a point's level are read, whose h and
    phi_inv step has made, so no exception moves.
    """

    k: int
    r: float
    s: float
    phi: Germ
    psi: Germ
    h0: PuiseuxSeries
    theta: float
    order: int
    below: ReflectionState | None = field(default=None, repr=False, compare=False)
    alpha = cached_property(lambda self: self.psi.a.phi)
    lower = cached_property(lambda self: self.alpha + (0.0 if is_ray(self.psi) else math.pi / 2))
    upper = cached_property(lambda self: self.phi.a.phi - (0.0 if is_ray(self.phi) else math.pi / 2))

    @cached_property
    def phi_inv(self) -> Germ:
        return invert(self.phi, self.order)

    @cached_property
    def descent(self) -> tuple:
        """What extend_eval reads from a level it descends through: the
        radius, h, a.r, a.phi and k of phi_inv, the same five of phi, and
        the data h's (radius, d, 1.0 / d, base).  Made on first read, in
        that order, so phi_inv before h."""
        g, f, h = self.phi_inv, self.phi, self.h
        return (g.radius, g.h, g.a.r, g.a.phi, g.k, f.radius, f.h, f.a.r, f.a.phi, f.k,
                (h.radius, h.d, 1.0 / h.d, h.base))

    @cached_property
    def h(self) -> PuiseuxSeries:
        """h_k = -conj_tau((h0 - h_{k-1}) o omega_{k-1}) + h_{k-1} with
        omega_{k-1} = phi_{k-1} o tau_conj(phi_{k-1}^{-1}), valid on radius
        s_{k-1} / 4.  With psi the identity, omega_{k-1} is the map phi_k,
        with the composed omega's a and k bit for bit (step's compose with
        psi multiplies by a = (1, 0) exactly), h equal up to rounding (its
        products run a term longer) and a radius that h never reads."""
        below, order = self.below, self.order
        omega = self.phi if is_identity(self.psi) else compose(below.phi, tau_conj(below.phi_inv), order)
        reflected = conj_tau(compose_germ(sub(self.h0, below.h, order), omega, order))
        h_sum = add(scale(-1.0, reflected), below.h, order)
        return PuiseuxSeries(h_sum.d, h_sum.base, below.s / 4.0)


def init_state(corner: CornerSpec, order: int | None = None) -> ReflectionState:
    """Check normalization and build the level-1 state at the given order.

    Preconditions: both curves have k = 1 and unit-modulus tangent
    coefficient, the first tangent argument is below the second, and
    their difference equals the declared opening.  The data series are
    transported to functions of z by composing with the curve inverses;
    s_1 is the least of r_1, eps and the transported radii.  So the level
    is given its h = h_1 and phi_inv = chi^{-1} here: s_1 needs them, and
    chi is inverted once.
    """
    psi, chi = corner.psi, corner.chi
    if psi.k != 1 or chi.k != 1:
        raise NotNormalized("both boundary curves must have k = 1")
    if abs(psi.a.r - 1.0) > 1e-9 or abs(chi.a.r - 1.0) > 1e-9:
        raise NotNormalized("boundary tangents must have unit modulus")
    alpha = psi.a.phi
    beta = chi.a.phi
    theta = angle_value(corner.theta)
    if not alpha < beta:
        raise NotNormalized("the first tangent argument must precede the second")
    if abs((beta - alpha) - theta) > 1e-9:
        raise NotNormalized("the declared opening does not match the tangents")
    order = config.check_order(config.order_or_default(order))
    h0 = corner.g0 if is_identity(psi) else compose_germ(corner.g0, invert(psi, order), order)
    chi_inv = invert(chi, order)
    h1 = corner.g1 if is_identity(chi) else compose_germ(corner.g1, chi_inv, order)
    r1 = min(psi.radius, chi.radius)
    s1 = min(r1, corner.eps, h0.radius, h1.radius)
    state = ReflectionState(1, r1, s1, chi, psi, h0, theta, order)
    vars(state).update(h=h1, phi_inv=chi_inv)  # the cached_property values
    return state


def step(state: ReflectionState) -> ReflectionState:
    """One reflection: double the sector.

    The next curve is phi o tau_conj(phi^{-1} o psi), built at
    state.order, whatever the default order is; the next level keeps that
    order and makes its data h_{k+1} and inverse on first read, at it.
    step first reads the level's own h and phi_inv, so the next level's
    reads go one level deep, and a tower raises in the order of the
    transport: the errors of h_k, of phi_k^{-1}, then WindowEmpty when
    s_{k+1} = s_k / 100 underflows to 0.0, then those of phi_{k+1}.
    """
    state.h, state.phi_inv  # made now, if not yet read
    if not state.s / 100.0 > 0.0:
        raise WindowEmpty(f"level {state.k + 1}'s radius s_{state.k + 1} = s_{state.k} / 100 "
                          f"underflows to 0.0")
    inner = compose(state.phi_inv, state.psi, state.order)
    phi_next = compose(state.phi, tau_conj(inner), state.order)
    return ReflectionState(state.k + 1, state.r / 100.0, state.s / 100.0, phi_next, state.psi,
                           state.h0, state.theta, state.order, state)


def tower(corner: CornerSpec, steps: int, order: int | None = None) -> list[ReflectionState]:
    """The first `steps` levels of the reflection tower, at the given order.

    Levels 1 to steps - 1 are built with their data and inverses; the top
    level makes its h and phi_inv when they are first read (no descent
    reads them: a point at level L descends through the levels below L).
    steps and the order must be ints, not bools, of at least 1; any other
    value raises a ValueError before a level is built.
    """
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError("need at least one level")
    states = [init_state(corner, order)]
    while len(states) < steps:
        states.append(step(states[-1]))
    return states


def membership(states: Sequence[ReflectionState], z: LPoint) -> int | None:
    """The least level whose window contains z, or None when outside.

    The level-k window is the sector between the transported lower edge
    and arg a(phi_k), shrunk by pi/2 on each curved side, within radius
    s_k.  Boundaries are excluded.
    """
    if not z.phi > states[0].lower:
        return None
    for st in states:
        if z.phi < st.upper and z.r < st.s:
            return st.k
    return None


def membership_many(states: Sequence[ReflectionState], r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """membership(states, LPoint(r[i], phi[i])) at many points, as levels:
    0 where membership is None or LPoint raises."""
    level = np.zeros(len(r), dtype=int)
    inside = valid_many(r, phi) & (phi > states[0].lower)
    for st in states:
        level[inside & (level == 0) & (phi < st.upper) & (r < st.s)] = st.k
    return level


def extend_eval(states: Sequence[ReflectionState], base: HarmonicEvaluator, z: LPoint) -> complex:
    """Evaluate the extended holomorphic completion at z.

    Descends through reflections until the point lands in the original
    corner, evaluates base.f there (required, checked at construction),
    then unwinds f_{j+1}(z) = -conj((f_j - h_j)(w)) + h_j(z).  Raises
    OutsideExtension when no materialized window contains z.

    The descent and the unwinding carry each point as its floats (r, phi):
    w = phi_j(tau(phi_j^-1(z))) is germs.apply_germ written out twice, with
    the sign of the argument flipped between, and each image is checked by
    LPoint's comparisons for two floats; an LPoint is built only to raise
    its exception.  h_j is series.evaluate written out: its radius check,
    then ps_eval at z**(1/d).  The point w_(j+1) is z_j, so the power made
    for h_j at z_j is reused for h_(j+1) at w_(j+1) where the two share d.
    So the floats and exceptions are those of apply_germ and evaluate on
    LPoints.  The one LPoint built is the landing point given to base.f
    (z itself when z is in the corner).  Each level is read as one cached
    tuple, st.descent (made on first read), and every sum is a call of
    the public ps_eval.
    """
    level = membership(states, z)
    if level is None:
        raise OutsideExtension(
            f"point (r={z.r}, phi={z.phi}) lies in no materialized window"
        )
    stack = []
    r, phi = z.r, z.phi
    for st in reversed(states[: level - 1]):
        inv_radius, inv_h, inv_ar, inv_aphi, inv_k, fwd_radius, fwd_h, fwd_ar, fwd_aphi, fwd_k, data = st.descent
        if r >= inv_radius:
            raise OutOfRadius(f"|z| = {r} is not below the germ radius {inv_radius}")
        unit = 1.0 + ps_eval(inv_h, cmath.rect(r, phi))
        u_r, u_phi = inv_ar * (r ** inv_k * abs(unit)), inv_aphi + (inv_k * phi + cmath.phase(unit))
        if not (0.0 < u_r < math.inf and -math.inf < u_phi < math.inf):
            LPoint(u_r, u_phi)  # raises LPoint's exception
        u_phi = -u_phi  # tau
        if u_r >= fwd_radius:
            raise OutOfRadius(f"|z| = {u_r} is not below the germ radius {fwd_radius}")
        unit = 1.0 + ps_eval(fwd_h, cmath.rect(u_r, u_phi))
        w_r, w_phi = fwd_ar * (u_r ** fwd_k * abs(unit)), fwd_aphi + (fwd_k * u_phi + cmath.phase(unit))
        if not (0.0 < w_r < math.inf and -math.inf < w_phi < math.inf):
            LPoint(w_r, w_phi)
        stack.append((data, w_r, w_phi, r, phi))
        r, phi = w_r, w_phi
    value = complex(base.f(LPoint(r, phi) if stack else z))
    d = 0  # the denominator of at_z, z**(1/d) at the level below (none yet)
    for (h_radius, h_d, inv_d, h_base), w_r, w_phi, z_r, z_phi in reversed(stack):
        if w_r >= h_radius:
            raise OutOfRadius(f"|z| = {w_r} is not below the asserted radius {h_radius}")
        # w is the point z of the level below, whose power is at_z
        at_w = at_z if h_d == d else cmath.exp(inv_d * complex(math.log(w_r), w_phi))
        h_w = ps_eval(h_base, at_w)
        if z_r >= h_radius:
            raise OutOfRadius(f"|z| = {z_r} is not below the asserted radius {h_radius}")
        d = h_d
        at_z = cmath.exp(inv_d * complex(math.log(z_r), z_phi))
        value = -(value - h_w).conjugate() + ps_eval(h_base, at_z)
    return value


def extend_eval_many(
    states: Sequence[ReflectionState], base: HarmonicEvaluator, r, phi
) -> list:
    """extend_eval at the points (r[i], phi[i]), evaluated together.

    Returns one entry per point: the complex value that
    extend_eval(states, base, LPoint(r[i], phi[i])) returns, bit for bit,
    or the exception that the call raises, with its type and message
    (an invalid point raises from LPoint).  base.f is required and
    checked at construction.

    A base without a batch completion (say, one built from lambdas) sends
    every point through extend_eval, in one fallback_many call.  With
    base.f_many (a wedge_solve evaluator, and its conjugate or rotation),
    the points take membership_many, then descend one level at a time,
    every point still above that level in one group, through
    germs.apply_germ_many, take their base values from one base.f_many
    call, and unwind the same way through series.evaluate_many, on split
    real and imaginary float64 arrays.  A valid point in no window gets
    extend_eval's OutsideExtension, built here; one that a twin's ok mask
    drops goes through extend_eval by fallback_many: its value or exception.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    scalar = lambda z: extend_eval(states, base, z)
    if base.f_many is None:
        zeros = np.zeros(len(r))
        return fallback_many(scalar, r, phi, zeros, zeros, zeros.astype(bool))
    with np.errstate(all="ignore"):
        level = membership_many(states, r, phi)
        ok = level > 0

        cur_r, cur_phi = r.copy(), phi.copy()
        path = []
        for k in range(int(level.max(initial=0)), 1, -1):
            st = states[k - 2]
            idx = np.flatnonzero(ok & (level >= k))
            z_r, z_phi = cur_r[idx], cur_phi[idx]
            u_r, u_phi, good = apply_germ_many(st.phi_inv, z_r, z_phi)
            # tau keeps a valid point valid, so it needs no check of its own
            w_r, w_phi, good_w = apply_germ_many(st.phi, u_r, -u_phi)
            ok[idx[~(good & good_w)]] = False
            cur_r[idx], cur_phi[idx] = w_r, w_phi
            path.append((st.h, idx, z_r, z_phi, w_r, w_phi))

        landed = np.flatnonzero(ok)
        val_r, val_i = np.zeros(len(r)), np.zeros(len(r))
        val_r[landed], val_i[landed], good = base.f_many(cur_r[landed], cur_phi[landed])
        ok[landed[~good]] = False

        # value = -(value - h(w)).conjugate() + h(z), one part at a time
        for h, idx, z_r, z_phi, w_r, w_phi in reversed(path):
            keep = ok[idx]
            idx, m = idx[keep], int(keep.sum())
            # h at the descended points w, then at the points z
            both_r = np.concatenate((w_r[keep], z_r[keep]))
            both_phi = np.concatenate((w_phi[keep], z_phi[keep]))
            e_r, e_i, good = evaluate_many(h, both_r, both_phi)
            val_r[idx] = -(val_r[idx] - e_r[:m]) + e_r[m:]
            val_i[idx] = (val_i[idx] - e_i[:m]) + e_i[m:]
            ok[idx[~(good[:m] & good[m:])]] = False

    outside = valid_many(r, phi) & (level == 0)
    values = fallback_many(scalar, r, phi, val_r, val_i, ok | outside)
    for i in np.flatnonzero(outside).tolist():
        values[i] = OutsideExtension(
            f"point (r={float(r[i])}, phi={float(phi[i])}) lies in no materialized window")
    return values


def _oracle_points(states, rng, n_oracle):
    """(|z|, arg z, level) arrays of n_oracle draws of an angle in the top window, each followed,
    when the angle's probe point has a level, by a radius in that level's window.  One
    rng.random call draws them all; the generator ends, and an invalid point raises,
    as n_oracle scalar rounds would (tests/test_cli.py's _scalar_oracle)."""
    top = states[-1]
    pad = (top.upper - top.lower) * 1e-3
    saved = rng.bit_generator.state
    u = rng.random(2 * n_oracle)
    ang = top.lower + pad + (top.upper - top.lower - 2 * pad) * u
    probe = np.full(len(u), top.s * 0.1)
    level = membership_many(states, probe, ang)
    s_lev = np.array([0.0] + [st.s for st in states])[level]
    radius = s_lev * 0.5 * np.roll(u, -1) + s_lev * 1e-6  # no angle takes the last draw
    point = np.where(level > 0, radius, probe)  # the radius each draw's LPoint checks
    inside, valid = level.tolist(), valid_many(point, ang).tolist()
    picks, j = [], 0
    for _ in range(n_oracle):
        i, j = j, j + (2 if inside[j] else 1)
        if not valid[i]:
            break
        if inside[i]:
            picks.append(i)
    rng.bit_generator.state = saved
    rng.random(j)
    if not valid[i]:
        LPoint(float(point[i]), float(ang[i]))  # raises
    return radius[picks], ang[picks], level[picks]


def tower_errors(states: Sequence[ReflectionState], base: HarmonicEvaluator, rng, n_oracle: int) -> tuple:
    """Each level's worst boundary and oracle errors, as two lists: entry k - 1 of the first
    is max |Re f - Re h_k| at five images phi_k(t), t up to min(s_{k+1}, phi_k's radius) / 2,
    for each level below the top; of the second, max |f - ref| / (1 + |ref|), ref = base.f,
    at the _oracle_points in level k's window (0.0 for none; nan if any error is nan).  f is
    extend_eval's value, all points in one extend_eval_many call, so base needs f_many.
    The images raise first, then the draw, then each point's f before its h_k or ref."""
    edge = []
    for st in states[:-1]:
        t_cap = min(states[st.k].s, st.phi.radius) * 0.5
        edge += [(st, apply_germ(st.phi, LPoint(float(t), 0.0))) for t in np.geomspace(t_cap * 1e-2, t_cap, 5)]
    r, phi, level = _oracle_points(states, rng, n_oracle)
    values = extend_eval_many(states, base, [z.r for _, z in edge] + r.tolist(),
                              [z.phi for _, z in edge] + phi.tolist())
    boundary, oracle = [[0.0] for _ in states[:-1]], [[0.0] for _ in states]
    for (st, z), fv in zip(edge, raising(values[:len(edge)])):
        boundary[st.k - 1].append(abs(fv.real - evaluate(st.h, z).real))
    refs = fallback_many(base.f, r, phi, *base.f_many(r, phi))
    for k, fv, ref in zip(level.tolist(), raising(values[len(edge):]), raising(refs)):
        oracle[k - 1].append(abs(fv - ref) / (1.0 + abs(ref)))
    return [worst(*row) for row in boundary], [worst(*row) for row in oracle]


def conjugate_corner(corner: CornerSpec) -> CornerSpec:
    """The corner reflected across the real axis, with curves swapped so
    the tangent arguments stay increasing."""
    return CornerSpec(
        tau_conj(corner.chi),
        tau_conj(corner.psi),
        corner.theta,
        corner.g1,
        corner.g0,
        corner.eps,
    )


def conjugate_evaluator(base: HarmonicEvaluator) -> HarmonicEvaluator:
    """Transport an evaluator through tau: u -> u o tau, f -> conj(f o tau).

    A batch completion is carried the same way, phi -> -phi and the
    imaginary part negated; both maps are exact.
    """
    f = lambda z: complex(base.f(tau(z))).conjugate()
    f_many = None
    if base.f_many is not None:
        def f_many(r, phi):
            re, im, ok = base.f_many(r, -phi)
            return re, -im, ok
    return HarmonicEvaluator(lambda z: base.u(tau(z)), f, f_many)


def rotate_evaluator(base: HarmonicEvaluator, angle: float) -> HarmonicEvaluator:
    """Transport an evaluator by the rotation (r, phi) -> (r, phi - angle):
    u -> u o rot, f -> f o rot, and a batch completion at phi - angle."""
    rot = lambda z: LPoint(z.r, z.phi - angle)
    f = lambda z: base.f(rot(z))
    f_many = None if base.f_many is None else lambda r, phi: base.f_many(r, phi - angle)
    return HarmonicEvaluator(lambda z: base.u(rot(z)), f, f_many)


# ----------------------------------------------------------------------
# covering envelope
# ----------------------------------------------------------------------

def _reach(theta: float, k: int) -> float:
    return 2.0 ** (k - 1) * theta - math.pi / 2


def envelope_levels(theta: float, xs) -> list[int]:
    """The least level whose window covers the shifted argument x = arg z - alpha,
    at each x of the list xs, in one sweep.

    The level-k window covers x < 2**(k-1) * theta - pi/2, the printed
    reach that holds for curved corners as well as straight ones.  The
    reach grows with k, so a search starts at the level of the x before,
    or at 1 when x is below it (or nan).
    """
    levels, k = [], 1
    for prev, x in zip([math.inf, *xs], xs):
        k = k if x >= prev else 1
        while _reach(theta, k) <= x:
            k += 1
        levels.append(k)
    return levels


@dataclass(frozen=True)
class EnvelopeResult:
    """A constant K and quadratic domain certified to lie inside the
    union of reflection windows, with the breakpoint rows that set K.

    Rows are (x, level, window_radius, needed_K) in the shifted
    coordinate x = arg z - alpha.
    """

    K: float
    domain: QuadraticDomain
    rows: tuple


def envelope(states: Sequence[ReflectionState], phi_max: float = 1e4) -> EnvelopeResult:
    """Certify a quadratic domain inside the union of windows.

    Only level 1 is read, states[0]'s s_1 and theta: the level-k window
    covers shifted arguments x < 2**(k-1) * theta - pi/2 within radius
    s_1 / 100**(k-1), for every k, so K is the supremum of
    (100**(k-1) / s_1) ** (1 / log+ x) over the breakpoints in
    [1, phi_max].  The breakpoints come with their levels from one loop:
    x = 1 at k0 = envelope_levels(theta, [1])[0], then each reach
    x = 2**(k-1) * theta - pi/2 below phi_max, k >= k0, at level k + 1,
    since the reach strictly increases in k (and exceeds 1 from k0 on).
    The returned domain (c, C) = (min(1, s_1), log K) satisfies
    c * exp(-C * sqrt(x)) <= K ** (-log+ x) for x >= 1.  Raises
    WindowEmpty, naming the level, when a window radius it reads is so
    small that K has no float.
    """
    s1 = states[0].s
    theta = states[0].theta

    def log_plus(x: float) -> float:
        return max(1.0, math.log(x))

    K = 1.0 + 1e-6
    rows = []
    x, lev = 1.0, envelope_levels(theta, [1.0])[0]
    while not rows or x < phi_max:
        window_radius = s1 / 100.0 ** (lev - 1)
        needed = (1.0 / window_radius) ** (1.0 / log_plus(x)) if window_radius else math.inf
        if not math.isfinite(needed * (1.0 + 1e-9)):  # K, and so log K, would not be finite
            raise WindowEmpty(f"level {lev}'s window radius s_1 / 100**{lev - 1} = {window_radius!r} "
                              f"is too small for a finite K")
        rows.append((x, lev, window_radius, needed))
        K = max(K, needed)
        x, lev = _reach(theta, lev), lev + 1
    K *= 1.0 + 1e-9
    c = min(1.0, s1)
    return EnvelopeResult(K, QuadraticDomain(c, math.log(K)), tuple(rows))


# ----------------------------------------------------------------------
# expansion certificate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionCertificate:
    """Sampled growth certificate comparing the extension with a finite
    log-power expansion gamma of order R.

    step_bounds rows are (k, C_k, A**k, t_k); window_rows are
    (k, t_hi, t_lo, worst_ratio, ok) checking |f - gamma| <= |z|**S on
    the matching scale window of each level.
    """

    R: float
    R_prime: float
    S: float
    A: float
    step_bounds: tuple
    window_rows: tuple
    ok: bool


_NOISE_FLOOR = 1e-12


def worst(*errors: float) -> float:
    """The largest error, or nan when any error is nan: max() would drop it."""
    return math.nan if any(math.isnan(e) for e in errors) else max(errors)


def _next_exponent_bound(gamma: LogPowerSeries, R: float) -> float:
    """The least point above R of gamma's exponent lattice: each support
    exponent plus the nonnegative integers, 0 plus the nonnegative integers,
    and the multiples of 1/d, where d is the lcm of the support's Fraction
    denominators."""
    exps = set()
    d = 1
    for a in support(gamma):
        exps.add(float(a))
        if isinstance(a, Fraction):
            d = lcm(d, a.denominator)
    exps.add(0.0)
    best = math.inf
    for a in exps:
        best = min(best, a if a > R else a + math.floor(R - a) + 1.0)
    if math.isfinite(R * d):  # past the float range the lattice adds no point beyond R
        best = min(best, (math.floor(R * d) + 1.0) / d)
    return best


def exponent_window(gamma: LogPowerSeries, R: float) -> tuple[float, float]:
    """certify_expansion's (R', S); a ValueError unless R < S < R' as floats."""
    bound = _next_exponent_bound(gamma, R)
    R_prime = R + 0.5 * (bound - R)
    S = max(0.5 * (R + R_prime), R_prime - 1.0)
    if not R < S < R_prime:
        raise ValueError(f"no float S lies between R = {R!r} and the next lattice exponent {bound!r}")
    return R_prime, S


def _window_points(states, idx: int, count: int, radii: np.ndarray) -> tuple:
    """(|z|, arg z) as arrays, at count angles across window idx times the
    given radii, angle-major; empty when the window is empty."""
    lo, hi = states[idx].lower, states[idx].upper
    if not hi > lo:
        return np.empty(0), np.empty(0)
    pad = (hi - lo) * 1e-3 + 1e-9
    angles = np.linspace(lo + pad, hi - pad, count)
    return np.tile(radii, count), np.repeat(angles, len(radii))


def _cert_samples(
    states: Sequence[ReflectionState],
    base: HarmonicEvaluator,
    gamma: LogPowerSeries,
    count: int,
    grids: Sequence[tuple[int, np.ndarray]],
) -> list[tuple[np.ndarray, list, list]]:
    """For each (idx, radii) of grids, the samples at
    _window_points(states, idx, count, radii) as (|z|, gammas, fs): the
    moduli as an array, and the values of gamma and f at the points, each
    a complex or the exception its evaluation raises.

    f is evaluated at every point of every window in one extend_eval_many
    call, and gamma in one evaluate_many call, whose leftovers go through
    logpower.evaluate by fallback_many.
    """
    points = [_window_points(states, idx, count, radii) for idx, radii in grids]
    r = np.concatenate([np.empty(0)] + [pr for pr, _ in points])
    phi = np.concatenate([np.empty(0)] + [pphi for _, pphi in points])
    values = extend_eval_many(states, base, r, phi)
    gammas = fallback_many(lambda z: lp_evaluate(gamma, z), r, phi, *lp_evaluate_many(gamma, r, phi))
    out, start = [], 0
    for pr, _ in points:
        stop = start + len(pr)
        out.append((pr, gammas[start:stop], values[start:stop]))
        start = stop
    return out


def _window_worst(samples: tuple, term: Callable) -> float:
    """worst(0.0, *terms) over one window's samples from _cert_samples.

    A sample at |z| = r with values g and f has the term
    term(r, |f - g|, |g|).  The samples are folded one at a time, so the
    first failing sample raises its exception, gamma's before f's, a term
    that divides by zero raises, and a nan makes the fold nan.
    """
    r, gammas, fs = samples
    terms = (term(rr, abs(f - g), abs(g)) for rr, g, f in zip(r.tolist(), raising(gammas), raising(fs)))
    return worst(0.0, *terms)


def certify_expansion(
    states: Sequence[ReflectionState],
    base: HarmonicEvaluator,
    gamma: LogPowerSeries,
    R: float,
    angle_samples: int = 5,
    radial_samples: int = 8,
) -> ExtensionCertificate:
    """Sample the printed growth certificate for f - gamma.

    R' sits halfway between R and the next exponent the expansion lattice
    allows, S between R and R' (exponent_window).  C_k is the sampled
    supremum of |f - gamma| / |z|**R' over the level-k window (minus a
    fixed relative noise floor), A is chosen so C_k <= A**k and so the
    scale t_k = A**(-k / (R' - S)) stays below s_k; the window check then
    verifies |f - gamma| <= |z|**S for t_{k+1} <= |z| <= t_k.  Both folds
    use worst, so a nan sample makes its C_k nan and fails its window.
    Raises WindowEmpty when the scales underflow before the last level, and
    PowerUnderflow when |z|**R' or |z|**S does at a sample (a smaller R avoids it).
    Each of the two passes evaluates f at all of its samples, over every
    window, in one extend_eval_many call, and gamma in one
    logpower.evaluate_many call, so every value is that of extend_eval and
    evaluate at the sample; each window is then folded sample by sample
    (_window_worst), and a failing sample raises its exception.
    """
    R_prime, S = exponent_window(gamma, R)

    grids = [  # the top radius is below s_k, to which a subnormal s_k * (1.0 - 1e-9) rounds back
        (idx, np.geomspace(st.s * 1e-2, min(st.s * (1.0 - 1e-9), math.nextafter(st.s, 0.0)), radial_samples))
        for idx, st in enumerate(states)
    ]
    # the residual err - floor * size over |z|**R', or 0.0 where it is
    # <= 0; a nan residual is not <= 0, so it reaches the fold and C_k is nan
    def excess(k, r, err, size):
        e = err - _NOISE_FLOOR * size
        if not e <= 0 and r ** R_prime == 0.0:
            raise PowerUnderflow(f"|z|**R' underflows to 0.0 at level {k}: |z| = {r}, R' = {R_prime}")
        return 0.0 if e <= 0 else e / r ** R_prime

    c_values = [_window_worst(samples, partial(excess, k))
                for k, samples in enumerate(_cert_samples(states, base, gamma, angle_samples, grids), 1)]

    denom = R_prime - S
    A = 1.0001
    for k, ck in enumerate(c_values, start=1):
        if ck > 0:
            A = max(A, (1.1 * ck) ** (1.0 / k))
    for st in states:
        cap = 0.99 * st.s
        if cap < 1.0:
            A = max(A, cap ** (-denom / st.k))

    scales = [A ** (-k / denom) for k in range(1, len(states) + 2)]

    # The windows before the first underflowing scale are sampled, and
    # their failures raised, before that underflow is.
    grids, empty = [], None
    for idx, st in enumerate(states):
        t_hi, t_lo = scales[st.k - 1], scales[st.k]
        lo_r = max(t_lo, t_hi * 1e-3)
        if t_hi < 1e-300 or t_lo == 0.0:
            empty = WindowEmpty(f"certificate scales underflow at level {st.k}: t = {t_hi}")
            break
        if lo_r ** S == 0.0:
            empty = PowerUnderflow(f"|z|**S underflows to 0.0 at level {st.k}: |z| = {lo_r}, S = {S}")
            break
        grids.append((idx, np.geomspace(lo_r, t_hi, 6)))
    window_rows = []
    ratio = lambda r, err, size: err / (r ** S + _NOISE_FLOOR * size)
    for (idx, _), samples in zip(grids, _cert_samples(states, base, gamma, angle_samples, grids)):
        k = states[idx].k
        worst_ratio = _window_worst(samples, ratio)
        window_rows.append((k, scales[k - 1], scales[k], worst_ratio, worst_ratio <= 1.0))
    if empty is not None:
        raise empty
    # A ** k overflows only where t_k <= A ** -k (denom <= 1) is below 1e-300, which raised above
    step_bounds = tuple((k, ck, A ** k, scales[k - 1]) for k, ck in enumerate(c_values, start=1))

    return ExtensionCertificate(
        float(R), R_prime, S, A, step_bounds, tuple(window_rows), all(row[4] for row in window_rows)
    )
