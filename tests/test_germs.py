from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SIGNED_ZEROS,
    apply_germ_composed,
    bits,
    compose_full,
    invert_full,
    make_star_germ,
    outcome,
    ps_eval_loop,
    sampled_h_sup_full,
    shrink_by_sampling,
    star_germs,
    surface_dist,
    surface_points,
)
from logsurf import (
    InvalidGerm,
    LPoint,
    NotInvertible,
    ONE,
    Germ,
    OutOfRadius,
    apply_germ,
    compose,
    config,
    cpow,
    identity_germ,
    invert,
    is_identity,
    is_ray,
    make_germ,
    mul,
    power,
    power_germ,
    project,
    root_pullback,
    rotation_germ,
    tau_conj,
)
from logsurf import germs
from logsurf.germs import _shrink_to_bound, apply_germ_many, majorant, sampled_h_sup
from logsurf.series import PowerSeries


def _h_max(phi, upto=None):
    coeffs = phi.h.coeffs if upto is None else phi.h.coeffs[: upto + 1]
    return max((abs(c) for c in coeffs), default=0.0)


def test_constructor_enforces_h_constraints():
    with pytest.raises(InvalidGerm):
        make_germ(ONE, 1, (1.0, 0.5), 1.0)
    # a large h forces the construction radius down until |h| <= 1/2
    g = make_germ(ONE, 1, (0.0, 10.0), 1.0)
    assert g.radius < 1.0
    from logsurf.germs import sampled_h_sup

    assert sampled_h_sup(g.h.coeffs, g.radius) <= 0.5
    # a nan sample certifies no radius
    assert math.isnan(sampled_h_sup((0.0, math.nan), 1.0))
    with pytest.raises(ValueError):
        make_germ(ONE, 1, (0.0, math.nan), 1.0)


def test_identity_and_rotation_apply_exactly():
    z = LPoint(0.3, 7.0)
    assert apply_germ(identity_germ(), z) == z
    rot = rotation_germ(2.5)
    assert apply_germ(rot, z) == LPoint(0.3, 9.5)
    assert is_identity(identity_germ())
    assert not is_identity(rot)
    assert is_ray(rot)


def test_power_germ_and_apply_radius_gate():
    sq = power_germ(2)
    z = LPoint(0.5, math.pi)
    assert apply_germ(sq, z) == LPoint(0.25, 2.0 * math.pi)
    small = make_germ(ONE, 1, (0.0, 0.1), 0.5)
    with pytest.raises(OutOfRadius):
        apply_germ(small, LPoint(0.5, 0.0))


def test_compose_matches_pointwise_application(rng):
    for _ in range(25):
        f = make_star_germ(rng)
        g = make_star_germ(rng)
        fg = compose(f, g)
        for _ in range(8):
            z = LPoint(fg.radius / 100.0 * (rng.random() + 1e-6), rng.uniform(-3.0, 3.0))
            direct = apply_germ(f, apply_germ(g, z))
            assert surface_dist(apply_germ(fg, z), direct) < 1e-9


_GRADES = st.sampled_from([1, 2, 3])
# an identity inner germ takes compose's closed form
_GROUP = star_germs() | st.just(identity_germ())


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(f=star_germs(_GRADES) | st.just(identity_germ()), g=star_germs(_GRADES) | st.just(identity_germ()))
def test_compose_group_grading_is_exact(f, g):
    fg = compose(f, g)
    assert fg.k == f.k * g.k
    assert fg.a == mul(f.a, power(float(f.k), g.a))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(f=_GROUP)
def test_invert_round_trip(f):
    with config.trunc_order(16):
        fi = invert(f)
        left = compose(fi, f)
        right = compose(f, fi)
    for rt in (left, right):
        assert rt.k == 1
        assert abs(rt.a.r - 1.0) < 1e-10
        assert abs(rt.a.phi) < 1e-10
        assert _h_max(rt, upto=8) < 1e-10
    z = LPoint(right.radius * 0.5, 0.7)
    assert surface_dist(apply_germ(right, z), z) < 1e-9


def test_invert_refuses_higher_k(rng):
    g = make_star_germ(rng, k=2)
    with pytest.raises(NotInvertible):
        invert(g)


def test_invert_preserves_radius_for_rays():
    rot = rotation_germ(1.0, radius=3.0)
    assert invert(rot).radius == 3.0


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(f=_GROUP, g=_GROUP, h=_GROUP)
def test_associativity_coefficientwise(f, g, h):
    with config.trunc_order(16):
        left = compose(f, compose(g, h))
        right = compose(compose(f, g), h)
    assert left.k == right.k
    assert surface_dist_pt(left.a, right.a) < 1e-12
    diff = max(abs(x - y) for x, y in zip(left.h.coeffs[:9], right.h.coeffs[:9]))
    assert diff < 1e-10


def surface_dist_pt(a, b):
    return abs(a.r - b.r) + abs(a.phi - b.phi)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(f=_GROUP, g=_GROUP)
def test_tau_conj_is_an_involutive_homomorphism(f, g):
    back = tau_conj(tau_conj(f))
    assert back.a == f.a and back.h.coeffs == f.h.coeffs
    lhs = tau_conj(compose(f, g))
    rhs = compose(tau_conj(f), tau_conj(g))
    assert surface_dist_pt(lhs.a, rhs.a) < 1e-14
    assert max(abs(x - y) for x, y in zip(lhs.h.coeffs, rhs.h.coeffs)) < 1e-14


def test_growth_and_argument_bounds(rng):
    for _ in range(20):
        f = make_star_germ(rng, k=int(rng.integers(1, 4)))
        for _ in range(50):
            z = LPoint(f.radius * (rng.random() * 0.999 + 1e-9), rng.uniform(-9.0, 9.0))
            w = apply_germ(f, z)
            assert w.r <= 2.0 * f.a.r * z.r ** f.k
            assert abs(w.phi - f.a.phi - f.k * z.phi) <= math.pi / 2


def test_root_pullback_agrees_with_surface_root(rng):
    for _ in range(10):
        f = make_star_germ(rng, k=2)
        half = root_pullback(f, 2)
        assert half.k == 1
        for _ in range(8):
            z = LPoint(half.radius * 0.9 * (rng.random() + 1e-6), rng.uniform(-3.0, 3.0))
            want = power(0.5, apply_germ(f, z))
            assert surface_dist(apply_germ(half, z), want) < 1e-9


def test_root_pullback_requires_divisibility(rng):
    f = make_star_germ(rng, k=3)
    with pytest.raises(InvalidGerm):
        root_pullback(f, 2)
    assert root_pullback(f, 1) is f


def test_ray_round_trip_is_exact():
    rot = rotation_germ(0.7)
    z = LPoint(1e-3, 4.0)
    back = apply_germ(invert(rot), apply_germ(rot, z))
    assert back == z


def test_apply_lifts_the_unit_factor_principally(rng):
    # with h real and small, the lifted argument stays in (-pi/2, pi/2)
    g = make_germ(ONE, 1, (0.0, 0.4), 1.0)
    z = LPoint(0.9, 6.0 * math.pi)
    w = apply_germ(g, z)
    hv = 0.4 * cpow(1.0, z)
    assert abs(w.phi - z.phi - math.atan2(hv.imag, 1.0 + hv.real)) < 1e-12


def test_apply_germ_inside_the_radius_of_a_composed_ray():
    # compose keeps 33 zero h coefficients; summing them all overflowed
    # w**n at |z| = 1e10 and gave 0 * inf = nan
    phi = compose(identity_germ(), identity_germ())
    assert 1e10 < phi.radius
    assert apply_germ(phi, LPoint(1e10, 0.3)) == LPoint(1e10, 0.3)


def _outcome(fn, phi, z):
    try:
        w = fn(phi, z)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return bits(w.r, w.phi)


# moderate values, where rounding depends on the operation order, or extreme ones
_MODULI = st.floats(0.1, 10.0) | st.floats(1e-300, 1e300)
_ARGS = st.floats(-50.0, 50.0) | st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    a_r=_MODULI,
    a_phi=_ARGS,
    k=st.sampled_from([0, 1, 2]),
    h=st.lists(
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        max_size=12,
    ),
    z_r=_MODULI,
    z_phi=_ARGS,
)
def test_apply_germ_is_the_composed_form_bit_for_bit(a_r, a_phi, k, h, z_r, z_phi):
    phi = Germ(LPoint(a_r, a_phi), k, PowerSeries((0j, *h)), 1e308)
    z = LPoint(z_r, z_phi)
    # where the full loop overflows on trailing zeros, apply_germ differs on purpose
    if cmath.isfinite(ps_eval_loop(phi.h.coeffs, project(z))):
        assert _outcome(apply_germ, phi, z) == _outcome(apply_germ_composed, phi, z)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    head=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS
        | st.just(complex(math.nan, 0.0)),
        max_size=10,
    ),
    tail=st.lists(SIGNED_ZEROS, max_size=40),
    radius=st.floats(1e-3, 10.0),
)
@example(head=[complex(math.nan, 0.0)], tail=[], radius=1.0)  # h = (0, nan): nan, never 0.0
def test_sampled_h_sup_is_the_full_sampling_bit_for_bit(head, tail, radius):
    h = (0j, *head, *tail)  # h = 0 when head holds only zeros
    assert float(sampled_h_sup(h, radius)).hex() == float(sampled_h_sup_full(h, radius)).hex()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    a_r=_MODULI,
    a_phi=_ARGS,
    h=st.lists(
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS,
        max_size=12,
    ),
    radius=st.sampled_from([1e-3, 1.0, 1e12, 1e308]),
    points=surface_points(1.0),
    # at the germ radius, the float on either side of it, and inside it
    at_radius=st.lists(
        st.tuples(st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.5]),
                  st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])),
        max_size=6,
    ),
)
def test_apply_germ_many_is_apply_germ_bit_for_bit(a_r, a_phi, h, radius, points, at_radius):
    # where ok, the batch image is apply_germ's; ok is False exactly where
    # apply_germ or LPoint raises
    g = Germ(LPoint(a_r, a_phi), 1, PowerSeries((0j, *h)), radius)
    points = points + [(radius * t, phi) for t, phi in at_radius]
    r, phi = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    with np.errstate(all="ignore"):
        out_r, out_phi, ok = apply_germ_many(g, r, phi)
    for i, (z_r, z_phi) in enumerate(points):
        try:
            w = apply_germ(g, LPoint(z_r, z_phi))
        except (ValueError, ArithmeticError, OutOfRadius) as exc:
            assert not ok[i], exc
        else:
            assert ok[i] and bits(out_r[i], out_phi[i]) == bits(w.r, w.phi)


def test_apply_germ_many_takes_only_k_one():
    for g in (power_germ(2), Germ(LPoint(1.0, 0.5), 0, PowerSeries((0j,)), 1.0)):
        with pytest.raises(InvalidGerm, match="k = 1"):
            apply_germ_many(g, np.array([0.5]), np.array([0.1]))


# moderate parts, signed zeros, subnormals, 1e300 and non-finite parts
_EDGE_PARTS = st.floats(-1.0, 1.0) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, math.inf, -math.inf, math.nan])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    order=st.integers(1, 40),
    k=st.sampled_from([1, 2, 3]),
    a_r=st.floats(0.1, 10.0),
    a_phi=st.floats(-50.0, 50.0),
    h=st.lists(st.builds(complex, _EDGE_PARTS, _EDGE_PARTS), max_size=45),
    finite=st.booleans(),
    head=SIGNED_ZEROS,
    identity_phi=st.sampled_from([0.0, -0.0]),
    identity_h=st.lists(SIGNED_ZEROS, min_size=1, max_size=45),
    radii=st.tuples(st.sampled_from([1e-3, 1.0, 1e12]), st.sampled_from([1e-3, 1.0, 1e12])),
)
def test_compose_with_the_identity_is_the_full_product_bit_for_bit(
        order, k, a_r, a_phi, h, finite, head, identity_phi, identity_h, radii):
    # h(phi) is drawn shorter and longer than order + 1; the closed form
    # must give the floats of the products, and an inf or nan takes them
    if finite:
        h = [c if cmath.isfinite(c) else 0.5j for c in h]
    phi = Germ(LPoint(a_r, a_phi), k, PowerSeries((head, *h)), radii[0])
    psi = Germ(LPoint(1.0, identity_phi), 1, PowerSeries(tuple(identity_h)), radii[1])
    assert is_identity(psi)
    got = compose(phi, psi, order)
    with config.trunc_order(order):
        want = compose_full(phi, psi)
    assert got.k == want.k
    assert bits(got.a.r, got.a.phi, got.radius) == bits(want.a.r, want.a.phi, want.radius)
    assert bits(*got.h.coeffs) == bits(*want.h.coeffs)


def _germ_outcome(call, *args) -> tuple:
    """k, the length of h and the float hex of a, the radius and every
    coefficient of h of the germ call(*args), or the type and message of
    the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            g = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g.k, len(g.h.coeffs), bits(g.a.r, g.a.phi, g.radius, *g.h.coeffs)


# |a| near the float limits, where b = 1/|a| or a**k leaves the float range
_RAY_A_R = st.floats(0.1, 10.0) | st.sampled_from([5e-324, 1e-308, 5.6e-309, 1e300, 1.7976931348623157e308])
# a on several sheets, every quadrant of each
_RAY_A_PHI = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2])
# 5e-324 times 0.1 underflows the composed radius to 0.0
_RAY_RADII = st.sampled_from([5e-324, 1e-300, 1e-3, 1.0, 1e12])


def _ray(a_r, a_phi, k, zeros, radius):
    """The germ a * z**k with an h of signed zeros."""
    return Germ(LPoint(a_r, a_phi), k, PowerSeries(tuple(zeros)), radius)


_RAY = st.builds(_ray, _RAY_A_R, _RAY_A_PHI, st.integers(1, 3),
                 st.lists(SIGNED_ZEROS, min_size=1, max_size=70), _RAY_RADII)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@example(order=1, phi_k=0, phi=identity_germ(), psi=identity_germ())
@example(order=32, phi_k=1, phi=_ray(1.0, 0.5, 1, [0j], 5e-324), psi=_ray(10.0, -1.0, 1, [0j], 1.0))
@example(order=64, phi_k=3, phi=_ray(2.0, 0.5, 1, [0j], 1.0),
         psi=_ray(1.7976931348623157e308, 1.0, 1, [0j], 1.0))
@given(
    order=st.integers(1, 64),
    phi_k=st.integers(0, 3),
    phi=_RAY | st.just(identity_germ()),
    psi=_RAY | st.just(identity_germ()),
)
def test_compose_of_two_rays_is_the_full_product_bit_for_bit(order, phi_k, phi, psi):
    # h of either ray is drawn shorter and longer than order + 1, with
    # signed zeros; the closed form must give the products' floats, and
    # a radius that underflows or an a**k that overflows raises as they do
    phi = Germ(phi.a, phi_k, phi.h, phi.radius)
    got = _germ_outcome(compose, phi, psi, order)
    with config.trunc_order(order):
        assert got == _germ_outcome(compose_full, phi, psi)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@example(order=1, phi=identity_germ())
@example(order=16, phi=_ray(5e-324, 1.0, 1, [0j], 1.0))  # 1 / |a| overflows: b raises
@example(order=16, phi=_ray(1.7976931348623157e308, -2.5, 1, [complex(-0.0, -0.0)], 1.0))
@given(order=st.integers(1, 64), phi=_RAY.map(lambda g: Germ(g.a, 1, g.h, g.radius)))
def test_invert_of_a_ray_is_the_reversion_bit_for_bit(order, phi):
    # the zeros of h~ carry the signs of 0j * a1, a1 = project(a)
    got = _germ_outcome(invert, phi, order)
    with config.trunc_order(order):
        assert got == _germ_outcome(invert_full, phi)


def _curved(a_r, a_phi, k, head, h, finite, radius):
    """The germ a * z**k * (1 + h(z)), h = head, *h with h_j scaled by
    1 / (j*j + 1); finite=True puts 0.5j / (j*j + 1) for an inf or nan h_j."""
    h = [c / (j * j + 1) if cmath.isfinite(c) else 0.5j / (j * j + 1) if finite else c
         for j, c in enumerate(h, start=1)]
    return Germ(LPoint(a_r, a_phi), k, PowerSeries((head, *h)), radius)


# h dense, with a nonzero after the scaling (a subnormal draw may round to
# zero there); |a| and the radius mostly moderate, with the float limits of
# _RAY_A_R and _RAY_RADII among them
_CURVED = st.builds(
    _curved, st.floats(0.1, 10.0) | _RAY_A_R, _RAY_A_PHI, st.integers(1, 3), SIGNED_ZEROS,
    st.lists(st.builds(complex, _EDGE_PARTS, _EDGE_PARTS), min_size=1, max_size=45),
    st.booleans(), st.sampled_from([1e-3, 1.0, 1e12]) | _RAY_RADII).filter(lambda g: not is_ray(g))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(order=st.integers(1, 40), phi_k=st.integers(0, 3), phi=_CURVED, psi=_CURVED)
def test_compose_of_two_curved_germs_is_the_full_product_bit_for_bit(order, phi_k, phi, psi):
    # the general path: (1 + h(psi))**k(phi) times 1 + h(phi) o s(psi),
    # with h of either germ shorter and longer than order + 1; a, the
    # radius and every coefficient of h are the full products' floats, and
    # an a**k that overflows or a radius that underflows raises as they do
    phi = Germ(phi.a, phi_k, phi.h, phi.radius)
    assert not is_identity(psi) and not is_ray(psi)
    got = _germ_outcome(compose, phi, psi, order)
    with config.trunc_order(order):
        assert got == _germ_outcome(compose_full, phi, psi)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(order=st.integers(1, 40), phi=_CURVED.map(lambda g: Germ(g.a, 1, g.h, g.radius)))
def test_invert_of_a_curved_germ_is_the_reversion_bit_for_bit(order, phi):
    # h~ is reversion's g_2.. times a1, and the radius the sampled halving's;
    # an invalid b, an overflowing shadow or an uncertifiable h~ raises as
    # the reference does
    assert not is_ray(phi)
    got = _germ_outcome(invert, phi, order)
    with config.trunc_order(order):
        assert got == _germ_outcome(invert_full, phi)


def _scaled(weights, radius, total):
    """Coefficients c_n = total * w_n / radius**n, n >= 1, after a zero, so
    that sum |c_n| radius**n is about total when the weights sum to 1."""
    norm = sum(abs(w) for w in weights) or 1.0
    return (0j, *(total * (w / norm) * radius ** -n for n, w in enumerate(weights, start=1)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    weights=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS,
        min_size=1, max_size=40,
    ),
    # positive real coefficients: the sampled sup at w = radius is the majorant
    positive=st.booleans(),
    radius=st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e),
    # M(radius) - 1/2, across the majorant's margin of 2**-30 and past 1/2
    excess=st.floats(-1e-6, 1e-6) | st.floats(-2e-9, 1e-9),
    spoil=st.sampled_from([None, math.nan, math.inf, -math.inf]),
    where=st.integers(0, 40),
)
def test_shrink_to_bound_is_the_sampled_halving_bit_for_bit(weights, positive, radius, excess,
                                                            spoil, where):
    if positive:
        weights = [abs(w) for w in weights]
    h = list(_scaled(weights, radius, 0.5 + excess))
    if spoil is not None:
        h[1 + where % (len(h) - 1)] = complex(spoil, 0.25)
    with np.errstate(all="ignore"):
        assert outcome(_shrink_to_bound, tuple(h), radius) == outcome(shrink_by_sampling, tuple(h), radius)


def test_the_majorant_decides_where_it_bounds_the_sampled_sup(monkeypatch):
    sampled = []
    monkeypatch.setattr(germs, "sampled_h_sup", lambda h, r: sampled.append(r) or sampled_h_sup(h, r))
    # h = w / 2 at radius 1: M = 1/2 lies within the margin, so sampling
    # decides, and a rounded sample point with |w| > 1 fails it; at radius
    # 1/2 the majorant decides alone
    assert majorant((0j, 0.5 + 0j), 1.0) == 0.5
    assert _shrink_to_bound((0j, 0.5 + 0j), 1.0) == 0.5 and sampled == [1.0]
    assert _shrink_to_bound((0j, 0.25 + 0j), 1.0) == 1.0 and sampled == [1.0]
    assert majorant((0j, 0j), 1e300) == 0.0
    assert math.isnan(majorant((0j, complex(math.nan, 0.0)), 1.0))
    assert majorant((0j, 0.25 + 0j), math.inf) == math.inf
