from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, on_surface_full, outcome, plain_power, surface_points
from logsurf import (
    LPoint,
    ONE,
    QuadraticDomain,
    cpow,
    cpow_many,
    logmap,
    mul,
    nudge,
    power,
    project,
    tau,
)


def test_point_validation():
    with pytest.raises(ValueError):
        LPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        LPoint(-2.0, 0.0)
    with pytest.raises(ValueError):
        LPoint(math.inf, 0.0)
    with pytest.raises(ValueError):
        LPoint(1.0, math.nan)


_NOT_FINITE_REAL = ["1", None, 1j, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("r", [0, -0.0, -1, *_NOT_FINITE_REAL])
def test_point_rejects_moduli(r):
    with pytest.raises(ValueError, match="modulus"):
        LPoint(r, 0.0)


@pytest.mark.parametrize("phi", _NOT_FINITE_REAL)
def test_point_rejects_arguments(phi):
    with pytest.raises(ValueError, match="argument"):
        LPoint(1.0, phi)


@pytest.mark.parametrize("x", [5e-324, 3, np.float64(0.5)])
def test_point_accepts_positive_reals(x):
    z = LPoint(x, x)
    assert (z.r, z.phi) == (x, x)
    for phi in (0, -0.0, -1):
        assert LPoint(x, phi).phi == phi


# Moduli and arguments of every type a caller might pass: Python floats
# (the fast path's case), ints, bools, numpy floats, signed zeros, inf,
# nan, None, strings and complex numbers.
_ANY_PART = (
    st.floats()
    | st.integers()
    | st.booleans()
    | st.floats().map(np.float64)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, None, "1.0", 1 + 0j, 2j])
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(r=_ANY_PART, phi=_ANY_PART)
def test_lpoint_keeps_its_rule_and_messages_for_any_type(r, phi):
    expected = on_surface_full(r, phi)
    try:
        LPoint(r, phi)
    except ValueError as exc:
        assert not expected
        # the modulus is checked first, and the argument only for a valid modulus
        assert str(exc).startswith("argument" if on_surface_full(r, 0.0) else "modulus")
    else:
        assert expected


def test_logmap_tracks_the_sheet():
    assert logmap(LPoint(1.0, 0.0)) == 0.0
    assert logmap(LPoint(1.0, 2.0 * math.pi)) == pytest.approx(2.0j * math.pi)
    z = LPoint(math.e, -3.0)
    assert logmap(z) == pytest.approx(complex(1.0, -3.0))
    assert logmap(LPoint(2.0, 0.3)) == pytest.approx(cmath.log(project(LPoint(2.0, 0.3))))


def test_mul_adds_moduli_and_arguments_exactly():
    a = LPoint(2.0, 3.0 * math.pi)
    b = LPoint(0.5, math.pi)
    c = mul(a, b)
    assert c.r == 1.0
    assert c.phi == 4.0 * math.pi
    assert mul(ONE, a) == a
    assert mul(a, ONE) == a


def test_power_scales_the_argument():
    z = LPoint(4.0, 2.0 * math.pi)
    half = power(0.5, z)
    assert half.r == 2.0
    assert half.phi == math.pi
    # the same modulus on another sheet projects elsewhere
    assert project(half) == pytest.approx(-2.0)
    assert project(power(0.5, LPoint(4.0, 0.0))) == pytest.approx(2.0)


def test_cpow_uses_the_sheet():
    assert cpow(0.5, LPoint(4.0, 0.0)) == pytest.approx(2.0)
    assert cpow(0.5, LPoint(4.0, 2.0 * math.pi)) == pytest.approx(-2.0)
    assert cpow(1.0, LPoint(2.0, 5.0)) == pytest.approx(project(LPoint(2.0, 5.0)))
    z = LPoint(1.7, -2.3)
    assert cpow(1.3, z) == pytest.approx(cmath.exp(1.3 * logmap(z)))


_ALPHAS = st.sampled_from([0.0, 0.5, 1.0 / 3.0, 2.0]) | st.floats(1e-3, 8.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(drawn=_ALPHAS.flatmap(lambda a: st.tuples(st.just(a), surface_points(a or 1.0))))
def test_cpow_many_is_cpow_bit_for_bit(drawn):
    # where ok, the batch float is cpow's; ok is False exactly where the
    # point is invalid or the exponent leaves cmath.exp's plain range,
    # and those points go to cpow, which gives its value or raises
    alpha, points = drawn
    re, im, ok = cpow_many(alpha, [r for r, _ in points], [phi for _, phi in points])
    for i, (r, phi) in enumerate(points):
        assert ok[i] == plain_power(alpha, r, phi)
        if ok[i]:
            assert bits(complex(re[i], im[i])) == outcome(cpow, alpha, LPoint(r, phi))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
def test_cpow_many_is_cpow_on_a_dense_sample(rng, alpha):
    # near r = 1, where numpy's log rounds unlike math.log in about 0.5% of
    # points, and over a few sheets
    r = rng.uniform(0.5, 2.0, 4096)
    phi = rng.uniform(-20.0, 20.0, 4096)
    re, im, ok = cpow_many(alpha, r, phi)
    assert ok.all()
    got = [bits(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    assert got == [bits(cpow(alpha, LPoint(x, y))) for x, y in zip(r.tolist(), phi.tolist())]


def test_cpow_many_leaves_large_exponents_to_cpow():
    # real exponents x = 2 log r around the largest float
    xs = [600.0, 700.0, 705.0, 709.0, 709.5, 710.0, 720.0]
    r = [math.exp(x / 2.0) for x in xs]
    _, _, ok = cpow_many(2.0, r, [0.3] * len(r))
    assert ok.tolist() == [True, True, False, False, False, False, False]
    got = [outcome(cpow, 2.0, LPoint(x, 0.3)) for x in r]
    assert [type(v[0]) for v in got] == [str] * 5 + [type] * 2
    assert got[-1] == (OverflowError, "math range error")
    with pytest.raises(ValueError, match="nonnegative"):
        cpow_many(-1.0, [1.0], [0.0])


def test_tau_is_an_involution_compatible_with_mul():
    z = LPoint(2.5, 1.3)
    w = LPoint(0.3, -4.0)
    assert tau(tau(z)) == z
    assert tau(mul(z, w)) == mul(tau(z), tau(w))
    assert tau(z).phi == -z.phi


def test_nudge_moves_the_projection_without_changing_sheet():
    z = LPoint(1.0, 2.0 * math.pi + 0.3)
    delta = 1e-4 + 2e-4j
    zn = nudge(z, delta)
    assert project(zn) == pytest.approx(project(z) + delta, rel=1e-12)
    assert abs(zn.phi - z.phi) < math.pi


def test_quadratic_domain_refuses_nonpositive_or_nonfinite_constants():
    with pytest.raises(ValueError):
        QuadraticDomain(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadraticDomain(1.0, -1.0)
    with pytest.raises(ValueError):
        QuadraticDomain(math.inf, 1.0)
    with pytest.raises(ValueError):
        QuadraticDomain(1.0, math.nan)


def test_power_composes_multiplicatively(rng):
    for _ in range(50):
        z = LPoint(0.1 + 3.0 * rng.random(), rng.uniform(-10.0, 10.0))
        lhs = power(2.0, power(3.0, z))
        rhs = power(6.0, z)
        assert lhs.r == pytest.approx(rhs.r, rel=1e-12)
        assert lhs.phi == pytest.approx(rhs.phi, rel=1e-12, abs=1e-12)
