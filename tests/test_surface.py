from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from logsurf import (
    LPoint,
    ONE,
    QuadraticDomain,
    cpow,
    from_complex,
    logmap,
    mul,
    nudge,
    power,
    project,
    sqd_contains,
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


def test_project_and_from_complex_round_trip():
    w = complex(-1.2, 0.7)
    z = from_complex(w)
    assert project(z) == pytest.approx(w, rel=1e-15)
    assert -math.pi < z.phi <= math.pi


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


def test_quadratic_domain_membership_is_strict():
    Q = QuadraticDomain(0.5, 2.0)
    phi = 3.0
    edge = 0.5 * math.exp(-2.0 * math.sqrt(abs(phi)))
    assert not sqd_contains(Q, LPoint(edge, phi))
    assert sqd_contains(Q, LPoint(edge * 0.999, phi))
    assert sqd_contains(Q, LPoint(edge * 0.999, -phi))
    with pytest.raises(ValueError):
        QuadraticDomain(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadraticDomain(1.0, -1.0)


def test_power_composes_multiplicatively(rng):
    for _ in range(50):
        z = LPoint(0.1 + 3.0 * rng.random(), rng.uniform(-10.0, 10.0))
        lhs = power(2.0, power(3.0, z))
        rhs = power(6.0, z)
        assert lhs.r == pytest.approx(rhs.r, rel=1e-12)
        assert lhs.phi == pytest.approx(rhs.phi, rel=1e-12, abs=1e-12)
