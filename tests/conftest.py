from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from logsurf import LPoint, make_germ, mul, power, project


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


def surface_dist(z1: LPoint, z2: LPoint) -> float:
    """Distance in the log chart: matches points sheet by sheet."""
    return abs(math.log(z1.r) - math.log(z2.r)) + abs(z1.phi - z2.phi)


def bits(*values) -> tuple:
    """The exact floats of real or complex values, -0.0 told apart from 0.0."""
    return tuple(float(x).hex() for v in values for x in (v.real, v.imag))


def ps_eval_loop(coeffs, w: complex) -> complex:
    """Reference ps_eval: the ascending sum over every coefficient, trailing zeros included."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n, c in enumerate(coeffs):
        if n > 0:
            term *= w
        total += c * term
    return total


def apply_germ_composed(phi, z: LPoint) -> LPoint:
    """Reference apply_germ: a * z**k * (1 + h(z)) as products of surface points."""
    unit = 1.0 + ps_eval_loop(phi.h.coeffs, project(z))
    lifted = LPoint(abs(unit), cmath.phase(unit))
    return mul(phi.a, mul(power(phi.k, z), lifted))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
