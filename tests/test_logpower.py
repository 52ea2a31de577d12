from __future__ import annotations

import cmath
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIGNED_ZEROS,
    bits,
    lp_evaluate_per_term,
    make_star_germ,
    outcome,
    plain_power,
    surface_points,
)
from logsurf import (
    InvalidGerm,
    LPoint,
    apply_germ,
    identity_germ,
    rotation_germ,
    trunc_order,
)
from logsurf.logpower import (
    LogPowerSeries,
    compose_germ_lp,
    evaluate,
    evaluate_image,
    evaluate_many,
    is_log_free,
    log_power_series,
    monomial,
    support,
    truncate,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LogPowerSeries(((1.0, (1.0,)), (0.5, (1.0,))))  # not increasing
    with pytest.raises(ValueError):
        LogPowerSeries(((-0.5, (1.0,)),))  # negative exponent
    with pytest.raises(ValueError):
        LogPowerSeries(((0, (1.0, 2.0)),))  # log factor at order zero


def test_merging_constructor_identifies_equal_exponents():
    g = log_power_series([(Fraction(1, 2), (1.0,)), (0.5, (0.0, 2.0))])
    assert len(g.terms) == 1
    alpha, poly = g.terms[0]
    assert float(alpha) == 0.5
    assert poly == (1.0, 2.0)


def test_evaluate_tracks_the_sheet():
    g = monomial(1.0, log_degree=1)  # z * log z
    assert evaluate(g, LPoint(math.e, 0.0)) == pytest.approx(math.e)
    # one full turn up: log picks up 2 pi i and z**1 returns to 1
    got = evaluate(g, LPoint(1.0, 2.0 * math.pi))
    assert got == pytest.approx(2.0j * math.pi)


_EXPONENTS = st.builds(Fraction, st.integers(0, 12), st.integers(1, 5)) | st.floats(0.0, 6.0)
_COEFFS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False) | SIGNED_ZEROS
# Fraction and float exponents, exponent 0, log degree <= 3
_SERIES = st.lists(
    st.tuples(_EXPONENTS, st.lists(_COEFFS, min_size=1, max_size=4)), min_size=1, max_size=5
).map(lambda terms: log_power_series([(a, p[:1] if a == 0 else p) for a, p in terms]))
_SERIES_AND_POINTS = _SERIES.flatmap(
    lambda g: st.tuples(st.just(g), surface_points(max(g.float_exponents, default=0.0) or 1.0))
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(drawn=_SERIES_AND_POINTS)
def test_evaluate_is_the_per_term_form_bit_for_bit(drawn):
    g, points = drawn
    for r, phi in points:
        at = lambda f: outcome(lambda: f(g, LPoint(r, phi)))
        assert at(evaluate) == at(lp_evaluate_per_term)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(drawn=_SERIES_AND_POINTS)
def test_evaluate_many_is_evaluate_bit_for_bit(drawn):
    # where ok, the batch float is evaluate's; ok is False exactly where the
    # point is invalid or a power leaves cmath.exp's plain range, and those
    # points go to evaluate, which gives its value or raises
    g, points = drawn
    re, im, ok = evaluate_many(g, [r for r, _ in points], [phi for _, phi in points])
    for i, (r, phi) in enumerate(points):
        assert ok[i] == all(plain_power(a, r, phi) for a in (0.0, *g.float_exponents))
        if ok[i]:
            assert bits(complex(re[i], im[i])) == outcome(evaluate, g, LPoint(r, phi))


def test_evaluate_converts_each_exponent_once():
    g = log_power_series([(Fraction(1, 3), (1.0,)), (Fraction(2, 3), (0.0, 1.0)), (Fraction(5, 2), (2.0,))])
    with mock.patch.object(Fraction, "__float__", autospec=True,
                           side_effect=lambda q: q.numerator / q.denominator) as conversions:
        for k in range(10):
            evaluate(g, LPoint(0.5, 0.1 * k))
        evaluate_many(g, [0.5] * 10, [0.1 * k for k in range(10)])
    assert conversions.call_count == 3


def test_support_and_nu():
    g = log_power_series([(2.0, (1.0,)), (0.5, (0.0, 1.0))])
    assert support(g) == (0.5, 2.0)


def test_truncate_keeps_the_boundary_exponent():
    g = log_power_series([(0.5, (1.0,)), (2.5, (1.0,)), (3.0, (1.0,))])
    t = truncate(g, 2.5)
    assert support(t) == (0.5, 2.5)
    assert is_log_free(t)


def test_rotation_image_coefficients():
    # term z**alpha * log z through a pure rotation by theta
    alpha, theta = 1.5, 0.8
    g = monomial(alpha, log_degree=1)
    image, cert = compose_germ_lp(g, rotation_germ(theta))
    ((out_alpha, series_list),) = image.terms
    assert float(out_alpha) == pytest.approx(alpha)
    want = cmath.exp(1j * alpha * theta)
    assert series_list[1].coeffs[0] == pytest.approx(want, rel=1e-14)
    assert series_list[0].coeffs[0] == pytest.approx(1j * theta * want, rel=1e-14)
    assert cert.applicable and cert.ok


def test_identity_image_is_trivial():
    g = log_power_series([(0.5, (2.0,)), (1.0, (0.0, 1.0))])
    image, cert = compose_germ_lp(g, identity_germ())
    assert cert.applicable and cert.ok
    for alpha, series_list in image.terms:
        for ell, ps in enumerate(series_list):
            rest = max((abs(c) for c in ps.coeffs[1:]), default=0.0)
            assert rest == 0.0
            if ell == 1:
                assert ps.coeffs[0] == pytest.approx(1.0)


def test_compose_germ_lp_matches_pointwise(rng):
    g = log_power_series([(0.5, (1.0,)), (1.0, (0.0, 1.0))])
    for _ in range(6):
        phi = make_star_germ(rng, radius=0.9, unit=True)
        image, cert = compose_germ_lp(g, phi)
        assert cert.applicable
        for _ in range(10):
            z = LPoint(image.radius * 0.05 * (rng.random() + 1e-9), rng.uniform(-2.0, 2.0))
            want = evaluate(g, apply_germ(phi, z))
            assert evaluate_image(image, z) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_compose_germ_lp_takes_its_order(rng):
    g = log_power_series([(0.5, (1.0,)), (1.0, (0.0, 1.0))])
    phi = make_star_germ(rng, radius=0.9, unit=True)
    with trunc_order(8):
        image, cert = compose_germ_lp(g, phi)
    assert compose_germ_lp(g, phi, 8) == (image, cert)
    assert {len(c.coeffs) for _, terms in image.terms for c in terms} == {9}


def test_certificate_not_applicable_off_the_unit_circle(rng):
    g = monomial(1.0, log_degree=1)
    phi = make_star_germ(rng, unit=False)
    while abs(phi.a.r - 1.0) < 1e-3:
        phi = make_star_germ(rng, unit=False)
    _, cert = compose_germ_lp(g, phi)
    assert not cert.applicable


def test_compose_germ_lp_rejects_k_zero():
    from logsurf import ONE, make_germ

    with pytest.raises(InvalidGerm):
        compose_germ_lp(monomial(1.0), make_germ(ONE, 0, (0.0,), 1.0))


def test_log_free_detection():
    assert is_log_free(monomial(2.0))
    assert not is_log_free(monomial(2.0, log_degree=1))
    image, _ = compose_germ_lp(monomial(1.0), rotation_germ(0.3))
    assert all(len(series_list) <= 1 for _, series_list in image.terms)
