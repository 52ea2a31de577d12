from __future__ import annotations

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SIGNED_ZEROS,
    binom_pow_full,
    bits,
    compose_germ_full,
    eval_pairs_full,
    on_surface_full,
    ps_compose_full,
    plain_power,
    ps_eval_loop,
    reversion_full,
    spread_loop,
    surface_points,
)
from logsurf import series
from logsurf import Germ, LPoint, OutOfRadius, config, cpow, logmap, power, tau
from logsurf.series import (
    PowerSeries,
    PuiseuxSeries,
    add,
    binom_coefficients,
    binom_pow,
    compose_germ,
    conj_tau,
    evaluate,
    evaluate_many,
    log1p_series,
    param_power,
    ps_add,
    ps_compose,
    ps_eval,
    ps_eval_many,
    ps_mul,
    puiseux,
    puiseux_from_terms,
    reversion,
    scale,
    sub,
    tail_bound,
)


def test_ps_arithmetic_exact():
    one_plus = (1.0, 1.0)
    one_minus = (1.0, -1.0)
    assert ps_mul(one_plus, one_minus)[:3].tolist() == [1.0, 0.0, -1.0]
    assert ps_add((1.0, 2.0), (0.0, -2.0, 5.0)).tolist() == [1.0, 0.0, 5.0]
    assert scale(2.0, puiseux((1.0, -3.0), 1.0)).base.coeffs == (2.0, -6.0)


def test_ps_mul_respects_the_global_order():
    with config.trunc_order(8):
        f = tuple(1.0 for _ in range(20))
        out = ps_mul(f, f)
        assert len(out) <= 9


def test_ps_compose_requires_vanishing_inner_constant():
    with pytest.raises(ValueError):
        ps_compose((1.0, 1.0), (1.0, 1.0))
    # f(g) with f = 1 + w, g = w + w**2
    out = ps_compose((1.0, 1.0), (0.0, 1.0, 1.0))
    assert out[:3].tolist() == [1.0, 1.0, 1.0]


def test_binomial_series_against_known_rows():
    row = binom_coefficients(0.5, 5)
    assert np.allclose(row, [1.0, 0.5, -0.125, 0.0625, -0.0390625])
    sq = binom_pow((0.0, 1.0), 2.0)
    assert sq[:3].tolist() == [1.0, 2.0, 1.0]
    # (1+w)**0.5 squared returns 1 + w up to truncation error
    half = binom_pow((0.0, 1.0), 0.5)
    back = ps_mul(half, half)
    assert back[0] == pytest.approx(1.0, abs=1e-14)
    assert back[1] == pytest.approx(1.0, abs=1e-14)
    assert max(abs(c) for c in back[2:16]) < 1e-14


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_binom_pow_integer_exponent_is_the_finite_product(rng, alpha):
    for _ in range(5):
        h = (0j,) + tuple(complex(*rng.normal(size=2)) / j for j in range(1, 8))
        unit = (1.0,) + h[1:]
        want = (1.0,)
        for _ in range(alpha):
            want = ps_mul(want, unit)
        got = binom_pow(h, float(alpha))
        assert np.allclose(got[: len(want)], want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))
        assert not any(got[len(want) :])
        if alpha == 1:
            assert got[: len(unit)].tolist() == list(unit)


def test_log1p_series_coefficients():
    out = log1p_series((0.0, 1.0))
    for n in range(1, 8):
        assert out[n] == pytest.approx((-1.0) ** (n + 1) / n)


def test_reversion_catalan_pattern():
    g = reversion((0.0, 1.0, 1.0))
    expect = [0.0, 1.0, -1.0, 2.0, -5.0, 14.0, -42.0]
    for n, c in enumerate(expect):
        assert g[n] == pytest.approx(c, abs=1e-12)
    # g o f = id through the truncation order
    back = ps_compose(g, (0.0, 1.0, 1.0))
    assert back[1] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(c) for c in back[2:16]) < 1e-10


def _reversion_by_solving(f, order):
    """Reference solver: g_n is chosen to cancel [w**n] f(g_{<n}), one n at a time."""
    f_arr = np.zeros(order + 1, dtype=complex)
    f_arr[: min(len(f), order + 1)] = f[: order + 1]
    g = np.zeros(order + 1, dtype=complex)
    g[1] = 1 / f_arr[1]
    for n in range(2, order + 1):
        g[n] = -ps_compose(f_arr, g[:n], order=n)[n] / f_arr[1]
    return g


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    f1_mod=st.floats(0.5, 2.0),
    f1_arg=st.floats(-math.pi, math.pi),
    rest=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        max_size=11,
    ),
    order=st.sampled_from([8, 16, 32, 64]),
)
def test_reversion_inverts_and_matches_the_solver(f1_mod, f1_arg, rest, order):
    f = [0j, cmath.rect(f1_mod, f1_arg), *rest]
    g = np.array(reversion(f, order=order))
    # Scale of each coefficient of f(g): the same composition of the moduli,
    # which bounds the terms that cancel there, above the underflow range.
    mass = np.abs(ps_compose(np.abs(f), np.abs(g), order=order)) + 1e-290
    comp = np.array(ps_compose(f, g, order=order))
    comp[1] -= 1.0
    assert np.all(np.abs(comp) <= 1e-12 * mass)
    # g_n solves f_1 g_n = -(terms of that same composition), hence mass / |f_1|.
    assert np.all(np.abs(g - _reversion_by_solving(f, order)) <= 1e-12 * mass / f1_mod)


def test_reversion_requires_a_unit_linear_term():
    with pytest.raises(ValueError):
        reversion((0.0, 0.0, 1.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    head=st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS,
        max_size=24,
    ),
    tail=st.lists(SIGNED_ZEROS, max_size=24),
    w=st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
)
def test_ps_eval_is_the_full_loop_bit_for_bit(head, tail, w):
    coeffs = head + tail or [0j]
    f = PowerSeries(tuple(coeffs))
    assert len(f.trimmed) == max((n + 1 for n, c in enumerate(coeffs) if c != 0), default=0)
    ref = ps_eval_loop(f.coeffs, w)
    if cmath.isfinite(ref):
        assert bits(ps_eval(f, w)) == bits(ref)


# Points of the closed unit disc, where ps_eval may stop early: moduli
# drawn from [0, 1] and by exponent down to 1e-300, the unit circle, and
# exact points on the axes and the diagonal.
_UNIT_DISC = st.builds(
    cmath.rect,
    st.floats(0.0, 1.0) | st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e) | st.just(1.0),
    st.floats(-math.pi, math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi]),
) | st.sampled_from([1.0, -1j, 0.5 + 0.5j, complex(-0.0, 1e-310)]) | SIGNED_ZEROS


def _decaying(a, rho, phases):
    """c_n = a * rho**-n, each turned by its phase."""
    return [cmath.rect(a * rho ** -n, p) for n, p in enumerate(phases)]


_PHASES = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=40)
_RHO = st.floats(1.0, 1e4)
_DECAYING = st.builds(_decaying, st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), _RHO, _PHASES)
_MAGNITUDES = st.lists(
    st.builds(cmath.rect, st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
              st.floats(-math.pi, math.pi)) | SIGNED_ZEROS,
    min_size=1, max_size=40,
)
# A leading coefficient that steers the parts of the sum: exactly zero,
# tiny (around the 1e-280 floor and subnormal), or a power of two, which
# smaller later terms may round down to from below.
_PART = (
    st.sampled_from([0.0, -0.0, 1e-280, -2e-280, 1e-300, 5e-324, 1e-290])
    | st.builds(lambda k, sign: sign * 2.0 ** k, st.integers(-1000, 1000), st.sampled_from([1, -1]))
)
_STEERED = st.builds(
    lambda c0, e, rho, phases: [c0] + _decaying(abs(c0) * 10.0 ** e, rho, phases),
    st.builds(complex, _PART, _PART), st.floats(-40.0, 0.0), _RHO, _PHASES,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
# The rule's edges: a real addend of 0.6 ulp, which rounds 2 - 2**-52 up
# to 2; an imaginary part that a later term still changes; and later terms
# that grow past every bound at |w| = 1.5.
@example(coeffs=[complex(2 - 2**-52, 2 - 2**-52), 0.6 * 2**-52], w=1.0)
@example(coeffs=[1 + 1e-10j, 1e-20j], w=1.0)
@example(coeffs=[1 + 1j] + [1e-20 + 1e-20j] * 39, w=1.5)
@given(
    coeffs=_DECAYING | _MAGNITUDES | _STEERED,
    w=_UNIT_DISC | st.builds(cmath.rect, st.floats(1.0, 4.0), st.floats(-math.pi, math.pi)),
)
def test_ps_eval_stopping_early_is_the_full_loop_bit_for_bit(coeffs, w):
    # Inside the unit disc the sum may stop once no later term can change
    # a bit of it; every coefficient read or not, the floats are the loop's.
    # Just outside it, later terms grow, and the sum must not stop.
    f = PowerSeries(tuple(coeffs))
    assert bits(ps_eval(f, w)) == bits(ps_eval_loop(f.coeffs, w))


# Values that no other ps_eval property draws: any finite size, signed
# zeros, and infinite or nan parts.
_ANY_COMPLEX = (
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
    | SIGNED_ZEROS
    | st.sampled_from([complex(math.inf, 0.0), complex(-0.0, -math.inf), complex(math.nan, 1.0),
                       complex(1.0, math.nan), complex(math.inf, math.nan)])
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(
    coeffs=st.lists(_ANY_COMPLEX, max_size=3),
    w=_ANY_COMPLEX | _UNIT_DISC | st.builds(cmath.rect, st.floats(1.0, 1e100), st.floats(-math.pi, math.pi)),
)
def test_ps_eval_of_at_most_three_terms_is_the_loop_bit_for_bit(coeffs, w):
    # The unchecked head is the whole of a series of up to two terms, and
    # a third term is the last: every float is the loop's over trimmed.
    f = PowerSeries(tuple(coeffs) or (0j,))
    assert bits(ps_eval(f, w)) == bits(ps_eval_loop(f.trimmed, w))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(head=st.lists(_ANY_COMPLEX, min_size=1, max_size=40), tail=st.lists(SIGNED_ZEROS, max_size=8),
       as_array=st.booleans())
def test_eval_pairs_is_the_numpy_formula_bit_for_bit(head, tail, as_array):
    # the bounds read the kept array of a series made from one, and the
    # coefficients otherwise; an inf part gives inf, a nan one nan, and
    # the last pair of trimmed 0.0, trailing zeros or not
    coeffs = head + tail
    f = PowerSeries(np.array(coeffs, dtype=complex) if as_array else tuple(coeffs))
    with np.errstate(all="ignore"):
        got, want = f.eval_pairs, eval_pairs_full(PowerSeries(tuple(coeffs)))
    assert [bits(*pair) for pair in got] == [bits(*pair) for pair in want]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@example(coeffs=[complex(-0.0, -0.0), 1j, 1j], tail=[])
@example(coeffs=[complex(math.inf, -0.0), 1j, 1j], tail=[])
@example(coeffs=[complex(math.nan, -math.inf), 1j, 1j], tail=[])
@given(coeffs=st.lists(_ANY_COMPLEX, min_size=1, max_size=6), tail=st.lists(SIGNED_ZEROS, max_size=3))
def test_eval_plan_head_is_the_loops_first_addend_bit_for_bit(coeffs, tail):
    # a checked sum starts from the head: the loop's total after c_0, signed
    # zeros, inf and nan parts included; then c_1 and the pairs after it
    f = PowerSeries(tuple(coeffs + tail))
    if len(f.eval_pairs) < 3:
        assert f.eval_plan is None
        return
    head, c1, rest = f.eval_plan
    assert bits(head) == bits(ps_eval_loop(coeffs[:1], 0j))
    assert bits(c1) == bits(f.eval_pairs[1][0])
    assert [bits(*pair) for pair in rest] == [bits(*pair) for pair in f.eval_pairs[2:]]


def test_ps_eval_stops_once_no_later_term_can_change_the_sum():
    rng = np.random.default_rng(3)
    coeffs = tuple(complex(x, y) for x, y in rng.uniform(0.5, 2.0, (33, 2)))
    f = PowerSeries(coeffs)
    w = cmath.rect(1e-3, 0.7)
    read = []

    class Counted(tuple):
        def __iter__(self):
            for pair in tuple.__iter__(self):
                read.append(pair)
                yield pair

    # the sum reads its head, c_1 and then the tail of the plan cache alone
    head, c1, tail = f.eval_plan
    f.__dict__["eval_plan"] = (head, c1, Counted(tail))
    assert bits(ps_eval(f, w)) == bits(ps_eval_loop(coeffs, w))
    # 2 * M * |w|**6 ~ 5e-18 is below 2**-55 of either part (0.63, 0.86): six
    # terms, the two of the head and four of the tail
    assert 3 <= 2 + len(read) <= 8


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    head=st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS,
        max_size=24,
    ),
    tail=st.lists(SIGNED_ZEROS, max_size=24),
    ws=st.lists(
        st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False)
        | _UNIT_DISC,
        max_size=12,
    ),
)
def test_ps_eval_many_is_ps_eval_bit_for_bit(head, tail, ws):
    # Inside the unit disc ps_eval may stop early; ps_eval_many never does.
    f = PowerSeries(tuple(head + tail or [0j]))
    with np.errstate(all="ignore"):
        re, im = ps_eval_many(f, np.array([w.real for w in ws]), np.array([w.imag for w in ws]))
    # overflow to inf and nan included: the split sums round as the complex ones
    got = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert bits(*got) == bits(*(ps_eval(f, w) for w in ws))


def test_power_series_keeps_a_tuple_of_complex():
    coeffs = (1 + 0j, complex(-0.0, 2.0))
    assert PowerSeries(coeffs).coeffs is coeffs
    # anything else is converted: lists, floats, numpy's complex subclass
    for given_coeffs in ([1 + 0j, 2j], (1.0, 2j), (np.complex128(1 + 0j), 2j)):
        got = PowerSeries(given_coeffs).coeffs
        assert type(got) is tuple and [type(c) for c in got] == [complex, complex]
        assert got == (1 + 0j, 2j)


def test_power_series_of_a_complex_array_keeps_it_for_the_next_kernel():
    arr = np.array([1 + 0j, complex(-0.0, 2.0)])
    f = PowerSeries(arr)
    assert type(f.coeffs) is tuple and [type(c) for c in f.coeffs] == [complex, complex]
    assert bits(*f.coeffs) == bits(1 + 0j, complex(-0.0, 2.0)) and f._array is arr
    # a float array is converted as any other sequence, and its array made on first read
    g = PowerSeries(np.array([1.0, -0.0]))
    assert [type(c) for c in g.coeffs] == [complex, complex] and g._array.dtype == complex


def test_binom_pow_integer_exponent_stops_at_the_first_zero_coefficient(monkeypatch):
    made = []
    binomials = series._binomials

    def counting(alpha):
        for b in binomials(alpha):
            made.append(b)
            yield b

    monkeypatch.setattr(series, "_binomials", counting)
    binom_pow((0j, 0.5, 0.25), 2.0, order=64)
    assert made == [1, 2, 1, 0]


@pytest.mark.parametrize("alpha, products", [(1.0, 0), (2.0, 2)])
def test_binom_pow_integer_exponent_makes_one_product_per_power(alpha, products):
    # (1 + h)**k needs h, ..., h**k: the zero coefficient C(k, k + 1) ends
    # the sum before an unused h**(k + 1) is made; (1 + h)**1 of a finite
    # h is h in closed form, with no product at all
    h = (0j, 0.5, 0.25j)
    with mock.patch.object(series, "_product", wraps=series._product) as product:
        got = binom_pow(h, alpha, order=16)
    assert product.call_count == products
    _same_bits(got, binom_pow_full(h, alpha, 16))


def _dense_head(seed: int, size: int) -> list:
    rng = np.random.default_rng(seed)
    return (0.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))).tolist()


# Kernel inputs: some coefficients, then up to 40 trailing zeros, which the
# kernels skip and the references do not.  Drawn heads bring zeros of either
# sign; seeded dense heads make long sums, whose rounding depends on their
# lengths inside np.convolve.
_trailing = st.builds(
    lambda head, tail: head + tail,
    st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False) | SIGNED_ZEROS,
        max_size=10,
    )
    | st.builds(_dense_head, st.integers(0, 2**32 - 1), st.integers(1, 16)),
    st.lists(SIGNED_ZEROS, max_size=40),
)
_orders = st.sampled_from([1, 2, 4, 8, 16, 33])
_bitwise = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def _same_bits(got, want):
    assert len(got) == len(want)
    assert bits(*got) == bits(*want)


# Inf and nan coefficients, planted into _trailing's lists (their trailing
# zeros included): an inf part meets the zero parts of the kernels'
# products and makes nan there, which closed forms must not skip.
_NON_FINITE = st.sampled_from([
    complex(math.inf, 0.0), complex(-math.inf, -0.0), complex(0.0, math.nan),
    complex(math.nan, math.nan), complex(1.0, -math.inf), complex(math.inf, math.nan),
])


def _plant(coeffs, spots):
    """coeffs with each (index, value) of spots written in at index mod its length."""
    coeffs = list(coeffs) or [0j]
    for i, c in spots:
        coeffs[i % len(coeffs)] = c
    return coeffs


_non_finite = st.builds(
    _plant, _trailing, st.lists(st.tuples(st.integers(0, 60), _NON_FINITE), min_size=1, max_size=3)
)


def _kernel_outcome(call):
    """The floats of call()'s coefficients (with d and the radius of a
    Puiseux series), or the type and message of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            got = call()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, PuiseuxSeries):
        return got.d, got.radius, bits(*got.base.coeffs)
    return bits(*got)


_PRODUCT_ENTRIES = (
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
    | SIGNED_ZEROS
    | _NON_FINITE
)


@st.composite
def _product_operands(draw):
    """Two operands of up to 70 entries, in either order, often of equal
    length; an empty one makes np.convolve raise."""
    a = draw(st.lists(_PRODUCT_ENTRIES, max_size=70)
             | st.builds(_dense_head, st.integers(0, 2**32 - 1), st.integers(1, 70)))
    size = len(a) if draw(st.booleans()) else draw(st.integers(0, 70))
    b = draw(st.lists(_PRODUCT_ENTRIES, min_size=size, max_size=size))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(_bitwise, max_examples=300)
@example(operands=([], [1j]))
@example(operands=([1j], []))
@example(operands=([], []))
@given(operands=_product_operands())
def test_product_is_np_convolve_bit_for_bit(operands):
    a, b = (np.array(x, dtype=complex) for x in operands)
    with np.errstate(all="ignore"):
        try:
            full = np.convolve(a, b)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                series._product(a, b, 1)
            return
        for n in range(1, len(full) + 1):
            assert bits(*series._product(a, b, n)) == bits(*full[:n])


def test_product_calls_the_correlate_np_convolve_calls():
    from numpy._core import numeric

    assert series.correlate is numeric.multiarray.correlate
    a, b = np.array([1, 2j, 3]), np.array([0.5, -1j])
    with mock.patch.object(numeric.multiarray, "correlate", wraps=series.correlate) as correlate:
        np.convolve(a, b)
    assert correlate.call_count == 1


@settings(_bitwise, max_examples=300)
@example(f=[0j] * 5, g=[1.0], order=8)
# an f with no nonzero coefficient meets a nan in g: 0 * nan is nan
@example(f=[-0j], g=[-0j, complex(0.0, math.nan), 0.26 - 0.73j], order=8)
@given(f=_trailing, g=_trailing | _non_finite, order=_orders)
def test_ps_compose_is_the_full_horner_scheme_bit_for_bit(f, g, order):
    g = [0j, *g]
    _same_bits(ps_compose(f, g, order=order), ps_compose_full(f, g, order))


@settings(_bitwise, max_examples=300)
@example(h=[], alpha=0.5, order=16)
@example(h=[complex(-0.0, -0.0)] * 7, alpha=2.0, order=16)
@example(h=[math.inf], alpha=1.0, order=4)
@example(h=[0.5, 0j, complex(math.nan, 0.0)], alpha=1.0, order=1)
@given(
    h=_trailing | _non_finite,
    alpha=st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1.0 / 3.0, -0.5, -1.0]),
    order=_orders,
)
def test_binom_pow_is_the_full_series_bit_for_bit(h, alpha, order):
    # (1 + h)**1 is h in closed form only where every coefficient up to the
    # order is finite; a nan past the order cannot reach the truncated sums
    h = [0j, *h]
    assert _kernel_outcome(lambda: binom_pow(h, alpha, order=order)) == _kernel_outcome(
        lambda: binom_pow_full(h, alpha, order))


@_bitwise
@example(f1_mod=1.0, f1_arg=math.pi, rest=[], order=16)
@given(
    f1_mod=st.floats(0.5, 2.0),
    f1_arg=st.floats(-math.pi, math.pi),
    rest=_trailing,
    order=_orders,
)
def test_reversion_is_the_full_inversion_bit_for_bit(f1_mod, f1_arg, rest, order):
    f = [0j, cmath.rect(f1_mod, f1_arg), *rest]  # linear when rest holds only zeros
    _same_bits(reversion(f, order=order), reversion_full(f, order))


def test_a_linear_reversion_keeps_exact_zeros_where_the_full_loop_overflows():
    # w / f_1 is the exact inverse of f_1 w; the full loop's v**2 = 1e400
    # overflows and puts 0 * inf, so nan, from g_3 on
    _same_bits(reversion((0j, 1e-200), order=8), (0j, 1e200 + 0j, *[0j] * 7))
    assert cmath.isnan(reversion_full((0j, 1e-200), 8)[3])


@settings(_bitwise, max_examples=300)
@example(coeffs=[0j, 1.0, 0j, 0j], h=[0j] * 9, d=2, k=1, a_r=1.0, a_phi=1.0, order=16)
@example(coeffs=[1.0, 1.0, 1.0], h=[], d=1, k=1, a_r=1e300, a_phi=0.5, order=8)
@example(coeffs=[0j, complex(math.nan, 0.0)], h=[math.inf], d=1, k=1, a_r=1.0, a_phi=0.0, order=4)
# a ray (h = 0) with an inf coefficient, and with a finite one whose weight
# c * a**(n/d) overflows to inf: the full loop's zeros in the block turn nan
@example(coeffs=[0.5, complex(math.inf, 0.0)], h=[], d=1, k=1, a_r=1.0, a_phi=0.0, order=2)
@example(coeffs=[0j, 10.0], h=[], d=1, k=1, a_r=8e307, a_phi=0.0, order=4)
@given(
    coeffs=_trailing | _non_finite,
    h=_trailing | _non_finite,
    d=st.sampled_from([1, 2, 3]),
    k=st.sampled_from([1, 2]),
    # |a| past about e**(709.78 * d / n) overflows a**(n/d): cmath.exp raises
    a_r=st.floats(0.5, 2.0) | st.floats(1e250, 1e308),
    a_phi=st.floats(-4.0, 4.0),
    order=_orders,
)
def test_compose_germ_is_the_full_loop_bit_for_bit(coeffs, h, d, k, a_r, a_phi, order):
    g = puiseux(coeffs or [0j], 0.8, d)
    phi = Germ(LPoint(a_r, a_phi), k, PowerSeries((0j, *h)), 0.5)
    got = _kernel_outcome(lambda: compose_germ(g, phi, order))
    with config.trunc_order(order):
        assert got == _kernel_outcome(lambda: compose_germ_full(g, phi))


_SPREAD_COEFFS = st.lists(
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False) | SIGNED_ZEROS,
    min_size=1,
    max_size=70,
)


@_bitwise
@example(coeffs=[complex(-0.0, -0.0)] * 40, stride=1, order=33)
@given(coeffs=_SPREAD_COEFFS, stride=st.integers(1, 3), order=_orders)
def test_spread_is_the_per_coefficient_loop_bit_for_bit(coeffs, stride, order):
    # lists up to 70 long pass order + 1 <= 34 at every stride
    got = series._spread(tuple(coeffs), stride, order)
    _same_bits(got.tolist(), spread_loop(coeffs, stride, order).tolist())


@_bitwise
@given(c1=_SPREAD_COEFFS, c2=_SPREAD_COEFFS, d1=st.sampled_from([1, 2, 3]),
       d2=st.sampled_from([1, 2, 3]), order=_orders)
def test_add_and_sub_are_the_per_coefficient_spread_bit_for_bit(c1, c2, d1, d2, order):
    g1, g2 = puiseux(c1, 0.8, d1), puiseux(c2, 0.5, d2)
    L = math.lcm(d1, d2)
    a1 = spread_loop(g1.base.coeffs, L // d1, order)
    a2 = spread_loop(g2.base.coeffs, L // d2, order)
    minus = spread_loop(scale(-1.0, g2).base.coeffs, L // d2, order)
    _same_bits(add(g1, g2, order).base.coeffs, (a1 + a2).tolist())
    _same_bits(sub(g1, g2, order).base.coeffs, (a1 + minus).tolist())


def test_puiseux_evaluation_uses_the_sheet():
    g = puiseux((0.0, 1.0), 4.0, 2)  # z**(1/2)
    assert evaluate(g, LPoint(1.0, 0.0)) == pytest.approx(1.0)
    assert evaluate(g, LPoint(1.0, 2.0 * math.pi)) == pytest.approx(-1.0)
    with pytest.raises(OutOfRadius):
        evaluate(g, LPoint(4.0, 0.0))


def test_a_series_radius_is_its_own():
    # A PowerSeries holds coefficients only; a Puiseux series takes any
    # finite radius, and a power of its parameter takes the true root.
    with pytest.raises(TypeError):
        PowerSeries((0j, 1.0), 1.0)
    c = (0.0, 1.0, 0.5)
    for d in (1, 2):
        g = puiseux(c, 1.7976931348623157e308, d)
        assert g.radius == 1.7976931348623157e308
        assert evaluate(g, LPoint(4.0, 0.0)) == evaluate(puiseux(c, 8.0, d), LPoint(4.0, 0.0))
    assert param_power(puiseux(c, 1e200), 2).radius == 1e100


def test_puiseux_from_terms_matches_manual_sum(rng):
    from logsurf import cpow

    g = puiseux_from_terms([(1, 0.5), (3, -2.0j)], 1.0, 2)
    for _ in range(20):
        z = LPoint(0.9 * rng.random() + 1e-6, rng.uniform(-6.0, 6.0))
        want = 0.5 * cpow(0.5, z) - 2.0j * cpow(1.5, z)
        assert evaluate(g, z) == pytest.approx(want, rel=1e-13)


def test_tail_bound_closed_forms():
    assert tail_bound(1.0, 1, 1.0, 0, LPoint(0.5, 0.0)) == pytest.approx(1.0)
    assert tail_bound(2.0, 2, 1.0, 3, LPoint(0.25, 1.0)) == pytest.approx(0.25)
    with pytest.raises(OutOfRadius):
        tail_bound(1.0, 1, 1.0, 0, LPoint(1.0, 0.0))
    with pytest.raises(ValueError):
        tail_bound(-1.0, 1, 1.0, 0, LPoint(0.5, 0.0))


def test_tail_bound_dominates_geometric_tails(rng):
    # f(w) = sum w**n on |w| < 0.9 is bounded by c = 10
    N = 6
    for _ in range(200):
        z = LPoint(0.81 * rng.random() + 1e-9, rng.uniform(-7.0, 7.0))
        w = complex(z.r * math.cos(z.phi), z.r * math.sin(z.phi))
        exact_tail = abs(1.0 / (1.0 - w) - sum(w ** n for n in range(N + 1)))
        assert exact_tail <= tail_bound(10.0, 1, 0.9, N, z) * (1.0 + 1e-12)


def test_conj_tau_matches_pointwise(rng):
    g = puiseux((0.0, 1.0 + 2.0j, -0.5j), 1.0, 2)
    gc = conj_tau(g)
    for _ in range(30):
        z = LPoint(0.9 * rng.random() + 1e-9, rng.uniform(-6.0, 6.0))
        lhs = evaluate(gc, z)
        rhs = complex(evaluate(g, tau(z))).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


_props = settings(derandomize=True, deadline=None, database=None, max_examples=60)
_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
)


def _lattice_value(terms, L: int, z: LPoint) -> tuple[complex, float]:
    """Sum of c * z**(i/L) over (i, c) monomial by monomial, and the sum of moduli."""
    vals = [c * cpow(i / L, z) for i, c in terms]
    return sum(vals, 0j), sum(abs(v) for v in vals)


@_props
@example(d1=2, d2=3, c1=[0.0, 1.0], c2=[0.0, 0.0, 0.0, 2.0], order=32, z=LPoint(0.5, 3.0))
@given(
    d1=st.integers(1, 4),
    d2=st.integers(1, 4),
    c1=_coeffs,
    c2=_coeffs,
    order=st.sampled_from([8, 16]),
    z=st.builds(LPoint, st.floats(1e-9, 0.8), st.floats(-5.0, 5.0)),
)
def test_mixed_denominator_arithmetic(d1, d2, c1, c2, order, z):
    g1, g2 = puiseux(c1, 0.9, d1), puiseux(c2, 0.9, d2)
    with config.trunc_order(order):
        s = add(g1, g2)
    assert add(g1, g2, order) == s
    L = math.lcm(d1, d2)
    assert s.d == L
    # Operands keep the terms with exponent <= order / L.
    t1 = [(n * (L // d1), c) for n, c in enumerate(c1) if n * (L // d1) <= order]
    t2 = [(n * (L // d2), c) for n, c in enumerate(c2) if n * (L // d2) <= order]
    want_s, mass_s = _lattice_value(t1 + t2, L, z)
    assert abs(evaluate(s, z) - want_s) <= 1e-12 * mass_s + 1e-15
    v1 = evaluate(g1, z)
    assert evaluate(sub(g1, g1), z) == 0.0
    assert evaluate(scale(3.0, g1), z) == pytest.approx(3.0 * v1, rel=1e-13)


@_props
@example(d=2, m=3, coeffs=[0.0, 1.0, 0.5], order=32, z=LPoint(0.3, 2.0))
@given(
    d=st.integers(1, 4),
    m=st.integers(1, 4),
    coeffs=_coeffs,
    order=st.sampled_from([8, 16]),
    z=st.builds(LPoint, st.floats(1e-9, 0.5), st.floats(-4.0, 4.0)),
)
def test_param_power_substitutes_the_parameter(d, m, coeffs, order, z):
    g = puiseux(coeffs, 0.9, d)
    gm = param_power(g, m, order)
    # m = 1 returns g itself; otherwise terms past z**(order/d) are dropped.
    kept = coeffs if m == 1 else coeffs[: order // m + 1]
    want, mass = _lattice_value(list(enumerate(kept)), d, power(float(m), z))
    assert abs(evaluate(gm, z) - want) <= 1e-12 * mass + 1e-15


def test_compose_germ_matches_pointwise(rng):
    from conftest import make_star_germ
    from logsurf import apply_germ

    g = puiseux((0.0, 1.0, -0.3, 0.1j), 0.8, 1)
    for _ in range(10):
        phi = make_star_germ(rng, radius=0.9)
        comp = compose_germ(g, phi)
        for _ in range(10):
            z = LPoint(comp.radius * 0.8 * rng.random() + 1e-12, rng.uniform(-3.0, 3.0))
            want = evaluate(g, apply_germ(phi, z))
            assert evaluate(comp, z) == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
def test_compose_germ_fractional_and_power_germs(rng, d, k):
    from conftest import make_star_germ
    from logsurf import apply_germ

    g = puiseux((0.0, 1.0, -0.3, 0.1j, 0.05), 0.8, d)
    for _ in range(5):
        phi = make_star_germ(rng, radius=0.9, k=k)
        comp = compose_germ(g, phi)
        for _ in range(10):
            z = LPoint(comp.radius * 0.5 * rng.random() + 1e-12, rng.uniform(-3.0, 3.0))
            want = evaluate(g, apply_germ(phi, z))
            assert evaluate(comp, z) == pytest.approx(want, rel=1e-9, abs=1e-12)
        # every kept coefficient, the top ones included, is independent of the order
        with config.trunc_order(2 * (len(comp.base.coeffs) - 1)):
            longer = compose_germ(g, phi).base.coeffs
        np.testing.assert_allclose(comp.base.coeffs, longer[: len(comp.base.coeffs)], rtol=1e-13)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    d=st.sampled_from([1, 2, 3]),
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
        | SIGNED_ZEROS,
        min_size=1,
        max_size=12,
    ),
    radius=st.sampled_from([1e-3, 1.0, 1e300]),
    drawn=st.data(),
)
def test_evaluate_many_is_evaluate_bit_for_bit(d, coeffs, radius, drawn):
    # where ok, the batch float is evaluate's; ok is False exactly where the
    # point is invalid, at or past the radius, or w leaves cmath.exp's plain
    # range, and evaluate raises at the first two.  Inside the radius,
    # evaluate is the full loop at exp(logmap(z) / d), or its OverflowError.
    g = puiseux(coeffs, radius, d)
    points = drawn.draw(surface_points(1.0 / d))
    # at the radius, the float on either side of it, and inside it
    points += [(g.radius * t, phi) for t, phi in drawn.draw(st.lists(
        st.tuples(st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.5]),
                  st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])), max_size=6))]
    with np.errstate(all="ignore"):
        re, im, ok = evaluate_many(g, [r for r, _ in points], [phi for _, phi in points])
    for i, (r, phi) in enumerate(points):
        plain = plain_power(1.0 / d, r, phi)
        assert ok[i] == (plain and r < g.radius)
        try:
            want = evaluate(g, LPoint(r, phi))
        except (ValueError, ArithmeticError, OutOfRadius) as exc:
            assert not ok[i], exc
        else:
            assert not plain or ok[i] and bits(complex(re[i], im[i])) == bits(want)
        if not on_surface_full(r, phi):
            continue
        z = LPoint(r, phi)
        if r >= g.radius:
            with pytest.raises(OutOfRadius):
                evaluate(g, z)
            continue
        try:
            loop = ps_eval_loop(g.base.coeffs, cmath.exp((1.0 / d) * logmap(z)))
        except OverflowError:
            with pytest.raises(OverflowError):
                evaluate(g, z)
        else:
            # where the full loop overflows on trailing zeros, evaluate differs on purpose
            assert not cmath.isfinite(loop) or bits(evaluate(g, z)) == bits(loop)
