from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies

from logsurf import (
    CornerSpec,
    Germ,
    HarmonicEvaluator,
    IrrationalAngle,
    LPoint,
    NotNormalized,
    OutOfRadius,
    OutsideExtension,
    PuiseuxSeries,
    RationalPi,
    WedgeProblem,
    WindowEmpty,
    apply_germ,
    certify_expansion,
    compose,
    conjugate_corner,
    conjugate_evaluator,
    cpow,
    envelope,
    evaluate,
    extend_eval,
    extend_eval_many,
    identity_germ,
    init_state,
    invert,
    is_ray,
    log_power_series,
    make_germ,
    membership,
    normalize,
    power_germ,
    project,
    puiseux,
    puiseux_from_terms,
    rotation_germ,
    tau,
    tau_conj,
    tower,
    trunc_order,
    truncate,
    wedge_solve,
)

from logsurf import cli, germs, reflect, series
from logsurf.germs import s_series
from logsurf.series import compose_germ, ps_compose
from logsurf.surface import raising

from conftest import apply_germ_composed, bits, outcome, ps_eval_loop


def _data_t(radius: float = 2.0):
    return puiseux_from_terms([(1, 1.0)], radius)


def _zero_data(radius: float = 2.0):
    return puiseux((0.0,), radius)


def unit_wedge_corner() -> CornerSpec:
    # identity ray at argument 0, rotated ray at argument 1, data t on the ray
    return CornerSpec(
        identity_germ(),
        rotation_germ(1.0),
        IrrationalAngle(1.0),
        _data_t(),
        _zero_data(),
        1.0,
    )


def unit_wedge_base() -> HarmonicEvaluator:
    ev, _ = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0),), ()))
    return ev


def resonant_corner() -> CornerSpec:
    return CornerSpec(
        identity_germ(),
        rotation_germ(math.pi / 2),
        RationalPi(1, 2),
        puiseux_from_terms([(2, 1.0)], 2.0),
        _zero_data(),
        1.0,
    )


def resonant_base() -> HarmonicEvaluator:
    ev, _ = wedge_solve(WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ()))
    return ev


# ----------------------------------------------------------------------
# state construction
# ----------------------------------------------------------------------

def test_init_state_requires_normal_form():
    t, z = _data_t(), _zero_data()
    curved = make_germ(LPoint(1.0, 1.0), 2, (0.0,), 1e12)
    with pytest.raises(NotNormalized):
        init_state(CornerSpec(identity_germ(), curved, IrrationalAngle(1.0), t, z, 1.0))
    off_unit = make_germ(LPoint(1.5, 1.0), 1, (0.0,), 1e12)
    with pytest.raises(NotNormalized):
        init_state(CornerSpec(identity_germ(), off_unit, IrrationalAngle(1.0), t, z, 1.0))
    with pytest.raises(NotNormalized):
        init_state(CornerSpec(rotation_germ(1.0), rotation_germ(0.5), IrrationalAngle(0.5), t, z, 1.0))
    with pytest.raises(NotNormalized):
        init_state(CornerSpec(identity_germ(), rotation_germ(1.0), IrrationalAngle(0.9), t, z, 1.0))


def test_init_state_inverts_a_curved_chi_once(monkeypatch):
    chi = make_germ(LPoint(1.0, 1.0), 1, (0.0, 0.1), 1.0)
    corner = CornerSpec(identity_germ(), chi, IrrationalAngle(1.0), _data_t(), _zero_data(), 1.0)
    inverted = []
    monkeypatch.setattr(reflect, "invert", lambda g, *args: inverted.append(g) or invert(g, *args))
    state = init_state(corner)
    assert inverted == [chi]
    assert state.phi_inv == invert(chi)


def test_tower_keeps_the_order_it_was_built_at():
    # every germ and series a level offers, read after the order block, is
    # made at that block's order: the top level's h and phi_inv, first read
    # under another order, have the bits of those read inside the block
    with trunc_order(16):
        chi = make_germ(LPoint(1.0, 1.0), 1, (0.0, 0.1), 1.0)
        corner = CornerSpec(identity_germ(), chi, IrrationalAngle(1.0), _data_t(), _zero_data(), 1.0)
        states = tower(corner, 3)

        def top(st):
            h, inv = st.h, st.phi_inv
            return (bits(*h.base.coeffs), h.d, h.radius,
                    bits(*inv.h.coeffs), inv.a, inv.k, inv.radius)

        inside = top(tower(corner, 3)[-1])
    assert all(st.order == 16 for st in states)
    with trunc_order(32):
        assert top(states[-1]) == inside
    sizes = []
    for st in states:
        for value in (getattr(st, name) for name in dir(st) if not name.startswith("_")):
            if isinstance(value, Germ):
                sizes.append(len(value.h.coeffs))
            elif isinstance(value, PuiseuxSeries):
                sizes.append(len(value.base.coeffs))
    assert max(sizes) == 17


def _curved_corner() -> CornerSpec:
    chi = make_germ(LPoint(1.0, 1.0), 1, (0.0, 0.1), 1.0)
    return CornerSpec(identity_germ(), chi, IrrationalAngle(1.0), _data_t(), _zero_data(), 1.0)


def _level_bits(st) -> tuple:
    """The order and every float of a level's phi, h and phi_inv."""
    germ = lambda g: (bits(*g.h.coeffs), g.a, g.k, g.radius)
    return st.order, germ(st.phi), bits(*st.h.base.coeffs), st.h.d, st.h.radius, germ(st.phi_inv)


def test_tower_order_argument_matches_the_order_block():
    # outside any order block, tower(corner, n, order) is tower(corner, n)
    # inside trunc_order(order), bit for bit, read under another order
    corner = _curved_corner()
    given = tower(corner, 5, order=16)
    with trunc_order(16):
        ambient = tower(corner, 5)
    with trunc_order(32):
        assert [_level_bits(st) for st in given] == [_level_bits(st) for st in ambient]
    assert {len(st.h.base.coeffs) for st in given} == {17}


def test_step_builds_at_the_state_order():
    corner = _curved_corner()
    states = tower(corner, 2, order=16)
    with trunc_order(24):
        top = reflect.step(states[-1])
    assert top.order == 16
    assert len(top.phi.h.coeffs) == 17
    assert _level_bits(top) == _level_bits(tower(corner, 3, order=16)[-1])


def test_tower_frozen_table():
    states = tower(unit_wedge_corner(), 3)
    assert [st.k for st in states] == [1, 2, 3]
    assert [st.s for st in states] == pytest.approx([1.0, 1e-2, 1e-4], rel=1e-12)
    assert [st.r for st in states] == pytest.approx([1e12, 1e10, 1e8], rel=1e-12)
    # each reflection doubles the sector: arg a(phi_k) - alpha = 2**(k-1) * theta
    assert [st.phi.a.phi for st in states] == pytest.approx([1.0, 2.0, 4.0], abs=1e-10)
    assert [st.phi.a.r for st in states] == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)
    assert all(st.h.d == states[0].h.d for st in states)
    assert states[1].h.radius == pytest.approx(0.25, rel=1e-12)
    assert states[2].h.radius == pytest.approx(0.25e-2, rel=1e-12)
    with pytest.raises(ValueError):
        tower(unit_wedge_corner(), 0)


def test_straight_tower_cost_is_flat_in_the_order(monkeypatch):
    product = series._product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)

    monkeypatch.setattr(series, "_product", counting)
    counts, radii = {}, {}
    for order in (16, 128):
        calls.clear()
        with trunc_order(order):
            states = tower(unit_wedge_corner(), 5)
            counts[order] = len(calls)
            omegas = [compose(st.phi, tau_conj(st.phi_inv)) for st in states]
        germs = [st.phi for st in states] + [st.phi_inv for st in states] + omegas
        # every germ of a straight tower is a ray, and inverting a ray keeps its radius
        assert not any(g.h.trimmed for g in germs)
        assert all(st.phi_inv.radius == st.phi.radius for st in states)
        radii[order] = [g.radius for g in germs]
    # compose and invert of rays make no product, and compose_germ makes
    # one per coefficient of the data past the constant: one for each
    # transport of h_2 .. h_4, whose data is linear (14 products in all
    # before rays took closed forms)
    assert counts == {16: 3, 128: 3}
    assert counts[16] > 0  # the counter sees the products
    assert radii[16] == radii[128]


def test_a_deep_tower_reads_its_top_level_one_level_deep(monkeypatch):
    # reflect_wedge's corner: every level below the top was given its h and
    # phi_inv while the tower was built, so the top's h, read first, is one
    # transport from the level below, with no chain of reads down the tower
    states = tower(unit_wedge_corner(), 150)
    transports = []
    monkeypatch.setattr(reflect, "compose_germ", lambda *args: transports.append(args) or compose_germ(*args))
    top = states[-1].h
    assert len(transports) == 1
    assert top.radius == states[-2].s / 4.0
    assert states[-1].phi_inv.radius == states[-1].phi.radius


def test_reflected_data_right_angle():
    # data t on the real ray, zero on the vertical ray: h_2 = +z
    corner = CornerSpec(
        identity_germ(),
        rotation_germ(math.pi / 2),
        RationalPi(1, 2),
        _data_t(),
        _zero_data(),
        1.0,
    )
    states = tower(corner, 2)
    coeffs = states[1].h.base.coeffs
    assert coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert max(abs(c) for c in coeffs[2:]) == 0.0


def test_reflected_data_generic_angle():
    # h_2 = -exp(-2 i theta) z keeps unit modulus
    states = tower(unit_wedge_corner(), 2)
    coeffs = states[1].h.base.coeffs
    want = -np.exp(-2.0j)
    assert coeffs[1] == pytest.approx(want, abs=1e-12)
    assert abs(coeffs[1]) == pytest.approx(1.0, abs=1e-12)


def test_reflected_data_mirror_tower():
    # the conjugated corner carries data t on its second curve: h_2 = 2 z
    mirror = conjugate_corner(unit_wedge_corner())
    states = tower(mirror, 2)
    coeffs = states[1].h.base.coeffs
    assert coeffs[1] == pytest.approx(2.0, abs=1e-12)


def test_conjugate_corner_involution():
    corner = unit_wedge_corner()
    assert conjugate_corner(conjugate_corner(corner)) == corner


def test_conjugate_evaluator_transport():
    base = unit_wedge_base()
    mbase = conjugate_evaluator(base)
    z = LPoint(0.3, -0.4)
    assert mbase.u(z) == pytest.approx(base.u(tau(z)), abs=1e-14)
    assert mbase.f(z) == pytest.approx(complex(base.f(tau(z))).conjugate(), abs=1e-14)


# ----------------------------------------------------------------------
# membership and evaluation
# ----------------------------------------------------------------------

def test_membership_windows():
    states = tower(unit_wedge_corner(), 3)
    assert membership(states, LPoint(0.5, 0.5)) == 1
    assert membership(states, LPoint(0.005, 1.5)) == 2
    assert membership(states, LPoint(5e-5, 3.0)) == 3
    # overlapping windows resolve to the smallest level
    assert membership(states, LPoint(5e-5, 0.5)) == 1
    # radius gates each level separately
    assert membership(states, LPoint(0.5, 1.5)) is None
    assert membership(states, LPoint(2.0, 0.5)) is None
    # on an upper edge, or at or below the lower edge
    assert membership(states, LPoint(0.5, 1.0)) is None
    assert membership(states, LPoint(0.5, 0.0)) is None
    assert membership(states, LPoint(0.5, -0.1)) is None


def test_membership_curved_side_shrinks_window():
    t, z = _data_t(), _zero_data()
    curved = make_germ(LPoint(1.0, 0.0), 1, (0.0, 0.1), 10.0)
    corner = CornerSpec(curved, rotation_germ(1.0), IrrationalAngle(1.0), t, z, 1.0)
    states = tower(corner, 3)
    # the curved first side pushes the lower edge up by pi / 2
    assert membership(states, LPoint(5e-5, 1.2)) is None
    assert membership(states, LPoint(5e-5, 2.0)) == 3
    # on every level: the lower edge is alpha + pi / 2, and the upper edge
    # is arg a(phi) for the straight phi_1, arg a(phi) - pi / 2 once curved
    assert [st.lower for st in states] == [states[0].alpha + math.pi / 2] * 3
    assert states[0].upper == states[0].phi.a.phi == 1.0
    for st in states[1:]:
        assert not is_ray(st.phi)
        assert st.upper == st.phi.a.phi - math.pi / 2


def test_extension_matches_entire_oracle(rng):
    # the wedge data t extends to f(z) = (1 + i cot 1) z on every sheet
    states = tower(unit_wedge_corner(), 3)
    base = unit_wedge_base()
    coeff = 1.0 + 1.0j / math.tan(1.0)
    worst = 0.0
    for _ in range(100):
        ang = 0.01 + 3.98 * rng.random()
        rr = 5e-5 * (1e-2 + (1.0 - 1e-2) * rng.random())
        z = LPoint(rr, ang)
        assert membership(states, z) is not None
        got = extend_eval(states, base, z)
        want = coeff * rr * complex(math.cos(ang), math.sin(ang))
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-8


def test_readme_library_example_prints_the_extension(capsys):
    # README's python block, run as written: it prints f(z) = (1 + i cot 1) z
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(code, {})
    got = complex(capsys.readouterr().out.strip())
    want = (1.0 + 1.0j / math.tan(1.0)) * cmath.rect(5e-5, 3.0)
    assert abs(got - want) <= 1e-12 * abs(want)


def curved_oracle_corner():
    """A curved corner whose extension is the entire F.

    Returns the corner, the base evaluator and F on surface points.
    """
    theta = 1.0
    F = np.polynomial.Polynomial([0.0, 1.0, 0.5j, 0.3])
    h = (0.0, 0.1, 0.05j)
    # the curve chi(t) = exp(i theta) t (1 + h(t)) as a polynomial in t
    curve = np.polynomial.Polynomial([0.0, 1.0, *h[1:]]) * complex(math.cos(theta), math.sin(theta))
    chi = make_germ(LPoint(1.0, theta), 1, h, 1.0)
    corner = CornerSpec(
        identity_germ(),
        chi,
        IrrationalAngle(theta),
        puiseux(F.coef.real, 10.0),
        puiseux(F(curve).coef.real, 10.0),
        1.0,
    )
    f = lambda z: complex(F(project(z)))
    return corner, HarmonicEvaluator(lambda z: f(z).real, f), f


@functools.lru_cache(maxsize=None)
def curved_oracle_tower(order: int):
    """A 6-level tower over curved_oracle_corner: the states, the base evaluator and F."""
    corner, base, f = curved_oracle_corner()
    with trunc_order(order):
        states = tower(corner, 6)
    return states, base, f


def test_a_curved_tower_skips_the_known_germ_work(monkeypatch):
    # Every level composes with the identity psi in closed form, binom_pow
    # makes (1 + h)**1 in closed form, and the majorant certifies every
    # inverse: without these shortcuts the tower made 1,158 truncated
    # products and 8 sampled_h_sup calls here, and 927 products without
    # the binom_pow one.  The top level makes its h (an omega and a
    # compose_germ) and its inverse only when they are read: 98 of the
    # 905 products of a tower read in full.  Each np.dot is a step of
    # reversion's v recurrence, 31 per inverse: 217 built and 248 read.
    corner, _, _ = curved_oracle_corner()
    calls = {"_product": 0, "dot": 0, "sampled_h_sup": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(series, "_product", counted("_product", series._product))
    monkeypatch.setattr(np, "dot", counted("dot", np.dot))
    monkeypatch.setattr(germs, "sampled_h_sup", counted("sampled_h_sup", germs.sampled_h_sup))
    with trunc_order(32):
        states = tower(corner, 8)
        assert calls == {"_product": 807, "dot": 217, "sampled_h_sup": 0}
        for st in states:
            st.h, st.phi_inv
    assert calls == {"_product": 905, "dot": 248, "sampled_h_sup": 0}


def _windows(states):
    """The non-empty windows of a tower as (lowest arg, highest arg, level state)."""
    out, lo = [], states[0].lower
    for st in states:
        hi = st.upper
        if hi > lo:
            out.append((lo, hi, st))
            lo = hi
    return out


@pytest.mark.parametrize("order", [16, 32])
def test_curved_extension_matches_entire_oracle(rng, order):
    # manufactured solution: the extension of Re F from a curved corner is
    # the entire F itself, in every window of the tower
    states, base, f = curved_oracle_tower(order)
    wins = _windows(states)
    assert len(wins) == 5
    for lo, hi, st in wins:
        for _ in range(20):
            r = st.s * 10.0 ** rng.uniform(-3.0, -1e-3)
            z = LPoint(r, lo + (hi - lo) * rng.uniform(1e-3, 1.0 - 1e-3))
            assert membership(states, z) == st.k
            assert abs(extend_eval(states, base, z) - f(z)) <= 1e-10 * abs(f(z))


_CURVED_H = (0.0, 0.1, 0.05j)


@pytest.mark.parametrize(
    "psi, chi, theta, stages",
    [
        # a germ stage: the ray psi is straightened by its inverse
        (rotation_germ(0.3), make_germ(LPoint(1.0, 1.3), 1, _CURVED_H, 1.0), 1.0, ["germ"]),
        # a root stage of order k(psi) = 2
        (power_germ(2), make_germ(LPoint(1.0, 2.0), 2, _CURVED_H, 1.0), 2.0, [("root", 2)]),
        # a root stage of order k(chi) = 2 after the first curve (n3 > 1)
        (identity_germ(), make_germ(LPoint(1.0, 2.0), 2, _CURVED_H, 1.0), 2.0, [("root", 2)]),
        # k(psi) = 2 does not divide k(chi) = 1: chi is reparametrized first
        (power_germ(2), make_germ(LPoint(1.0, 2.0), 1, _CURVED_H, 1.0), 2.0, [("root", 2)]),
    ],
    ids=["germ", "root_psi", "root_chi", "reparametrized_chi"],
)
def test_a_normalized_corner_extends_its_original_solution(psi, chi, theta, stages):
    # The data is Re F on each original curve, so the extension over the
    # normalized corner is F o record.backward on every sheet.
    F = (0.0, 1.0, 0.5j, 0.3)
    data = lambda curve: puiseux([c.real for c in ps_compose(F, s_series(curve))], 10.0)
    spec = CornerSpec(psi, chi, IrrationalAngle(theta), data(psi), data(chi), 1.0)
    norm = normalize(spec)
    assert norm == normalize(spec)
    with trunc_order(16):
        at_16 = normalize(spec)
    assert normalize(spec, 16) == at_16
    assert at_16 != norm
    assert [s if s[0] == "root" else s[0] for s in norm.record.stages] == stages
    poly = np.polynomial.Polynomial(F)
    f = lambda z: complex(poly(project(norm.record.backward(z))))
    states = tower(norm.corner, 5)
    base = HarmonicEvaluator(lambda z: f(z).real, f)
    wins = _windows(states)
    assert len(wins) == 4
    for lo, hi, st in wins:
        for i in range(1, 10):
            z = LPoint(0.2 * st.s, lo + (hi - lo) * i / 10)
            assert abs(extend_eval(states, base, z) - f(z)) <= 1e-12 * abs(f(z))


def _extend_eval_reference(states, base, z):
    """extend_eval with the window edges recomputed per call, the full
    ps_eval loop and apply_germ as products of surface points."""
    lo = states[0].alpha + (0.0 if is_ray(states[0].psi) else math.pi / 2)
    hi = lambda st: st.phi.a.phi - (0.0 if is_ray(st.phi) else math.pi / 2)
    level = next((st.k for st in states if lo < z.phi < hi(st) and z.r < st.s), None)
    ev = lambda g, x: ps_eval_loop(g.base.coeffs, cpow(1.0 / g.d, x))
    stack, current = [], z
    while level > 1:
        st = states[level - 2]
        w = apply_germ_composed(st.phi, tau(apply_germ_composed(st.phi_inv, current)))
        stack.append((st.h, w, current))
        current, level = w, level - 1
    value = complex(base.f(current))
    for h, w, znext in reversed(stack):
        value = -(value - ev(h, w)).conjugate() + ev(h, znext)
    return value


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    window=strategies.integers(0, 4),
    t_arg=strategies.floats(1e-3, 1.0 - 1e-3),
    t_r=strategies.floats(-3.0, -1e-3),
)
def test_curved_extend_eval_is_the_reference_descent_bit_for_bit(window, t_arg, t_r):
    states, base, _ = curved_oracle_tower(32)
    lo, hi, st = _windows(states)[window]
    z = LPoint(st.s * 10.0**t_r, lo + (hi - lo) * t_arg)
    assert bits(extend_eval(states, base, z)) == bits(_extend_eval_reference(states, base, z))


@functools.lru_cache(maxsize=None)
def mixed_denominator_tower(order: int):
    """curved_oracle_tower with g0 written in z**(1/2): the same data, d = 2.

    Level 1's h is g1's, with d = 1; every level above takes g0's d = 2, so
    a descent's unwinding meets h.d = 1 and then 2."""
    corner, base, f = curved_oracle_corner()
    coeffs = [0.0] * (2 * len(corner.g0.base.coeffs) - 1)
    coeffs[::2] = corner.g0.base.coeffs
    corner = dataclasses.replace(corner, g0=puiseux(coeffs, corner.g0.radius, 2))
    with trunc_order(order):
        states = tower(corner, 6)
    return states, base, f


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    window=strategies.integers(0, 4),
    t_arg=strategies.floats(1e-3, 1.0 - 1e-3),
    t_r=strategies.floats(-3.0, -1e-3),
)
def test_mixed_denominator_extend_eval_is_the_reference_descent_bit_for_bit(window, t_arg, t_r):
    # the power z**(1/d) kept from the level below is reused only where d agrees
    states, base, f = mixed_denominator_tower(32)
    assert [st.h.d for st in states[:5]] == [1, 2, 2, 2, 2]
    lo, hi, st = _windows(states)[window]
    z = LPoint(st.s * 10.0**t_r, lo + (hi - lo) * t_arg)
    got = extend_eval(states, base, z)
    assert bits(got) == bits(_extend_eval_reference(states, base, z))
    assert abs(got - f(z)) <= 1e-10 * abs(f(z))


@pytest.mark.parametrize("tower_of, powers", [(curved_oracle_tower, 5), (mixed_denominator_tower, 6)],
                         ids=["one_d", "mixed_d"])
def test_a_descent_makes_each_points_power_once(tower_of, powers):
    # a level-5 point unwinds four levels: h_j at w_j and at z_j, and w_(j+1)
    # is z_j, so its power is made once where the levels' d agree: 5 powers,
    # 6 when h.d steps from 1 to 2; taking each of the 8 afresh makes 8
    states, base, _ = tower_of(32)
    lo, hi, st = _windows(states)[3]
    z = LPoint(st.s * 0.1, 0.5 * (lo + hi))
    assert membership(states, z) == 5
    exp = cmath.exp
    made = []
    with mock.patch.object(cmath, "exp", lambda w: (made.append(w), exp(w))[1]):
        extend_eval(states, base, z)
    assert len(made) == powers


def _replaced(state, **changes):
    """dataclasses.replace(state, **changes) for a level, whose h and
    phi_inv are made on first read, not passed: the copy has those of
    changes, else the level's own."""
    made = {name: changes.pop(name) if name in changes else getattr(state, name)
            for name in ("h", "phi_inv")}
    copy = dataclasses.replace(state, **changes)
    vars(copy).update(made)
    return copy


def _shrunk_curved_tower():
    """The curved oracle tower with a germ radius and a data radius cut to
    half a window radius, so the descent and the unwinding can leave them."""
    states = list(curved_oracle_tower(16)[0])

    def cut(k, field, level):
        part = dataclasses.replace(getattr(states[k], field), radius=states[level - 1].s * 0.5)
        states[k] = _replaced(states[k], **{field: part})

    cut(1, "phi_inv", 3)
    cut(3, "phi", 5)
    cut(2, "h", 4)
    return states


@functools.lru_cache(maxsize=None)
def _batch_towers():
    # the Schwarz corner's chi is the identity, whose inverse has arg a = -0.0
    straight = tower(unit_wedge_corner(), 4), unit_wedge_base()
    schwarz = tower(schwarz_corner(), 3), schwarz_base()
    curved = curved_oracle_tower(16)[:2]
    shrunk = _shrunk_curved_tower(), curved[1]
    # bases with a batch completion: a resonant wedge (a log term), the
    # CLI's rotation of a wedge and a conjugated wedge
    resonant = tower(resonant_corner(), 4), resonant_base()
    rotated = schwarz[0], cli._straight_wedge_base(schwarz_corner(), "$")[0]
    conjugated = tower(conjugate_corner(unit_wedge_corner()), 4), conjugate_evaluator(straight[1])
    return {"straight": straight, "schwarz": schwarz, "curved": curved, "shrunk": shrunk,
            "resonant": resonant, "rotated": rotated, "conjugated": conjugated}


def _with_f(base, kind):
    """base, or base with an f that is nan or raises for |z| < 1e-7."""
    if kind == "plain":
        return base

    def f(z):
        if z.r < 1e-7:
            if kind == "raises":
                raise ArithmeticError(f"no value at {z.r}")
            return complex(math.nan, math.nan)
        return base.f(z)

    return HarmonicEvaluator(base.u, f)


def _point(states, kind, window, variant, t_arg, t_r):
    """A drawn point: inside a window, on a window edge, outside every
    window, or not a valid surface point."""
    wins = _windows(states)
    lo, hi, st = wins[window % len(wins)]
    mid = lo + (hi - lo) * t_arg
    if kind == "inside":
        return st.s * (1e-3 + (1.0 - 1e-3) * t_r) ** 2, mid
    if kind == "edge":
        # the shrunk tower's radii are cut to half a window radius
        return [(st.s, mid), (st.s * t_r, lo), (st.s * t_r, hi), (st.s * 0.5, mid),
                (st.s * t_r, 0.0), (st.s * t_r, -0.0)][variant]
    if kind == "outside":
        return [(st.s * t_r, states[0].lower - t_arg), (st.s * t_r, wins[-1][1] + t_arg),
                (st.s * (1.0 + t_r), mid)][variant % 3]
    return [(0.0, mid), (-st.s, mid), (math.nan, mid), (math.inf, mid), (st.s * t_r, math.nan),
            (st.s * t_r, -math.inf)][variant]


def _outcome(value):
    """The float hex of a value, or the type and message of an exception."""
    return (type(value), str(value)) if isinstance(value, Exception) else bits(value)


def _scalar_outcome(states, base, r, phi):
    return outcome(lambda: extend_eval(states, base, LPoint(r, phi)))


_drawn_points = strategies.lists(
    strategies.tuples(
        strategies.sampled_from(["inside"] * 4 + ["edge", "outside", "invalid"]),
        strategies.integers(0, 4),
        strategies.integers(0, 5),
        strategies.floats(0.0, 1.0),
        strategies.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=24,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
# every window of the shrunk tower at the cut radius and just past it
@example(which="shrunk", f_kind="plain",
         drawn=[(kind, w, 3, 0.5, 0.8) for w in range(5) for kind in ("edge", "inside")])
# signed zero arguments in every window of the Schwarz tower
@example(which="schwarz", f_kind="nan",
         drawn=[("edge", w, v, 0.5, 0.5) for w in range(3) for v in (4, 5)])
@given(
    which=strategies.sampled_from(
        ["straight", "schwarz", "curved", "shrunk", "resonant", "rotated", "conjugated"]),
    f_kind=strategies.sampled_from(["plain", "nan", "raises"]),
    drawn=_drawn_points,
)
def test_extend_eval_many_is_the_scalar_extend_eval_bit_for_bit(which, f_kind, drawn):
    states, base = _batch_towers()[which]
    assert (base.f_many is not None) == (which in ("straight", "resonant", "rotated", "conjugated"))
    base = _with_f(base, f_kind)
    points = [_point(states, *d) for d in drawn]
    want = [_scalar_outcome(states, base, r, phi) for r, phi in points]
    # with f_many the batch runs a point through extend_eval again only to
    # raise its exception, but builds a point's OutsideExtension itself;
    # without it every point takes extend_eval; an invalid point raises
    # from LPoint before that call
    with mock.patch.object(reflect, "extend_eval", wraps=extend_eval) as rerun:
        got = extend_eval_many(states, base, [r for r, _ in points], [phi for _, phi in points])
    assert [_outcome(v) for v in got] == want
    valid = [0 < r < math.inf and math.isfinite(phi) for r, phi in points]
    if base.f_many is None:
        assert rerun.call_count == sum(valid)
    else:
        assert rerun.call_count == sum(isinstance(w[0], type) and w[0] is not OutsideExtension and v
                                       for w, v in zip(want, valid))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    which=strategies.sampled_from(["straight", "schwarz", "curved", "shrunk", "conjugated"]),
    drawn=_drawn_points,
)
def test_membership_many_is_membership(which, drawn):
    # a level wherever membership gives one, and 0 where it gives None or
    # LPoint raises; window edges, signed zeros, nan and inf included
    states, _ = _batch_towers()[which]
    points = [_point(states, *d) for d in drawn]
    got = reflect.membership_many(states, np.array([r for r, _ in points]),
                                  np.array([phi for _, phi in points]))
    for level, (r, phi) in zip(got.tolist(), points):
        try:
            z = LPoint(r, phi)
        except ValueError:
            assert level == 0
        else:
            assert level == (membership(states, z) or 0)


def test_extend_eval_many_makes_one_batch_completion_call():
    # every landed point of every window takes its base value from one
    # f_many call, and base.f is never called
    states, base = _batch_towers()["conjugated"]
    batches = []

    def f_many(r, phi):
        batches.append(len(r))
        return base.f_many(r, phi)

    def f(z):
        raise AssertionError("the scalar completion was called")

    counted = HarmonicEvaluator(base.u, f, f_many)
    pts = [(st.s * 0.5 * 0.9 ** j, lo + (hi - lo) * (j + 1) / 7)
           for lo, hi, st in _windows(states) for j in range(6)]
    got = extend_eval_many(states, counted, [r for r, _ in pts], [phi for _, phi in pts])
    assert batches == [len(pts)]
    assert [_outcome(v) for v in got] == [_scalar_outcome(states, base, *p) for p in pts]


def test_extend_eval_many_without_f_many_is_extend_eval_point_by_point():
    # a base built from lambdas takes no array descent: each valid point
    # goes through extend_eval once, and an invalid one raises from LPoint
    states, base = _batch_towers()["shrunk"]
    base = _with_f(base, "raises")
    pts = [(st.s * 0.9, (lo + hi) / 2) for lo, hi, st in _windows(states)]
    pts += [(0.0, 0.5), (math.nan, 0.5), (states[0].s * 0.5, states[0].lower - 1.0)]

    def no_descent(*args):
        raise AssertionError("the array descent was taken")

    with mock.patch.object(reflect, "membership_many", no_descent), \
            mock.patch.object(reflect, "extend_eval", wraps=extend_eval) as scalar:
        got = extend_eval_many(states, base, [r for r, _ in pts], [phi for _, phi in pts])
    assert [_outcome(v) for v in got] == [_scalar_outcome(states, base, *p) for p in pts]
    assert [type(v).__name__ for v in got] == [
        "complex", "OutOfRadius", "OutOfRadius", "OutOfRadius", "ArithmeticError",
        "ValueError", "ValueError", "OutsideExtension",
    ]
    assert scalar.call_count == len(pts) - 2


def test_extend_eval_many_draws_reach_every_outcome():
    # near the window radius, points of the shrunk tower leave a germ
    # radius in the descent (levels 3 and 5) and a data radius in the
    # unwinding (level 4); at level 6 the base f raises or is nan
    states, base = _batch_towers()["shrunk"]
    pts = [(st.s * 0.9, (lo + hi) / 2) for lo, hi, st in _windows(states)]
    for kind in ("raises", "nan"):
        with_f = _with_f(base, kind)
        got = extend_eval_many(states, with_f, [r for r, _ in pts], [phi for _, phi in pts])
        assert [_outcome(v) for v in got] == [_scalar_outcome(states, with_f, *p) for p in pts]
        assert [type(v).__name__ for v in got] == [
            "complex", "OutOfRadius", "OutOfRadius", "OutOfRadius",
            "ArithmeticError" if kind == "raises" else "complex",
        ]
        assert "germ radius" in str(got[1]) and "asserted radius" in str(got[2])
        assert "germ radius" in str(got[3])
    assert cmath.isnan(got[4])


def test_extension_boundary_data(rng):
    states = tower(unit_wedge_corner(), 3)
    base = unit_wedge_base()
    worst = 0.0
    for st in states[:-1]:
        t_cap = min(states[st.k].s, st.phi.radius) * 0.5
        for t in np.geomspace(t_cap * 1e-2, t_cap, 5):
            z = apply_germ(st.phi, LPoint(float(t), 0.0))
            fv = extend_eval(states, base, z)
            hv = evaluate(st.h, z)
            worst = max(worst, abs(fv.real - hv.real))
    assert worst < 1e-8


def schwarz_corner() -> CornerSpec:
    # data t on the ray at argument -0.8, zero data on the real ray
    return CornerSpec(
        rotation_germ(-0.8),
        identity_germ(),
        IrrationalAngle(0.8),
        _data_t(),
        _zero_data(),
        1.0,
    )


def schwarz_base() -> HarmonicEvaluator:
    ev, _ = wedge_solve(WedgeProblem(IrrationalAngle(0.8), ((1, 1.0),), ()))
    rot = lambda z: LPoint(z.r, z.phi + 0.8)
    return HarmonicEvaluator(lambda z: ev.u(rot(z)), lambda z: ev.f(rot(z)))


def test_schwarz_reflection_special_case(rng):
    # zero data on the real ray: the extension is -conj(f(conj z))
    base = schwarz_base()
    states = tower(schwarz_corner(), 2)
    worst = 0.0
    for _ in range(100):
        z = LPoint(1e-6 + 0.004 * rng.random(), 0.01 + 0.78 * rng.random())
        assert membership(states, z) == 2
        got = extend_eval(states, base, z)
        want = -complex(base.f(tau(z))).conjugate()
        worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_extend_eval_builds_only_the_landing_point():
    # a level-5 point descends four levels on floats; the one LPoint built
    # is the point given to base.f, where the LPoint descent built twelve
    states, base, f = curved_oracle_tower(32)
    lo, hi, st = _windows(states)[3]
    z = LPoint(st.s * 0.1, 0.5 * (lo + hi))
    assert membership(states, z) == 5
    built = []
    check = LPoint.__post_init__
    with mock.patch.object(LPoint, "__post_init__", lambda p: (built.append(p), check(p))[1]):
        got = extend_eval(states, base, z)
    assert len(built) == 1
    assert abs(got - f(z)) <= 1e-10 * abs(f(z))


def test_extend_eval_raises_the_exceptions_of_the_lpoint_descent():
    # a level-3 point of the unit wedge descends through the second level,
    # then the first; a germ image that underflows or overflows fails
    # LPoint's check where it is made, and a point past a germ or data
    # radius raises OutOfRadius, as when each image was built as an LPoint
    states = tower(unit_wedge_corner(), 3)
    base = unit_wedge_base()
    z = LPoint(1e-5, 3.0)
    second = states[1]
    assert membership(states, z) == 3

    def germ(name, **changes):
        return {name: dataclasses.replace(getattr(second, name), **changes)}

    # a k = 0 outer germ maps the underflowed image back onto the surface
    tiny = {**germ("phi_inv", a=LPoint(5e-324, -2.0)), **germ("phi", k=0)}
    huge = {**germ("phi_inv", a=LPoint(1e300, -2.0)),
            **germ("phi", a=LPoint(1e300, 2.0), radius=1e308)}
    cases = [
        (tiny, ValueError, "modulus must be a finite positive real, got 0.0"),
        (huge, ValueError, "modulus must be a finite positive real, got inf"),
        (germ("phi_inv", radius=5e-6), OutOfRadius,
         "|z| = 1e-05 is not below the germ radius 5e-06"),
        (germ("phi", radius=5e-6), OutOfRadius,
         "|z| = 1e-05 is not below the germ radius 5e-06"),
        (germ("h", radius=5e-6), OutOfRadius,
         "|z| = 1e-05 is not below the asserted radius 5e-06"),
    ]
    for changes, kind, message in cases:
        broken = [states[0], _replaced(second, **changes), states[2]]
        with pytest.raises(kind) as raised:
            extend_eval(broken, base, z)
        assert type(raised.value) is kind and str(raised.value) == message


def test_extension_outside_raises():
    states = tower(unit_wedge_corner(), 3)
    base = unit_wedge_base()
    with pytest.raises(OutsideExtension):
        extend_eval(states, base, LPoint(0.5, -0.1))
    with pytest.raises(ValueError, match="must provide a holomorphic completion"):
        HarmonicEvaluator(base.u, None)


# ----------------------------------------------------------------------
# covering envelope
# ----------------------------------------------------------------------

def test_envelope_reads_level_one_alone():
    # every deeper window is s_1 / 100**(k - 1) at its reach, so deeper levels add nothing
    def flat(env):
        return bits(env.K, env.domain.c, env.domain.C, *(v for row in env.rows for v in row))

    states = tower(unit_wedge_corner(), 12)
    assert flat(envelope(states[:1])) == flat(envelope(states[:5])) == flat(envelope(states))


def test_envelope_frozen_constants():
    env = envelope(tower(unit_wedge_corner(), 5))
    assert env.K == pytest.approx(1.0e6, rel=1e-6)
    assert env.domain.c == pytest.approx(1.0, rel=1e-12)
    assert env.domain.C == pytest.approx(math.log(env.K), rel=1e-12)
    assert all(row[3] <= env.K for row in env.rows)


def test_envelope_containments():
    states = tower(unit_wedge_corner(), 5)
    env = envelope(states)
    s1, theta = states[0].s, states[0].theta
    for x in np.geomspace(1.0, 1e4, 200):
        lev = 1
        while 2.0 ** (lev - 1) * theta - math.pi / 2 <= x:
            lev += 1
        radius = s1 / 100.0 ** (lev - 1)
        depth = env.K ** (-max(1.0, math.log(x)))
        assert depth <= radius * (1.0 + 1e-12)
        assert env.domain.c * math.exp(-env.domain.C * math.sqrt(x)) <= depth * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "xs",
    [
        np.geomspace(1.0, 1e4, 200).tolist(),
        # a descent or a nan restarts the search at level 1; a repeat
        # continues from the level before
        [3.0, 1.0, 1e3, 2.0, 2.0, 50.0, math.nan, 7.0, 1e4, 0.5, 1.0],
        [],
    ],
    ids=["ascending", "not_ascending", "empty"],
)
@pytest.mark.parametrize("theta", [1.0, 0.3, math.pi / 2])
def test_envelope_levels_equal_envelope_level_at_every_sample(theta, xs):
    want = []
    for x in xs:
        lev = 1
        while 2.0 ** (lev - 1) * theta - math.pi / 2 <= x:
            lev += 1
        want.append(lev)
    # the sweep, and a fresh sweep of each x alone
    assert reflect.envelope_levels(theta, xs) == [reflect.envelope_levels(theta, [x])[0] for x in xs] == want


# ----------------------------------------------------------------------
# expansion certificates
# ----------------------------------------------------------------------

def test_certificate_positive():
    states = tower(unit_wedge_corner(), 5)
    base = unit_wedge_base()
    _, expansion = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0),), ()))
    gamma = truncate(expansion, 2.5)
    cert = certify_expansion(states, base, gamma, 2.5)
    assert cert.ok
    assert cert.R < cert.S < cert.R_prime
    assert cert.R_prime == pytest.approx(2.75, rel=1e-12)
    assert cert.S == pytest.approx(2.625, rel=1e-12)
    # the truncation is exact here, so every level constant vanishes
    assert all(ck == 0.0 for _, ck, _, _ in cert.step_bounds)
    assert cert.A == pytest.approx((0.99e-8) ** (-0.125 / 5.0), rel=1e-9)
    for (k, _, _, t_k), st in zip(cert.step_bounds, states):
        assert t_k <= st.s


def test_certificate_resonant_full_expansion():
    states = tower(resonant_corner(), 5)
    _, expansion = wedge_solve(WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ()))
    cert = certify_expansion(states, resonant_base(), truncate(expansion, 2.5), 2.5)
    assert cert.ok


def test_certificate_detects_missing_log_term():
    # dropping the log monomial from the resonant expansion must break
    # the window bounds by many orders of magnitude
    states = tower(resonant_corner(), 5)
    _, expansion = wedge_solve(WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ()))
    gamma = truncate(expansion, 2.5)
    stripped = log_power_series([(alpha, poly[:1]) for alpha, poly in gamma.terms])
    cert = certify_expansion(states, resonant_base(), stripped, 2.5)
    assert not cert.ok
    assert max(row[3] for row in cert.window_rows) > 1e10


def test_certificate_zero_data_trivial():
    corner = CornerSpec(
        identity_germ(),
        rotation_germ(1.0),
        IrrationalAngle(1.0),
        _zero_data(),
        _zero_data(),
        1.0,
    )
    ev, expansion = wedge_solve(WedgeProblem(IrrationalAngle(1.0), (), ()))
    cert = certify_expansion(tower(corner, 4), ev, truncate(expansion, 2.5), 2.5)
    assert cert.ok
    assert all(ck == 0.0 for _, ck, _, _ in cert.step_bounds)


def test_certificate_fails_on_nan_samples():
    # f is nan below |z| = 1e-5, which the descent through rotations keeps,
    # so levels 3 and 4 sample nan: their windows must fail, not drop those
    # samples from the folds with C_k = 0.0
    states = tower(unit_wedge_corner(), 4)
    base = unit_wedge_base()
    _, expansion = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0),), ()))
    nan_near_0 = lambda z: complex(math.nan, math.nan) if z.r < 1e-5 else base.f(z)
    cert = certify_expansion(
        states, HarmonicEvaluator(base.u, nan_near_0), truncate(expansion, 1.5), 1.5
    )
    assert not cert.ok
    assert [ok for *_, ok in cert.window_rows] == [True, True, False, False]
    assert [math.isnan(row[3]) for row in cert.window_rows] == [False, False, True, True]
    assert [math.isnan(ck) for _, ck, _, _ in cert.step_bounds] == [False, False, True, True]


def _fold_terms(p):
    """The certificate's two folds at the power p, each as the term for
    reflect._window_worst and the sample-by-sample fold it must equal."""
    def excess(r, err, size):
        e = err - 1e-12 * size
        return 0.0 if e <= 0 else e / r ** p

    def excess_folded(samples):
        resids = ((r, err - 1e-12 * size) for r, err, size in samples)
        return reflect.worst(0.0, *(e / r ** p for r, e in resids if not e <= 0))

    ratio = lambda r, err, size: err / (r ** p + 1e-12 * size)
    ratio_folded = lambda samples: reflect.worst(0.0, *(ratio(*sample) for sample in samples))
    return (excess, excess_folded), (ratio, ratio_folded)


def _samples_one_by_one(r, gammas, fs):
    """(|z|, |f - g|, |g|) per sample, raising gamma's exception before f's."""
    for rr, g, f in zip(r.tolist(), raising(gammas), raising(fs)):
        yield rr, abs(f - g), abs(g)


_FOLD_VALUES = strategies.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_FOLD_SPECIALS = strategies.sampled_from([
    0j, complex(1e308, 1e308), complex(math.nan, 0.0), complex(math.inf, 1.0), complex(5e-324, 0.0),
    ArithmeticError("no gamma"), ValueError("no f"),
])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    values=strategies.lists(
        strategies.tuples(strategies.floats(-20.0, 1.0), _FOLD_VALUES, _FOLD_VALUES), max_size=12),
    specials=strategies.lists(
        strategies.tuples(strategies.integers(0, 11), strategies.booleans(), _FOLD_SPECIALS),
        max_size=2),
    p=strategies.sampled_from([0.5, 2.625, 30.0, 400.0]),
)
def test_certificate_window_folds_are_the_sample_folds(values, specials, p):
    # radii from 1e-20 to 10, where |z|**p underflows to 0 or overflows for
    # p = 400, gamma and f values near 0, overflowing |f - g|, nan, inf and
    # exceptions: the window fold gives the sample fold's float or raises
    # its first exception
    r = np.array([10.0 ** e for e, _, _ in values])
    gammas, fs = [g for _, g, _ in values], [f for _, _, f in values]
    for i, on_f, v in specials:
        if i < len(values):
            (fs if on_f else gammas)[i] = v
    for term, folded in _fold_terms(p):
        want = outcome(lambda: folded(_samples_one_by_one(r, gammas, fs)))
        assert outcome(reflect._window_worst, (r, gammas, fs), term) == want


def test_certificate_scales_underflow():
    states = tower(resonant_corner(), 19)
    _, expansion = wedge_solve(WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ()))
    gamma = truncate(expansion, 2.5)
    stripped = log_power_series([(alpha, poly[:1]) for alpha, poly in gamma.terms])
    with pytest.raises(WindowEmpty):
        certify_expansion(states, resonant_base(), stripped, 2.5)


@pytest.mark.parametrize("eps", [1e-310, 1e-312])
def test_a_subnormal_window_is_sampled_inside_it(eps):
    # expansion_negative's corner at a subnormal eps: s_k * (1 - 1e-9) rounds back to
    # s_k, which lies in no window, so the first pass samples just below s_k instead
    # and the scales' own underflow is what the certificate raises
    states = tower(dataclasses.replace(resonant_corner(), eps=eps), 5)
    _, expansion = wedge_solve(WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ()))
    gamma = truncate(expansion, 2.5)
    stripped = log_power_series([(alpha, poly[:1]) for alpha, poly in gamma.terms])
    with pytest.raises(WindowEmpty, match="certificate scales underflow at level 1"):
        certify_expansion(states, resonant_base(), stripped, 2.5)


def test_certificate_below_leading_exponent():
    # R below the first exponent leaves gamma empty; the certificate then
    # witnesses |f| <= |z|**S directly
    states = tower(unit_wedge_corner(), 5)
    base = unit_wedge_base()
    _, expansion = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0),), ()))
    cert = certify_expansion(states, base, truncate(expansion, 0.5), 0.5)
    assert cert.ok
    assert cert.R_prime == pytest.approx(0.75, rel=1e-12)
    assert cert.S == pytest.approx(0.625, rel=1e-12)


@pytest.mark.parametrize("alpha, R", [(Fraction(1, 2), 1e308), (1, 2.0 ** 52)])
def test_exponent_window_refuses_an_R_that_floats_cannot_separate(alpha, R):
    # R * 2 overflows past the float range; at 2**52 the window's midpoint
    # R + 0.5 rounds back to R, so R' - S would be 0
    gamma = log_power_series([(alpha, (1.0,))])
    with pytest.raises(ValueError, match="no float S lies between R"):
        reflect.exponent_window(gamma, R)


@pytest.mark.parametrize("terms, R, window", [
    ([(Fraction(1, 2), (1.0,)), (Fraction(3, 2), (1.0,))], 1.0, (1.25, 1.125)),
    ([(Fraction(2, 3), (1.0,))], 1.0, (1.1666666666666665, 1.0833333333333333)),
    ([(math.sqrt(2.0), (1.0,))], 2.0, (2.2071067811865475, 2.103553390593274)),
    ([(1, (1.0,))], 0.0, (0.5, 0.25)),
], ids=["halves", "thirds", "sqrt2", "integer"])
def test_exponent_window_is_the_next_lattice_exponent(terms, R, window):
    # the next lattice exponents above R are 3/2, 4/3, 1 + sqrt(2) and 1
    assert reflect.exponent_window(log_power_series(terms), R) == window
