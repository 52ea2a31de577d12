from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from logsurf import (
    CornerSpec,
    InvalidGerm,
    IrrationalAngle,
    LPoint,
    PoleCoincidence,
    RationalPi,
    WedgeProblem,
    angle_value,
    apply_germ,
    compose,
    disk_green_reference,
    fd_laplacian,
    green_function,
    green_pole,
    identity_germ,
    invert,
    is_identity,
    is_log_free,
    is_resonant,
    make_germ,
    normalize,
    poisson_disk,
    power_germ,
    puiseux_from_terms,
    rotation_germ,
    scale_angle,
    unit_disk_solver,
    wedge_solve,
)
from logsurf.germs import Germ
from logsurf.series import PowerSeries

from conftest import outcome, surface_dist


# ----------------------------------------------------------------------
# angle descriptors
# ----------------------------------------------------------------------

def test_rational_pi_validation():
    RationalPi(1, 2)
    RationalPi(4, 2)
    with pytest.raises(ValueError):
        RationalPi(0, 2)
    with pytest.raises(ValueError):
        RationalPi(1, 0)
    with pytest.raises(ValueError):
        RationalPi(5, 2)
    with pytest.raises(ValueError):
        RationalPi(1.0, 2)


def test_irrational_angle_range():
    IrrationalAngle(1.0)
    IrrationalAngle(2.0 * math.pi)
    with pytest.raises(ValueError):
        IrrationalAngle(0.0)
    with pytest.raises(ValueError):
        IrrationalAngle(7.0)


def test_angle_value():
    assert angle_value(RationalPi(1, 2)) == pytest.approx(math.pi / 2, rel=1e-15)
    assert angle_value(RationalPi(4, 2)) == pytest.approx(2 * math.pi, rel=1e-15)
    assert angle_value(IrrationalAngle(1.3)) == 1.3
    # a bare float, even one inside (0, 2*pi], is not a declared angle
    for undeclared in (1.5, 0.0, 1, True, "half"):
        with pytest.raises(ValueError, match="declare it RationalPi or IrrationalAngle"):
            angle_value(undeclared)


def test_scale_angle_preserves_kind():
    assert scale_angle(RationalPi(1, 2), 3) == RationalPi(1, 6)
    assert scale_angle(IrrationalAngle(1.0), 4) == IrrationalAngle(0.25)
    with pytest.raises(ValueError, match="declare it RationalPi or IrrationalAngle"):
        scale_angle(1.0, 2)
    with pytest.raises(ValueError):
        scale_angle(RationalPi(1, 2), 0)


def test_resonance_decisions():
    # exponent 0 resonates for either declaration
    assert is_resonant(IrrationalAngle(1.23), 0)
    assert is_resonant(RationalPi(1, 3), 0)
    assert is_resonant(RationalPi(1, 2), 2)
    assert not is_resonant(RationalPi(1, 2), 3)
    assert is_resonant(RationalPi(1, 2), 4.0)
    assert not is_resonant(RationalPi(1, 2), 0.5)
    assert is_resonant(RationalPi(3, 2), Fraction(2, 3))
    assert not is_resonant(IrrationalAngle(1.0), 7)
    # a bare float angle is refused, whatever the exponent
    for beta in (2, 0):
        with pytest.raises(ValueError, match="declare it RationalPi or IrrationalAngle"):
            is_resonant(1.5707963, beta)
    with pytest.raises(ValueError):
        is_resonant(RationalPi(1, 2), -1)
    with pytest.raises(ValueError):
        is_resonant(RationalPi(1, 2), True)


# ----------------------------------------------------------------------
# wedge Dirichlet problems
# ----------------------------------------------------------------------

def test_wedge_validation():
    theta = IrrationalAngle(1.0)
    with pytest.raises(ValueError):
        WedgeProblem(theta, ((-1, 1.0),), ())
    with pytest.raises(ValueError):
        WedgeProblem(theta, ((1, 1.0 + 2.0j),), ())
    with pytest.raises(ValueError):
        WedgeProblem(theta, ((0, 1.0),), ())
    p = WedgeProblem(theta, ((0, 2.0), (1, complex(3.0))), ((0, 2.0),))
    assert p.edge0[1] == (1, 3.0)


def test_wedge_boundary_values():
    problem = WedgeProblem(
        IrrationalAngle(1.0),
        ((1, 1.0),),
        ((Fraction(3, 2), 0.5),),
    )
    ev, _ = wedge_solve(problem)
    for i in range(1, 21):
        t = 0.05 * i
        assert ev.u(LPoint(t, 0.0)) == pytest.approx(t, abs=1e-12)
        assert ev.u(LPoint(t, 1.0)) == pytest.approx(0.5 * t ** 1.5, abs=1e-12)


def test_wedge_interior_harmonic_and_analytic():
    problem = WedgeProblem(
        IrrationalAngle(1.0),
        ((1, 1.0),),
        ((Fraction(3, 2), 0.5),),
    )
    ev, _ = wedge_solve(problem)
    step = 1e-3
    for i in range(20):
        z = LPoint(0.5 + 0.025 * i, 0.1 + 0.04 * i)
        lap = fd_laplacian(ev.u, z, step)
        assert abs(lap) / max(1.0, abs(ev.u(z))) < 1e-4
        assert ev.f(z).real == pytest.approx(ev.u(z), abs=1e-10)


def test_wedge_resonant_log_term():
    problem = WedgeProblem(RationalPi(1, 2), ((2, 1.0),), ())
    ev, expansion = wedge_solve(problem)
    assert not is_log_free(expansion)
    ((alpha, coeffs),) = expansion.terms
    assert alpha == 2
    assert coeffs[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert coeffs[1] == pytest.approx(2.0j / math.pi, rel=1e-15)
    theta = math.pi / 2
    for i in range(1, 11):
        t = 0.1 * i
        assert ev.u(LPoint(t, 0.0)) == pytest.approx(t * t, abs=1e-12)
        assert ev.u(LPoint(t, theta)) == pytest.approx(0.0, abs=1e-12)
    for i in range(10):
        z = LPoint(0.3 + 0.07 * i, 0.1 + 0.13 * i)
        assert ev.f(z).real == pytest.approx(ev.u(z), abs=1e-10)


def test_wedge_nonresonant_log_free():
    _, e1 = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0), (2, 0.5)), ((3, 2.0),)))
    assert is_log_free(e1)
    _, e2 = wedge_solve(WedgeProblem(RationalPi(1, 2), ((3, 1.0),), ()))
    assert is_log_free(e2)


def test_wedge_undeclared_angle():
    # a bare float angle is refused at construction, even with
    # constant-only data that never asks the resonance question
    for edge0, edge1 in ((((2, 1.0),), ()), (((0, 2.0),), ((0, 2.0),))):
        with pytest.raises(ValueError, match="declare it RationalPi or IrrationalAngle"):
            WedgeProblem(1.5707963, edge0, edge1)
    ev, _ = wedge_solve(WedgeProblem(IrrationalAngle(1.5707963), ((0, 2.0),), ((0, 2.0),)))
    assert ev.u(LPoint(0.5, 0.7)) == pytest.approx(2.0, abs=1e-14)


def test_wedge_oracle_straight_line():
    # data t on the first edge of the unit-angle wedge: f(z) = (1 + i cot 1) z,
    # and the line continuation gives u = -t on the ray of argument 2
    ev, expansion = wedge_solve(WedgeProblem(IrrationalAngle(1.0), ((1, 1.0),), ()))
    ((alpha, coeffs),) = expansion.terms
    assert alpha == 1
    assert coeffs[0] == pytest.approx(1.0 + 1.0j / math.tan(1.0), rel=1e-15)
    for i in range(1, 11):
        t = 0.1 * i
        assert ev.u(LPoint(t, 2.0)) == pytest.approx(-t, abs=1e-12)


# ----------------------------------------------------------------------
# corner normalization
# ----------------------------------------------------------------------

def _data_t(radius: float = 2.0):
    return puiseux_from_terms([(1, 1.0)], radius)


def test_corner_spec_validation():
    flat = Germ(LPoint(1.0, 0.0), 0, PowerSeries((0.0j,)), 1.0)
    with pytest.raises(InvalidGerm):
        CornerSpec(flat, rotation_germ(1.0), IrrationalAngle(1.0), _data_t(), _data_t(), 1.0)
    with pytest.raises(ValueError):
        CornerSpec(identity_germ(), rotation_germ(1.0), IrrationalAngle(1.0), _data_t(), _data_t(), 0.0)
    with pytest.raises(ValueError):
        CornerSpec(identity_germ(), rotation_germ(1.0), IrrationalAngle(1.0), _data_t(), _data_t(), math.inf)
    bad = puiseux_from_terms([(1, 1.0 + 0.5j)], 2.0)
    with pytest.raises(ValueError):
        CornerSpec(identity_germ(), rotation_germ(1.0), IrrationalAngle(1.0), bad, _data_t(), 1.0)


def test_normalize_identity_short_circuit():
    spec = CornerSpec(identity_germ(), rotation_germ(1.0), IrrationalAngle(1.0), _data_t(), _data_t(), 1.0)
    norm = normalize(spec)
    assert norm.corner is spec
    assert norm.record.stages == ()
    z = LPoint(0.3, 0.7)
    assert surface_dist(norm.record.forward(z), z) == 0.0


def test_normalize_root_case():
    # psi(t) = t**2, chi(t) = e^{i pi/2} t**2, opening pi/2:
    # one square-root pullback straightens both curves at once
    psi = power_germ(2)
    chi = make_germ(LPoint(1.0, math.pi / 2), 2, (0.0,), 1e12)
    spec = CornerSpec(psi, chi, RationalPi(1, 2), _data_t(), _data_t(), 1.0)
    norm = normalize(spec)
    assert [s[0] for s in norm.record.stages] == ["root"]
    assert norm.record.stages[0][1] == 2
    assert norm.corner.theta == RationalPi(1, 4)
    assert is_identity(norm.corner.psi)
    assert norm.corner.chi.k == 1
    assert norm.corner.chi.a.r == pytest.approx(1.0, rel=1e-12)
    assert norm.corner.chi.a.phi == pytest.approx(math.pi / 4, rel=1e-12)
    # the chart maps carry curve points onto the straightened curves
    t = LPoint(0.01, 0.0)
    assert surface_dist(norm.record.forward(apply_germ(psi, t)), t) < 1e-12
    img = norm.record.forward(apply_germ(chi, t))
    want = apply_germ(norm.corner.chi, t)
    assert surface_dist(img, want) < 1e-12
    z = LPoint(0.37, 1.1)
    assert surface_dist(norm.record.backward(norm.record.forward(z)), z) < 1e-12


def test_normalize_germ_stage():
    psi = make_germ(LPoint(1.0, 0.3), 1, (0.0, 0.1), 10.0)
    chi = rotation_germ(1.3)
    spec = CornerSpec(psi, chi, IrrationalAngle(1.0), _data_t(), _data_t(), 0.5)
    norm = normalize(spec)
    assert [s[0] for s in norm.record.stages] == ["germ"]
    assert is_identity(norm.corner.psi)
    assert norm.corner.theta == IrrationalAngle(1.0)
    want = compose(invert(psi), chi)
    z = LPoint(want.radius / 100.0, 0.4)
    assert surface_dist(apply_germ(norm.corner.chi, z), apply_germ(want, z)) < 1e-9
    t = LPoint(0.001, 0.0)
    assert surface_dist(norm.record.forward(apply_germ(psi, t)), t) < 1e-9


# ----------------------------------------------------------------------
# disc potential theory
# ----------------------------------------------------------------------

def test_poisson_constant_mean_value():
    for xi in (0.0, 0.3 + 0.2j, -0.7j):
        assert poisson_disk(lambda t: 1.0, xi) == pytest.approx(1.0, abs=1e-10)


def test_poisson_harmonic_re():
    for xi in (0.0, 0.4 - 0.3j, 0.6 + 0.1j):
        assert poisson_disk(lambda t: t.real, xi) == pytest.approx(xi.real, abs=1e-6)


def test_poisson_trig_modes():
    def h(t: complex) -> float:
        a = math.atan2(t.imag, t.real)
        return 0.5 + math.cos(a) - 0.5 * math.sin(a) + 2.0 * math.sin(3.0 * a)

    r, phi = 0.4, 0.7
    xi = r * complex(math.cos(phi), math.sin(phi))
    want = 0.5 + r * (math.cos(phi) - 0.5 * math.sin(phi)) + 2.0 * r ** 3 * math.sin(3.0 * phi)
    assert poisson_disk(h, xi) == pytest.approx(want, abs=1e-8)


def test_poisson_validation():
    with pytest.raises(ValueError):
        poisson_disk(lambda t: 1.0, 1.0)
    with pytest.raises(ValueError):
        poisson_disk(lambda t: 1.0, 0.0, nodes=8)


@pytest.mark.parametrize(
    "values",
    [lambda eta: 2.5, lambda eta: [2.5] * (len(eta) - 1), lambda eta: [[2.5]] * len(eta)],
    ids=["scalar", "one_short", "column"],
)
def test_disc_solve_needs_one_float_per_node(values):
    # a scalar would broadcast over the nodes; the solve refuses it
    with pytest.raises(ValueError, match="one float per node"):
        unit_disk_solver(64)(values)


def test_green_matches_closed_form():
    solve = unit_disk_solver(1024)
    y = 0.3 + 0.2j
    for x in (0.0, 0.5 - 0.1j, -0.3 + 0.4j):
        got = green_function(solve, y, x)
        want = disk_green_reference(y, x)
        assert got == pytest.approx(want, abs=1e-5)
        assert want > 0.0
    x = -0.3 + 0.4j
    assert green_function(solve, y, x) == pytest.approx(green_function(solve, x, y), abs=1e-5)
    with pytest.raises(PoleCoincidence):
        green_function(solve, y, y)
    with pytest.raises(PoleCoincidence):
        disk_green_reference(y, y)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_reused_disc_solve_is_poisson_disk_bit_for_bit():
    # every point of both shipped disc scenarios, from one solve per data
    poisson = json.loads((SCENARIOS / "poisson_disk.json").read_text())
    terms = [(t["n"], t.get("cos", 0.0), t.get("sin", 0.0)) for t in poisson["data"]["terms"]]

    def h(t):
        a = math.atan2(t.imag, t.real)
        return sum(c * math.cos(n * a) + s * math.sin(n * a) for n, c, s in terms)

    nodes = poisson["nodes"]
    u = unit_disk_solver(nodes)(lambda eta: list(map(h, eta.tolist())))
    for p in poisson["points"]:
        xi = complex(p["re"], p["im"])
        assert u(xi).hex() == poisson_disk(h, xi, nodes).hex()

    green = json.loads((SCENARIOS / "green_disk.json").read_text())
    solve = unit_disk_solver(green["nodes"])
    y = complex(green["y"]["re"], green["y"]["im"])
    green_y = green_pole(solve, y)
    for p in green["x_list"]:
        x = complex(p["re"], p["im"])
        for pole, at, got in ((y, x, green_y(x)), (x, y, green_pole(solve, x)(y))):
            data = lambda t: math.log(1.0 / abs(t - pole))
            want = math.log(1.0 / abs(at - pole)) - poisson_disk(data, at, green["nodes"])
            assert got.hex() == want.hex() == green_function(solve, pole, at).hex()
    with pytest.raises(PoleCoincidence):
        green_y(y)


@pytest.mark.parametrize("y", [0.3 + 0.2j, 1.0, complex(math.inf, 0.0), complex(math.nan, 0.0)])
def test_green_pole_data_on_the_node_array_is_the_per_node_data(y):
    # a pole inside the disc, on a node (1.0 / 0.0 raises), at infinity
    # (log(0.0) raises) and nan: the float, or the exception, of the data
    # log(1/|t - y|) evaluated node by node
    x = 0.1j

    def per_node():
        data = lambda t: math.log(1.0 / abs(t - y))
        return math.log(1.0 / abs(x - y)) - poisson_disk(data, x, 64)

    assert outcome(lambda: green_pole(unit_disk_solver(64), y)(x)) == outcome(per_node)


def test_fd_laplacian_calibration():
    z = LPoint(0.8, 0.4)
    harmonic = lambda p: p.r ** 2 * math.cos(2.0 * p.phi)
    assert abs(fd_laplacian(harmonic, z, 1e-3)) < 1e-8
    quadratic = lambda p: p.r ** 2
    assert fd_laplacian(quadratic, z, 1e-3) == pytest.approx(4.0, abs=1e-6)
