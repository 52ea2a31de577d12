"""Corner boundary problems on plane sectors and their closed-form solutions.

A corner is two analytic boundary curves leaving the origin with opening
angle theta, each carrying real boundary data as a fractional power
series in the curve parameter.  This module provides

* angle descriptors that make the resonance test (is beta * theta an
  integer multiple of pi) exactly decidable; every angle is declared
  RationalPi or IrrationalAngle, and a bare float is refused,
* the straight-wedge solver with closed-form harmonic solutions and the
  log-power expansion of their holomorphic completions,
* normalization of a general corner to the model form (first curve a
  ray, second curve a k = 1 germ) by root maps and one germ inverse,
* the Poisson integral and the Green function on the unit disc, with
  boundary data given as one function on the solver's node array, and
* a five-point finite-difference Laplacian for harmonicity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateTerm, InvalidGerm, PoleCoincidence
from .germs import Germ, apply_germ, compose, identity_germ, invert, is_identity, power_germ, root_pullback
from .logpower import LogPowerSeries, evaluate_many, log_power_series
from .logpower import evaluate as lp_evaluate
from .series import PuiseuxSeries, param_power
from .surface import LPoint, nudge, power


# ----------------------------------------------------------------------
# angle descriptors and resonance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPi:
    """The angle pi * p / q for positive integers p, q with p/q <= 2."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        if not (isinstance(self.q, int) and self.q >= 1):
            raise ValueError(f"q must be a positive integer, got {self.q!r}")
        if self.p > 2 * self.q:
            raise ValueError("the angle must lie in (0, 2*pi]")
        try:
            finite = math.isfinite(math.pi * self.p / self.q)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("the angle pi * p / q overflows a float")


@dataclass(frozen=True)
class IrrationalAngle:
    """An angle declared to be an irrational multiple of pi."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 2.0 * math.pi):
            raise ValueError("the angle must lie in (0, 2*pi]")


AngleLike = RationalPi | IrrationalAngle


def angle_value(theta: AngleLike) -> float:
    """The numeric value of an angle descriptor, in (0, 2*pi]; anything else,
    a bare float included, raises ValueError, as it could not decide resonance."""
    if isinstance(theta, RationalPi):
        return math.pi * theta.p / theta.q
    if isinstance(theta, IrrationalAngle):
        return theta.value
    raise ValueError(f"angle {theta!r} is not declared; declare it RationalPi or IrrationalAngle")


def scale_angle(theta: AngleLike, divisor: int) -> AngleLike:
    """The descriptor of theta / divisor, preserving the arithmetic kind."""
    if not (isinstance(divisor, int) and divisor >= 1):
        raise ValueError(f"divisor must be a positive integer, got {divisor!r}")
    if isinstance(theta, RationalPi):
        return RationalPi(theta.p, theta.q * divisor)
    return IrrationalAngle(angle_value(theta) / divisor)


def is_resonant(theta: AngleLike, beta) -> bool:
    """Whether beta * theta is an integer multiple of pi, decided exactly.

    Rational-multiple angles decide by exact fraction arithmetic (floats
    convert to the exact rationals they represent); declared irrational
    angles resonate only for beta = 0.  An undeclared angle raises
    ValueError, as in angle_value.
    """
    if isinstance(beta, bool) or not isinstance(beta, (int, float, Fraction)):
        raise ValueError(f"unsupported exponent {beta!r}")
    if beta < 0:
        raise ValueError(f"exponent must be nonnegative, got {beta!r}")
    if isinstance(theta, RationalPi):
        return (Fraction(beta) * Fraction(theta.p, theta.q)).denominator == 1
    angle_value(theta)  # refuses an undeclared angle
    return beta == 0


def _resonance_order(theta: RationalPi, beta) -> int:
    ratio = Fraction(beta) * Fraction(theta.p, theta.q)
    return int(ratio)


# ----------------------------------------------------------------------
# straight wedges
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeProblem:
    """Dirichlet data on the sector 0 < arg z < theta.

    edge0 lists (beta, coeff) power data on the edge arg z = 0, edge1 on
    arg z = theta; coefficients are real.  Exponent-zero terms must carry
    the same constant on both edges, since the solution is continuous at
    the corner.
    """

    theta: AngleLike
    edge0: tuple
    edge1: tuple

    def __post_init__(self):
        angle_value(self.theta)
        clean = {"edge0": [], "edge1": []}
        for name in ("edge0", "edge1"):
            for beta, c in getattr(self, name):
                if isinstance(beta, bool) or not isinstance(beta, (int, float, Fraction)):
                    raise ValueError(f"{name}: unsupported exponent {beta!r}")
                if beta < 0:
                    raise ValueError(f"{name}: exponents must be nonnegative")
                if isinstance(c, complex):
                    if c.imag != 0:
                        raise ValueError(f"{name}: boundary data must be real")
                    c = c.real
                clean[name].append((beta, float(c)))
            object.__setattr__(self, name, tuple(clean[name]))
        c0 = sum(c for beta, c in self.edge0 if beta == 0)
        c1 = sum(c for beta, c in self.edge1 if beta == 0)
        if c0 != c1:
            raise ValueError("constant boundary data must agree at the corner")


@dataclass(frozen=True)
class HarmonicEvaluator:
    """A harmonic function u on a sector and its holomorphic completion f.

    u maps surface points to reals; f maps surface points to complex
    values with Re f = u, and is required: construction raises ValueError
    when f is None.  f_many, when present, is f at many points at once: it
    maps float64 arrays r, phi to (re, im, ok), where re[i] + i*im[i] is
    complex(f(LPoint(r[i], phi[i]))) bit for bit wherever ok[i] is True,
    and ok[i] is False wherever that call would raise (or the batch leaves
    the point to f); without it, extend_eval_many takes extend_eval at
    each point.  An evaluator carries nothing else: the sector and the
    data it solves live with the caller.
    """

    u: Callable[[LPoint], float]
    f: Callable[[LPoint], complex]
    f_many: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def __post_init__(self):
        if self.f is None:
            raise ValueError("the base evaluator must provide a holomorphic completion")


def wedge_solve(problem: WedgeProblem) -> tuple[HarmonicEvaluator, LogPowerSeries]:
    """Solve the wedge Dirichlet problem term by term in closed form.

    Each non-resonant power t**beta contributes a pure power of z; each
    resonant one (beta * theta in pi * Z) contributes a z**beta * log z
    term.  Returns the evaluator (trigonometric closed forms for u, the
    expansion itself for f) and the holomorphic completion as a finite
    log-power series.  The completion is normalized to contain no
    homogeneous solution of the zero-data problem.  The evaluator's
    f_many is logpower.evaluate_many on the same expansion.  A
    non-resonant term needs c / sin(beta * theta) and, on edge 0,
    cot(beta * theta) as finite floats; DegenerateTerm refuses one whose
    sine underflows to 0 or has no value (beta * theta overflows), or
    whose quotient overflows.
    """
    theta = angle_value(problem.theta)
    pieces = []
    lp_terms = []
    const = sum(float(c) for beta, c in problem.edge0 if beta == 0)
    if const:
        lp_terms.append((0, (complex(const),)))
    for side, edge in ((0, problem.edge0), (1, problem.edge1)):
        for i, (beta, c) in enumerate(edge):
            if c == 0 or beta == 0:
                continue
            b = float(beta)
            if not is_resonant(problem.theta, beta):
                x = b * theta
                s = math.sin(x) if math.isfinite(x) else math.nan
                if not (s and math.isfinite(c / s)):
                    raise DegenerateTerm(side, i, f"c / sin(beta * theta) is not finite: "
                                         f"sin({b!r} * {theta!r}) = {s!r}")
                if side == 0:
                    t = math.tan(x)
                    if not math.isfinite(1.0 / t):
                        raise DegenerateTerm(side, i, f"cot(beta * theta) is not finite: "
                                             f"tan({b!r} * {theta!r}) = {t!r}")
                    pieces.append(("0n", b, c / s))
                    lp_terms.append((beta, (c * (1.0 + 1j / t),)))
                else:
                    pieces.append(("1n", b, c / s))
                    lp_terms.append((beta, (-1j * c / s,)))
            else:
                n = _resonance_order(problem.theta, beta)
                if side == 0:
                    pieces.append(("0r", b, c))
                    lp_terms.append((beta, (complex(c), 1j * c / theta)))
                else:
                    sign = -1.0 if n % 2 else 1.0
                    pieces.append(("1r", b, c * sign))
                    lp_terms.append((beta, (0j, -1j * c * sign / theta)))
    expansion = log_power_series(lp_terms)

    def u_of(z: LPoint) -> float:
        r, phi = z.r, z.phi
        total = const
        logr = math.log(r)
        for kind, b, amp in pieces:
            rb = r ** b
            if kind == "0n":
                total += amp * rb * math.sin(b * (theta - phi))
            elif kind == "1n":
                total += amp * rb * math.sin(b * phi)
            elif kind == "0r":
                total += amp * rb * (
                    math.cos(b * phi)
                    - (math.sin(b * phi) * logr + phi * math.cos(b * phi)) / theta
                )
            else:
                total += (amp / theta) * rb * (
                    math.sin(b * phi) * logr + phi * math.cos(b * phi)
                )
        return total

    f_many = lambda r, phi: evaluate_many(expansion, r, phi)
    return HarmonicEvaluator(u_of, lambda z: lp_evaluate(expansion, z), f_many), expansion


# ----------------------------------------------------------------------
# corner data and normalization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CornerSpec:
    """A corner problem: curves psi, chi with k >= 1, opening theta,
    real boundary data g0 (on psi) and g1 (on chi) valid for parameter
    values below eps."""

    psi: Germ
    chi: Germ
    theta: AngleLike
    g0: PuiseuxSeries
    g1: PuiseuxSeries
    eps: float

    def __post_init__(self):
        angle_value(self.theta)
        if self.psi.k < 1 or self.chi.k < 1:
            raise InvalidGerm("boundary curves need k >= 1")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a finite positive real, got {self.eps!r}")
        for name, g in (("g0", self.g0), ("g1", self.g1)):
            if any(c.imag != 0 for c in g.base.coeffs):
                raise ValueError(f"{name} must have real coefficients")


@dataclass(frozen=True)
class TransformRecord:
    """The coordinate changes applied by normalize, in application order.

    A stage ("root", n) maps z to z**(1/n); a stage ("germ", g_inv, g)
    applies g_inv.  forward maps an original point into the normalized
    chart through the stages, backward inverts it through them in
    reverse; the record holds nothing but its stages.
    """

    stages: tuple

    def forward(self, z: LPoint) -> LPoint:
        for stage in self.stages:
            z = power(1.0 / stage[1], z) if stage[0] == "root" else apply_germ(stage[1], z)
        return z

    def backward(self, z: LPoint) -> LPoint:
        for stage in reversed(self.stages):
            z = power(float(stage[1]), z) if stage[0] == "root" else apply_germ(stage[2], z)
        return z


@dataclass(frozen=True)
class NormalizedCorner:
    corner: CornerSpec
    record: TransformRecord


def normalize(spec: CornerSpec, order: int | None = None) -> NormalizedCorner:
    """Normalize a corner to the model form: psi the identity ray, chi a
    k = 1 germ, without changing the solved function.

    The pipeline is: reparametrize chi by t -> t**k(psi) if k(psi) does
    not divide k(chi); pull both curves back by the root map of order
    k(psi); compose with the inverse of the straightened first curve;
    pull back by the root map of order k of the remaining second curve.
    Data series follow their parameters, the opening angle divides by
    the product of the two root orders, and the record lists the stages
    whose chain is the point maps.
    """
    if is_identity(spec.psi) and spec.chi.k == 1:
        return NormalizedCorner(spec, TransformRecord(()))

    m = spec.psi.k
    chi = spec.chi
    g1 = spec.g1
    eps0 = spec.eps
    eps1 = spec.eps
    stages = []
    if chi.k % m != 0:
        chi = compose(chi, power_germ(m), order)
        g1 = param_power(g1, m, order)
        eps1 = spec.eps ** (1.0 / m)

    psi1 = root_pullback(spec.psi, m, order)
    chi1 = root_pullback(chi, m, order)
    if m > 1:
        stages.append(("root", m))

    if is_identity(psi1):
        chi2 = chi1
    else:
        psi1_inv = invert(psi1, order)
        chi2 = compose(psi1_inv, chi1, order)
        stages.append(("germ", psi1_inv, psi1))

    n3 = chi2.k
    chi3 = root_pullback(chi2, n3, order)
    g0 = spec.g0
    if n3 > 1:
        stages.append(("root", n3))
        g0 = param_power(g0, n3, order)
        eps0 = spec.eps ** (1.0 / n3)

    theta3 = scale_angle(spec.theta, m * n3)
    corner = CornerSpec(identity_germ(), chi3, theta3, g0, g1, min(eps0, eps1))
    return NormalizedCorner(corner, TransformRecord(tuple(stages)))


# ----------------------------------------------------------------------
# Poisson integral and Green function on the unit disc
# ----------------------------------------------------------------------

def _disc_point(xi: complex) -> complex:
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise ValueError(f"the evaluation point must satisfy |xi| < 1, got |xi| = {abs(xi)}")
    return xi


def poisson_disk(h: Callable[[complex], float], xi: complex, nodes: int = 512) -> float:
    """The Poisson integral of boundary data h at a point of the open
    unit disc, by the equispaced trapezoidal rule on the circle; h takes
    one node at a time, as a Python complex."""
    return unit_disk_solver(nodes)(lambda eta: [float(h(e)) for e in eta.tolist()])(_disc_point(xi))


def unit_disk_solver(nodes: int = 512) -> Callable:
    """A Dirichlet solver for the unit disc: boundary data to evaluator.

    solve(values) makes one values call on the node array, the complex128
    nodes eta, and takes its result as the data, one float per node;
    any other shape raises ValueError.  The evaluator it returns forms
    only the Poisson weights of each point.  poisson_disk is one such
    solve and one evaluation, and every float, from the nodes and the
    data values to the weights and their mean, is computed by the same
    expressions in the same order, so a reused solve and poisson_disk
    agree bit for bit.
    """
    if not (isinstance(nodes, int) and nodes >= 16):
        raise ValueError(f"need at least 16 boundary nodes, got {nodes!r}")
    eta = np.exp(2j * np.pi * np.arange(nodes) / nodes)

    def solve(values: Callable[[np.ndarray], Sequence[float]]) -> Callable[[complex], float]:
        vals = np.array(values(eta), dtype=float)
        if vals.shape != eta.shape:
            raise ValueError(f"boundary data needs one float per node, {nodes} in all; got shape {vals.shape}")

        def u(xi: complex) -> float:
            xi = _disc_point(xi)
            weights = (1.0 - abs(xi) ** 2) / np.abs(eta - xi) ** 2
            return float(np.mean(weights * vals))

        return u

    return solve


def _off_pole(x: complex, y: complex) -> complex:
    x = complex(x)
    if x == complex(y):
        raise PoleCoincidence("the Green function argument coincides with the pole")
    return x


def green_pole(solve: Callable, y: complex) -> Callable[[complex], float]:
    """x -> G(x, y) = log(1/|x - y|) - u(x), where u solves the Dirichlet
    problem with boundary data log(1/|t - y|), once for the pole y.

    The data is a function on the node array: t - y, np.hypot of its parts
    (Python's abs; numpy's complex abs rounds differently), 1.0 over it
    and math.log per element (numpy's log rounds differently).  When a
    modulus is 0, inf or nan (a pole on a node, an overflow, a nan pole),
    every node goes through the per-node rule log(1.0 / abs(t - y))
    instead, which raises or gives inf or nan as Python does.
    """
    y = complex(y)

    def values(eta: np.ndarray) -> list:
        diff = eta - y
        size = np.hypot(diff.real, diff.imag)
        if not np.all((0.0 < size) & (size < math.inf)):
            return [math.log(1.0 / abs(t - y)) for t in eta.tolist()]
        return list(map(math.log, (1.0 / size).tolist()))

    u = solve(values)

    def green(x: complex) -> float:
        x = _off_pole(x, y)
        return math.log(1.0 / abs(x - y)) - float(u(x))

    return green


def green_function(solve: Callable, y: complex, x: complex) -> float:
    """The Green function G(x, y) of green_pole, with its own solve."""
    return green_pole(solve, y)(_off_pole(x, y))


def disk_green_reference(y: complex, x: complex) -> float:
    """Closed form of the unit-disc Green function."""
    x = _off_pole(x, y)
    y = complex(y)
    return math.log(abs(1.0 - x * y.conjugate()) / abs(x - y))


# ----------------------------------------------------------------------
# harmonicity checks
# ----------------------------------------------------------------------

def fd_laplacian(u: Callable[[LPoint], float], z: LPoint, step: float) -> float:
    """Five-point finite-difference Laplacian of u at a surface point,
    with the stencil kept on the sheet of z."""
    total = 0.0
    for dz in (step, -step, 1j * step, -1j * step):
        total += u(nudge(z, dz))
    return (total - 4.0 * u(z)) / step ** 2
