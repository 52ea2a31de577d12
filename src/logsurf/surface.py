"""Points and maps on the Riemann surface of the logarithm.

The surface is the set of pairs (r, phi) with r > 0 and phi real.  The
argument phi is never reduced modulo 2*pi: two points with the same
projection but arguments differing by 2*pi are different points (they
live on different sheets).  All operations are pure functions on
immutable values.

>>> z = LPoint(4.0, 2 * math.pi)
>>> cpow(0.5, z)            # square root on the second sheet
(-2+...j)
>>> project(z)              # projection collapses sheets
(4-...j)

cpow_many and valid_many are cpow and LPoint's check on float64 arrays.
Each array twin (a *_many function) gives its scalar rule's floats where
its ok mask holds; fallback_many runs the other points through the scalar.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class LPoint:
    """A point (r, phi) on the surface; r is the modulus, phi the unreduced argument."""

    r: float
    phi: float

    def __post_init__(self):
        r, phi = self.r, self.phi
        # two valid Python floats, the common case, pass on the comparisons alone
        if type(r) is float and type(phi) is float and 0.0 < r < math.inf and -math.inf < phi < math.inf:
            return
        if not (isinstance(r, (int, float)) and 0 < r < math.inf):
            raise ValueError(f"modulus must be a finite positive real, got {r!r}")
        if not (isinstance(phi, (int, float)) and -math.inf < phi < math.inf):
            raise ValueError(f"argument must be a finite real, got {phi!r}")


@dataclass(frozen=True)
class QuadraticDomain:
    """The region 0 < r < c * exp(-C * sqrt(|phi|)) on the surface."""

    c: float
    C: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a finite positive real, got {self.c!r}")
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be a finite positive real, got {self.C!r}")


ONE = LPoint(1.0, 0.0)


def mul(a: LPoint, b: LPoint) -> LPoint:
    """Multiply two surface points: moduli multiply, arguments add."""
    return LPoint(a.r * b.r, a.phi + b.phi)


def power(rho: float, z: LPoint) -> LPoint:
    """The power map z -> (r**rho, rho*phi) for rho >= 0; power(0, z) is the unit."""
    if rho < 0:
        raise ValueError(f"power exponent must be nonnegative, got {rho!r}")
    if rho == 0:
        return ONE
    return LPoint(z.r ** rho, rho * z.phi)


def tau(z: LPoint) -> LPoint:
    """The conjugation involution (r, phi) -> (r, -phi)."""
    return LPoint(z.r, -z.phi)


def logmap(z: LPoint) -> complex:
    """The global logarithm log r + i*phi; a bijection onto the plane."""
    return complex(math.log(z.r), z.phi)


def cpow(alpha: float, z: LPoint) -> complex:
    """The complex value exp(alpha * logmap(z)) for alpha >= 0.

    For phi in (-pi, pi) this agrees with the principal-branch power of
    the projected point; on other sheets it differs, which is the point.
    """
    if alpha < 0:
        raise ValueError(f"power exponent must be nonnegative, got {alpha!r}")
    if alpha == 0:
        return 1.0 + 0.0j
    return cmath.exp(alpha * complex(math.log(z.r), z.phi))


# For real exponents x up to this, cmath.exp takes its plain branch,
# exp(x) * (cos y + i sin y), and its result is finite; its
# large-argument branch starts at log(DBL_MAX / 4), about 708.4.
_PLAIN_EXP_MAX = 700.0


def cpow_many(alpha: float, r, phi, log_r=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cpow(alpha, LPoint(r[i], phi[i])) at many points, as (re, im, ok).

    Where ok is True, re[i] + i*im[i] is the complex cpow returns, bit for
    bit.  ok is False where LPoint(r[i], phi[i]) would raise, or where the
    real part x of alpha * logmap(z) is not finite or exceeds 700, or its
    imaginary part y is not finite: run those points through cpow, which
    gives its value or raises (OverflowError past the largest float).
    Python's float * complex promotes alpha to alpha + 0j, so x = alpha *
    log r - 0 * phi and y = alpha * phi + 0 * log r, written out on float64
    arrays.  math.log and math.exp run per element, as cmath does (numpy's
    log and exp round differently); np.cos and np.sin form the rect, as
    cmath.exp does for x up to 708.4.  log_r, when given, is math.log of
    each valid r, so a caller taking several powers at the same points
    takes the logarithms once.
    """
    if alpha < 0:
        raise ValueError(f"power exponent must be nonnegative, got {alpha!r}")
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    valid = valid_many(r, phi)
    if alpha == 0:
        return np.ones(len(r)), np.zeros(len(r)), valid
    with np.errstate(all="ignore"):
        if log_r is None:
            log_r = log_many(r, valid)
        x = alpha * log_r - 0.0 * phi
        y = alpha * phi + 0.0 * log_r
        ok = valid & np.isfinite(x) & (x <= _PLAIN_EXP_MAX) & np.isfinite(y)
        scale = np.array(list(map(math.exp, np.where(ok, x, 0.0).tolist())))
        return scale * np.cos(y), scale * np.sin(y), ok


def valid_many(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Where LPoint(r[i], phi[i]) would be built rather than raise."""
    return (0.0 < r) & (r < math.inf) & np.isfinite(phi)


def log_many(r: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """math.log(r[i]) where valid[i], and 0.0 elsewhere."""
    return np.array(list(map(math.log, np.where(valid, r, 1.0).tolist())))


def fallback_many(scalar: Callable[[LPoint], complex], r, phi, re, im, ok) -> list:
    """re[i] + i*im[i] where ok[i], else what scalar(LPoint(r[i], phi[i]))
    returns or the exception that it (or LPoint) raises, as a list."""
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    out = values.tolist()
    for i in np.flatnonzero(~ok).tolist():
        try:
            out[i] = scalar(LPoint(float(r[i]), float(phi[i])))
        except Exception as exc:
            out[i] = exc
    return out


def raising(results: Iterable) -> Iterator:
    """Each result in turn; an exception among them is raised when reached."""
    for value in results:
        if isinstance(value, Exception):
            raise value
        yield value


def project(z: LPoint) -> complex:
    """Project to the punctured plane: r * exp(i*phi).  Never zero."""
    return cmath.rect(z.r, z.phi)


def nudge(z: LPoint, delta: complex) -> LPoint:
    """Move z by the complex offset delta without changing sheets.

    The new argument stays within pi of z.phi, so finite-difference
    stencils built from nudge never jump sheets.  Requires
    |delta| < |z|.
    """
    w = 1 + delta / project(z)
    if w == 0:
        raise ValueError("nudge through the puncture is not defined")
    return LPoint(z.r * abs(w), z.phi + cmath.phase(w))

