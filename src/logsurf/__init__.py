"""Symbolic-numeric toolkit for harmonic continuation on the logarithmic surface.

The package models points on the Riemann surface of the logarithm,
truncated Puiseux and log-power series with explicit radii and tail
bounds, composition germs, closed-form wedge Dirichlet solutions, and
the iterated reflection that extends a corner solution to quadratic
domains, together with sampled certificates for the printed bounds.
"""

from .config import DEFAULT_TRUNC_ORDER, get_trunc_order, trunc_order
from .corner import (
    CornerSpec,
    HarmonicEvaluator,
    IrrationalAngle,
    NormalizedCorner,
    RationalPi,
    TransformRecord,
    WedgeProblem,
    angle_value,
    disk_green_reference,
    fd_laplacian,
    green_function,
    green_pole,
    is_resonant,
    normalize,
    poisson_disk,
    scale_angle,
    unit_disk_solver,
    wedge_solve,
)
from .errors import (
    DegenerateTerm,
    InvalidGerm,
    LogSurfError,
    NotInvertible,
    NotNormalized,
    OutOfRadius,
    OutsideExtension,
    PoleCoincidence,
    PowerUnderflow,
    SchemaError,
    ScenarioError,
    WindowEmpty,
)
from .germs import (
    Germ,
    apply_germ,
    compose,
    identity_germ,
    invert,
    is_identity,
    is_ray,
    make_germ,
    power_germ,
    root_pullback,
    rotation_germ,
    tau_conj,
)
from .logpower import (
    BoundCertificate,
    LogPowerGermImage,
    LogPowerSeries,
    compose_germ_lp,
    is_log_free,
    log_power_series,
    monomial,
    support,
    truncate,
)
from .reflect import (
    EnvelopeResult,
    ExtensionCertificate,
    ReflectionState,
    certify_expansion,
    conjugate_corner,
    conjugate_evaluator,
    envelope,
    extend_eval,
    extend_eval_many,
    init_state,
    membership,
    step,
    tower,
)
from .series import (
    PowerSeries,
    PuiseuxSeries,
    add,
    compose_germ,
    conj_tau,
    evaluate,
    param_power,
    puiseux,
    puiseux_from_terms,
    scale,
    sub,
    tail_bound,
)
from .surface import (
    ONE,
    LPoint,
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

__version__ = "0.1.0"
