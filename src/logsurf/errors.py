"""Exception types shared across the package.

Every error raised by library operations derives from LogSurfError, so
callers (notably the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class LogSurfError(Exception):
    """Base class for all library errors."""


class OutOfRadius(LogSurfError):
    """Evaluation requested outside an asserted radius of validity."""


class InvalidGerm(LogSurfError):
    """A germ with k = 0 was passed where k >= 1 is required."""


class NotInvertible(LogSurfError):
    """Inversion requested for a germ outside the k = 1 group."""


class DegenerateTerm(LogSurfError):
    """A wedge data term whose closed-form solution is not a finite float;
    carries the edge (0 or 1) and the term's index on it."""

    def __init__(self, side: int, index: int, reason: str):
        super().__init__(f"edge{side}[{index}]: {reason}")
        self.side, self.index, self.reason = side, index, reason


class PoleCoincidence(LogSurfError):
    """Green function evaluated at its own pole."""


class NotNormalized(LogSurfError):
    """Reflection setup requires a normalized corner description."""


class OutsideExtension(LogSurfError):
    """Point lies outside the region reached by the computed steps."""


class WindowEmpty(LogSurfError):
    """A tower level's radius, a certificate window's scale or an envelope
    window's radius underflowed: the last too far for a finite K."""


class PowerUnderflow(WindowEmpty):
    """A certificate power |z|**R' or |z|**S underflowed to 0.0 at a sample."""


class SchemaError(LogSurfError):
    """A scenario file does not match the expected schema."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class ScenarioError(LogSurfError):
    """A scenario failed while running; carries the failing location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
