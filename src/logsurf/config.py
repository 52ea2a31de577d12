"""Per-run configuration.

The only global knob is the truncation order used by series-producing
operations.  It is process-wide state set once per run (the CLI sets it
from --trunc-order); individual operations never mutate it.
"""

from __future__ import annotations

from contextlib import contextmanager

DEFAULT_TRUNC_ORDER = 32
MAX_TRUNC_ORDER = 1024  # the highest series truncation order

_trunc_order = DEFAULT_TRUNC_ORDER


def get_trunc_order() -> int:
    """Return the current global truncation order (degree of the last kept coefficient)."""
    return _trunc_order


@contextmanager
def trunc_order(n: int):
    """Temporarily run with truncation order n (used by tests and the CLI)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"truncation order must be a positive integer, got {n!r}")
    global _trunc_order
    old, _trunc_order = _trunc_order, n
    try:
        yield
    finally:
        _trunc_order = old
