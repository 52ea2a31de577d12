"""The default truncation order.

Every series-producing operation takes its truncation order as an
`order` argument, and a tower keeps the one it was built at.  The
process-wide order here is only the default for a caller that passes
none; the library never sets it (a CLI run passes its order down).
"""

from __future__ import annotations

from contextlib import contextmanager

DEFAULT_TRUNC_ORDER = 32
MAX_TRUNC_ORDER = 1024  # the highest series truncation order

_trunc_order = DEFAULT_TRUNC_ORDER


def get_trunc_order() -> int:
    """Return the default truncation order (degree of the last kept coefficient)."""
    return _trunc_order


def order_or_default(order: int | None) -> int:
    """order, or the default truncation order when order is None."""
    return get_trunc_order() if order is None else order


def check_order(n: int) -> int:
    """n, refused with a ValueError unless it is an int (not a bool) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"truncation order must be a positive integer, got {n!r}")
    return n


@contextmanager
def trunc_order(n: int):
    """Temporarily make n the default truncation order."""
    check_order(n)
    global _trunc_order
    old, _trunc_order = _trunc_order, n
    try:
        yield
    finally:
        _trunc_order = old
