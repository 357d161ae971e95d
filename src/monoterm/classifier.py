"""Monotonicity classification of canonical updates."""

from __future__ import annotations

from .model import ClassKind, Direction, MonotoneClass, NonMonotoneUpdateError, Update


def classify(upd: Update, start: int) -> MonotoneClass:
    """Assign the update its monotonicity class for the orbit starting at ``start``.

    The sign of the first difference (coeff - 1) * start + offset is the sign
    of every later difference (each difference is the previous one times
    coeff), so one sign test settles the direction.  A direct assignment or
    a zero first difference makes the orbit constant from its first step.
    A negative coefficient flips the difference sign every step and is
    rejected as non-monotone.
    """
    u, v = upd.coeff, upd.offset
    d = upd.first_difference(start)
    if u == 0 or d == 0:
        return MonotoneClass(ClassKind.CONSTANT, Direction.FLAT)
    if u < 0:
        raise NonMonotoneUpdateError(upd)
    direction = Direction.UP if d > 0 else Direction.DOWN
    if u == 1:
        return MonotoneClass(ClassKind.ARITHMETIC, direction)
    if v == 0:
        return MonotoneClass(ClassKind.GEOMETRIC, direction)
    return MonotoneClass(ClassKind.AFFINE, direction)
