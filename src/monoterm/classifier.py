"""Monotonicity classification of canonical updates."""

from __future__ import annotations

from .model import ClassKind, Direction, MonotoneClass, NonMonotoneUpdateError, Update


def classify(upd: Update, start: int) -> MonotoneClass:
    """Assign the update its monotonicity class for the orbit starting at ``start``.

    The sign of the first difference (coeff - 1) * start + offset is the sign
    of every later difference (each difference is the previous one times
    coeff), so one sign test settles the direction.  A zero first difference
    means the orbit is the constant ``start``.  A negative coefficient flips
    the difference sign every step and is rejected as non-monotone.
    """
    u, v = upd.coeff, upd.offset
    if u == 0:
        return MonotoneClass.constant(v)
    d = upd.first_difference(start)
    if d == 0:
        return MonotoneClass.constant(start)
    if u < 0:
        raise NonMonotoneUpdateError(
            f"update x := {u}*x + {v} alternates direction from {start}"
        )
    direction = Direction.UP if d > 0 else Direction.DOWN
    if u == 1:
        return MonotoneClass.arithmetic(v)
    if v == 0:
        return MonotoneClass.geometric(u, direction)
    return MonotoneClass.affine(u, v, direction)


def class_update(cls: MonotoneClass) -> Update:
    """Reconstruct an update whose orbit realizes the class."""
    if cls.kind is ClassKind.CONSTANT:
        return Update(0, cls.pinned)
    if cls.kind is ClassKind.ARITHMETIC:
        return Update(1, cls.step)
    if cls.kind is ClassKind.GEOMETRIC:
        return Update(cls.ratio, 0)
    return Update(cls.ratio, cls.step)
