"""Monotonicity classification of canonical updates."""

from __future__ import annotations

from .model import ClassKind, Direction, MonotoneClass, NonMonotoneUpdateError, Update

_UP, _DOWN, _FLAT = Direction.UP, Direction.DOWN, Direction.FLAT
_CONSTANT_CLASS = MonotoneClass(ClassKind.CONSTANT, _FLAT)
_ARITHMETIC, _GEOMETRIC, _AFFINE = ClassKind.ARITHMETIC, ClassKind.GEOMETRIC, ClassKind.AFFINE


def direction(upd: Update, start: int) -> Direction:
    """The direction of the update's orbit starting at ``start``.

    The sign of the first difference (coeff - 1) * start + offset is the sign
    of every later difference (each difference is the previous one times
    coeff), so one sign test settles the direction.  A direct assignment or
    a zero first difference makes the orbit constant from its first step.
    A negative coefficient flips the difference sign every step and is
    rejected as non-monotone.
    """
    d = upd.first_difference(start)
    if upd.coeff == 0 or d == 0:
        return _FLAT
    if upd.coeff < 0:
        raise NonMonotoneUpdateError(upd)
    return _UP if d > 0 else _DOWN


def classify(upd: Update, start: int) -> MonotoneClass:
    """Assign the update its monotonicity class for the orbit starting at
    ``start``: its `direction`, and a kind read off the coefficient and
    offset of a moving orbit."""
    moves = direction(upd, start)
    if moves is _FLAT:
        return _CONSTANT_CLASS
    if upd.coeff == 1:
        return MonotoneClass(_ARITHMETIC, moves)
    if upd.offset == 0:
        return MonotoneClass(_GEOMETRIC, moves)
    return MonotoneClass(_AFFINE, moves)
