"""An update's orbit from a start value: its direction, its kind, and its
first value past an integer limit.

All three rest on one property of monotone updates: for coeff >= 1 the
first difference (coeff - 1) * start + offset has the sign of every later
difference (each is the previous one times coeff).  So one sign test
settles the direction, and an orbit moving toward a bound passes it.

Every decider reads its relation as an inclusive integer limit
(RelOp.limit) and asks escape_region for the first value past it and the
step count: in closed form for arithmetic updates, by iteration for
geometric/affine ones, which pass any bound within logarithmically many
steps.  The paper's arithmetic first falsifiers going up and down by v are
escape_region(d, Update(1, v), True, limit) and
escape_region(d, Update(1, -v), False, limit).  The multipath walk alone
inlines the same arithmetic, once per jump, because the walk is the hot
loop of alternating loops and a call per jump costs more than it saves.
"""

from __future__ import annotations

from .model import AnalysisError, ClassKind, Direction, NonMonotoneUpdateError, Update

_UP, _DOWN, _FLAT = Direction.UP, Direction.DOWN, Direction.FLAT
_CONSTANT, _ARITHMETIC = ClassKind.CONSTANT, ClassKind.ARITHMETIC
_GEOMETRIC, _AFFINE = ClassKind.GEOMETRIC, ClassKind.AFFINE


def direction(upd: Update, start: int) -> Direction:
    """The direction of the update's orbit starting at ``start``.

    The sign of the first difference is the sign of every later one.  A
    direct assignment or a zero first difference makes the orbit constant
    from its first step.  A negative coefficient flips the difference sign
    every step and is rejected as non-monotone.
    """
    d = upd.first_difference(start)
    if upd.coeff == 0 or d == 0:
        return _FLAT
    if upd.coeff < 0:
        raise NonMonotoneUpdateError(upd)
    return _UP if d > 0 else _DOWN


def classify(upd: Update, start: int) -> ClassKind:
    """The update's class for the orbit starting at ``start``.

    CONSTANT when the orbit is flat (`direction`): it stays on
    upd.apply(start) after at most one step.  A moving orbit is ARITHMETIC
    for x := x + v, GEOMETRIC for x := u * x and AFFINE for x := u * x + v.
    """
    if direction(upd, start) is _FLAT:
        return _CONSTANT
    if upd.coeff == 1:
        return _ARITHMETIC
    if upd.offset == 0:
        return _GEOMETRIC
    return _AFFINE


def escape_region(d: int, upd: Update, upper: bool, limit: int) -> tuple[int, int]:
    """(first orbit value from d past the limit, number of steps to it).

    The region is x <= limit when `upper`, else x >= limit.  d must lie in
    it, upd.coeff must be >= 1 and the orbit must move toward the limit;
    otherwise no value is ever past it, and AnalysisError is raised.
    """
    a, b = upd.coeff, upd.offset
    diff = (a - 1) * d + b
    if a < 1 or (d > limit if upper else d < limit) or diff == 0 or (diff > 0) != upper:
        side = "<=" if upper else ">="
        raise AnalysisError(
            f"escape_region needs an orbit that starts in x {side} {limit} and leaves it; "
            f"x := {a}*x + {b} from {d} does not"
        )
    if a == 1:
        n = (limit - d) // b + 1
        return d + n * b, n
    x, n = a * d + b, 1
    while x <= limit if upper else x >= limit:
        x, n = a * x + b, n + 1
    return x, n
