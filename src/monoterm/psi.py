"""First-falsifier computations: the smallest/first orbit value breaking a bound.

Core question answered here: starting from d and repeatedly applying a
monotone update, what is the first value that falsifies (x op c1)?  For
arithmetic updates there are closed forms (psi_a going up, psi_prime_a
going down); geometric/affine orbits escape any bound within a
logarithmic number of steps, so escape_region simply iterates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AnalysisError, Direction, RelOp, Update


def psi_a(d: int, c1: int, v: int, op: RelOp) -> int:
    """Smallest value reachable from d by repeated +v that falsifies (x op c1).

    op must bound x from above (< or <=) and d must satisfy it; v > 0.
    The orbit's last value inside the bound is within one step of it, so the
    answer is (bound + v) minus the remainder of (bound - d) modulo v, where
    bound is c1 for <= and c1 - 1 for <.
    """
    if v <= 0:
        raise AnalysisError(f"psi_a needs a positive increment, got {v}")
    if not op.bounded_above:
        raise AnalysisError(f"psi_a needs op in {{<, <=}}, got {op.value}")
    if not op.holds(d, c1):
        raise AnalysisError(f"psi_a start {d} does not satisfy x {op.value} {c1}")
    top = c1 if op is RelOp.LE else c1 - 1
    return (top + v) - ((top - d) % v)


def psi_prime_a(d: int, c1: int, step: int, op: RelOp) -> int:
    """First value reachable from d by repeated -step that falsifies (x op c1).

    op must bound x from below (> or >=) and d must satisfy it; step > 0 is
    the decrement magnitude.
    """
    if step <= 0:
        raise AnalysisError(f"psi_prime_a needs a positive decrement, got {step}")
    if not op.bounded_below:
        raise AnalysisError(f"psi_prime_a needs op in {{>, >=}}, got {op.value}")
    if not op.holds(d, c1):
        raise AnalysisError(f"psi_prime_a start {d} does not satisfy x {op.value} {c1}")
    bottom = c1 if op is RelOp.GE else c1 + 1
    return (bottom - step) + ((d - bottom) % step)


@dataclass(frozen=True)
class Escape:
    """The orbit leaves the region: first falsifying value and step count."""

    value: int
    steps: int


@dataclass(frozen=True)
class Trapped:
    """The orbit stays inside the region forever, moving in `direction`."""

    direction: Direction


def escape_region(d: int, bound: int, op: RelOp, upd: Update) -> Escape | Trapped:
    """First orbit value from d falsifying (x op bound), or Trapped.

    d must satisfy the condition and upd.coeff must be >= 1 (constant
    assignments are not orbits).  Sign-invariance of the first difference
    makes the trapped test exact: an orbit whose first step does not move
    toward the bound never crosses it.
    """
    if upd.coeff < 1:
        raise AnalysisError("escape_region needs a monotone update (coeff >= 1)")
    if not op.holds(d, bound):
        raise AnalysisError(f"escape_region start {d} does not satisfy x {op.value} {bound}")
    diff = upd.first_difference(d)
    if diff == 0:
        return Trapped(Direction.FLAT)
    moving_up = diff > 0
    if moving_up != op.bounded_above:
        return Trapped(Direction.UP if moving_up else Direction.DOWN)
    if upd.coeff == 1:
        if moving_up:
            value = psi_a(d, bound, upd.offset, op)
        else:
            value = psi_prime_a(d, bound, -upd.offset, op)
        return Escape(value, abs(value - d) // abs(upd.offset))
    x, steps = d, 0
    while op.holds(x, bound):
        x = upd.apply(x)
        steps += 1
    return Escape(x, steps)
