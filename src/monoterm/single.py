"""Decision procedure for single-path diagonal-free loops.

A strictly monotone update either moves toward the guard's bound (the
loop exits, and the exit step is computable) or away from it (the guard
can never become false).  Constant orbits pin the value after one step.
"""

from __future__ import annotations

from .classifier import class_update
from .model import (
    CycleWitness,
    DiagonalFreeGuard,
    Direction,
    FormulaWitness,
    MonotoneClass,
    NonTerminating,
    Terminating,
    Verdict,
)
from .psi import escape_region

RULE_LEMMA1 = "Lemma1"
RULE_LEMMA1_CONST = "Lemma1-const"


def decide_single(guard: DiagonalFreeGuard, cls: MonotoneClass, x0: int) -> Verdict:
    """Decide termination of  while (x op c) { x := f(x); }  from x0."""
    if not guard.op.holds(x0, guard.bound):
        return Terminating(0)
    if cls.direction is Direction.FLAT:
        pinned = cls.pinned
        if guard.op.holds(pinned, guard.bound):
            return NonTerminating(RULE_LEMMA1_CONST, CycleWitness((pinned,)))
        return Terminating(1)
    exits = (guard.op.bounded_above and cls.direction is Direction.UP) or (
        guard.op.bounded_below and cls.direction is Direction.DOWN
    )
    if exits:
        op = guard.op
        _, steps = escape_region(x0, class_update(cls), op.bounded_above, op.limit(guard.bound))
        return Terminating(steps)
    return NonTerminating(
        RULE_LEMMA1,
        FormulaWitness(
            conjuncts=(
                ("x0 satisfies guard", True),
                (f"update direction {cls.direction.value} preserves {guard.op.value}", True),
            ),
            bindings=(("x0", x0), ("c", guard.bound)),
        ),
    )
