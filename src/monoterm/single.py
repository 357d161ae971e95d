"""Decision procedure for single-path diagonal-free loops.

A strictly monotone update either moves toward the guard's bound (the
loop exits, and the exit step is computable) or away from it (the guard
can never become false).  A constant orbit stays on the value after one
step.
"""

from __future__ import annotations

from .model import (
    CycleWitness,
    Direction,
    Env,
    FormulaWitness,
    NonTerminating,
    SinglePathLoop,
    Terminating,
    Verdict,
)
from .orbit import direction, escape_region

RULE_LEMMA1 = "Lemma1"
RULE_LEMMA1_CONST = "Lemma1-const"

_UP, _DOWN, _FLAT = Direction.UP, Direction.DOWN, Direction.FLAT


def decide_single(loop: SinglePathLoop, init: Env) -> Verdict:
    """Test the guard at iteration 0, take the update's direction, and decide
    while (x op c) { x := f(x); }."""
    guard, op = loop.guard, loop.guard.op
    x0 = init[guard.var]
    if not op.holds(x0, guard.bound):
        return Terminating(0)
    moves = direction(loop.update, x0)
    if moves is _FLAT:
        pinned = loop.update.apply(x0)
        if op.holds(pinned, guard.bound):
            return NonTerminating(RULE_LEMMA1_CONST, CycleWitness((pinned,)))
        return Terminating(1)
    exits = (op.bounded_above and moves is _UP) or (op.bounded_below and moves is _DOWN)
    if exits:
        _, steps = escape_region(x0, loop.update, op.bounded_above, op.limit(guard.bound))
        return Terminating(steps)
    return NonTerminating(
        RULE_LEMMA1,
        FormulaWitness(
            conjuncts=(
                ("x0 satisfies guard", True),
                (f"update direction {moves.value} preserves {op.value}", True),
            ),
            bindings=(("x0", x0), ("c", guard.bound)),
        ),
    )
