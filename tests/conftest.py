"""Shared program builders and independent mini-oracles."""

from __future__ import annotations

import pytest

from monoterm import (
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    RelOp,
    SinglePathLoop,
    Update,
)

OPS = {"<": RelOp.LT, "<=": RelOp.LE, ">": RelOp.GT, ">=": RelOp.GE}

# Multipath loops whose x := -x branch is at its fixed point at x0.  In the
# first it never moves (a one-value cycle); in the second the else-branch
# carries x to 20, where x := -x moves and alternates direction.
NEG_FIXED_POINT = (
    "init x = 0; while (x >= -27) { if (x <= 16) { x := -1 * x; } else { x := x + 0; } }"
)
NEG_MOVING = (
    "init x = 0; while (x >= -27) { if (x >= 16) { x := -1 * x; } else { x := x + 5; } }"
)


# Loops whose guard fails at x0 before a moving negative coefficient is
# ever applied: they run zero iterations.
NEG_SINGLE_GUARD_FALSE = "init x = 5; while (x > 7) { x := -2 * x; }"
NEG_DIAGONAL_GUARD_FALSE = (
    "init x = 5; init y = 10; while (x - y > 0) { x := -2 * x; y := y + 1; }"
)


def single(op: str, c: int, upd: tuple[int, int], x0: int) -> LoopProgram:
    shape = SinglePathLoop(DiagonalFreeGuard("x", OPS[op], c), Update(*upd))
    return LoopProgram(shape, {"x": x0})


def diagonal(
    op: str, c: int, upd_x: tuple[int, int], upd_y: tuple[int, int], x0: int, y0: int
) -> LoopProgram:
    shape = DiagonalLoop(DiagonalGuard("x", "y", OPS[op], c), Update(*upd_x), Update(*upd_y))
    return LoopProgram(shape, {"x": x0, "y": y0})


def multipath(
    g_op: str,
    c: int,
    b_op: str,
    c1: int,
    then_upd: tuple[int, int],
    else_upd: tuple[int, int],
    x0: int,
) -> LoopProgram:
    shape = MultiPathLoop(
        DiagonalFreeGuard("x", OPS[g_op], c),
        DiagonalFreeGuard("x", OPS[b_op], c1),
        Update(*then_upd),
        Update(*else_upd),
    )
    return LoopProgram(shape, {"x": x0})


def brute_first_falsifier(d: int, bound: int, delta: int, op: RelOp) -> int:
    """Step d by delta until (x op bound) first fails; the psi test oracle."""
    x = d
    assert op.holds(x, bound)
    while True:
        x += delta
        if not op.holds(x, bound):
            return x


@pytest.fixture
def example1() -> LoopProgram:
    return multipath(">=", 5, ">=", 10, (1, 1), (1, -1), 15)


@pytest.fixture
def example2() -> LoopProgram:
    return multipath("<=", 10, "<=", 5, (1, 2), (1, -3), 3)
