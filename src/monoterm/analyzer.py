"""Top-level decision entry point: classify the loop shape and dispatch."""

from __future__ import annotations

from .classifier import classify
from .diagonal import decide_diagonal_program
from .model import (
    SEARCH_BUDGET,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    NonMonotoneUpdateError,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Verdict,
)
from .multipath import decide_multipath
from .single import decide_single


def decide(program: LoopProgram, search_budget: int = SEARCH_BUDGET) -> Verdict:
    """Decide termination of the program for its initial values."""
    init = program.initial_env()
    shape = program.shape
    try:
        if isinstance(shape, SinglePathLoop):
            x0 = init[shape.guard.var]
            if not shape.guard.op.holds(x0, shape.guard.bound):
                return Terminating(0)
            cls = classify(shape.update, x0)
            return decide_single(shape.guard, cls, x0)
        if isinstance(shape, DiagonalLoop):
            return decide_diagonal_program(shape, init, search_budget)
        assert isinstance(shape, MultiPathLoop)
        return decide_multipath(shape, init, search_budget)
    except NonMonotoneUpdateError as err:
        return Unsupported(str(err))
