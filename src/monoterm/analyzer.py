"""Top-level decision entry point: dispatch on the loop shape."""

from __future__ import annotations

from .diagonal import decide_diagonal_program
from .model import (
    SEARCH_BUDGET,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    NonMonotoneUpdateError,
    SinglePathLoop,
    Unsupported,
    Verdict,
)
from .multipath import decide_multipath
from .single import decide_single


def decide(program: LoopProgram, search_budget: int = SEARCH_BUDGET) -> Verdict:
    """Decide termination of the program for its initial values; a
    search_budget (diagonal iterations, multipath jumps) below 1 raises
    ValueError."""
    if search_budget < 1:
        raise ValueError("search_budget must be >= 1")
    program.check_bound()
    # the deciders only read init, so it is passed as it is, not copied; the
    # multipath shape goes first, as the commonest in alternating corpora
    shape, init = program
    try:
        if isinstance(shape, MultiPathLoop):
            return decide_multipath(shape, init, search_budget)
        if isinstance(shape, SinglePathLoop):
            return decide_single(shape, init)
        assert isinstance(shape, DiagonalLoop)
        return decide_diagonal_program(shape, init, search_budget)
    except NonMonotoneUpdateError as err:
        return Unsupported(str(err))
