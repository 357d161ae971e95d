"""monoterm: termination decision procedures for monotone linear integer loops.

Decides, for given initial values, whether a single-path, diagonal, or
two-branch multipath loop with linear monotone updates terminates, and
backs every non-termination verdict with a machine-checkable witness.
A bounded concrete interpreter serves as the independent oracle.  It is
imported on first access to one of its names, so a caller that only decides
never loads it.
"""

from .analyzer import decide
from .model import (
    AnalysisError,
    CycleWitness,
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    DivergenceWitness,
    FormulaWitness,
    LoopProgram,
    MultiPathLoop,
    NonTerminating,
    RecurrentWitness,
    RelOp,
    SinglePathLoop,
    Terminating,
    UnboundVariableError,
    Unsupported,
    Update,
    Verdict,
)
from .parser import (
    LoopSyntaxError,
    MissingInitError,
    ParseError,
    ShapeError,
    parse,
    print_program,
)

__all__ = [
    "decide",
    "parse",
    "print_program",
    "run",
    "agreement_check",
    "LoopProgram",
    "SinglePathLoop",
    "DiagonalLoop",
    "MultiPathLoop",
    "DiagonalFreeGuard",
    "DiagonalGuard",
    "Update",
    "RelOp",
    "Terminating",
    "NonTerminating",
    "Unsupported",
    "Verdict",
    "FormulaWitness",
    "CycleWitness",
    "DivergenceWitness",
    "RecurrentWitness",
    "TerminatedIn",
    "CycleDetected",
    "BoundExhausted",
    "OracleResult",
    "Agreement",
    "AnalysisError",
    "UnboundVariableError",
    "ParseError",
    "LoopSyntaxError",
    "ShapeError",
    "MissingInitError",
]

# The oracle's exports, resolved from .interpreter on first access (PEP 562).
_ORACLE_NAMES = {
    "run", "agreement_check", "Agreement", "TerminatedIn", "CycleDetected", "BoundExhausted",
    "OracleResult",
}


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import interpreter

    value = globals()[name] = getattr(interpreter, name)
    return value
