"""monoterm: termination decision procedures for monotone linear integer loops.

Decides, for given initial values, whether a single-path, diagonal, or
two-branch multipath loop with linear monotone updates terminates, and
backs every non-termination verdict with a machine-checkable witness.
A bounded concrete interpreter serves as the independent oracle.
"""

from .analyzer import decide
from .interpreter import (
    Agreement,
    BoundExhausted,
    CycleDetected,
    OracleResult,
    TerminatedIn,
    agreement_check,
    run,
)
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
