"""monoterm: termination decision procedures for monotone linear integer loops.

Decides, for given initial values, whether a single-path, diagonal, or
two-branch multipath loop with linear monotone updates terminates, and
backs every non-termination verdict with a machine-checkable witness.
A bounded concrete interpreter serves as the independent oracle.
"""

from .analyzer import decide
from .classifier import classify
from .diagonal import decide_diagonal_program
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
    ClassKind,
    CycleWitness,
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    Direction,
    DivergenceWitness,
    FormulaWitness,
    LoopProgram,
    MonotoneClass,
    MultiPathLoop,
    NonMonotoneUpdateError,
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
from .multipath import accelerated_walk, decide_multipath
from .parser import (
    LoopSyntaxError,
    MissingInitError,
    ParseError,
    ShapeError,
    parse,
    print_program,
)
from .single import decide_single

__all__ = [
    "decide",
    "classify",
    "parse",
    "print_program",
    "run",
    "agreement_check",
    "decide_single",
    "decide_diagonal_program",
    "decide_multipath",
    "accelerated_walk",
    "LoopProgram",
    "SinglePathLoop",
    "DiagonalLoop",
    "MultiPathLoop",
    "DiagonalFreeGuard",
    "DiagonalGuard",
    "Update",
    "RelOp",
    "Direction",
    "ClassKind",
    "MonotoneClass",
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
    "NonMonotoneUpdateError",
    "ParseError",
    "LoopSyntaxError",
    "ShapeError",
    "MissingInitError",
]
