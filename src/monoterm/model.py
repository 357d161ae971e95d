"""Core domain types: guards, updates, loop shapes, verdicts and witnesses.

All arithmetic is exact (Python ints); geometric and affine update
sequences outgrow any fixed-width integer within a few dozen steps, so
nothing here may truncate or wrap.  The value types are immutable NamedTuples:
as tuples they equal any tuple with the same fields, so compare only like types.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import NamedTuple, Union


class AnalysisError(Exception):
    """Analysis-level failure (bad precondition, unbound variable, ...)."""


class UnboundVariableError(AnalysisError):
    def __init__(self, var: str):
        super().__init__(f"variable '{var}' has no value in the environment")
        self.var = var


class NonMonotoneUpdateError(AnalysisError):
    """A negative coefficient moves the value: its orbit alternates direction."""

    def __init__(self, update: Update):
        super().__init__(
            f"non-monotone update x := {update.coeff}*x + {update.offset}: alternates direction"
        )


class RelOp(Enum):
    # Each fact is a plain member attribute set once in __init__: on Python
    # 3.11 a class read such as RelOp.LT costs ~170 ns and a property ~530 ns,
    # against ~15 ns for an instance attribute like _value_, and the deciders
    # read these facts on every decision.
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    # identity hash, agreeing with identity equality; Enum's own hashes the name
    __hash__ = object.__hash__

    def __init__(self, symbol: str) -> None:
        #: True for > and >=: the left operand is bounded from below.
        self.bounded_below = symbol[0] == ">"
        self.bounded_above = not self.bounded_below
        self._limit_shift = {"<": -1, ">": 1}.get(symbol, 0)

    def holds(self, lhs: int, rhs: int) -> bool:
        return _COMPARE[self._value_](lhs, rhs)

    def negated(self) -> "RelOp":
        """Logical complement over the integers: not(x < c) == x >= c."""
        return _NEGATION[self]

    def mirrored(self) -> "RelOp":
        """The comparison seen after negating both sides: x < c == -x > -c."""
        return _MIRROR[self]

    def limit(self, bound: int) -> int:
        """Inclusive integer limit of x op bound: x < c is x <= c-1, x > c is
        x >= c+1.  `bounded_above` says which side of the limit holds."""
        return bound + self._limit_shift


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NEGATION = {RelOp.LT: RelOp.GE, RelOp.LE: RelOp.GT, RelOp.GT: RelOp.LE, RelOp.GE: RelOp.LT}
_MIRROR = {RelOp.LT: RelOp.GT, RelOp.LE: RelOp.GE, RelOp.GT: RelOp.LT, RelOp.GE: RelOp.LE}


class DiagonalFreeGuard(NamedTuple):
    """Comparison of a single variable with a constant: var op bound."""

    var: str
    op: RelOp
    bound: int

    def __str__(self) -> str:
        return f"{self.var} {self.op.value} {self.bound}"


class DiagonalGuard(NamedTuple):
    """Comparison of a variable difference with a constant: lhs - rhs op bound."""

    lhs: str
    rhs: str
    op: RelOp
    bound: int

    def __str__(self) -> str:
        return f"{self.lhs} - {self.rhs} {self.op.value} {self.bound}"


Env = dict[str, int]

#: Iterations of the diagonal search, or jumps of the multipath walk, that a
#: decider takes before it gives up with an Unsupported verdict.
SEARCH_BUDGET = 10**6


class Update(NamedTuple):
    """Canonical affine update x := coeff * x + offset.

    Every surface form maps to exactly one (coeff, offset) pair:
    x := b  -> (0, b);  x := u*x -> (u, 0);  x := x + v -> (1, v);
    x := u*x + v -> (u, v).
    """

    coeff: int
    offset: int

    def apply(self, x: int) -> int:
        return self.coeff * x + self.offset

    def first_difference(self, x: int) -> int:
        """apply(x) - x; its sign is invariant along the orbit for coeff >= 1."""
        return (self.coeff - 1) * x + self.offset


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    FLAT = "flat"

    __hash__ = object.__hash__


class ClassKind(Enum):
    CONSTANT = "constant"
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    AFFINE = "affine"

    __hash__ = object.__hash__


class SinglePathLoop(NamedTuple):
    """while (x op c) { x := f(x); }"""

    guard: DiagonalFreeGuard
    update: Update


class DiagonalLoop(NamedTuple):
    """while (x - y op c) { x := f1(x); y := f2(y); }"""

    guard: DiagonalGuard
    lhs_update: Update
    rhs_update: Update


class MultiPathLoop(NamedTuple):
    """while (x op c) { if (x op' c1) { x := f1(x); } else { x := f2(x); } }"""

    guard: DiagonalFreeGuard
    branch_cond: DiagonalFreeGuard
    then_update: Update
    else_update: Update


LoopShape = Union[SinglePathLoop, DiagonalLoop, MultiPathLoop]


class LoopProgram(NamedTuple):
    shape: LoopShape
    init: Env

    def variables(self) -> tuple[str, ...]:
        """Variables the loop reads/writes, in guard order."""
        s = self.shape
        if isinstance(s, DiagonalLoop):
            return (s.guard.lhs, s.guard.rhs)
        return (s.guard.var,)

    def initial_env(self) -> Env:
        missing = [v for v in self.variables() if v not in self.init]
        if missing:
            raise UnboundVariableError(missing[0])
        return dict(self.init)


# --- Verdicts and witnesses -------------------------------------------------


class FormulaWitness(NamedTuple):
    """A satisfied rule formula: the conjunct truth values of the
    deciding disjunct, plus the integer values it mentioned."""

    conjuncts: tuple[tuple[str, bool], ...]
    disjunct: int = 0
    bindings: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> dict:
        return {
            "kind": "formula",
            "disjunct": self.disjunct,
            "conjuncts": [[name, value] for name, value in self.conjuncts],
            "bindings": {name: value for name, value in self.bindings},
        }


class CycleWitness(NamedTuple):
    """A recurring state: replaying the loop from values[0] returns there.

    A sparse witness lists only the branch-switch values of the cycle
    (used when the full cycle is impractically long); the replay claim
    is unchanged.
    """

    values: tuple  # ints for one-variable loops, (x, y) pairs for diagonal
    sparse: bool = False

    @property
    def period(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        cyc = [list(v) if isinstance(v, tuple) else v for v in self.values]
        out = {"kind": "cycle", "cycle": cyc}
        if self.sparse:
            out["sparse"] = True
        else:
            out["period"] = self.period
        return out


class DivergenceWitness(NamedTuple):
    """A certified divergence point: at `iteration` the named stopping
    condition holds and keeps holding forever."""

    iteration: int
    condition: str

    def to_json(self) -> dict:
        return {"kind": "divergence", "iteration": self.iteration, "condition": self.condition}


class RecurrentWitness(NamedTuple):
    """A recurrent interval: the loop body maps `interval` = [lo, hi] into
    itself, the guard holds on all of it, and the orbit enters it at
    `entry` after `iteration` iterations, so it never leaves."""

    interval: tuple[int, int]
    entry: int
    iteration: int

    def to_json(self) -> dict:
        return {
            "kind": "recurrent",
            "interval": list(self.interval),
            "entry": self.entry,
            "iteration": self.iteration,
        }


Witness = Union[FormulaWitness, CycleWitness, DivergenceWitness, RecurrentWitness]


class Terminating(NamedTuple):
    iterations: int

    def to_json(self) -> dict:
        return {
            "verdict": "terminating",
            "rule": None,
            "witness": None,
            "iterations": self.iterations,
        }


#: Rule -> the fixed-point search that decides it: Algorithm 3 on Table 3's
#: rows 21-22, Algorithm 4 on rows 23-24.
_PROCEDURES = {"T3-row21": "alg3", "T3-row22": "alg3", "T3-row23": "alg4", "T3-row24": "alg4"}


class NonTerminating(NamedTuple):
    """The rule that decided non-termination and its witness."""

    rule: str
    witness: Witness

    @property
    def procedure(self) -> str | None:
        """The rule's fixed-point search, "alg3" or "alg4", else None; the
        JSON witness carries it as its last key."""
        return _PROCEDURES.get(self.rule)

    def to_json(self) -> dict:
        witness = self.witness.to_json()
        if procedure := self.procedure:
            witness["procedure"] = procedure
        return {"verdict": "nonterminating", "rule": self.rule, "witness": witness}


class Unsupported(NamedTuple):
    """Undecided: ``code`` is ``"budget"`` when a walk or search ran out of
    its budget, ``"non-monotone"`` when an update alternates direction."""

    reason: str
    code: str = "non-monotone"

    def to_json(self) -> dict:
        return {
            "verdict": "unsupported",
            "rule": None,
            "witness": None,
            "reason": self.reason,
            "code": self.code,
        }


Verdict = Union[Terminating, NonTerminating, Unsupported]
