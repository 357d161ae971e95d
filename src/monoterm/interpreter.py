"""Bounded concrete execution with exact cycle detection.

This is the ground-truth engine the deciders are checked against: it
runs the loop literally, records every visited state, and stops at
guard violation, state recurrence, or budget exhaustion.  States are
full variable valuations compared exactly; witnesses extracted from a
cycle are therefore replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import (
    DiagonalLoop,
    LoopProgram,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Verdict,
)

DEFAULT_MAX_STEPS = 10**6
DIVERGENCE_WINDOW = 100


@dataclass(frozen=True)
class TraceState:
    values: tuple[int, ...]
    step: int


@dataclass(frozen=True)
class TerminatedIn:
    steps: int


@dataclass(frozen=True)
class CycleDetected:
    entry: TraceState
    period: int


@dataclass(frozen=True)
class BoundExhausted:
    last: TraceState
    steps: int
    monotone_escape: bool = False


OracleResult = Union[TerminatedIn, CycleDetected, BoundExhausted]


def step_values(p: LoopProgram, values: tuple[int, ...]) -> tuple[int, ...]:
    """One loop-body execution on a state tuple (guard assumed true)."""
    s = p.shape
    if isinstance(s, SinglePathLoop):
        return (s.update.apply(values[0]),)
    if isinstance(s, DiagonalLoop):
        return (s.lhs_update.apply(values[0]), s.rhs_update.apply(values[1]))
    x = values[0]
    upd = s.then_update if s.branch_cond.op.holds(x, s.branch_cond.bound) else s.else_update
    return (upd.apply(x),)


def _guard_metric(p: LoopProgram, values: tuple[int, ...]) -> int:
    """The quantity the guard compares against its bound (value or gap)."""
    if isinstance(p.shape, DiagonalLoop):
        return values[0] - values[1]
    return values[0]


def run(
    p: LoopProgram,
    max_steps: int = DEFAULT_MAX_STEPS,
    divergence_window: int | None = None,
) -> OracleResult:
    """Execute up to max_steps loop iterations.

    With divergence_window set, the run also stops once the guard metric
    has moved in the guard-preserving direction (non-strictly) for that
    many consecutive steps; the result is then flagged monotone_escape.
    This keeps exponential orbits from exploding while still confirming
    that the loop is running away from its exit condition.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    guard_op, bound = p.shape.guard.op, p.shape.guard.bound
    env = p.initial_env()
    values = tuple(env[v] for v in p.variables())
    seen: dict[tuple[int, ...], int] = {}
    steps = 0
    safe_run = 0
    metric = _guard_metric(p, values)
    while True:
        if not guard_op.holds(metric, bound):
            return TerminatedIn(steps)
        if values in seen:
            return CycleDetected(TraceState(values, seen[values]), steps - seen[values])
        seen[values] = steps
        if steps >= max_steps:
            return BoundExhausted(TraceState(values, steps), steps)
        nxt = step_values(p, values)
        new_metric = _guard_metric(p, nxt)
        if guard_op.bounded_below:
            safe = new_metric >= metric
        else:
            safe = new_metric <= metric
        safe_run = safe_run + 1 if safe else 0
        values, metric = nxt, new_metric
        steps += 1
        if divergence_window is not None and safe_run >= divergence_window:
            return BoundExhausted(TraceState(values, steps), steps, monotone_escape=True)


@dataclass(frozen=True)
class Agreement:
    ok: bool
    note: str | None
    oracle: OracleResult
    details: str | None = None


def agreement_check(
    p: LoopProgram,
    verdict: Verdict,
    max_steps: int = DEFAULT_MAX_STEPS,
    divergence_window: int | None = DIVERGENCE_WINDOW,
) -> Agreement:
    """Cross-check a decider verdict against concrete execution.

    Terminating verdicts must terminate (and match the iteration count when
    the verdict carries one), unless that count exceeds max_steps and the
    run merely exhausts the budget (flagged as unconfirmed termination);
    NonTerminating verdicts must either cycle or exhaust the budget, the
    latter flagged as unconfirmed/consistent divergence rather than proof.
    """
    if isinstance(verdict, Unsupported):
        raise ValueError("agreement_check needs a Terminating or NonTerminating verdict")
    if isinstance(verdict, Terminating):
        result = run(p, max_steps)
        if isinstance(result, TerminatedIn):
            if verdict.iterations is not None and verdict.iterations != result.steps:
                return Agreement(
                    False,
                    None,
                    result,
                    f"iteration count mismatch: decided {verdict.iterations}, "
                    f"oracle ran {result.steps}",
                )
            return Agreement(True, None, result)
        if (
            isinstance(result, BoundExhausted)
            and verdict.iterations is not None
            and verdict.iterations > max_steps
        ):
            # the exit lies past the oracle's budget: nothing to contradict
            return Agreement(True, "unconfirmed termination", result)
        return Agreement(False, None, result, f"decided terminating, oracle saw {result}")
    result = run(p, max_steps, divergence_window=divergence_window)
    if isinstance(result, CycleDetected):
        return Agreement(True, None, result)
    if isinstance(result, BoundExhausted):
        note = "divergence-consistent" if result.monotone_escape else "unconfirmed divergence"
        return Agreement(True, note, result)
    return Agreement(False, None, result, f"decided nonterminating, oracle saw {result}")
