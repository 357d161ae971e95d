"""Bounded concrete execution with exact cycle detection.

This is the ground-truth engine the deciders are checked against: it
runs the loop literally, records every visited state, and stops at
guard violation, state recurrence, or budget exhaustion.  States are
full variable valuations compared exactly; witnesses extracted from a
cycle are therefore replayable.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .model import (
    DiagonalLoop,
    LoopProgram,
    RelOp,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Verdict,
)

DEFAULT_MAX_STEPS = 10**6
DIVERGENCE_WINDOW = 100


class TraceState(NamedTuple):
    values: tuple[int, ...]
    step: int


class TerminatedIn(NamedTuple):
    steps: int


class CycleDetected(NamedTuple):
    entry: TraceState
    period: int


class BoundExhausted(NamedTuple):
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


def _at_least(op: RelOp, bound: int, sign: int) -> tuple[int, bool]:
    """(cut, above) such that `op.holds(sign * v, bound)` iff `(v >= cut) == above`."""
    if sign < 0:
        op, bound = op.mirrored(), -bound
    limit = op.limit(bound)
    return (limit, True) if op.bounded_below else (limit + 1, False)


def run(
    p: LoopProgram,
    max_steps: int = DEFAULT_MAX_STEPS,
    divergence_window: int | None = None,
) -> OracleResult:
    """Execute up to max_steps loop iterations.

    With divergence_window set, the run also stops once the guard metric
    (the value, or the gap x - y of a diagonal loop) has moved in the
    guard-preserving direction (non-strictly) for that many consecutive
    steps; the result is then flagged monotone_escape.  This keeps
    exponential orbits from exploding while still confirming that the
    loop is running away from its exit condition.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if divergence_window is not None and divergence_window < 1:
        raise ValueError("divergence_window must be >= 1")
    s = p.shape
    # Every value is simulated multiplied by `sign`, chosen so that the guard
    # reads `metric >= low`; x := a*x + b then becomes x := a*x + sign*b.
    sign = 1 if s.guard.op.bounded_below else -1
    low, _ = _at_least(s.guard.op, s.guard.bound, sign)
    # past max_steps, so a run without a window never reaches it
    window = max_steps + 1 if divergence_window is None else divergence_window
    env = p.initial_env()
    if isinstance(s, DiagonalLoop):
        return _run_pair(
            sign * env[s.guard.lhs], sign * env[s.guard.rhs], sign, low,
            (s.lhs_update.coeff, sign * s.lhs_update.offset),
            (s.rhs_update.coeff, sign * s.rhs_update.offset),
            max_steps, window,
        )
    if isinstance(s, SinglePathLoop):
        cut, upper, lower = low, s.update, s.update
    else:
        cut, above = _at_least(s.branch_cond.op, s.branch_cond.bound, sign)
        upper, lower = s.then_update, s.else_update
        if not above:
            upper, lower = lower, upper
    return _run_one(
        sign * env[s.guard.var], sign, low, cut,
        (upper.coeff, sign * upper.offset), (lower.coeff, sign * lower.offset),
        max_steps, window,
    )


def _run_one(x, sign, low, cut, upper, lower, max_steps, window) -> OracleResult:
    """run() for one variable x (times sign): `upper` applies where x >= cut."""
    a1, b1 = upper
    a2, b2 = lower
    seen: dict[int, int] = {}
    steps = safe_run = 0
    while True:
        if x < low:
            return TerminatedIn(steps)
        first = seen.setdefault(x, steps)
        if first != steps:
            return CycleDetected(TraceState((sign * x,), first), steps - first)
        if steps >= max_steps:
            return BoundExhausted(TraceState((sign * x,), steps), steps)
        nxt = a1 * x + b1 if x >= cut else a2 * x + b2
        safe_run = safe_run + 1 if nxt >= x else 0
        x = nxt
        steps += 1
        if safe_run >= window:
            return BoundExhausted(TraceState((sign * x,), steps), steps, monotone_escape=True)


def _run_pair(x, y, sign, low, lhs, rhs, max_steps, window) -> OracleResult:
    """run() for a diagonal loop on (x, y) (times sign), with the gap x - y as metric."""
    a1, b1 = lhs
    a2, b2 = rhs
    seen: dict[tuple[int, int], int] = {}
    steps = safe_run = 0
    gap = x - y
    while True:
        if gap < low:
            return TerminatedIn(steps)
        first = seen.setdefault((x, y), steps)
        if first != steps:
            return CycleDetected(TraceState((sign * x, sign * y), first), steps - first)
        if steps >= max_steps:
            return BoundExhausted(TraceState((sign * x, sign * y), steps), steps)
        x, y = a1 * x + b1, a2 * y + b2
        new_gap = x - y
        safe_run = safe_run + 1 if new_gap >= gap else 0
        gap = new_gap
        steps += 1
        if safe_run >= window:
            return BoundExhausted(
                TraceState((sign * x, sign * y), steps), steps, monotone_escape=True
            )


def _summary(result: CycleDetected | BoundExhausted) -> str:
    """A run that did not exit, by its counts only, which max_steps bounds:
    its values may be too wide for str() under the default int-to-str limit."""
    if isinstance(result, CycleDetected):
        return f"CycleDetected(period={result.period}, entry_step={result.entry.step})"
    return f"BoundExhausted(steps={result.steps}, monotone_escape={result.monotone_escape})"


class Agreement(NamedTuple):
    ok: bool
    note: str | None
    oracle: OracleResult
    details: str | None = None


def agreement_check(
    p: LoopProgram, verdict: Verdict, max_steps: int = DEFAULT_MAX_STEPS
) -> Agreement:
    """Cross-check a decider verdict against concrete execution.

    Terminating verdicts must terminate after exactly their iteration
    count, unless it exceeds max_steps and the run merely exhausts the
    budget (flagged as unconfirmed termination); NonTerminating verdicts,
    run with DIVERGENCE_WINDOW, must either cycle or exhaust the budget,
    the latter flagged as unconfirmed/consistent divergence, not proof.
    A disagreement's details name only counts bounded by max_steps.
    """
    if isinstance(verdict, Unsupported):
        raise ValueError("agreement_check needs a Terminating or NonTerminating verdict")
    if isinstance(verdict, Terminating):
        result = run(p, max_steps)
        if isinstance(result, TerminatedIn):
            if verdict.iterations != result.steps:
                return Agreement(
                    False, None, result, f"iteration count mismatch: oracle ran {result.steps}"
                )
            return Agreement(True, None, result)
        if isinstance(result, BoundExhausted) and verdict.iterations > max_steps:
            # the exit lies past the oracle's budget: nothing to contradict
            return Agreement(True, "unconfirmed termination", result)
        return Agreement(False, None, result, f"decided terminating, oracle saw {_summary(result)}")
    result = run(p, max_steps, divergence_window=DIVERGENCE_WINDOW)
    if isinstance(result, CycleDetected):
        return Agreement(True, None, result)
    if isinstance(result, BoundExhausted):
        note = "divergence-consistent" if result.monotone_escape else "unconfirmed divergence"
        return Agreement(True, note, result)
    return Agreement(False, None, result, f"decided nonterminating, oracle saw {result}")
