import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoterm import (
    BoundExhausted,
    CycleDetected,
    CycleWitness,
    NonTerminating,
    TerminatedIn,
    Terminating,
    Unsupported,
    agreement_check,
    decide,
    parse,
    run,
)
from monoterm.interpreter import TraceState, step_values
from monoterm.model import DiagonalLoop

from conftest import diagonal, multipath, single


def test_example2_cycle(example2):
    result = run(example2, 100)
    assert result == CycleDetected(result.entry, 5)
    assert result.entry.values == (3,)
    assert result.entry.step == 0


def test_countdown_terminates():
    assert run(single(">", 0, (1, -1), 3), 100) == TerminatedIn(3)


def test_divergent_loop_exhausts_budget():
    result = run(single(">", 0, (1, 1), 1), 100)
    assert isinstance(result, BoundExhausted)
    assert result.steps == 100
    assert not result.monotone_escape


def test_divergence_window_stops_early():
    result = run(single(">", 0, (1, 1), 1), 10**6, divergence_window=10)
    assert isinstance(result, BoundExhausted)
    assert result.monotone_escape
    assert result.steps == 10


def test_window_only_fires_in_guard_safe_direction():
    # decreasing toward a lower bound is progress toward exit, never escape
    result = run(single(">", 0, (1, -1), 50), 10**6, divergence_window=10)
    assert result == TerminatedIn(50)


def test_diagonal_gap_metric_window():
    # both climb, gap frozen, states never recur
    result = run(diagonal(">", 0, (1, 2), (1, 2), 5, 1), 10**6, divergence_window=25)
    assert isinstance(result, BoundExhausted)
    assert result.monotone_escape


def test_determinism(example2):
    assert run(example2, 1000) == run(example2, 1000)


def test_cycle_certificate_replays(example2):
    result = run(example2, 100)
    values = result.entry.values
    for _ in range(result.period):
        values = step_values(example2, values)
    assert values == result.entry.values


def test_max_steps_validation(example2):
    with pytest.raises(ValueError):
        run(example2, 0)
    countdown = parse("init x = 100; while (x > 0) { x := x - 1; }")
    for window in (0, -1):
        with pytest.raises(ValueError, match="divergence_window must be >= 1"):
            run(countdown, 1000, divergence_window=window)


def test_agreement_pass_cases(example1):
    verdict = decide(example1)
    assert agreement_check(example1, verdict).ok
    program = single(">=", 5, (1, -1), 7)
    assert agreement_check(program, decide(program)).ok


def test_agreement_rejects_injected_wrong_verdict(example2):
    check = agreement_check(example2, Terminating(None))
    assert not check.ok
    assert check.details == "decided terminating, oracle saw CycleDetected(period=5, entry_step=0)"


def test_agreement_rejects_wrong_iteration_count():
    program = single(">", 0, (1, -1), 3)
    check = agreement_check(program, Terminating(2))
    assert not check.ok
    assert "mismatch" in check.details


def test_agreement_rejects_nontermination_on_a_terminating_loop():
    program = single(">", 0, (1, -1), 3)
    check = agreement_check(program, NonTerminating("Lemma1", CycleWitness((3,))))
    assert not check.ok and check.oracle == TerminatedIn(3)
    assert check.details == "decided nonterminating, oracle saw TerminatedIn(steps=3)"


def test_agreement_notes_unconfirmed_divergence():
    program = single(">", 0, (1, 1), 1)
    verdict = decide(program)
    check = agreement_check(program, verdict, max_steps=50)
    assert check.ok and check.note == "unconfirmed divergence"
    check = agreement_check(program, verdict, max_steps=10**6)
    assert check.ok and check.note == "divergence-consistent"


def test_agreement_notes_unconfirmed_termination():
    program = single("<", 0, (1, 1), -50)
    verdict = decide(program)
    assert verdict == Terminating(50)
    check = agreement_check(program, verdict, max_steps=10)
    assert check.ok and check.note == "unconfirmed termination"
    assert isinstance(check.oracle, BoundExhausted) and check.oracle.steps == 10
    # an exit within the budget that the run does not reach is still a disagreement
    diverging = single("<", 0, (1, -1), -50)
    assert not agreement_check(diverging, Terminating(5), max_steps=10).ok


def test_agreement_requires_decided_verdict(example2):
    with pytest.raises(ValueError):
        agreement_check(example2, Unsupported("nope"))


def test_multipath_branch_selection():
    program = multipath(">=", 0, ">=", 10, (1, 1), (1, 2), 9)
    assert step_values(program, (9,)) == (11,)  # else branch: 9 < 10
    assert step_values(program, (10,)) == (11,)  # then branch


def test_step_soundness_against_guard_and_update_primitives():
    import random

    from monoterm.gen import random_program

    rng = random.Random(8)
    for _ in range(200):
        program = random_program(rng, rng.choice(("single", "diagonal", "multipath")), 10)
        shape = program.shape
        values = tuple(program.init[v] for v in program.variables())
        for _ in range(5):
            stepped = step_values(program, values)
            if hasattr(shape, "branch_cond"):
                cond = shape.branch_cond
                upd = (
                    shape.then_update
                    if cond.op.holds(values[0], cond.bound)
                    else shape.else_update
                )
                assert stepped == (upd.apply(values[0]),)
            elif hasattr(shape, "lhs_update"):
                assert stepped == (
                    shape.lhs_update.apply(values[0]),
                    shape.rhs_update.apply(values[1]),
                )
            else:
                assert stepped == (shape.update.apply(values[0]),)
            values = stepped


def _reference_run(p, max_steps, divergence_window):
    """run() as a plain state-tuple loop: step_values, the guard on the value or gap."""
    guard = p.shape.guard
    diagonal_loop = isinstance(p.shape, DiagonalLoop)

    def metric(values):
        return values[0] - values[1] if diagonal_loop else values[0]

    values = tuple(p.init[v] for v in p.variables())
    seen = {}
    steps = safe_run = 0
    while True:
        if not guard.op.holds(metric(values), guard.bound):
            return TerminatedIn(steps)
        if values in seen:
            return CycleDetected(TraceState(values, seen[values]), steps - seen[values])
        seen[values] = steps
        if steps >= max_steps:
            return BoundExhausted(TraceState(values, steps), steps)
        nxt = step_values(p, values)
        if guard.op.bounded_below:
            safe = metric(nxt) >= metric(values)
        else:
            safe = metric(nxt) <= metric(values)
        safe_run = safe_run + 1 if safe else 0
        values = nxt
        steps += 1
        if divergence_window is not None and safe_run >= divergence_window:
            return BoundExhausted(TraceState(values, steps), steps, monotone_escape=True)


@st.composite
def oracle_programs(draw):
    """All three shapes, every operator pair, coefficients -3..5 (negative ones
    included, which decide() may call Unsupported but the oracle still runs)."""
    ops, ints = st.sampled_from(["<", "<=", ">", ">="]), st.integers(-30, 30)

    def update() -> tuple[int, int]:
        return draw(st.integers(-3, 5)), draw(st.integers(-10, 10))

    shape = draw(st.sampled_from(["single", "diagonal", "multipath"]))
    if shape == "single":
        return single(draw(ops), draw(ints), update(), draw(ints))
    if shape == "diagonal":
        return diagonal(draw(ops), draw(ints), update(), update(), draw(ints), draw(ints))
    return multipath(draw(ops), draw(ints), draw(ops), draw(ints), update(), update(), draw(ints))


@settings(max_examples=600, deadline=None)
@given(oracle_programs(), st.integers(1, 60), st.none() | st.integers(1, 5))
def test_run_matches_reference_simulation(program, max_steps, window):
    assert run(program, max_steps, window) == _reference_run(program, max_steps, window)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_agreement_details_are_printable_under_the_default_int_to_str_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        # 20,000 doublings leave a state of 6,000+ digits in BoundExhausted
        doubling = parse("init x = 1; while (x > 0) { x := 2 * x; }")
        check = agreement_check(doubling, Terminating(5), 20000)
        assert check.ok is False
        assert check.details == (
            "decided terminating, oracle saw BoundExhausted(steps=20000, monotone_escape=False)"
        )
        # a decided count wider than the limit
        countdown = parse("init x = 3; while (x > 0) { x := x - 1; }")
        check = agreement_check(countdown, Terminating(10**5000))
        assert check.ok is False
        assert check.details == "iteration count mismatch: oracle ran 3"
    finally:
        sys.set_int_max_str_digits(saved)
