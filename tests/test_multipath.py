import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monoterm import (
    CycleDetected,
    CycleWitness,
    DivergenceWitness,
    FormulaWitness,
    NonTerminating,
    RecurrentWitness,
    SinglePathLoop,
    TerminatedIn,
    Terminating,
    Unsupported,
    agreement_check,
    decide,
    run,
)
from monoterm import multipath as multipath_module
from monoterm.gen import multipath_for_row
from monoterm.interpreter import step_values
from monoterm.model import Direction
from monoterm.multipath import (
    CASE_ROWS,
    ROW_KEYS,
    accelerated_walk,
    case_row,
    formula_applies,
    nt_formula,
)
from monoterm.parser import parse
from monoterm.single import decide_single

from conftest import NEG_FIXED_POINT, NEG_MOVING, multipath


def test_case_table_is_total_and_within_range():
    seen = set()
    for key in itertools.product((True, False), (True, False), Direction, Direction):
        row = CASE_ROWS[key]
        assert 1 <= row <= 36
        assert ROW_KEYS[row] == key
        seen.add(row)
    assert seen == set(range(1, 37))
    # each row's generated loops land on that row
    rng = random.Random(36)
    for row in range(1, 37):
        program = multipath_for_row(rng, row, 20)
        assert case_row(program.shape, program.init["x"]) == row


def test_example1_row17(example1):
    v = decide(example1)
    assert isinstance(v, NonTerminating)
    assert v.rule == "T3-row17"
    assert isinstance(v.witness, FormulaWitness)
    assert all(value for _, value in v.witness.conjuncts)
    assert agreement_check(example1, v).ok


def test_example2_alg3_cycle(example2):
    v = decide(example2)
    assert isinstance(v, NonTerminating)
    assert v.rule == "T3-row21"
    assert v.witness == CycleWitness((3, 5, 7, 4, 6)) and v.procedure == "alg3"
    oracle = run(example2, 100)
    assert isinstance(oracle, CycleDetected)
    assert oracle.period == 5


def test_formula3_satisfied():
    # climb to the region above 5, then reinject at 3: cycles forever
    program = multipath(">=", 0, "<=", 5, (1, 1), (0, 3), 2)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T3-row1"
    oracle = run(program, 100)
    assert isinstance(oracle, CycleDetected)
    assert oracle.entry.values == (3,)  # cycle 3 -> 4 -> 5 -> 6 -> 3
    assert oracle.period == 4


def test_formula3_unsatisfied_terminates():
    program = multipath(">=", 0, "<=", 5, (1, 1), (0, -3), 2)
    v = decide(program)
    assert v == Terminating(5)  # 2 -> 3 -> 4 -> 5 -> 6 -> -3
    assert run(program, 100) == TerminatedIn(5)
    # nt_formula explains non-terminating walks only; a refuted formula is a fault
    with pytest.raises(AssertionError, match="formula and walk disagree on row 1"):
        nt_formula(1, program.shape, 2)


def test_nt_formula_row17(example1):
    witness = nt_formula(17, example1.shape, 15)
    assert witness.conjuncts == (("x0 >= c", True), ("x0 >= c1", True))


def test_nt_formula_row19():
    # guard above, condition below, then up, else down; x0 misses the condition
    program = multipath("<=", 10, ">=", 7, (1, 1), (1, -1), 3)
    assert case_row(program.shape, 3) == 19
    assert nt_formula(19, program.shape, 3).conjuncts == (("x0 <= c", True), ("x0 < c1", True))
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T3-row19"
    assert agreement_check(program, v).ok


@pytest.mark.parametrize("row", range(21, 25))
def test_nt_formula_leaves_alternating_rows_to_the_walk(row):
    program = multipath_for_row(random.Random(row), row, 20)
    x0 = program.init["x"]
    assert not formula_applies(row, program.shape, x0)
    assert nt_formula(row, program.shape, x0) is None


def _entering_loop(rng, row, bound=20):
    """A loop of the row whose guard holds at x0."""
    while True:
        program = multipath_for_row(rng, row, bound)
        guard = program.shape.guard
        if guard.op.holds(program.init["x"], guard.bound):
            return program


@pytest.mark.parametrize("row", range(29, 37))
def test_nt_formula_on_shared_direction_rows(row):
    guard_below, _, direction, _ = ROW_KEYS[row]
    program = _entering_loop(random.Random(row), row)
    x0 = program.init["x"]
    verdict = decide(program)
    assert not formula_applies(row, program.shape, x0)
    if guard_below == (direction is Direction.UP):  # the shared direction keeps the guard
        assert verdict == NonTerminating(f"T3-row{row}", nt_formula(row, program.shape, x0))
        assert verdict.witness.conjuncts[1] == (
            f"both branches move {direction.value}, preserving the guard", True
        )
    else:
        assert isinstance(verdict, Terminating)
        with pytest.raises(AssertionError, match=f"walk diverges on row {row} against the guard"):
            nt_formula(row, program.shape, x0)


@pytest.mark.parametrize(
    "text, cycle",
    [
        # x := x + 0 classifies as constant from x0 but is no direct assignment
        (
            "init x = 0; while (x >= -10) { if (x <= 5) { x := x + 3; } else { x := x + 0; } }",
            (6,),
        ),
        # 2*x + 4 moves up at x0 = 3 but is fixed at the reinjected b = -4
        (
            "init x = 3; while (x >= -10) { if (x <= 10) { x := 2 * x + 4; } else { x := -4; } }",
            (-4,),
        ),
    ],
)
def test_row1_formula_does_not_apply_and_the_walk_witness_stands(text, cycle):
    program = parse(text)
    x0 = program.init["x"]
    assert not formula_applies(1, program.shape, x0)
    assert nt_formula(1, program.shape, x0) is None
    v = decide(program)
    assert v == NonTerminating("T3-row1", CycleWitness(cycle))
    assert agreement_check(program, v).ok


def test_both_constant_rows():
    # third disjunct: both targets inside the guard
    program = multipath("<", 10, "<", 3, (0, 2), (0, 4), 5)
    v = decide(program)
    assert isinstance(v, NonTerminating)
    assert v.rule == "T3-row28"
    oracle = run(program, 100)
    assert isinstance(oracle, CycleDetected)
    # same shape, else-target outside the guard: two steps and out
    program = multipath("<", 10, "<", 3, (0, 2), (0, 40), 5)
    v = decide(program)
    assert v == Terminating(1)
    assert agreement_check(program, v, 100).ok
    # two hops: 5 misses the condition, lands on 1, which maps out to 40
    program = multipath("<", 10, "<", 3, (0, 40), (0, 1), 5)
    v = decide(program)
    assert v == Terminating(2)
    assert agreement_check(program, v, 100).ok


def test_psi_walk_terminating_example():
    # climb by 7 out of the branch region, fall back by 1, exit at 12
    program = multipath("<=", 10, "<=", 5, (1, 7), (1, -1), 0)
    v = decide(program)
    assert v == Terminating(4)  # 0 -> 7 -> 6 -> 5 -> 12
    assert run(program, 100) == TerminatedIn(4)


def test_alternating_two_cycle():
    program = multipath("<=", 10, "<=", 5, (1, 2), (1, -2), 4)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T3-row21"
    assert v == NonTerminating("T3-row21", CycleWitness((4, 6)))


def test_alg4_side():
    # guard below, condition above: the else branch is the only exit
    program = multipath(">=", 0, "<=", 5, (1, 3), (1, -4), 2)
    v = decide(program)
    assert isinstance(v, (Terminating, NonTerminating))
    if isinstance(v, NonTerminating):
        assert v.rule == "T3-row23"
        assert v.procedure == "alg4"
    assert agreement_check(program, v).ok


def test_observation1_same_direction():
    # both branches climb; guard bounded below never fails
    program = multipath(">=", 0, ">=", 10, (1, 5), (2, 0), 3)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T3-row29"
    # both climb against an upper bound: terminates, count is exact
    program = multipath("<=", 50, "<=", 10, (1, 5), (3, 0), 3)
    v = decide(program)
    assert isinstance(v, Terminating)
    assert agreement_check(program, v, 1000).ok


def test_observation1_matches_single_path_reduction():
    rng = random.Random(0xB0B)
    checked = 0
    for _ in range(1000):
        row = rng.choice(range(29, 37))
        program = multipath_for_row(rng, row, 20)
        x0 = program.init["x"]
        shape = program.shape
        full = decide(program)
        for upd in (shape.then_update, shape.else_update):
            reduced = decide_single(SinglePathLoop(shape.guard, upd), {"x": x0})
            assert isinstance(full, type(reduced))
        checked += 1
    assert checked == 1000


def test_direction_flip_at_reinjection_uses_walk():
    # doubling classifies as up from 6, but from the reinjected -3 it sinks;
    # the closed row-1 formula would wrongly claim non-termination
    program = multipath(">=", -10, "<=", 5, (2, 0), (0, -3), 6)
    v = decide(program)
    assert v == Terminating(3)  # 6 -> -3 -> -6 -> -12
    assert run(program, 100) == TerminatedIn(3)


def test_direction_flip_other_way_is_nonterminating():
    # reinjected value climbs out of the branch region and returns: a cycle
    program = multipath(">=", -10, "<=", 5, (1, 4), (0, 2), 7)
    v = decide(program)
    assert isinstance(v, NonTerminating)
    oracle = run(program, 100)
    assert isinstance(oracle, CycleDetected)


def test_identity_branch_freezes():
    program = multipath("<=", 10, "<=", 5, (1, 0), (1, -1), 7)
    v = decide(program)
    assert isinstance(v, NonTerminating)
    assert v.witness == CycleWitness((5,))
    assert agreement_check(program, v).ok


def test_walk_trap_terminates_through_guard():
    # else-branch traps below the condition but marches through the guard
    program = multipath(">=", -10, "<=", 5, (1, -4), (1, -1), 100)
    v = decide(program)
    assert isinstance(v, Terminating)
    assert agreement_check(program, v, 1000).ok


def test_fixed_point_search_values_are_oracle_subsequence(example2):
    trace: list[int] = []
    v = accelerated_walk(example2.shape, 3, trace=trace)
    assert isinstance(v, CycleWitness)
    concrete = [3]
    values = (3,)
    for _ in range(40):
        values = step_values(example2, values)
        concrete.append(values[0])
    it = iter(concrete)
    assert all(value in it for value in trace)  # subsequence, in order


def test_fixed_point_search_wrapper_requires_rows_21_24(example2):
    found = accelerated_walk(example2.shape, 3)
    assert isinstance(found, CycleWitness)
    assert decide(example2) == NonTerminating("T3-row21", found)


def test_walk_budget_exhaustion_reports_unsupported(example2):
    v = decide(example2, search_budget=2)  # the cycle needs four jumps
    assert isinstance(v, Unsupported)
    assert "exceeded" in v.reason
    # formula rows are walked too: the row-1 cycle 11 -> 5 -> 11 needs three jumps
    program = multipath(">=", 0, "<=", 10, (1, 1), (0, 5), 3)
    v = decide(program, search_budget=1)
    assert isinstance(v, Unsupported) and "exceeded" in v.reason
    full = decide(program)
    assert full.rule == "T3-row1" and isinstance(full.witness, FormulaWitness)


def test_budget_and_non_monotone_reason_codes(example2):
    budget = decide(example2, search_budget=2)
    assert budget.code == "budget"
    assert budget.to_json()["code"] == "budget"
    moving = decide(parse(NEG_MOVING))
    assert moving.code == "non-monotone"
    assert moving.to_json()["code"] == "non-monotone"
    assert "code" not in decide(example2).to_json()


def test_all_rows_oracle_agreement_sample():
    rng = random.Random(20260810)
    for row in range(1, 37):
        for _ in range(25):
            program = multipath_for_row(rng, row, 20)
            verdict = decide(program)
            assert not isinstance(verdict, Unsupported), (row, program)
            agreement = agreement_check(program, verdict, 10**6)
            assert agreement.ok, (row, program, verdict, agreement)


def test_all_rows_agree_with_the_oracle_on_loops_that_enter_their_body():
    # multipath_for_row draws x0 independently of the guard, so half of its
    # loops never run; redraw until the guard holds, as perfbench does
    rng = random.Random(20261018)
    for row, bound in itertools.product(range(1, 37), (20, 2000)):
        for _ in range(15):
            program = _entering_loop(rng, row, bound)
            verdict = decide(program)
            assert not isinstance(verdict, Unsupported), (row, program)
            agreement = agreement_check(program, verdict, 10**6)
            assert agreement.ok, (row, program, verdict, agreement)


def _row_sample(seed):
    """25 loops of each Table 3 row that enter their body, with their row."""
    rng = random.Random(seed)
    for row in range(1, 37):
        for _ in range(25):
            yield row, _entering_loop(rng, row)


def _counting(calls, name, real):
    def wrapper(*args):
        calls[name] += 1
        return real(*args)

    return wrapper


def test_a_decision_makes_one_explanation_call(monkeypatch):
    calls = {"nt_formula": 0, "formula_applies": 0}
    for name in calls:
        monkeypatch.setattr(
            multipath_module, name, _counting(calls, name, getattr(multipath_module, name))
        )
    for row, program in _row_sample(20261019):
        calls.update(nt_formula=0, formula_applies=0)
        verdict = decide(program)
        # nt_formula runs once, after a non-terminating walk only
        assert calls["nt_formula"] == isinstance(verdict, NonTerminating), (row, program)
        assert calls["formula_applies"] <= 1, (row, program)


def test_every_formula_witness_is_satisfied():
    formulas = 0
    for row, program in _row_sample(20261020):
        verdict = decide(program)
        if isinstance(verdict, NonTerminating) and isinstance(verdict.witness, FormulaWitness):
            assert verdict.witness.disjunct >= 0, (row, program)
            assert all(holds for _, holds in verdict.witness.conjuncts), (row, program)
            formulas += 1
    assert formulas >= 300


# --- Alternating branches: the walk and the recurrent interval -----------


def test_example2_rotation_decides_at_the_second_switch_value(example2):
    # I = [3, 7] is recurrent but holds only 5 values: the walk closes the cycle
    trace: list[int] = []
    v = accelerated_walk(example2.shape, 3, trace=trace)
    assert v == CycleWitness((3, 5, 7, 4, 6))
    assert trace == [3, 7, 4, 6]


@pytest.mark.parametrize(
    "program, rule, cycle",
    [
        # x := x + 2 / x := x - 4 rotates the window [2, 7] in two classes mod 2:
        # the guard cuts off 7, which lies outside the even class of 2, 4, 6
        (multipath("<=", 6, "<=", 5, (1, 2), (1, -4), 2), "T3-row21", (2, 4, 6)),
        # the odd class's least value 3 sits exactly on the guard's limit
        (multipath(">=", 3, "<=", 5, (1, 2), (1, -4), 3), "T3-row23", (3, 5, 7)),
    ],
)
def test_rotation_checks_only_the_residue_class_of_v1(program, rule, cycle):
    # the guard cuts the window, so no interval is certified; the walk
    # visits v1's class only and closes the cycle in two jumps
    trace: list[int] = []
    v = accelerated_walk(program.shape, program.init["x"], trace=trace)
    assert v == CycleWitness(cycle)
    assert len(trace) == 2
    assert decide(program) == NonTerminating(rule, v)


def test_trace_ends_at_the_recurrent_interval_entry():
    # x := x + 1000 at x <= -1000, x := x - 1000 above: the body maps
    # [-1999, 0] into itself, and the orbit enters it at its second switch value
    program = multipath("<=", 0, "<=", -1000, (1, 1000), (1, -1000), 0)
    trace: list[int] = []
    v = accelerated_walk(program.shape, 0, trace=trace)
    assert v == RecurrentWitness((-1999, 0), -1000, 1)
    assert trace == [0, v.entry]


def _verdict_key(verdict) -> tuple:
    out = verdict.to_json()
    return out["verdict"], out["rule"], out.get("iterations")


def _interval_is_recurrent(program, witness) -> bool:
    """Check a recurrent witness from the loop alone: the orbit reaches the
    entry at the stated iteration, the entry lies in I, the guard holds at
    both ends of I, and each branch maps its part of I into I.  An affine
    map sends an interval's ends to its image's ends, so the ends suffice."""
    shape = program.shape
    guard, cond = shape.guard, shape.branch_cond
    lo, hi = witness.interval
    x = program.init["x"]
    for _ in range(witness.iteration):
        x = step_values(program, (x,))[0]
    if not (x == witness.entry and lo <= x <= hi):
        return False
    if not (guard.op.holds(lo, guard.bound) and guard.op.holds(hi, guard.bound)):
        return False
    limit = cond.op.limit(cond.bound)
    then_u, else_u = shape.then_update, shape.else_update
    if cond.op.bounded_above:
        parts = (lo, min(hi, limit), then_u), (max(lo, limit + 1), hi, else_u)
    else:
        parts = (max(lo, limit), hi, then_u), (lo, min(hi, limit - 1), else_u)
    return all(
        lo <= update.apply(end) <= hi
        for first, last, update in parts
        if first <= last
        for end in (first, last)
    )


@st.composite
def alternation_programs(draw):
    """Both branches x := a*x + b with a in 1..3, under every operator pair."""
    ops, consts = st.sampled_from(["<", "<=", ">", ">="]), st.integers(-60, 60)
    coeffs, offsets = st.integers(1, 3), st.integers(-25, 25)
    return multipath(
        draw(ops), draw(consts), draw(ops), draw(consts),
        (draw(coeffs), draw(offsets)), (draw(coeffs), draw(offsets)), draw(consts),
    )


@settings(max_examples=500, deadline=None)
@given(alternation_programs())
# the guard cuts I = [6, 90] at 60: the orbit 20, 60, 35, 10, 30 exits at 90
@example(multipath("<=", 60, "<=", 30, (3, 0), (1, -25), 20))
def test_recurrent_interval_matches_the_walk(program):
    """With the certificate off, then on, at the default budget: the same
    verdict keys, every witness that differs is a recurrent interval that
    passes an independent check, and the oracle agrees."""
    guard = program.shape.guard
    assume(guard.op.holds(program.init["x"], guard.bound))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multipath_module, "_recurrent_interval", lambda *args: None)
        walked = decide(program)
    certified = decide(program)
    assert _verdict_key(certified) == _verdict_key(walked), program
    if certified != walked:
        assert isinstance(certified.witness, RecurrentWitness), (program, certified)
        assert _interval_is_recurrent(program, certified.witness), (program, certified)
    if not isinstance(certified, Unsupported):
        assert agreement_check(program, certified).ok, (program, certified)


# --- Negative coefficients and the random differential --------------------


def test_negative_coefficient_fixed_point_is_one_value_cycle():
    program = parse(NEG_FIXED_POINT)
    v = decide(program)
    assert v == NonTerminating("T3-row26", CycleWitness((0,)))
    oracle = run(program, 100)
    assert isinstance(oracle, CycleDetected) and oracle.period == 1


def test_moving_negative_coefficient_is_unsupported_non_monotone():
    v = decide(parse(NEG_MOVING))
    assert isinstance(v, Unsupported)
    assert "non-monotone" in v.reason


def _replays(program, witness) -> bool:
    """Each cycle value satisfies the guard and steps to the next; the last to the first."""
    guard = program.shape.guard
    values = witness.values
    return all(
        guard.op.holds(x, guard.bound)
        and step_values(program, (x,)) == (values[(i + 1) % len(values)],)
        for i, x in enumerate(values)
    )


@st.composite
def small_multipath_programs(draw):
    """Both branches take coefficients -2..5; a third of them start at their
    fixed point, where `orbit.direction` is FLAT whatever the coefficient."""
    ops, ints = st.sampled_from(["<", "<=", ">", ">="]), st.integers(-30, 30)
    x0 = draw(ints)

    def update() -> tuple[int, int]:
        coeff = draw(st.integers(-2, 5))
        pinned = draw(st.integers(0, 2)) == 0
        return coeff, (1 - coeff) * x0 if pinned else draw(st.integers(-10, 10))

    return multipath(draw(ops), draw(ints), draw(ops), draw(ints), update(), update(), x0)


@settings(max_examples=400, deadline=None)
@given(small_multipath_programs())
def test_random_multipath_differential(program):
    verdict = decide(program)  # never raises
    if isinstance(verdict, Unsupported):
        return
    agreement = agreement_check(program, verdict, 10**5)
    assert agreement.ok, (program, verdict, agreement)
    if isinstance(verdict, NonTerminating) and isinstance(verdict.witness, CycleWitness):
        assert not verdict.witness.sparse
        assert _replays(program, verdict.witness), (program, verdict)
    if isinstance(verdict, NonTerminating) and isinstance(verdict.witness, RecurrentWitness):
        assert _interval_is_recurrent(program, verdict.witness), (program, verdict)
