import random

from monoterm import (
    CycleDetected,
    CycleWitness,
    DivergenceWitness,
    NonTerminating,
    RelOp,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Update,
    agreement_check,
    decide,
    run,
)
from monoterm.diagonal import normalize_direction
from monoterm.gen import diagonal_for_pair
from monoterm.interpreter import step_values
from monoterm.model import ClassKind, DiagonalFreeGuard
from monoterm.parser import parse
from monoterm.single import decide_single

from conftest import NEG_DIAGONAL_GUARD_FALSE, diagonal


def test_normalize_mirrors_above_bounds():
    loop = diagonal("<", 5, (1, 1), (1, 2), 0, 0).shape
    norm = normalize_direction(loop)
    assert (norm.guard.lhs, norm.guard.rhs) == ("y", "x")
    assert (norm.guard.op, norm.guard.bound) == (RelOp.GT, -5)
    assert norm.lhs_update == Update(1, 2)
    assert norm.rhs_update == Update(1, 1)


def test_normalize_keeps_below_bounds():
    loop = diagonal(">=", 2, (1, 1), (1, 2), 0, 0).shape
    assert normalize_direction(loop) is loop


def test_both_arithmetic_rules():
    # equal increments keep the gap: non-terminating
    v = decide(diagonal(">", 0, (1, 2), (1, 1), 5, 1))
    assert isinstance(v, NonTerminating) and v.rule == "diag-ra-ra"
    # faster chaser: terminating
    v = decide(diagonal(">", 0, (1, 1), (1, 2), 5, 1))
    assert v == Terminating(4)  # gap 4, 3, 2, 1, 0


def test_ra_ra_rule_direct():
    v = decide(diagonal(">", 0, (1, 3), (1, 3), 5, 1))
    assert isinstance(v, NonTerminating) and v.rule == "diag-ra-ra"
    assert v.witness.conjuncts[1] == ("v1=3 >= v2=3", True)
    v = decide(diagonal(">", 0, (1, -2), (1, -5), 5, 1))
    assert isinstance(v, NonTerminating) and v.rule == "diag-ra-ra"
    assert v.witness.conjuncts[1] == ("|v1|=2 <= |v2|=5", True)
    assert decide(diagonal(">", 0, (1, -5), (1, -2), 5, 1)) == Terminating(2)


def test_both_geometric_rules():
    v = decide(diagonal(">", 0, (3, 0), (2, 0), 4, 2))
    assert isinstance(v, NonTerminating) and v.rule == "diag-rg-rg"
    v = decide(diagonal(">", 0, (2, 0), (3, 0), 100, 1))
    assert isinstance(v, Terminating)
    agreement = agreement_check(diagonal(">", 0, (2, 0), (3, 0), 100, 1), v, 10**4)
    assert agreement.ok


def test_geometric_equal_ratios_follow_the_gap():
    # gap = (1 - 2) * 2^n = -2^n, crosses -10 at n = 4
    program = diagonal(">", -10, (2, 0), (2, 0), 1, 2)
    v = decide(program)
    assert v == Terminating(4)
    assert agreement_check(program, v, 1000).ok
    # the ratio comparison u1 >= u2 alone would call this non-terminating


def test_geometric_transient_dip_terminates():
    # 3^n eventually dominates, but the gap dips below c first
    program = diagonal(">", -100, (3, 0), (2, 0), 1, 100)
    v = decide(program)
    assert isinstance(v, Terminating)
    assert agreement_check(program, v, 1000).ok


def test_rg_rg_rule_direct():
    v = decide(diagonal(">", 0, (3, 0), (2, 0), 4, 2))
    assert isinstance(v, NonTerminating) and v.rule == "diag-rg-rg"
    assert v.witness.condition == "u1=3 >= u2=2, direction up"


def test_opposite_directions():
    program = diagonal(">", 0, (1, 1), (1, -1), 5, 1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "diag-opposite"
    program = diagonal(">", 0, (1, -1), (1, 1), 5, 1)
    v = decide(program)
    assert v == Terminating(2)  # gaps 4, 2, 0
    assert agreement_check(program, v, 100).ok


def test_search_row1_example():
    # x := x - 1 (arith down), y := 2y from -8 (geometric down)
    program = diagonal(">=", 0, (1, -1), (2, 0), 10, -8)
    v = decide(program)
    assert isinstance(v, NonTerminating)
    assert v.rule == "T2-row1"
    assert isinstance(v.witness, DivergenceWitness)
    assert v.witness.iteration == 11  # x first negative at n=11 (x=-1, y=-16384)
    assert agreement_check(program, v).ok


def test_search_row1_fires_at_commit():
    # dips at n=1..2 (gap 7,4,3,6,...), committed and all-negative at n=3
    program = diagonal(">", 0, (1, -5), (2, 0), 10, -1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T2-row1"
    assert v.witness.iteration == 3
    assert agreement_check(program, v).ok


def test_search_stopping_condition_dip_counterexample_terminates():
    # y < x - c, x < 0, y < 0 all hold at n=1 but the run exits at n=2:
    # the commit test keeps the stopping condition from firing inside the dip
    program = diagonal(">", -30, (1, -100), (2, 0), 40, -25)
    v = decide(program)
    assert v == Terminating(2)
    assert agreement_check(program, v, 100).ok


def test_zero_iteration_exit():
    program = diagonal(">", 0, (2, 0), (1, 3), 1, 5)
    assert decide(program) == Terminating(0)


def test_guard_false_before_negative_coefficient_is_classified():
    program = parse(NEG_DIAGONAL_GUARD_FALSE)
    v = decide(program)
    assert v == Terminating(0)
    assert agreement_check(program, v, 10).ok


def test_search_budget_exhaustion_reports_unsupported():
    # the gap dips until 2^n outweighs the decrement 100 (n = 7); budget 5 runs out
    program = diagonal(">=", 0, (1, -100), (2, 0), 10**6, -1)
    v = decide(program, search_budget=5)
    assert isinstance(v, Unsupported)
    assert "exceeded" in v.reason
    assert v.code == "budget" and v.to_json()["code"] == "budget"
    full = decide(program)
    assert isinstance(full, NonTerminating) and full.rule == "T2-row1"
    assert full.witness.iteration == 10001  # closed-form jump to the first x < 0
    # terminating runs (exit at n = 7) are held to the same budget
    for program in (
        diagonal(">", 0, (2, 0), (1, 1), -1, -100),
        diagonal(">", 0, (1, 3), (2, 0), 50, 1),
    ):
        v = decide(program, search_budget=6)
        assert isinstance(v, Unsupported) and "exceeded" in v.reason
        assert decide(program, search_budget=7) == Terminating(7)
        assert decide(program) == Terminating(7)


def test_search_rows_1_2_skip_to_the_first_negative_x():
    # x falls linearly from 10**6 while y is already committed below it: the
    # first iteration with x < 0 is computed, not simulated, so a budget of
    # 1000 iterations is enough
    program = diagonal(">=", 0, (1, -1), (2, 0), 10**6, -8)
    v = decide(program, search_budget=1000)
    assert v == NonTerminating("T2-row1", DivergenceWitness(1000001, "y < x - c, x < 0, y < 0"))
    assert agreement_check(program, v).ok
    program = diagonal(">", 3, (1, -7), (3, 5), 10**6, -4)
    v = decide(program, search_budget=1000)
    assert isinstance(v, NonTerminating) and v.rule == "T2-row2"
    assert v.witness.iteration == 142858  # 10**6 - 7 * 142858 = -6
    assert agreement_check(program, v).ok


def test_linear_up_vs_exponential_up_terminates():
    program = diagonal(">", 0, (1, 3), (2, 0), 50, 1)
    v = decide(program)
    assert isinstance(v, Terminating)
    assert agreement_check(program, v, 10**4).ok


def test_pinned_cases():
    # x pinned by direct assignment, y decreasing: gap grows
    program = diagonal(">", 0, (0, 5), (1, -1), 9, 1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "diag-const"
    assert agreement_check(program, v).ok
    # x pinned low by the first assignment, y climbing: terminates
    program = diagonal(">", 0, (0, 5), (1, 1), 9, 1)
    v = decide(program)
    assert v == Terminating(4)  # states (5,2), (5,3), (5,4), (5,5)
    assert agreement_check(program, v, 100).ok
    # both pinned inside the guard: frozen
    program = diagonal(">", 0, (0, 7), (0, 3), 100, 1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "diag-const"
    oracle = run(program, 100)
    assert isinstance(oracle, CycleDetected)
    # both pinned outside the guard: exits after the first jump
    program = diagonal(">", 0, (0, 3), (0, 7), 100, 1)
    assert decide(program) == Terminating(1)
    # a < guard is decided on the mirrored gap y - x; the cycle names (x, y)
    program = diagonal("<", 5, (0, 4), (0, 7), 0, 1)
    v = decide(program)
    assert v == NonTerminating("diag-const", CycleWitness(((4, 7),)))
    assert step_values(program, v.witness.values[0]) == (4, 7)


def test_identity_counts_as_pinned():
    program = diagonal(">", 0, (1, 0), (1, -2), 5, 1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "diag-const"
    assert agreement_check(program, v).ok


def test_table2_rows_3_4_dominance_persists():
    # after the certificate fires, the predicate must keep holding
    program = diagonal(">", 1, (2, 0), (1, 1), 3, 1)
    v = decide(program)
    assert isinstance(v, NonTerminating) and v.rule == "T2-row3"
    x, y = 3, 1
    fired = False
    for _ in range(v.witness.iteration + 100):
        x, y = 2 * x, y + 1
        if fired:
            assert x > y + 1
        fired = fired or x > y + 1
    assert fired


def test_normalization_preserves_verdicts():
    from monoterm.model import LoopProgram

    rng = random.Random(99)
    for _ in range(400):
        program = diagonal(
            rng.choice(("<", "<=")),
            rng.randint(-20, 20),
            (rng.randint(0, 3), rng.randint(-8, 8)),
            (rng.randint(0, 3), rng.randint(-8, 8)),
            rng.randint(-20, 20),
            rng.randint(-20, 20),
        )
        direct = decide(program)
        if isinstance(direct, Unsupported):
            continue
        agreement = agreement_check(program, direct, 10**5)
        assert agreement.ok, (program, direct, agreement)
        prenormalized = LoopProgram(normalize_direction(program.shape), program.init)
        mirrored = decide(prenormalized)
        assert type(mirrored) is type(direct)
        if isinstance(direct, Terminating):
            assert mirrored.iterations == direct.iterations


def test_both_arithmetic_matches_gap_reduction():
    rng = random.Random(4242)
    for _ in range(500):
        v1, v2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if v1 == 0 or v2 == 0:
            continue
        op = rng.choice((">", ">="))
        c = rng.randint(-15, 15)
        x0, y0 = rng.randint(-15, 15), rng.randint(-15, 15)
        program = diagonal(op, c, (1, v1), (1, v2), x0, y0)
        full = decide(program)
        gap_guard = DiagonalFreeGuard("g", program.shape.guard.op, c)
        reduced = decide_single(SinglePathLoop(gap_guard, Update(1, v1 - v2)), {"g": x0 - y0})
        assert type(full) is type(reduced)
        if isinstance(full, Terminating):
            assert full.iterations == reduced.iterations


def test_class_pair_oracle_agreement_sample():
    rng = random.Random(31337)
    kinds = list(ClassKind)
    for _ in range(300):
        kx, ky = rng.choice(kinds), rng.choice(kinds)
        program = diagonal_for_pair(rng, kx, ky, 30)
        verdict = decide(program)
        assert not isinstance(verdict, Unsupported)
        agreement = agreement_check(program, verdict, 10**6)
        assert agreement.ok, (program, verdict, agreement)
