import random

from monoterm import (
    CycleWitness,
    DiagonalFreeGuard,
    NonTerminating,
    RelOp,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Update,
    agreement_check,
    decide,
)
from monoterm.model import NonMonotoneUpdateError
from monoterm.parser import parse
from monoterm.single import decide_single

from conftest import NEG_SINGLE_GUARD_FALSE, single


def _decide(op, c, upd, x0):
    return decide_single(SinglePathLoop(DiagonalFreeGuard("x", op, c), Update(*upd)), {"x": x0})


def test_lemma1_terminating_down_against_lower_bound():
    verdict = _decide(RelOp.GE, 5, (1, -1), 7)
    assert verdict == Terminating(3)  # 7 -> 6 -> 5 -> 4


def test_lemma1_nonterminating_up_against_lower_bound():
    verdict = _decide(RelOp.GE, 0, (1, 1), 0)
    assert isinstance(verdict, NonTerminating)
    assert verdict.rule == "Lemma1"


def test_guard_false_initially():
    assert _decide(RelOp.GT, 0, (1, 1), 0) == Terminating(0)


def test_guard_false_before_negative_coefficient_is_classified():
    program = parse(NEG_SINGLE_GUARD_FALSE)
    v = decide(program)
    assert v == Terminating(0)
    assert agreement_check(program, v, 10).ok


def test_constant_pinned_inside_guard_never_exits():
    # the value a constant orbit stays on is the value after one step
    for upd, x0 in (
        ((0, -3), 5),  # x := b lands on b
        ((1, 0), 7),  # x := x + 0 stays at x0
        ((2, 4), -4),  # x := 2*x + 4 at its fixed point
    ):
        verdict = _decide(RelOp.LT, 100, upd, x0)
        assert verdict == NonTerminating(
            "Lemma1-const", CycleWitness((Update(*upd).apply(x0),))
        ), (upd, x0)
        agreement = agreement_check(single("<", 100, upd, x0), verdict, 1000)
        assert agreement.ok, (upd, x0, agreement)


def test_constant_pinned_outside_guard_exits_after_one_step():
    assert _decide(RelOp.LT, 100, (0, 200), 5) == Terminating(1)


def test_exponential_exit_counts():
    # 3 -> 6 -> 12 -> 24 -> 48 -> 96 -> 192: first value > 100 after 6 steps
    assert _decide(RelOp.LE, 100, (2, 0), 3) == Terminating(6)
    # affine down from 10: 10 -> 5 -> -5 (x := 2x - 15)
    assert _decide(RelOp.GT, 0, (2, -15), 10) == Terminating(2)


def test_oracle_agreement_random_loops():
    rng = random.Random(0xA11CE)
    checked = 0
    for _ in range(600):
        op = rng.choice(("<", "<=", ">", ">="))
        c = rng.randint(-50, 50)
        u = rng.randint(-4, 4)
        v = rng.randint(-50, 50)
        x0 = rng.randint(-50, 50)
        program = single(op, c, (u, v), x0)
        verdict = decide(program)
        if isinstance(verdict, Unsupported):
            continue
        agreement = agreement_check(program, verdict, 10**6)
        assert agreement.ok, (program, verdict, agreement)
        checked += 1
    assert checked > 300


def test_shift_invariance_for_arithmetic_updates():
    rng = random.Random(7)
    for _ in range(300):
        op = rng.choice(list(RelOp))
        c = rng.randint(-30, 30)
        v = rng.randint(-10, 10)
        x0 = rng.randint(-30, 30)
        k = rng.randint(-20, 20)
        try:
            base = _decide(op, c, (1, v), x0)
            shifted = _decide(op, c + k, (1, v), x0 + k)
        except NonMonotoneUpdateError:
            continue
        assert type(base) is type(shifted)
        if isinstance(base, Terminating):
            assert base.iterations == shifted.iterations
