"""The top-level decide: total on parsed loops, typed errors elsewhere."""

import json
import sys

import pytest

from monoterm import (
    DiagonalFreeGuard,
    DivergenceWitness,
    LoopProgram,
    NonTerminating,
    RelOp,
    SinglePathLoop,
    Terminating,
    UnboundVariableError,
    Unsupported,
    Update,
    decide,
    parse,
)

from conftest import NEG_MOVING

# Loops whose derived values are wider than the interpreter's default
# int-to-str limit, with N = 10**4300 - 1 and M = N - 1.
N = "9" * 4300
M = "9" * 4299 + "8"
WIDE_NON_MONOTONE = (  # x := -x first moves at -2N
    f"init x = 0; while (x <= 0) {{ if (x >= -{N}) {{ x := x - {N}; }} "
    f"else {{ x := -1 * x; }} }}"
)
WIDE_FROZEN_GAP = (  # both first differences are N - M = 1: the gap N + M never moves
    f"init x = {N}; init y = -{M}; while (x - y > 0) {{ x := 2 * x - {M}; y := 2 * y + {N}; }}"
)


@pytest.fixture
def default_int_digit_limit():
    """Run the test under the interpreter's default int-to-str limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6 have none
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("default_int_digit_limit")
def test_decide_is_total_under_the_default_int_digit_limit():
    verdict = decide(parse(WIDE_NON_MONOTONE))
    assert verdict == Unsupported(
        "non-monotone update x := -1*x + 0: alternates direction", "non-monotone"
    )
    frozen = decide(parse(WIDE_FROZEN_GAP))
    assert frozen == NonTerminating(
        "diag-gap-frozen", DivergenceWitness(0, "gap frozen at x0 - y0")
    )
    for v in (verdict, frozen):
        json.dumps(v.to_json())


def test_classify_and_walk_give_one_non_monotone_text():
    single = decide(parse("init x = 1; while (x > 0) { x := -2 * x + 5; }"))  # classify
    walked = decide(parse(NEG_MOVING))  # the walk, once x reaches 20
    assert single == Unsupported("non-monotone update x := -2*x + 5: alternates direction")
    assert walked == Unsupported("non-monotone update x := -1*x + 0: alternates direction")


def test_hand_built_program_without_init_raises_unbound_variable():
    shape = SinglePathLoop(DiagonalFreeGuard("x", RelOp.GT, 0), Update(1, -1))
    with pytest.raises(UnboundVariableError) as exc:
        decide(LoopProgram(shape, {}))
    assert exc.value.var == "x"


@pytest.mark.parametrize("budget", (0, -3))
def test_decide_rejects_a_search_budget_below_one(budget):
    # like run's max_steps: the bound is refused before any loop is looked at,
    # single-path loops (which take no budget) and loops that never enter included
    for text in (
        "init x = 3; while (x <= 10) { if (x <= 5) { x := x + 2; } else { x := x - 3; } }",
        "init x = 0; init y = 0; while (x - y > 5) { x := 2 * x; y := y + 1; }",
        "init x = 1; while (x > 0) { x := x - 1; }",
    ):
        with pytest.raises(ValueError, match="search_budget must be >= 1"):
            decide(parse(text), search_budget=budget)
    assert decide(parse("init x = 1; while (x > 0) { x := x - 1; }"), search_budget=1) == (
        Terminating(1)
    )
