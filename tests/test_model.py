from hypothesis import given
from hypothesis import strategies as st

import pytest

from monoterm import (
    AnalysisError,
    DiagonalFreeGuard,
    DiagonalGuard,
    RelOp,
    Update,
    eval_guard,
)

ints = st.integers(min_value=-10**6, max_value=10**6)
relops = st.sampled_from(list(RelOp))


def test_eval_guard_examples():
    assert eval_guard(DiagonalFreeGuard("x", RelOp.GE, 5), {"x": 15}) is True
    assert eval_guard(DiagonalGuard("x", "y", RelOp.GT, 0), {"x": 3, "y": 3}) is False
    assert eval_guard(DiagonalFreeGuard("x", RelOp.LE, 10), {"x": 3}) is True


def test_eval_guard_unbound_variable():
    with pytest.raises(AnalysisError):
        eval_guard(DiagonalFreeGuard("x", RelOp.LT, 0), {})
    with pytest.raises(AnalysisError):
        eval_guard(DiagonalGuard("x", "y", RelOp.LT, 0), {"x": 1})


def test_apply_update_examples():
    assert Update(1, 2).apply(5) == 7
    assert Update(0, 9).apply(-100) == 9
    assert Update(2, 1).apply(3) == 7


@given(ints, ints, relops)
def test_guard_negation_is_complement(value, bound, op):
    atom = DiagonalFreeGuard("x", op, bound)
    env = {"x": value}
    assert eval_guard(atom, env) != eval_guard(atom.negated(), env)


@given(ints, ints, ints, relops)
def test_diagonal_negation_is_complement(x, y, bound, op):
    atom = DiagonalGuard("x", "y", op, bound)
    env = {"x": x, "y": y}
    assert eval_guard(atom, env) != eval_guard(atom.negated(), env)


@given(ints, ints, relops)
def test_mirrored_op_flips_both_sides(a, b, op):
    assert op.holds(a, b) == op.mirrored().holds(-a, -b)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-1000, 1000))
def test_update_is_pure_affine(u, v, x):
    upd = Update(u, v)
    assert upd.apply(x) == u * x + v
    assert upd.apply(x) == upd.apply(x)
    assert upd.first_difference(x) == upd.apply(x) - x
