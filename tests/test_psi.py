"""orbit.escape_region, the first falsifier (the paper's psi_a and psi'_a)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_first_falsifier
from monoterm import AnalysisError, RelOp, Update
from monoterm.orbit import escape_region


def escape(d, bound, op, upd):
    """escape_region for the relation x op bound."""
    return escape_region(d, upd, op.bounded_above, op.limit(bound))


def test_psi_a_examples():
    # the paper's psi_a: escape_region going up by v while x <= c1 or x < c1
    assert escape(3, 5, RelOp.LE, Update(1, 2)) == (7, 2)
    assert escape(0, 5, RelOp.LE, Update(1, 2)) == (6, 3)
    assert escape(0, 5, RelOp.LT, Update(1, 2)) == (6, 3)


def test_psi_prime_a_examples():
    # the paper's psi'_a: escape_region going down by v while x >= c1 or x > c1
    assert escape(10, 5, RelOp.GE, Update(1, -2)) == (4, 3)
    # brute force: 9 -> 7 -> 5 -> 3; 5 >= 5 still holds, so 3 is the falsifier
    assert brute_first_falsifier(9, 5, -2, RelOp.GE) == 3
    assert escape(9, 5, RelOp.GE, Update(1, -2)) == (3, 3)
    assert escape(6, 5, RelOp.GT, Update(1, -1)) == (5, 1)


def test_escape_region_geometric_examples():
    assert escape(1, 5, RelOp.LE, Update(2, 0)) == (8, 3)
    assert escape(1, 5, RelOp.LT, Update(2, 1)) == (7, 2)
    assert escape(-1, -10, RelOp.GE, Update(2, 0)) == (-16, 4)


def test_escape_region_rejects_doubling_away_from_the_limit():
    # doubling a negative never exceeds 5; doubling a positive never drops below 0
    with pytest.raises(AnalysisError):
        escape(-4, 5, RelOp.LE, Update(2, 0))
    with pytest.raises(AnalysisError):
        escape(3, 0, RelOp.GE, Update(2, 0))


def test_psi_preconditions():
    # steps that move away from the limit, or not at all: test_escape_region_trapped_directions
    for d, bound, op, upd in (
        (9, 5, RelOp.LE, Update(1, 2)),  # start already violates
        (1, 5, RelOp.GE, Update(1, -2)),
        (9, 5, RelOp.GE, Update(1, 0)),  # no step
        (3, 5, RelOp.LE, Update(0, 9)),  # a constant assignment is no orbit
    ):
        with pytest.raises(AnalysisError):
            escape(d, bound, op, upd)


up_ops = st.sampled_from((RelOp.LT, RelOp.LE))
down_ops = st.sampled_from((RelOp.GT, RelOp.GE))


@given(st.integers(-80, 80), st.integers(-40, 40), st.integers(1, 15), up_ops)
def test_psi_a_matches_brute_force(d, c1, v, op):
    if not op.holds(d, c1):
        return
    result, n = escape(d, c1, op, Update(1, v))
    assert result == brute_first_falsifier(d, c1, v, op)
    assert not op.holds(result, c1)
    assert op.holds(result - v, c1)
    assert result == d + n * v


@given(st.integers(-80, 80), st.integers(-40, 40), st.integers(1, 15), down_ops)
def test_psi_prime_a_matches_brute_force(d, c1, step, op):
    if not op.holds(d, c1):
        return
    result, n = escape(d, c1, op, Update(1, -step))
    assert result == brute_first_falsifier(d, c1, -step, op)
    assert not op.holds(result, c1)
    assert op.holds(result + step, c1)
    assert result == d - n * step


@given(
    st.integers(-40, 40),
    st.integers(-20, 20),
    st.integers(1, 3),
    st.integers(-10, 10),
    st.sampled_from(list(RelOp)),
)
def test_escape_region_matches_direct_iteration(d, bound, u, v, op):
    upd = Update(u, v)
    if not op.holds(d, bound):
        return
    diff = upd.first_difference(d)
    if diff == 0 or (diff > 0) != op.bounded_above:
        # the orbit never leaves: check 60 steps stay inside, and that it is refused
        x = d
        for _ in range(60):
            x = upd.apply(x)
            assert op.holds(x, bound)
        with pytest.raises(AnalysisError):
            escape(d, bound, op, upd)
        return
    x, steps = d, 0
    while op.holds(x, bound):
        x = upd.apply(x)
        steps += 1
    assert escape(d, bound, op, upd) == (x, steps)


def test_escape_region_trapped_directions():
    for d, bound, op, upd in (
        (3, 10, RelOp.LE, Update(1, -2)),  # moving down, away from an upper limit
        (3, 0, RelOp.GE, Update(1, 2)),  # moving up, away from a lower limit
        (3, 10, RelOp.LE, Update(1, 0)),  # not moving at all
    ):
        with pytest.raises(AnalysisError):
            escape(d, bound, op, upd)


@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(list(RelOp)))
def test_limit_agrees_with_holds(x, c, op):
    limit = op.limit(c)
    assert op.holds(x, c) == (x <= limit if op.bounded_above else x >= limit)
