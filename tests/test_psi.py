import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_first_falsifier
from monoterm import AnalysisError, RelOp, Update
from monoterm.psi import escape_region, psi_a, psi_prime_a


def escape(d, bound, op, upd):
    """escape_region for the relation x op bound."""
    return escape_region(d, upd, op.bounded_above, op.limit(bound))


def test_psi_a_examples():
    assert psi_a(3, 5, 2, RelOp.LE) == 7
    assert psi_a(0, 5, 2, RelOp.LE) == 6
    assert psi_a(0, 5, 2, RelOp.LT) == 6


def test_psi_prime_a_examples():
    assert psi_prime_a(10, 5, 2, RelOp.GE) == 4
    # brute force: 9 -> 7 -> 5 -> 3; 5 >= 5 still holds, so 3 is the falsifier
    assert brute_first_falsifier(9, 5, -2, RelOp.GE) == 3
    assert psi_prime_a(9, 5, 2, RelOp.GE) == 3
    assert psi_prime_a(6, 5, 1, RelOp.GT) == 5


def test_psi_iter_examples():
    assert escape(1, 5, RelOp.LE, Update(2, 0)) == (8, 3)
    assert escape(1, 5, RelOp.LT, Update(2, 1)) == (7, 2)
    assert escape(-1, -10, RelOp.GE, Update(2, 0)) == (-16, 4)


def test_psi_iter_rejects_non_escaping_orbit():
    # doubling a negative never exceeds 5; doubling a positive never drops below 0
    with pytest.raises(AnalysisError):
        escape(-4, 5, RelOp.LE, Update(2, 0))
    with pytest.raises(AnalysisError):
        escape(3, 0, RelOp.GE, Update(2, 0))


def test_psi_preconditions():
    with pytest.raises(AnalysisError):
        psi_a(9, 5, 2, RelOp.LE)  # start already violates
    with pytest.raises(AnalysisError):
        psi_a(3, 5, 0, RelOp.LE)
    with pytest.raises(AnalysisError):
        psi_a(3, 5, 2, RelOp.GE)  # wrong bound direction
    with pytest.raises(AnalysisError):
        psi_prime_a(1, 5, 2, RelOp.GE)
    for op in (RelOp.LT, RelOp.LE):  # wrong bound direction
        with pytest.raises(AnalysisError):
            psi_prime_a(1, 5, 2, op)
    for step in (0, -2):
        with pytest.raises(AnalysisError):
            psi_prime_a(9, 5, step, RelOp.GE)
    with pytest.raises(AnalysisError):
        escape_region(9, Update(1, 2), True, 5)  # start outside the region
    with pytest.raises(AnalysisError):
        escape_region(3, Update(0, 9), True, 5)  # a constant assignment is no orbit


up_ops = st.sampled_from((RelOp.LT, RelOp.LE))
down_ops = st.sampled_from((RelOp.GT, RelOp.GE))


@given(st.integers(-80, 80), st.integers(-40, 40), st.integers(1, 15), up_ops)
def test_psi_a_matches_brute_force(d, c1, v, op):
    if not op.holds(d, c1):
        return
    expected = brute_first_falsifier(d, c1, v, op)
    result = psi_a(d, c1, v, op)
    assert result == expected
    assert not op.holds(result, c1)
    assert op.holds(result - v, c1)
    assert (result - d) % v == 0


@given(st.integers(-80, 80), st.integers(-40, 40), st.integers(1, 15), down_ops)
def test_psi_prime_a_matches_brute_force(d, c1, step, op):
    if not op.holds(d, c1):
        return
    expected = brute_first_falsifier(d, c1, -step, op)
    result = psi_prime_a(d, c1, step, op)
    assert result == expected
    assert not op.holds(result, c1)
    assert op.holds(result + step, c1)
    assert (d - result) % step == 0


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
