import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_first_falsifier
from monoterm import AnalysisError, Direction, RelOp, Update, psi_a, psi_prime_a
from monoterm.psi import Escape, Trapped, escape_region


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
    assert escape_region(1, 5, RelOp.LE, Update(2, 0)).value == 8
    assert escape_region(1, 5, RelOp.LT, Update(2, 1)).value == 7
    assert escape_region(-1, -10, RelOp.GE, Update(2, 0)).value == -16


def test_psi_iter_rejects_non_escaping_orbit():
    # doubling a negative never exceeds 5; doubling a positive never drops below 0
    assert escape_region(-4, 5, RelOp.LE, Update(2, 0)) == Trapped(Direction.DOWN)
    assert escape_region(3, 0, RelOp.GE, Update(2, 0)) == Trapped(Direction.UP)


def test_psi_preconditions():
    with pytest.raises(AnalysisError):
        psi_a(9, 5, 2, RelOp.LE)  # start already violates
    with pytest.raises(AnalysisError):
        psi_a(3, 5, 0, RelOp.LE)
    with pytest.raises(AnalysisError):
        psi_a(3, 5, 2, RelOp.GE)  # wrong bound direction
    with pytest.raises(AnalysisError):
        psi_prime_a(1, 5, 2, RelOp.GE)


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
    st.integers(1, 3).map(lambda u: u),
    st.integers(-10, 10),
    st.sampled_from(list(RelOp)),
)
def test_escape_region_matches_direct_iteration(d, bound, u, v, op):
    upd = Update(u, v)
    if not op.holds(d, bound):
        return
    result = escape_region(d, bound, op, upd)
    if isinstance(result, Trapped):
        # the orbit provably never leaves: check 60 steps stay inside
        x = d
        for _ in range(60):
            x = upd.apply(x)
            assert op.holds(x, bound)
        if result.direction is Direction.FLAT:
            assert upd.apply(d) == d
        return
    assert isinstance(result, Escape)
    x, steps = d, 0
    while op.holds(x, bound):
        x = upd.apply(x)
        steps += 1
    assert (result.value, result.steps) == (x, steps)


def test_escape_region_trapped_directions():
    assert escape_region(3, 10, RelOp.LE, Update(1, -2)) == Trapped(Direction.DOWN)
    assert escape_region(3, 0, RelOp.GE, Update(1, 2)) == Trapped(Direction.UP)
    assert escape_region(3, 10, RelOp.LE, Update(1, 0)) == Trapped(Direction.FLAT)
