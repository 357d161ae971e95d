"""monoterm.orbit: one sign rule (direction), the class it reads (classify),
and the first falsifier (escape_region, the paper's psi_a and psi'_a)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import brute_first_falsifier
from monoterm import AnalysisError, RelOp, Update
from monoterm.model import ClassKind, Direction, NonMonotoneUpdateError
from monoterm.orbit import classify, direction, escape_region


def iterate(upd: Update, x0: int, n: int) -> int:
    x = x0
    for _ in range(n):
        x = upd.apply(x)
    return x


def kind_and_direction(upd: Update, x0: int) -> tuple[ClassKind, Direction]:
    return classify(upd, x0), direction(upd, x0)


def test_arithmetic_up():
    assert kind_and_direction(Update(1, 1), 15) == (ClassKind.ARITHMETIC, Direction.UP)


def test_geometric_up():
    assert kind_and_direction(Update(2, 0), 3) == (ClassKind.GEOMETRIC, Direction.UP)


def test_affine_down_from_negative_start():
    # rate 2, offset 1 from -5: first difference (2-1)*(-5)+1 = -4 < 0
    assert kind_and_direction(Update(2, 1), -5) == (ClassKind.AFFINE, Direction.DOWN)
    values = [iterate(Update(2, 1), -5, n) for n in range(10)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_identity_is_constant():
    assert kind_and_direction(Update(1, 0), 7) == (ClassKind.CONSTANT, Direction.FLAT)


def test_direct_assignment_is_constant():
    assert kind_and_direction(Update(0, 9), 100) == (ClassKind.CONSTANT, Direction.FLAT)


def test_geometric_from_zero_collapses_to_constant():
    assert classify(Update(2, 0), 0) is ClassKind.CONSTANT


def test_affine_fixed_point_collapses_to_constant():
    # x := 2x + 4 fixes -4
    assert kind_and_direction(Update(2, 4), -4) == (ClassKind.CONSTANT, Direction.FLAT)


def test_negative_coefficient_rejected():
    with pytest.raises(NonMonotoneUpdateError):
        classify(Update(-1, 0), 5)
    with pytest.raises(NonMonotoneUpdateError):
        classify(Update(-2, 3), 2)


def test_negative_coefficient_fixed_point_is_constant():
    # x := -x + 2 fixes 1; the orbit from 1 never moves
    assert kind_and_direction(Update(-1, 2), 1) == (ClassKind.CONSTANT, Direction.FLAT)


updates = st.tuples(st.integers(0, 4), st.integers(-10, 10)).map(lambda t: Update(*t))


@given(updates, st.integers(-50, 50))
def test_direction_soundness(upd, x0):
    moves = direction(upd, x0)
    values = [iterate(upd, x0, n) for n in range(0, 101)]
    pairs = list(zip(values, values[1:]))
    if moves is Direction.UP:
        assert all(b > a for a, b in pairs)
    elif moves is Direction.DOWN:
        assert all(b < a for a, b in pairs)
    else:
        assert all(b == a for a, b in pairs[1:])  # first step may jump to the pinned value


@given(st.integers(-5, 5), st.integers(-10, 10), st.integers(-30, 30))
@example(-1, 0, 0)  # x := -x is flat at its fixed point 0
@example(-1, 0, 5)  # and moves, alternating, everywhere else
def test_classifier_totality(u, v, x0):
    # direction is the one sign rule: classify is CONSTANT exactly where it is
    # FLAT, and raises exactly where it raises, with the same text
    upd = Update(u, v)
    try:
        moves = direction(upd, x0)
    except NonMonotoneUpdateError as err:
        assert u < 0 and upd.first_difference(x0) != 0
        with pytest.raises(NonMonotoneUpdateError) as raised:
            classify(upd, x0)
        assert str(raised.value) == str(err)
        return
    kind = classify(upd, x0)
    assert (kind is ClassKind.CONSTANT) == (moves is Direction.FLAT)
    d = upd.first_difference(x0)
    if kind is ClassKind.CONSTANT:
        assert u == 0 or d == 0
        return
    assert moves is (Direction.UP if d > 0 else Direction.DOWN)
    if kind is ClassKind.ARITHMETIC:
        assert u == 1 and v != 0
    elif kind is ClassKind.GEOMETRIC:
        assert u > 1 and v == 0 and x0 != 0
    else:
        assert kind is ClassKind.AFFINE
        assert u > 1 and v != 0


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
