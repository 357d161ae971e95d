"""orbit.direction and orbit.classify: one sign rule, and the class it reads."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monoterm import Update
from monoterm.model import ClassKind, Direction, NonMonotoneUpdateError
from monoterm.orbit import classify, direction


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
