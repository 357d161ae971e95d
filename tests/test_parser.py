import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoterm import (
    DiagonalLoop,
    LoopSyntaxError,
    MissingInitError,
    MultiPathLoop,
    ParseError,
    RelOp,
    ShapeError,
    SinglePathLoop,
    Update,
    parse,
    print_program,
)
from monoterm.gen import random_program
from monoterm.parser import MAX_LITERAL_DIGITS

EXAMPLE1 = "init x = 15; while (x >= 5) { if (x >= 10) { x := x + 1; } else { x := x - 1; } }"
EXAMPLE2 = "init x = 3; while (x <= 10) { if (x <= 5) { x := x + 2; } else { x := x - 3; } }"


def test_parse_example1():
    p = parse(EXAMPLE1)
    assert isinstance(p.shape, MultiPathLoop)
    assert p.init == {"x": 15}
    assert (p.shape.guard.op, p.shape.guard.bound) == (RelOp.GE, 5)
    assert (p.shape.branch_cond.op, p.shape.branch_cond.bound) == (RelOp.GE, 10)
    assert p.shape.then_update == Update(1, 1)
    assert p.shape.else_update == Update(1, -1)


def test_parse_example2():
    p = parse(EXAMPLE2)
    assert isinstance(p.shape, MultiPathLoop)
    assert p.init == {"x": 3}
    assert p.shape.then_update == Update(1, 2)
    assert p.shape.else_update == Update(1, -3)


def test_parse_minimal_single_path():
    p = parse("init x = 0; while (x < 0) { x := x + 1; }")
    assert isinstance(p.shape, SinglePathLoop)
    assert p.shape.guard.op is RelOp.LT


def test_parse_diagonal_in_either_statement_order():
    a = parse("init x = 1; init y = 2; while (x - y > 0) { x := x + 1; y := y + 2; }")
    b = parse("init x = 1; init y = 2; while (x - y > 0) { y := y + 2; x := x + 1; }")
    assert isinstance(a.shape, DiagonalLoop)
    assert a == b
    assert a.shape.lhs_update == Update(1, 1)
    assert a.shape.rhs_update == Update(1, 2)


def test_parse_update_forms():
    text = "init x = 4; while (x < 9) {{ {} }}"
    cases = {
        "x := 7;": Update(0, 7),
        "x := -7;": Update(0, -7),
        "x := 3 * x;": Update(3, 0),
        "x := x + 0;": Update(1, 0),
        "x := x - 12;": Update(1, -12),
        "x := 2 * x - 5;": Update(2, -5),
        "x := -2 * x + 5;": Update(-2, 5),
    }
    for stmt, expected in cases.items():
        assert parse(text.format(stmt)).shape.update == expected


def test_comments_and_whitespace():
    text = """
    # a corpus annotation
    init x = -3;   # starting point
    while (x <= 10) {
        x := x + 2;  # climb
    }
    """
    p = parse(text)
    assert p.init == {"x": -3}
    assert p.shape.update == Update(1, 2)


def test_syntax_error_carries_position_inside_input():
    text = "init x = 1;\nwhile (x >< 5) { x := x + 1; }"
    with pytest.raises(LoopSyntaxError) as exc:
        parse(text)
    err = exc.value
    lines = text.splitlines()
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.col <= len(lines[err.line - 1]) + 1


def test_end_of_input_is_named_the_same_by_every_expectation():
    with pytest.raises(LoopSyntaxError) as exc:
        parse("init x = 1;\nwhile (x")
    assert str(exc.value) == "2:9: expected a relational operator, found end of input"
    with pytest.raises(LoopSyntaxError) as exc:
        parse("init x = 1;\nwhile (x < 5) { x := x")
    assert str(exc.value) == "2:23: expected '+' or '-', found end of input"
    with pytest.raises(LoopSyntaxError) as exc:
        parse("init x = 1;\nwhile (x < 5")
    assert str(exc.value) == "2:13: expected ')', found end of input"


MUTATION_CHARS = list("xy_q09 \t\n\r#;:=<>(){}+-*") + ["²", "\v", "é", "٣", "$", "while"]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + rng.choice(MUTATION_CHARS) + text[i:]
        elif roll < 0.8:
            text = text[:i] + text[i + rng.randint(1, 4):]
        else:
            text = text[:i]
    return text


def test_mutated_programs_raise_only_parse_errors_inside_the_text():
    rng = random.Random(20261019)
    syntax_errors = 0
    for _ in range(2000):
        shape = rng.choice(("single", "diagonal", "multipath"))
        text = _mutate(rng, print_program(random_program(rng, shape, rng.choice((3, 20, 10**6)))))
        try:
            parse(text)
        except LoopSyntaxError as err:
            syntax_errors += 1
            lines = text.split("\n")  # only '\n' ends a line; '\r' and '\v' do not
            assert 1 <= err.line <= len(lines), (text, err)
            assert 1 <= err.col <= len(lines[err.line - 1]) + 1, (text, err)
        except ParseError:
            pass
    assert syntax_errors > 1000


def test_missing_init():
    with pytest.raises(MissingInitError) as exc:
        parse("while (x < 5) { x := x + 1; }")
    assert exc.value.var == "x"
    with pytest.raises(MissingInitError):
        parse("init x = 0; while (x - y > 0) { x := x + 1; y := y + 1; }")


def test_shape_errors():
    with pytest.raises(ShapeError):  # three statements
        parse("init x = 0; init y = 0; while (x - y > 0) { x := x + 1; y := y + 1; y := y + 2; }")
    with pytest.raises(ShapeError):  # two statements under a diagonal-free guard
        parse("init x = 0; init y = 0; while (x > 0) { x := x + 1; y := y + 1; }")
    with pytest.raises(ShapeError):  # diagonal guard with one statement
        parse("init x = 0; init y = 0; while (x - y > 0) { x := x + 1; }")
    with pytest.raises(ShapeError):  # branch condition over a different variable
        parse("init x = 0; init y = 0; while (x > 0) { if (y > 0) { x := 1; } else { x := 2; } }")
    with pytest.raises(ShapeError):  # update reads a different variable
        parse("init x = 0; init y = 0; while (x > 0) { x := y + 1; }")
    with pytest.raises(ShapeError):  # self-difference guard
        parse("init x = 0; while (x - x > 0) { x := x + 1; }")
    with pytest.raises(ShapeError):  # duplicate init
        parse("init x = 0; init x = 1; while (x > 0) { x := x - 1; }")
    with pytest.raises(ShapeError):  # empty body
        parse("init x = 0; while (x > 0) { }")
    with pytest.raises(ShapeError, match="diagonal-free loop guard"):  # if under a diagonal guard
        parse("init x = 0; init y = 0; "
              "while (x - y > 0) { if (x > 0) { x := 1; } else { x := 2; } }")
    with pytest.raises(ShapeError, match="branch conditions"):  # diagonal branch condition
        parse("init x = 0; init y = 0; "
              "while (x > 0) { if (x - y > 0) { x := 1; } else { x := 2; } }")
    with pytest.raises(ShapeError, match="not 'y'"):  # a branch updates another variable
        parse("init x = 0; init y = 0; while (x > 0) { if (x > 0) { y := 1; } else { x := 2; } }")
    with pytest.raises(ShapeError, match="exactly 'x' and 'y'"):  # diagonal body, wrong pair
        parse("init x = 0; init y = 0; init z = 0; while (x - y > 0) { x := x + 1; z := z + 1; }")


def test_roundtrip_examples():
    for text in (EXAMPLE1, EXAMPLE2):
        p = parse(text)
        assert parse(print_program(p)) == p


def test_print_example_renders_source_modulo_whitespace():
    printed = print_program(parse(EXAMPLE1))
    assert "".join(printed.split()) == "".join(EXAMPLE1.split())


def test_roundtrip_generated_corpus():
    rng = random.Random(20260810)
    for _ in range(400):
        shape = rng.choice(("single", "diagonal", "multipath"))
        p = random_program(rng, shape, rng.choice((3, 20, 10**6)))
        assert parse(print_program(p)) == p


signed_ints = st.integers(min_value=-(10**9), max_value=10**9)


@given(signed_ints, signed_ints, st.sampled_from(["<", "<=", ">", ">="]))
def test_roundtrip_guard_constants(x0, c, op):
    p = parse(f"init x = {x0}; while (x {op} {c}) {{ x := x + 1; }}")
    assert p.init["x"] == x0
    assert p.shape.guard.bound == c
    assert parse(print_program(p)) == p


def test_integer_literal_over_digit_limit_is_syntax_error():
    text = "init x = 1;\nwhile (x < -" + "7" * 4400 + ") { x := x + 1; }"
    with pytest.raises(LoopSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (2, 13)
    assert exc.value.found == "4400 digits"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("process_limit", [0, 5000])
def test_literal_digit_limit_is_the_parsers_own(process_limit):
    # lifting or raising the interpreter's int-to-str limit does not widen the rule
    assert MAX_LITERAL_DIGITS == 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(process_limit)
    try:
        with pytest.raises(LoopSyntaxError) as exc:
            parse("init x = 1;\nwhile (x < " + "7" * 4301 + ") { x := x + 1; }")
        assert str(exc.value) == (
            "2:12: expected an integer of at most 4300 digits, found 4301 digits"
        )
        p = parse("init x = 1;\nwhile (x < " + "7" * 4300 + ") { x := x + 1; }")
        assert p.shape.guard.bound == int("7" * 4300)
    finally:
        sys.set_int_max_str_digits(saved)


def test_numeric_character_that_is_not_a_decimal_digit_is_not_a_token():
    # '²' and '①' pass str.isdigit() but int() rejects them
    for char in ("²", "①"):
        with pytest.raises(LoopSyntaxError) as exc:
            parse(f"init x = {char}; while (x > 0) {{ x := x - 1; }}")
        assert str(exc.value) == f"1:10: expected a token, found '{char}'"
    # after a letter it is part of an identifier, as any alphanumeric character is
    p = parse("init x² = 3; while (x² > 0) { x² := x² - 1; }")
    assert p.init == {"x²": 3}
    assert p.shape.guard.var == "x²"
