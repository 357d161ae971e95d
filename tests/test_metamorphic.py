"""Metamorphic relations: a loop and its image under a change of variables
get the same verdict, with no oracle.

x' = sign * x + shift maps each orbit one to one onto the image loop's orbit,
so the image exits after exactly as many iterations, or never:
- negation (sign -1, shift 0) mirrors each relation and negates bounds,
  offsets and starts;
- translation (x' = x - k) turns an offset b into b + (a - 1) * k and shifts
  bounds and starts by k; in a diagonal loop y shifts by its own j;
- in a diagonal loop, swapping the guard's sides: x - y op c holds exactly
  when y - x op.mirrored() -c does.
"""

from hypothesis import given
from hypothesis import strategies as st

from conftest import OPS, diagonal, multipath, single
from monoterm import (
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Update,
    decide,
)

ops = st.sampled_from(sorted(OPS))
constants = st.one_of(st.integers(-20, 20), st.integers(-(10**12), 10**12))
updates = st.tuples(st.integers(0, 4), constants)

diagonals = st.builds(diagonal, ops, constants, updates, updates, constants, constants)
loops = st.one_of(
    st.builds(single, ops, constants, updates, constants),
    diagonals,
    st.builds(multipath, ops, constants, ops, constants, updates, updates, constants),
)


def image(program: LoopProgram, sign: int, shift: dict[str, int]) -> LoopProgram:
    """The loop over x' = sign * x + shift[x], for sign 1 or -1."""

    def update(upd: Update, var: str) -> Update:
        return Update(upd.coeff, sign * upd.offset + (1 - upd.coeff) * shift[var])

    def op(rel):
        return rel if sign == 1 else rel.mirrored()

    def free(g: DiagonalFreeGuard) -> DiagonalFreeGuard:
        return DiagonalFreeGuard(g.var, op(g.op), sign * g.bound + shift[g.var])

    s = program.shape
    if isinstance(s, SinglePathLoop):
        shape = SinglePathLoop(free(s.guard), update(s.update, s.guard.var))
    elif isinstance(s, DiagonalLoop):
        g = s.guard
        bound = sign * g.bound + shift[g.lhs] - shift[g.rhs]
        shape = DiagonalLoop(
            DiagonalGuard(g.lhs, g.rhs, op(g.op), bound),
            update(s.lhs_update, g.lhs),
            update(s.rhs_update, g.rhs),
        )
    else:
        x = s.guard.var
        shape = MultiPathLoop(
            free(s.guard), free(s.branch_cond), update(s.then_update, x), update(s.else_update, x)
        )
    init = {var: sign * value + shift[var] for var, value in program.init.items()}
    return LoopProgram(shape, init)


def assert_same_verdict(program: LoopProgram, mapped: LoopProgram) -> None:
    verdict, other = decide(program), decide(mapped)
    assert type(verdict) is type(other), (program, verdict, mapped, other)
    if isinstance(verdict, Terminating):
        assert verdict.iterations == other.iterations, (program, verdict, mapped, other)
    elif isinstance(verdict, Unsupported):
        assert verdict.code == other.code, (program, verdict, mapped, other)


@given(loops)
def test_negation_keeps_the_verdict(program):
    assert_same_verdict(program, image(program, -1, {"x": 0, "y": 0}))


@given(loops, constants, constants)
def test_translation_keeps_the_verdict(program, k, j):
    assert_same_verdict(program, image(program, 1, {"x": -k, "y": -j}))


@given(diagonals)
def test_swapping_a_diagonal_guards_sides_keeps_the_verdict(program):
    s = program.shape
    g = s.guard
    swapped = DiagonalLoop(
        DiagonalGuard(g.rhs, g.lhs, g.op.mirrored(), -g.bound), s.rhs_update, s.lhs_update
    )
    assert_same_verdict(program, LoopProgram(swapped, program.init))
