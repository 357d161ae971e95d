"""Deterministic random loop-corpus generation.

Everything is driven by a single random.Random(seed), so a seed fully
determines the emitted files byte for byte.  Targeted constructors
exist for every multipath table row and every diagonal class pair.
A row instance is built by construction from the row's key: operators
on the key's bound sides, and updates drawn until one has the key's
direction, falling back to an arithmetic update (whose direction is
choosable outright).  Only class-pair instances are verified: a draw
can classify as constant (a geometric update at 0, an affine one at
its fixed point) and is then drawn again.  `_update` is the one
update drawer and `random_program` the one random-loop drawer.
"""

from __future__ import annotations

import random
from functools import partial

from .model import (
    ClassKind,
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    Direction,
    LoopProgram,
    MultiPathLoop,
    RelOp,
    SinglePathLoop,
    Update,
)
from .multipath import ROW_KEYS
from .orbit import classify, direction
from .parser import print_program

SHAPES = ("single", "diagonal", "multipath")
ROW_SHAPES = ("multipath", "mix")  # the corpus shapes that can cover every table row
_BELOW_OPS = (RelOp.GT, RelOp.GE)
_ABOVE_OPS = (RelOp.LT, RelOp.LE)
_RATIOS = (2, 3)
# the update kind drawn for each non-constant class of a class pair
_PAIR_KINDS = {ClassKind.ARITHMETIC: "ra", ClassKind.GEOMETRIC: "rg", ClassKind.AFFINE: "i"}
_CONSTANT, _UP, _FLAT = ClassKind.CONSTANT, Direction.UP, Direction.FLAT


def _int(rng: random.Random, bound: int) -> int:
    return rng.randint(-bound, bound)


def _nonzero(rng: random.Random, bound: int) -> int:
    while True:
        v = _int(rng, bound)
        if v != 0:
            return v


def _step_bound(bound: int) -> int:
    # huge per-step increments only stretch branch-switch cycles; cap them
    return min(bound, 100_000)


def _update(rng: random.Random, kind: str, bound: int) -> Update:
    """One update of a kind: const, identity, ra, rg or i (coefficient >= 0)."""
    if kind == "const":
        return Update(0, _int(rng, bound))
    if kind == "identity":
        return Update(1, 0)
    if kind == "ra":
        return Update(1, _nonzero(rng, max(1, _step_bound(bound) // 2)))
    if kind == "rg":
        return Update(rng.choice(_RATIOS), 0)
    return Update(rng.choice(_RATIOS), _nonzero(rng, _step_bound(bound)))


def _classifiable_update(rng: random.Random, bound: int) -> Update:
    """Any update `classify` accepts (coefficient >= 0)."""
    return _update(rng, rng.choice(("const", "identity", "ra", "rg", "i")), bound)


def _directed_update(rng: random.Random, want: Direction, x0: int, bound: int) -> Update:
    """An update whose direction from x0 is the wanted one.  Always succeeds."""
    if want is _FLAT:
        return _update(rng, "const", bound)
    for _ in range(64):
        upd = _classifiable_update(rng, bound)
        if upd.coeff != 0 and direction(upd, x0) is want:
            return upd
    step = rng.randint(1, max(1, _step_bound(bound) // 2))
    return Update(1, step if want is _UP else -step)


def random_program(rng: random.Random, shape: str, bound: int) -> LoopProgram:
    """A random loop of one of SHAPES, with classifiable updates."""
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {', '.join(SHAPES)}, not {shape!r}")
    upd = partial(_classifiable_update, rng, bound)
    if shape == "diagonal":
        guard = DiagonalGuard("x", "y", rng.choice(_BELOW_OPS + _ABOVE_OPS), _int(rng, bound))
        loop = DiagonalLoop(guard, upd(), upd())
        return LoopProgram(loop, {"x": _int(rng, bound), "y": _int(rng, bound)})
    guard = DiagonalFreeGuard("x", rng.choice(_BELOW_OPS + _ABOVE_OPS), _int(rng, bound))
    if shape == "single":
        loop = SinglePathLoop(guard, upd())
    else:
        cond = DiagonalFreeGuard("x", rng.choice(_BELOW_OPS + _ABOVE_OPS), _int(rng, bound))
        loop = MultiPathLoop(guard, cond, upd(), upd())
    return LoopProgram(loop, {"x": _int(rng, bound)})


def multipath_for_row(rng: random.Random, row: int, bound: int) -> LoopProgram:
    """A multipath program that lands on the given row by construction."""
    phi_below, cond_below, dir1, dir2 = ROW_KEYS[row]
    phi_op = rng.choice(_BELOW_OPS if phi_below else _ABOVE_OPS)
    cond_op = rng.choice(_BELOW_OPS if cond_below else _ABOVE_OPS)
    guard = DiagonalFreeGuard("x", phi_op, _int(rng, bound))
    cond = DiagonalFreeGuard("x", cond_op, _int(rng, bound))
    x0 = _int(rng, bound)
    then_upd = _directed_update(rng, dir1, x0, bound)
    else_upd = _directed_update(rng, dir2, x0, bound)
    return LoopProgram(MultiPathLoop(guard, cond, then_upd, else_upd), {"x": x0})


def diagonal_for_pair(
    rng: random.Random, kind_x: ClassKind, kind_y: ClassKind, bound: int
) -> LoopProgram:
    """A diagonal program whose updates classify exactly as the given kinds."""

    def candidate(kind: ClassKind) -> Update:
        if kind is _CONSTANT:
            return rng.choice((_update(rng, "const", bound), Update(1, 0)))
        return _update(rng, _PAIR_KINDS[kind], bound)

    for _ in range(256):
        x0, y0 = _int(rng, bound), _int(rng, bound)
        upd_x, upd_y = candidate(kind_x), candidate(kind_y)
        if classify(upd_x, x0) is not kind_x or classify(upd_y, y0) is not kind_y:
            continue
        guard = DiagonalGuard("x", "y", rng.choice(_BELOW_OPS + _ABOVE_OPS), _int(rng, bound))
        return LoopProgram(DiagonalLoop(guard, upd_x, upd_y), {"x": x0, "y": y0})
    raise AssertionError(f"could not construct a ({kind_x}, {kind_y}) diagonal instance")


def check_corpus(count: int, shape: str, bound: int, cover_rows: bool) -> None:
    """Raise ValueError, naming the first rule broken, unless generate_corpus may run."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if shape not in SHAPES + ("mix",):
        raise ValueError(f"shape must be one of {', '.join(SHAPES)} or mix, not {shape!r}")
    if cover_rows and (count < len(ROW_KEYS) or shape not in ROW_SHAPES):
        raise ValueError(
            f"cover_rows needs count >= {len(ROW_KEYS)} and shape {' or '.join(ROW_SHAPES)},"
            f" got count {count} and shape {shape!r}"
        )


def generate_corpus(
    seed: int,
    count: int,
    shape: str = "mix",
    bound: int = 20,
    cover_rows: bool = False,
) -> list[tuple[str, str]]:
    """(filename, text) pairs; deterministic in all arguments."""
    check_corpus(count, shape, bound, cover_rows)
    rng = random.Random(seed)
    files = []
    for i in range(count):
        if cover_rows and i < len(ROW_KEYS):
            kind = "multipath"
            program = multipath_for_row(rng, i + 1, bound)
        else:
            kind = rng.choice(SHAPES) if shape == "mix" else shape
            program = random_program(rng, kind, bound)
        files.append((f"{i:04d}_{kind}.loop", print_program(program)))
    return files
