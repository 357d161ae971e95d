"""The small-scope census: every loop in a small box, decided and checked.

census_counts.json, beside this file, gives each shape's box and the
number of terminating, non-terminating and unsupported loops in it.  A
box holds every loop whose coefficients lie in [lo, hi], whose offsets,
guard and branch-condition bounds lie in [-n, n] for their own n, and
whose start values lie in [-starts, starts], under all four relational
operators on every guard and branch condition.  The test decides each
loop and asserts that:
- the bounded oracle agrees with every decided verdict at 20,000 steps,
  and runs every terminating loop to exit at exactly the decided count;
- every Unsupported verdict is non-monotone, on a loop with a negative
  coefficient;
- the counts match the table.  A change that widens the decided scope
  changes the verdicts of unsupported loops only.
"""

import itertools
import json
from pathlib import Path

import pytest

from monoterm import (
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    RelOp,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Update,
    agreement_check,
    decide,
)

TABLE = json.loads((Path(__file__).with_name("census_counts.json")).read_text())
ORACLE_STEPS = 20_000


def _span(n: int) -> range:
    return range(-n, n + 1)


def _box(shape: str):
    """Every (program, updates) pair in the shape's box."""
    box = TABLE[shape]["box"]
    lo, hi = box["coefficients"]
    updates = [Update(a, b) for a in range(lo, hi + 1) for b in _span(box["offsets"])]
    guards = list(itertools.product(RelOp, _span(box["bounds"])))
    starts = _span(box["starts"])
    if shape == "single":
        for (op, c), upd, x0 in itertools.product(guards, updates, starts):
            yield LoopProgram(SinglePathLoop(DiagonalFreeGuard("x", op, c), upd), {"x": x0}), (upd,)
    elif shape == "diagonal":
        for (op, c), ux, uy, x0, y0 in itertools.product(guards, updates, updates, starts, starts):
            loop = DiagonalLoop(DiagonalGuard("x", "y", op, c), ux, uy)
            yield LoopProgram(loop, {"x": x0, "y": y0}), (ux, uy)
    else:
        for (op, c), (cop, c1), u1, u2, x0 in itertools.product(
            guards, guards, updates, updates, starts
        ):
            guard, cond = DiagonalFreeGuard("x", op, c), DiagonalFreeGuard("x", cop, c1)
            yield LoopProgram(MultiPathLoop(guard, cond, u1, u2), {"x": x0}), (u1, u2)


@pytest.mark.parametrize("shape", ["single", "diagonal", "multipath"])
def test_every_loop_in_the_box_is_checked_and_counted(shape):
    counts = {"loops": 0, "terminating": 0, "nonterminating": 0, "unsupported": 0}
    for program, updates in _box(shape):
        verdict = decide(program)
        counts["loops"] += 1
        if isinstance(verdict, Unsupported):
            counts["unsupported"] += 1
            assert verdict.code == "non-monotone", (program, verdict)
            assert any(upd.coeff < 0 for upd in updates), (program, verdict)
            continue
        counts["terminating" if isinstance(verdict, Terminating) else "nonterminating"] += 1
        agreement = agreement_check(program, verdict, ORACLE_STEPS)
        assert agreement.ok, (program, verdict, agreement.details)
        # a terminating count is exact: the oracle ran to the same exit
        assert agreement.note is None or not isinstance(verdict, Terminating), (program, verdict)
    assert counts == TABLE[shape]["counts"]
