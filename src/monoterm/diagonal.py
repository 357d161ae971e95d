"""Decision procedure for diagonal-guard loops: while (x - y op c) { ... }.

decide_diagonal_program is the one decider.  It normalizes the loop so the
guard bounds the gap x - y from below (op in {>, >=}), reads the guard as
the inclusive integer limit x - y >= low once, and takes the cases in
order: a constant side leaves one moving variable, x rising while y falls
never exits, and two arithmetic sides give an arithmetic gap.  Every other
pair runs one engine, the committed-gap run over the exact iterates, which
looks its rule and stopping condition up in a table.  The only cycle
witness, both sides pinned, is built in the loop's own variable order.

The run certifies non-termination with two ingredients: the stopping
condition for the class pair (which names the divergence pattern) and a
gap-commit test.  The commit test matters because the gap of mixed
linear/exponential pairs can dip transiently before running away, and a
stopping condition alone can fire inside such a dip on an instance that
actually terminates (e.g. x := x - 100 from 40 against y := 2*y from
-25 with guard x - y > -30 stops after two iterations, yet y < x - c,
x < 0, y < 0 all hold at iteration 1).  Per-step gap differences
u1^n * dx - u2^n * dy are a sum of two geometric sequences, so their sign
changes at most once; once the current difference and its limit sign
are both non-negative the gap can never fall again, and the certificate
is exact.  Pairs missing from the table (a linear side against a winning
exponential one, or x falling while y rises) have a negative limit sign,
so their run can only terminate or exhaust its budget.
"""

from __future__ import annotations

from typing import Callable

from .model import (
    SEARCH_BUDGET,
    ClassKind,
    CycleWitness,
    DiagonalGuard,
    DiagonalLoop,
    Direction,
    DivergenceWitness,
    Env,
    FormulaWitness,
    NonTerminating,
    Terminating,
    Unsupported,
    Update,
    Verdict,
)
from .orbit import classify, direction, escape_region

RULE_OPPOSITE = "diag-opposite"
RULE_PINNED = "diag-const"
RULE_RA_RA = "diag-ra-ra"
RULE_RG_RG = "diag-rg-rg"
RULE_FROZEN = "diag-gap-frozen"

# Stopping conditions on (x, y, c).  The ratio conjuncts of rows 5-8 are not
# re-tested: when they fail, the limit sign is negative and the run never
# reaches the condition.
_Stop = Callable[[int, int, int], bool]
_ABOVE: _Stop = lambda x, y, c: x > y + c
_BELOW: _Stop = lambda x, y, c: y < x - c and x < 0 and y < 0
# Geometric pairs: the gap commit alone certifies; the condition records the
# ratio comparison it confirms or overrides (with u1 = u2 the gap is
# (x0 - y0) * u^n and follows the sign of x0 - y0).
_RATIOS = "u1={u1} {cmp} u2={u2}, direction {direction}"

_A, _G, _F = ClassKind.ARITHMETIC, ClassKind.GEOMETRIC, ClassKind.AFFINE
_UP, _DOWN, _FLAT = Direction.UP, Direction.DOWN, Direction.FLAT

# (kind of x, kind of y, direction) -> (rule, condition name, predicate)
_RUN_RULES: dict[tuple[ClassKind, ClassKind, Direction], tuple[str, str, _Stop | None]] = {
    (_A, _G, _DOWN): ("T2-row1", "y < x - c, x < 0, y < 0", _BELOW),
    (_A, _F, _DOWN): ("T2-row2", "y < x - c, x < 0, y < 0", _BELOW),
    (_G, _A, _UP): ("T2-row3", "x > y + c", _ABOVE),
    (_F, _A, _UP): ("T2-row4", "x > y + c", _ABOVE),
    (_G, _F, _UP): ("T2-row5", "x > y + c, u1 >= u2", _ABOVE),
    (_F, _G, _UP): ("T2-row6", "x > y + c, u1 >= u2", _ABOVE),
    # both-affine pairs share the two-exponential stopping conditions
    (_F, _F, _UP): ("T2-row5", "x > y + c, u1 >= u2", _ABOVE),
    (_G, _F, _DOWN): ("T2-row7", "y < x - c, x < 0, y < 0, u1 <= u2", _BELOW),
    (_F, _G, _DOWN): ("T2-row8", "y < x - c, x < 0, y < 0, u1 <= u2", _BELOW),
    (_F, _F, _DOWN): ("T2-row7", "y < x - c, x < 0, y < 0, u1 <= u2", _BELOW),
    (_G, _G, _UP): (RULE_RG_RG, _RATIOS, None),
    (_G, _G, _DOWN): (RULE_RG_RG, _RATIOS, None),
}
_NO_RULE = ("", "", None)  # negative limit sign: the run never certifies


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def normalize_direction(loop: DiagonalLoop) -> DiagonalLoop:
    """Rewrite (x - y < c) as (y - x > -c) so the gap is bounded from below."""
    g = loop.guard
    if g.op.bounded_below:
        return loop
    return DiagonalLoop(
        DiagonalGuard(g.rhs, g.lhs, g.op.mirrored(), -g.bound),
        loop.rhs_update,
        loop.lhs_update,
    )


def decide_diagonal_program(
    loop: DiagonalLoop, init: Env, search_budget: int = SEARCH_BUDGET
) -> Verdict:
    """Normalize, test the guard at iteration 0, take both orbits' directions,
    and take the cases in order: a pinned side, opposite directions, an
    arithmetic gap, then the committed-gap run."""
    norm = normalize_direction(loop)
    c = norm.guard.bound
    low = norm.guard.op.limit(c)  # the guard holds while x - y >= low
    x0, y0 = init[norm.guard.lhs], init[norm.guard.rhs]
    if x0 - y0 < low:
        return Terminating(0)
    upd_x, upd_y = norm.lhs_update, norm.rhs_update
    dir_x, dir_y = direction(upd_x, x0), direction(upd_y, y0)
    if _FLAT in (dir_x, dir_y):
        # One concrete step lands direct assignments on their pinned value (the
        # first application of x := b may jump), after which the gap moves with
        # the non-pinned side only, or not at all.
        x1, y1 = upd_x.apply(x0), upd_y.apply(y0)
        if x1 - y1 < low:
            return Terminating(1)
        if dir_x is dir_y:  # both pinned: a one-state cycle, in the loop's own order
            state = (x1, y1) if norm is loop else (y1, x1)
            return NonTerminating(RULE_PINNED, CycleWitness((state,)))
        if dir_x is _UP or dir_y is _DOWN:  # the gap rises
            return NonTerminating(
                RULE_PINNED,
                DivergenceWitness(1, "gap moves away from the bound beside a pinned variable"),
            )
        if dir_x is _FLAT:  # y rises past x1 - low
            _, steps = escape_region(y1, upd_y, True, x1 - low)
        else:  # x falls past low + y1
            _, steps = escape_region(x1, upd_x, False, low + y1)
        return Terminating(1 + steps)
    if dir_x is _UP and dir_y is _DOWN:
        return NonTerminating(
            RULE_OPPOSITE,
            FormulaWitness(
                conjuncts=(
                    ("initial values satisfy guard", True),
                    ("x strictly increases and y strictly decreases", True),
                ),
                bindings=(("x0", x0), ("y0", y0), ("c", c)),
            ),
        )
    if upd_x.coeff == upd_y.coeff == 1:
        # the gap moves by v1 - v2 each step
        v1, v2 = upd_x.offset, upd_y.offset
        if v1 < v2:
            _, steps = escape_region(x0 - y0, Update(1, v1 - v2), False, low)
            return Terminating(steps)
        if dir_x is _UP:
            reason = f"v1={v1} >= v2={v2}"
        else:
            reason = f"|v1|={abs(v1)} <= |v2|={abs(v2)}"
        return NonTerminating(
            RULE_RA_RA,
            FormulaWitness(
                conjuncts=(("initial values satisfy guard", True), (reason, True)),
                bindings=(("v1", v1), ("v2", v2)),
            ),
        )
    return _committed_gap_run(norm, dir_x, x0, y0, low, search_budget)


def _committed_gap_run(
    norm: DiagonalLoop, dir_x: Direction, x0: int, y0: int, low: int, budget: int
) -> Verdict:
    """Exact search: terminate at guard violation, certify divergence at the
    first committed iterate where the class pair's stopping condition holds.

    The guard is x - y >= low; the stopping conditions read the bound c.
    Both coefficients are >= 1 here.  When x moves linearly (T2 rows 1-2)
    it falls below zero only linearly fast, so once everything but x < 0
    holds, escape_region gives the first qualifying iteration instead of
    simulating it.
    """
    upd_x, upd_y, c = norm.lhs_update, norm.rhs_update, norm.guard.bound
    u1, u2 = upd_x.coeff, upd_y.coeff
    key = (classify(upd_x, x0), classify(upd_y, y0), dir_x)
    rule, condition, stop = _RUN_RULES.get(key, _NO_RULE)
    cmp = ">=" if u1 >= u2 else "<"
    condition = condition.format(u1=u1, u2=u2, cmp=cmp, direction=dir_x.value)
    dx0 = upd_x.first_difference(x0)
    dy0 = upd_y.first_difference(y0)
    if u1 > u2:
        limit_sign = _sign(dx0)
    elif u1 < u2:
        limit_sign = _sign(-dy0)
    else:
        limit_sign = _sign(dx0 - dy0)
    if limit_sign == 0:
        # gap differences are identically zero: the gap never changes
        return NonTerminating(RULE_FROZEN, DivergenceWitness(0, "gap frozen at x0 - y0"))
    x, y = x0, y0
    for n in range(1, budget + 1):
        x, y = upd_x.apply(x), upd_y.apply(y)
        if x - y < low:
            return Terminating(n)
        if limit_sign < 0 or upd_x.first_difference(x) < upd_y.first_difference(y):
            continue  # the gap may still fall; with a negative limit sign, forever
        if stop is None or stop(x, y, c):
            return NonTerminating(rule, DivergenceWitness(n, condition))
        if u1 == 1 and y < x - c and y < 0 <= x:
            _, extra = escape_region(x, upd_x, False, 0)  # first k with x + v1*k < 0
            return NonTerminating(rule, DivergenceWitness(n + extra, condition))
    return Unsupported(f"search budget of {budget} iterations exceeded", "budget")
