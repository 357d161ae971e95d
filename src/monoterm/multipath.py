"""Decision procedure for two-branch multipath loops over one variable:

    while (x op c) { if (x op' c1) { x := f1(x); } else { x := f2(x); } }

One engine decides every loop that enters its body: an accelerated walk
from branch switch to branch switch that jumps over each monotone run
with a first-falsifier computation and detects repeated switch values.
It evaluates branch directions at every value it actually visits.

Table 3, stated once as CASE_ROWS, maps the key (guard bounded below,
branch condition bounded below, then- and else-Direction at x0, written
U, D or C for constant) to the row that names the rule and explains a
non-terminating walk; ROW_KEYS is its inverse.  Rows 29-36 report the
branches' shared direction; rows with a closed formula report its
conjuncts, which must hold.  One predicate, formula_applies, says when a
formula may stand for the walk: every constant branch is a direct
assignment x := b (not x := x, or a fixed point of x := u*x + v), and
the monotone branch re-entered at b moves the way it moves at x0
(x := 2*x increases positive values and decreases negative ones).
Elsewhere, and on the alternating rows 21-24, the walk's witness stands.

At the second switch value the walk tries one O(1) certificate, a
recurrent interval: an interval inside the guard that the loop body maps
into itself and that the orbit has entered.  It decides most
non-terminating alternations however long their cycle.
"""

from __future__ import annotations

from .model import (
    SEARCH_BUDGET,
    CycleWitness,
    Direction,
    DivergenceWitness,
    Env,
    FormulaWitness,
    MultiPathLoop,
    NonMonotoneUpdateError,
    NonTerminating,
    RecurrentWitness,
    Terminating,
    Unsupported,
    Update,
    Verdict,
    Witness,
)
from .orbit import direction, escape_region

_CYCLE_EXPANSION_CAP = 50_000
# A recurrent interval of at most this many integers is walked instead: the
# orbit stays in it, so its cycle closes within that many jumps.
_WALKED_INTERVAL = 64

_U, _D, _C = Direction.UP, Direction.DOWN, Direction.FLAT

#: Table 3: (guard bounded below, condition bounded below, then-direction,
#: else-direction) -> row.
CASE_ROWS: dict[tuple[bool, bool, Direction, Direction], int] = {
    (True, False, _U, _C): 1,
    (False, True, _D, _C): 2,
    (True, True, _C, _U): 3,
    (False, False, _C, _D): 4,
    (True, False, _D, _C): 5,
    (False, True, _U, _C): 6,
    (True, True, _C, _D): 7,
    (False, False, _C, _U): 8,
    (True, False, _C, _U): 9,
    (False, True, _C, _D): 10,
    (False, False, _D, _C): 11,
    (True, True, _U, _C): 12,
    (False, False, _U, _C): 13,
    (False, True, _C, _U): 14,
    (True, True, _D, _C): 15,
    (True, False, _C, _D): 16,
    (True, True, _U, _D): 17,
    (False, False, _D, _U): 18,
    (False, True, _U, _D): 19,
    (True, False, _D, _U): 20,
    (False, False, _U, _D): 21,
    (False, True, _D, _U): 22,
    (True, False, _U, _D): 23,
    (True, True, _D, _U): 24,
    (True, True, _C, _C): 25,
    (True, False, _C, _C): 26,
    (False, True, _C, _C): 27,
    (False, False, _C, _C): 28,
    (True, True, _U, _U): 29,
    (True, False, _U, _U): 30,
    (False, True, _U, _U): 31,
    (False, False, _U, _U): 32,
    (True, True, _D, _D): 33,
    (True, False, _D, _D): 34,
    (False, True, _D, _D): 35,
    (False, False, _D, _D): 36,
}
#: Row -> its CASE_ROWS key.
ROW_KEYS: dict[int, tuple[bool, bool, Direction, Direction]] = {
    row: key for key, row in CASE_ROWS.items()
}


def case_row(loop: MultiPathLoop, x0: int) -> int:
    """The loop's Table 3 row at x0, from both branches' directions at x0 (a
    negative coefficient that moves x0 raises NonMonotoneUpdateError)."""
    dir1 = direction(loop.then_update, x0)
    dir2 = direction(loop.else_update, x0)
    return CASE_ROWS[loop.guard.op.bounded_below, loop.branch_cond.op.bounded_below, dir1, dir2]


# --- Non-termination formulas -----------------------------------------------
#
# Conjunct tokens subject~relation (relation phi, B or !B), evaluated left
# to right with short-circuiting so that every first-falsifier probe
# psi(d) runs only after d's membership in the monotone branch's region
# has been established.  Rows that share a formula share an entry.

_ROW_FORMULAS: dict[int, tuple[tuple[str, ...], ...]] = {
    row: disjuncts
    for rows, disjuncts in (
        ((1, 2, 3, 4), (("x0~phi", "b~phi"),)),
        ((5, 6), (("x0~phi", "x0~!B", "b~phi", "b~!B"),)),
        ((7, 8), (("x0~phi", "x0~B", "b~phi", "b~B"),)),
        ((9, 10), (("x0~phi", "x0~!B"), ("x0~phi", "x0~B", "b~phi"))),
        ((11, 12), (("x0~phi", "x0~B"), ("x0~phi", "x0~!B", "b~phi"))),
        ((13, 15), (
            ("x0~phi", "x0~!B", "b~phi", "b~!B"),
            ("x0~phi", "x0~B", "psi(x0)~phi", "b~phi", "b~!B"),
            ("x0~phi", "x0~B", "psi(x0)~phi", "b~phi", "b~B", "psi(b)~phi"),
            ("x0~phi", "x0~!B", "b~phi", "b~B", "psi(b)~phi"),
        )),
        ((14, 16), (
            ("x0~phi", "x0~B", "b~phi", "b~B"),
            ("x0~phi", "x0~!B", "psi(x0)~phi", "b~phi", "b~B"),
            ("x0~phi", "x0~!B", "psi(x0)~phi", "b~phi", "b~!B", "psi(b)~phi"),
            ("x0~phi", "x0~B", "b~phi", "b~!B", "psi(b)~phi"),
        )),
        ((17, 18), (("x0~phi", "x0~B"),)),
        ((19, 20), (("x0~phi", "x0~!B"),)),
        ((25, 26, 27, 28), (
            ("x0~phi", "x0~B", "b1~phi", "b1~B"),
            ("x0~phi", "x0~!B", "b2~phi", "b2~!B"),
            ("x0~phi", "b1~phi", "b2~phi"),
        )),
    )
    for row in rows
}
#: The same table with every token split once into (subject, relation).
_ROW_CONJUNCTS: dict[int, tuple[tuple[tuple[str, str], ...], ...]] = {
    row: tuple(tuple(tuple(token.split("~")) for token in d) for d in disjuncts)
    for row, disjuncts in _ROW_FORMULAS.items()
}


def formula_applies(row: int, loop: MultiPathLoop, x0: int) -> bool:
    """True when the row has a closed formula that may stand for the walk.

    Every constant branch must be a direct assignment x := b, and where
    one branch is constant, the monotone one re-entered at b must move the
    way it moves at x0: its first differences at b and x0 share a sign.
    """
    if row not in _ROW_FORMULAS:
        return False
    _, _, dir1, dir2 = ROW_KEYS[row]
    then_u, else_u = loop.then_update, loop.else_update
    const_then, const_else = dir1 is _C, dir2 is _C
    if (const_then and then_u.coeff != 0) or (const_else and else_u.coeff != 0):
        return False
    if const_then == const_else:  # no branch or both are constant
        return True
    const, mono = (then_u, else_u) if const_then else (else_u, then_u)
    return mono.first_difference(const.offset) * mono.first_difference(x0) > 0


def nt_formula(row: int, loop: MultiPathLoop, x0: int) -> FormulaWitness | None:
    """Explain a non-terminating walk from x0 by the row's formula.

    Rows 29-36 get the branches' shared direction, which preserves the
    guard.  A row whose closed formula applies (formula_applies) gets the
    evaluated conjuncts of its first satisfied disjunct and the integer
    values they referenced.  Elsewhere, and on the alternating rows 21-24,
    returns None: the walk's own witness stands.
    """
    phi = loop.guard
    if row >= 29:
        # both branches move the same way; the branch condition is irrelevant
        moves = ROW_KEYS[row][2]
        assert (phi.op.bounded_below and moves is _U) or (
            phi.op.bounded_above and moves is _D
        ), f"walk diverges on row {row} against the guard"
        return FormulaWitness(
            conjuncts=(
                (f"x0 {phi.op.value} c", True),
                (f"both branches move {moves.value}, preserving the guard", True),
            ),
            bindings=(("x0", x0), ("c", phi.bound)),
        )
    if row not in _ROW_CONJUNCTS or not formula_applies(row, loop, x0):
        return None
    cond = loop.branch_cond
    bindings: dict[str, int] = {"x0": x0, "c": phi.bound, "c1": cond.bound}
    _, _, dir1, dir2 = ROW_KEYS[row]
    const_then = dir1 is _C
    if const_then and dir2 is _C:
        bindings.update(b1=loop.then_update.offset, b2=loop.else_update.offset)
    elif const_then or dir2 is _C:
        bindings["b"] = (loop.then_update if const_then else loop.else_update).offset
    # psi probes run the monotone branch (the else-branch when the then-branch
    # is constant) to the edge of its region
    a, b, upper, limit = _branches(loop)[const_then]
    psi = "psi(" if upper else "psi'("
    for index, disjunct in enumerate(_ROW_CONJUNCTS[row]):
        conjuncts: list[tuple[str, bool]] = []
        for subject, relation in disjunct:
            atom, bound_name = (phi, "c") if relation == "phi" else (cond, "c1")
            op = atom.op.complement if relation == "!B" else atom.op
            if subject.startswith("psi("):
                arg = subject[4:-1]
                subject = f"{psi}{arg})"
                if subject not in bindings:
                    bindings[subject] = escape_region(bindings[arg], Update(a, b), upper, limit)[0]
            holds = op.holds(bindings[subject], atom.bound)
            conjuncts.append((f"{subject} {op.value} {bound_name}", holds))
            if not holds:
                break
        else:
            return FormulaWitness(tuple(conjuncts), index, tuple(sorted(bindings.items())))
    raise AssertionError(f"formula and walk disagree on row {row}")


# --- Accelerated trajectory walk ---------------------------------------------
#
# The walk runs on integer limits computed once per loop.  A relation
# becomes an inclusive limit (RelOp.limit), and a branch becomes the tuple
# (coeff, offset, region_is_upper, limit): the branch fires while
# x <= limit when region_is_upper, else while x >= limit.  The
# else-region is the negated branch condition.

_Branch = tuple[int, int, bool, int]


def _branches(loop: MultiPathLoop) -> tuple[_Branch, _Branch]:
    """The then- and else-branch as (coeff, offset, region_is_upper, limit)."""
    cond, then_u, else_u = loop.branch_cond, loop.then_update, loop.else_update
    else_op = cond.op.complement
    return (
        (then_u.coeff, then_u.offset, cond.op.bounded_above, cond.op.limit(cond.bound)),
        (else_u.coeff, else_u.offset, else_op.bounded_above, else_op.limit(cond.bound)),
    )


def _cycle_witness(
    branches: tuple[_Branch, _Branch], switch_values: list[int], period: int
) -> CycleWitness:
    """Cycle witness from the branch-switch values of one turn of the cycle.

    Prefers the full concrete value cycle, expanded run by run; when the
    period exceeds the expansion cap (long arithmetic runs between branch
    switches), keeps the switch values only, which still replay back to
    the first one.
    """
    if period > _CYCLE_EXPANSION_CAP:
        return CycleWitness(tuple(switch_values), sparse=True)
    then_br, else_br = branches
    upper, limit = then_br[2], then_br[3]
    values: list[int] = []
    for x, end in zip(switch_values, switch_values[1:] + switch_values[:1]):
        a, b, _, _ = then_br if (x <= limit if upper else x >= limit) else else_br
        if a == 1:
            values.extend(range(x, end, b))
            continue
        while x != end:
            values.append(x)
            x = a * x + b
    return CycleWitness(tuple(values))


def _recurrent_interval(
    branches: tuple[_Branch, _Branch], v1: int, phi_upper: bool, phi_limit: int
) -> tuple[int, int] | None:
    """An interval [lo, hi] that holds v1, lies inside the guard and is
    mapped into itself by the loop body, or None.

    Let the low branch x := a*x + b fire on x <= U and the high branch
    x := c*x + d on x >= U+1.  When a, c >= 1, the low branch moves up at
    lo and at U and the high branch moves down at U+1 and at hi, the
    interval I = [lo, hi] = [f_high(U+1), f_low(U)] is closed: each branch
    is nondecreasing, so it maps its part of I between the images of the
    part's ends, and those first differences keep both images inside I.
    A recurrent set in the sense of Gupta et al., "Proving
    non-termination", POPL 2008.
    """
    low, high = branches if branches[0][2] else branches[::-1]
    (a, b, _, u), (c, d, _, _) = low, high
    if a < 1 or c < 1:
        return None
    lo, hi = c * (u + 1) + d, a * u + b
    up = min((a - 1) * lo + b, (a - 1) * u + b) > 0
    down = max((c - 1) * (u + 1) + d, (c - 1) * hi + d) < 0
    if not (up and down and lo <= v1 <= hi):
        return None
    # the guard is a half-line: it holds on all of I when it holds at I's far end
    if not (hi <= phi_limit if phi_upper else lo >= phi_limit):
        return None
    return lo, hi


def accelerated_walk(
    loop: MultiPathLoop, x0: int, max_jumps: int = SEARCH_BUDGET, trace: list[int] | None = None
) -> Terminating | Unsupported | Witness:
    """Walk branch-switch values from x0 and return what the walk found:
    Terminating at a guard exit, Unsupported when max_jumps run out, or the
    witness of an orbit that never exits: a value recurrence (CycleWitness),
    a trapped orbit (DivergenceWitness) or a recurrent interval
    (RecurrentWitness).  decide_multipath names it.  A `trace` list gets
    every switch value visited.

    Each jump covers one maximal run of a single branch: a monotone run is
    collapsed to its first value outside the branch's region (with exact
    step count), a direct assignment is one step.  A branch at a fixed
    point is a one-value cycle.  A run that cannot leave its region either
    freezes the guard truth forever (non-terminating) or marches
    monotonically through the guard bound (terminating).  A negative
    coefficient that moves the value raises NonMonotoneUpdateError.
    At the second switch value the walk tries _recurrent_interval once and
    stops there when the interval holds more than _WALKED_INTERVAL values.
    """
    phi = loop.guard
    phi_upper, phi_limit = phi.op.bounded_above, phi.op.limit(phi.bound)
    assert x0 <= phi_limit if phi_upper else x0 >= phi_limit
    branches = then_br, else_br = _branches(loop)
    _, _, cond_upper, cond_limit = then_br
    steps_at: dict[int, int] = {}  # switch value -> steps taken to reach it, in walk order
    val, steps = x0, 0
    for _ in range(max_jumps):
        if trace is not None:
            trace.append(val)
        in_then = val <= cond_limit if cond_upper else val >= cond_limit
        a, b, upper, limit = then_br if in_then else else_br
        diff = (a - 1) * val + b
        if diff == 0:
            return CycleWitness((val,))
        if a < 0:
            raise NonMonotoneUpdateError(Update(a, b))
        if a == 0 or (diff > 0) == upper:
            # first value outside the branch's region, and the step count.
            # This is escape_region's arithmetic, inlined on purpose: calling
            # escape_region for every jump raised the per-file p99 decision
            # time on the perfbench alternation corpus by 17-22% (ROADMAP
            # aim 2, Issue 19 status, "Do not retry").
            if a == 0:
                nxt, n = b, 1
            elif a == 1:  # one step past the last in-region value
                n = (limit - val) // b + 1
                nxt = val + n * b
            else:  # exponential: logarithmically many steps
                nxt, n = a * val + b, 1
                while nxt <= limit if upper else nxt >= limit:
                    nxt, n = a * nxt + b, n + 1
            if nxt <= phi_limit if phi_upper else nxt >= phi_limit:
                steps_at[val] = steps
                steps += n
                if nxt in steps_at:
                    path = list(steps_at)
                    cycle = path[path.index(nxt):]
                    period = steps - steps_at[nxt]
                    return _cycle_witness(branches, cycle, period)
                if len(steps_at) == 1:  # nxt is the second switch value
                    interval = _recurrent_interval(branches, nxt, phi_upper, phi_limit)
                    if interval and interval[1] - interval[0] >= _WALKED_INTERVAL:
                        if trace is not None:
                            trace.append(nxt)
                        return RecurrentWitness(interval, nxt, steps)
                val = nxt
                continue
            if a == 0:
                return Terminating(steps + 1)
        elif (diff > 0) != phi_upper:
            # trapped: moves away from the branch's limit and from the guard's
            return DivergenceWitness(
                steps,
                f"trapped in {'then' if in_then else 'else'}-branch moving "
                f"{'up' if diff > 0 else 'down'}; the guard can never fail",
            )
        # the guard fails within this run
        _, n = escape_region(val, Update(a, b), phi_upper, phi_limit)
        return Terminating(steps + n)
    return Unsupported(f"trajectory walk exceeded {max_jumps} jumps", "budget")


# --- Dispatch -----------------------------------------------------------------


def decide_multipath(loop: MultiPathLoop, init: Env, search_budget: int = SEARCH_BUDGET) -> Verdict:
    """Look up the row at x0 (case_row), walk the trajectory, and name what
    the walk found: the one multipath NonTerminating is T3-row<n>, with
    nt_formula's witness where the row explains the walk and the walk's own
    witness elsewhere."""
    guard = loop.guard
    x0 = init[guard.var]
    if not guard.op.holds(x0, guard.bound):
        return Terminating(0)
    row = case_row(loop, x0)
    found = accelerated_walk(loop, x0, search_budget)
    if isinstance(found, (Terminating, Unsupported)):
        return found
    return NonTerminating(f"T3-row{row}", nt_formula(row, loop, x0) or found)
