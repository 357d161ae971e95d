"""First-falsifier computation: the first orbit value past an integer limit.

Starting from d and repeatedly applying a monotone update that moves toward
a bound, the first value past the bound is computable.  Every decider reads
its relation as an inclusive integer limit (RelOp.limit) and asks
escape_region for that value and its step count: in closed form for
arithmetic updates (one step past the last value inside the limit), by
iteration for geometric/affine ones, which pass any bound within a
logarithmic number of steps.  The paper's arithmetic first falsifiers, going
up and going down by v, are its a == 1 case: escape_region(d, Update(1, v),
True, limit) and escape_region(d, Update(1, -v), False, limit).

Every first falsifier goes through escape_region, the diagonal run's jump
to its first negative x included.  The multipath walk alone inlines the
same arithmetic, once per jump, because the walk is the hot loop of
alternating loops and a call per jump costs more than it saves.
"""

from __future__ import annotations

from .model import AnalysisError, Update


def escape_region(d: int, upd: Update, upper: bool, limit: int) -> tuple[int, int]:
    """(first orbit value from d past the limit, number of steps to it).

    The region is x <= limit when `upper`, else x >= limit.  d must lie in
    it, upd.coeff must be >= 1 and the orbit must move toward the limit;
    otherwise no value is ever past it, and AnalysisError is raised.
    """
    a, b = upd.coeff, upd.offset
    diff = (a - 1) * d + b
    if a < 1 or (d > limit if upper else d < limit) or diff == 0 or (diff > 0) != upper:
        side = "<=" if upper else ">="
        raise AnalysisError(
            f"escape_region needs an orbit that starts in x {side} {limit} and leaves it; "
            f"x := {a}*x + {b} from {d} does not"
        )
    if a == 1:
        n = (limit - d) // b + 1
        return d + n * b, n
    x, n = a * d + b, 1
    while x <= limit if upper else x >= limit:
        x, n = a * x + b, n + 1
    return x, n
