"""Byte pins for the multipath decider (all 36 rows), the diagonal decider
and the single-path decider.

Their verdicts, iteration counts and witnesses are part of the output
format: any rewrite of one must reproduce them byte for byte.  A
change to a digest below is a change to that format.
"""

import hashlib
import json
import random
from functools import cache

from monoterm import RecurrentWitness, decide, parse
from monoterm.gen import diagonal_for_pair, multipath_for_row, random_program
from monoterm.model import ClassKind

ROWS = (21, 22, 23, 24)

# 600 loops at bound 2000: terminating runs, trapped divergences, full
# cycles of up to a few thousand values and recurrent intervals.
BOUND_2000_SEEDS = range(150)
BOUND_2000_SHA256 = "4f84093cf6cc4e3991aee34745525a8ed891c70a95c7f5c68697b7f327a64c63"

# (seed, row) at bound 10**6 whose cycles exceed the expansion cap.  Each
# orbit enters a recurrent interval inside the guard, which is the witness.
SPARSE_CASES = ((6, 22), (94, 21), (163, 23), (275, 22), (276, 23), (369, 21))
SPARSE_CASES_SHA256 = "b31a4fa015d04afbce3ac3d84aa3ee80fb09bba390f49f52eb211e64f76080e8"

# The guard cuts the interval [-99998, 100003] at 100002, but not the
# orbit's residue class mod gcd(100002, 100000) = 2: the walk closes a
# 100,001-value cycle, above the expansion cap, and lists its switch values.
SPARSE_LOOP = (
    "init x = 0; while (x <= 100002) "
    "{ if (x <= 1) { x := x + 100002; } else { x := x - 100000; } }"
)
SPARSE_SHA256 = "4508f3f4a086f962fdb6e3aebaa67e64bfd5472940bbbd5cf627cee4a78427d2"

# Loops for every Table 3 row at bounds 20, 2000 and 10**12, and random
# multipath loops at bound 2000: every multipath exit, formula rows included.
ALL_ROW_SEEDS = range(100)
ALL_ROWS_SHA256 = "092b6789a3e7509f10722de3788f1a9f582d13c35255159a7f6576daa9230d0c"
RANDOM_MULTIPATH_SEEDS = range(3000)
RANDOM_MULTIPATH_SHA256 = "c0176c53d911d909aedd256d00542292af928b87bcb87bad7d2a87f64869ab28"

# (verdict, rule, iterations) over the inputs of the four multipath pins
# above: a witness may change its form, these may not.
MULTIPATH_KEYS_SHA256 = "356edee96bd0515192b49a35c0dda14c012e7cf792b7a222a7a79a7f157b13fb"

# Diagonal loops for every class pair at bounds 30 and 2000, and random
# diagonal loops at bound 10**6: every diagonal rule, T2 rows 1-8 included.
PAIR_SEEDS = range(200)
PAIR_SHA256 = "1c699857e58603128b30f700b4da39120d7ff193a2a13e05d17f036830436ff2"
RANDOM_DIAGONAL_SEEDS = range(3000)
RANDOM_DIAGONAL_SHA256 = "81da7d2f85596e1cff23366894e586030f64ed7d30ab576deba03e3814f074a2"

# Random single-path loops at bounds 20 and 10**6: every single-path rule.
RANDOM_SINGLE_SEEDS = range(3000)
RANDOM_SINGLE_SHA256 = "77a3d069036066951eacdaf4e4243d1704e7cdd61c4ba4054eade63583620c43"


def _decide(cases) -> tuple:
    return tuple(decide(multipath_for_row(random.Random(s), row, bound)) for s, row, bound in cases)


def _digest(verdicts) -> str:
    h = hashlib.sha256()
    for verdict in verdicts:
        h.update(json.dumps(verdict.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _key_digest(verdicts) -> str:
    h = hashlib.sha256()
    for verdict in verdicts:
        out = verdict.to_json()
        h.update(json.dumps([out["verdict"], out["rule"], out.get("iterations")]).encode())
        h.update(b"\n")
    return h.hexdigest()


@cache
def _bound_2000_verdicts() -> tuple:
    return _decide([(seed, row, 2000) for seed in BOUND_2000_SEEDS for row in ROWS])


@cache
def _sparse_case_verdicts() -> tuple:
    return _decide([(seed, row, 10**6) for seed, row in SPARSE_CASES])


@cache
def _all_row_verdicts() -> tuple:
    return _decide(
        [(seed, row, bound) for bound in (20, 2000, 10**12) for row in range(1, 37)
         for seed in ALL_ROW_SEEDS]
    )


@cache
def _random_multipath_verdicts() -> tuple:
    return tuple(
        decide(random_program(random.Random(seed), "multipath", 2000))
        for seed in RANDOM_MULTIPATH_SEEDS
    )


def test_bound_2000_walk_output_is_pinned():
    assert _digest(_bound_2000_verdicts()) == BOUND_2000_SHA256


def test_long_cycles_inside_the_guard_give_recurrent_intervals():
    verdicts = _sparse_case_verdicts()
    assert all(isinstance(verdict.witness, RecurrentWitness) for verdict in verdicts)
    assert _digest(verdicts) == SPARSE_CASES_SHA256


def test_sparse_cycle_witnesses_are_pinned():
    verdict = decide(parse(SPARSE_LOOP))
    assert verdict.witness.sparse and len(verdict.witness.values) == 100_000
    assert _digest([verdict]) == SPARSE_SHA256


def test_all_rows_multipath_output_is_pinned():
    assert _digest(_all_row_verdicts()) == ALL_ROWS_SHA256


def test_random_multipath_output_is_pinned():
    assert _digest(_random_multipath_verdicts()) == RANDOM_MULTIPATH_SHA256


def test_multipath_verdict_keys_are_pinned():
    verdicts = (
        _bound_2000_verdicts() + _sparse_case_verdicts() + _all_row_verdicts()
        + _random_multipath_verdicts()
    )
    assert _key_digest(verdicts) == MULTIPATH_KEYS_SHA256


def test_diagonal_class_pair_output_is_pinned():
    verdicts = [
        decide(diagonal_for_pair(random.Random(seed), kind_x, kind_y, bound))
        for bound in (30, 2000)
        for kind_x in ClassKind
        for kind_y in ClassKind
        for seed in PAIR_SEEDS
    ]
    assert _digest(verdicts) == PAIR_SHA256


def test_random_diagonal_output_is_pinned():
    verdicts = [
        decide(random_program(random.Random(seed), "diagonal", 10**6))
        for seed in RANDOM_DIAGONAL_SEEDS
    ]
    assert _digest(verdicts) == RANDOM_DIAGONAL_SHA256


def test_random_single_output_is_pinned():
    verdicts = [
        decide(random_program(random.Random(seed), "single", bound))
        for bound in (20, 10**6)
        for seed in RANDOM_SINGLE_SEEDS
    ]
    assert _digest(verdicts) == RANDOM_SINGLE_SHA256
