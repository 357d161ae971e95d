"""Byte pins for the multipath decider (all 36 rows) and the diagonal decider.

Their verdicts, iteration counts and witnesses are part of the output
format: any rewrite of either must reproduce them byte for byte.  A
change to a digest below is a change to that format.
"""

import hashlib
import json
import random

from monoterm import ClassKind, decide
from monoterm.gen import diagonal_for_pair, multipath_for_row, random_diagonal, random_multipath

ROWS = (21, 22, 23, 24)

# 600 loops at bound 2000: terminating runs, trapped divergences and
# full cycles of up to a few thousand values.
BOUND_2000_SEEDS = range(150)
BOUND_2000_SHA256 = "ce2cc3bf38f6f5dd36bb37c2103cfbe516748a7fccdf96fb8ef6dc4afcf4c3e3"

# (seed, row) at bound 10**6 whose cycles exceed the expansion cap, so the
# witness falls back to the sparse list of branch-switch values.
SPARSE_CASES = ((6, 22), (94, 21), (163, 23), (275, 22), (276, 23), (369, 21))
SPARSE_SHA256 = "66e2ad048c3c61b5bb3a4a62e3d58a3b651a568f60fa39842a21105ce9261712"

# Loops for every Table 3 row at bounds 20, 2000 and 10**12, and random
# multipath loops at bound 2000: every multipath exit, formula rows included.
ALL_ROW_SEEDS = range(100)
ALL_ROWS_SHA256 = "b3756267df6a69a924b3b9b9ef71d99fba8fe74d8307f3659e0e385f4e4c42ae"
RANDOM_MULTIPATH_SEEDS = range(3000)
RANDOM_MULTIPATH_SHA256 = "b27e68c9a7c5a947134743e875e157574d6f56cbc39f8c722181c38230922557"

# Diagonal loops for every class pair at bounds 30 and 2000, and random
# diagonal loops at bound 10**6: every diagonal rule, T2 rows 1-8 included.
PAIR_SEEDS = range(200)
PAIR_SHA256 = "28c13f677858ff68ac0e088ee6d4a230679c8302fa13e01740a19d20952b8e8f"
RANDOM_DIAGONAL_SEEDS = range(3000)
RANDOM_DIAGONAL_SHA256 = "81da7d2f85596e1cff23366894e586030f64ed7d30ab576deba03e3814f074a2"


def _decide(cases) -> list:
    return [decide(multipath_for_row(random.Random(s), row, bound)) for s, row, bound in cases]


def _digest(verdicts) -> str:
    h = hashlib.sha256()
    for verdict in verdicts:
        h.update(json.dumps(verdict.to_json(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_bound_2000_walk_output_is_pinned():
    verdicts = _decide([(seed, row, 2000) for seed in BOUND_2000_SEEDS for row in ROWS])
    assert _digest(verdicts) == BOUND_2000_SHA256


def test_sparse_cycle_witnesses_are_pinned():
    verdicts = _decide([(seed, row, 10**6) for seed, row in SPARSE_CASES])
    assert all(verdict.witness.sparse for verdict in verdicts)
    assert _digest(verdicts) == SPARSE_SHA256


def test_all_rows_multipath_output_is_pinned():
    verdicts = _decide(
        [(seed, row, bound) for bound in (20, 2000, 10**12) for row in range(1, 37)
         for seed in ALL_ROW_SEEDS]
    )
    assert _digest(verdicts) == ALL_ROWS_SHA256


def test_random_multipath_output_is_pinned():
    verdicts = [
        decide(random_multipath(random.Random(seed), 2000)) for seed in RANDOM_MULTIPATH_SEEDS
    ]
    assert _digest(verdicts) == RANDOM_MULTIPATH_SHA256


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
        decide(random_diagonal(random.Random(seed), 10**6)) for seed in RANDOM_DIAGONAL_SEEDS
    ]
    assert _digest(verdicts) == RANDOM_DIAGONAL_SHA256
