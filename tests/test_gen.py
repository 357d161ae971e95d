import hashlib
import random
import re

import pytest

from monoterm import Unsupported, decide, parse
from monoterm.gen import (
    diagonal_for_pair,
    generate_corpus,
    multipath_for_row,
    random_program,
)
from monoterm.model import ClassKind, DiagonalLoop, MultiPathLoop, SinglePathLoop
from monoterm.multipath import case_row
from monoterm.orbit import classify
from monoterm.parser import print_program


def test_corpus_is_deterministic():
    assert generate_corpus(7, 10) == generate_corpus(7, 10)
    assert generate_corpus(7, 10) != generate_corpus(8, 10)


def test_corpus_rejects_bound_or_count_below_one():
    for count, bound in ((20, 0), (20, -3), (0, 20)):
        with pytest.raises(ValueError):
            generate_corpus(1, count, bound=bound)


def test_corpus_rejects_unknown_shapes():
    with pytest.raises(ValueError, match="'diagonals'"):
        generate_corpus(1, 3, "diagonals")
    with pytest.raises(ValueError, match="'diagonals'"):
        random_program(random.Random(1), "diagonals", 20)


@pytest.mark.parametrize(
    "count, shape", [(10, "multipath"), (35, "mix"), (36, "diagonal"), (50, "single")]
)
def test_cover_rows_rejects_too_few_files_or_a_shape_without_multipath(count, shape):
    # either would leave some case-table row without an instance
    message = (
        f"cover_rows needs count >= 36 and shape multipath or mix, got count {count}"
        f" and shape {shape!r}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_corpus(7, count, shape, 20, True)


def test_corpus_parses():
    for name, text in generate_corpus(3, 60):
        program = parse(text)
        assert program.initial_env()
        assert name.endswith(".loop")


def test_cover_rows_hits_every_table_row():
    rows = set()
    for _, text in generate_corpus(11, 36, shape="multipath", cover_rows=True):
        program = parse(text)
        rows.add(case_row(program.shape, program.init["x"]))
    assert rows == set(range(1, 37))


def test_mix_covers_all_shapes_and_classes():
    rng = random.Random(5)
    shapes, kinds = set(), set()
    for _ in range(300):
        program = random_program(rng, rng.choice(("single", "diagonal", "multipath")), 20)
        shapes.add(type(program.shape))
        for var, upd in {
            SinglePathLoop: lambda s: [("x", s.update)],
            DiagonalLoop: lambda s: [(s.guard.lhs, s.lhs_update), (s.guard.rhs, s.rhs_update)],
            MultiPathLoop: lambda s: [("x", s.then_update), ("x", s.else_update)],
        }[type(program.shape)](program.shape):
            try:
                kinds.add(classify(upd, program.init[var]))
            except Exception:
                pass
    assert shapes == {SinglePathLoop, DiagonalLoop, MultiPathLoop}
    assert kinds == set(ClassKind)


def test_targeted_constructors():
    rng = random.Random(1)
    for row in (1, 13, 17, 21, 25, 29, 36):
        program = multipath_for_row(rng, row, 20)
        assert case_row(program.shape, program.init["x"]) == row
    for kx in ClassKind:
        for ky in ClassKind:
            program = diagonal_for_pair(rng, kx, ky, 20)
            shape = program.shape
            assert classify(shape.lhs_update, program.init["x"]) is kx
            assert classify(shape.rhs_update, program.init["y"]) is ky


def test_generated_corpus_decides_cleanly():
    for _, text in generate_corpus(23, 80, bound=15):
        verdict = decide(parse(text))
        assert not isinstance(verdict, Unsupported)


# The generator's bytes are part of every recorded corpus: a seed must keep
# producing the same files.  A change to a digest below is a change to every
# corpus built from that seed.
CORPUS_SHA256 = "eb6d6f53568fae017f434cd06f9240f17d9db4fee3bbb44e58d2c38d26bc36d8"
ROW_INSTANCES_SHA256 = "63553d6544246c5adb16c552eb0052b5476109a2aa31aabec32d112b6eb940d5"
PAIR_INSTANCES_SHA256 = "a45d70804bb9b7da4a09533d0b4071408ad8a91af956aae01f2cf3369e6f4355"


def _text_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_corpus_bytes_are_pinned():
    texts = []
    for shape in ("single", "diagonal", "multipath", "mix"):
        for cover_rows in (False, True) if shape in ("multipath", "mix") else (False,):
            for bound in (1, 20, 2000, 10**6):
                for seed in range(3):
                    for name, text in generate_corpus(seed, 50, shape, bound, cover_rows):
                        texts += [name, text]
    assert _text_digest(texts) == CORPUS_SHA256


def test_row_instance_bytes_are_pinned():
    texts = [
        print_program(multipath_for_row(random.Random(seed), row, bound))
        for bound in (1, 20, 10**12)
        for row in range(1, 37)
        for seed in range(20)
    ]
    assert _text_digest(texts) == ROW_INSTANCES_SHA256


def test_class_pair_instance_bytes_are_pinned():
    texts = [
        print_program(diagonal_for_pair(random.Random(seed), kind_x, kind_y, bound))
        for bound in (1, 20, 2000, 10**6)
        for kind_x in ClassKind
        for kind_y in ClassKind
        for seed in range(20)
    ]
    assert _text_digest(texts) == PAIR_INSTANCES_SHA256
