"""CI's bench-output checker, .github/check_bench.py, run on hand-written records."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from monoterm import CycleWitness, NonTerminating

CHECK_BENCH = Path(__file__).resolve().parents[1] / ".github" / "check_bench.py"

AGREES = {"outcome": "cycle", "steps": 2, "agrees": True}
FORMULA = {
    "kind": "formula", "disjunct": 0, "conjuncts": [["x0 >= c", True]], "bindings": {"x0": 3},
}
CLEAN = [
    {"file": "a.loop", "verdict": "terminating", "rule": None, "witness": None, "iterations": 4,
     "oracle": {"outcome": "terminated", "steps": 4, "agrees": True}},
    {"file": "b.loop", "verdict": "nonterminating", "rule": "T3-row1", "witness": FORMULA,
     "oracle": AGREES},
    {"file": "c.loop", "verdict": "nonterminating", "rule": "T3-row21",
     "witness": {"kind": "recurrent", "interval": [0, 99], "entry": 5, "iteration": 1,
                 "procedure": "alg3"},
     "oracle": AGREES},
    {"file": "d.loop", "verdict": "nonterminating", "rule": "T3-row24",
     "witness": {"kind": "cycle", "cycle": [4, 6], "period": 2, "procedure": "alg4"},
     "oracle": AGREES},
    {"file": "e.loop", "verdict": "unsupported", "rule": None, "witness": None,
     "reason": "search budget of 5 iterations exceeded", "code": "budget"},
]


def load_check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(tmp_path, records, *flags) -> int:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(records))
    return subprocess.run(
        [sys.executable, str(CHECK_BENCH), str(path), *flags], capture_output=True, text=True
    ).returncode


def changed(index: int, **fields) -> list[dict]:
    """CLEAN with record `index` updated by `fields`."""
    records = [dict(r) for r in CLEAN]
    records[index].update(fields)
    return records


def test_clean_records_pass(tmp_path):
    assert check(tmp_path, CLEAN) == 0
    assert check(tmp_path, CLEAN, "--records", "5", "--walk-witnesses") == 0


@pytest.mark.parametrize(
    "records, flags",
    [
        pytest.param([], (), id="no-records"),
        pytest.param(CLEAN + [{"file": "f.loop", "error": "internal: boom"}], (), id="error"),
        pytest.param(changed(0, oracle={**AGREES, "agrees": False}), (), id="disagreement"),
        pytest.param(
            changed(1, witness={**FORMULA, "conjuncts": [["x0 >= c", False]]}), (),
            id="false-conjunct",
        ),
        pytest.param(changed(1, witness={**FORMULA, "disjunct": -1}), (), id="negative-disjunct"),
        pytest.param(
            changed(3, rule="T3-row21", witness={"kind": "cycle", "cycle": [4, 6], "period": 2}),
            (), id="row21-without-alg3",
        ),
        pytest.param(
            changed(1, witness={**FORMULA, "procedure": "alg3"}), (), id="row1-with-alg3"
        ),
        pytest.param(changed(3, rule="T3-row21"), (), id="row21-with-alg4"),
        pytest.param(CLEAN, ("--records", "4"), id="record-count"),
        pytest.param(CLEAN[:3] + CLEAN[4:], ("--walk-witnesses",), id="no-alg4-witness"),
        pytest.param(
            changed(2, witness={"kind": "cycle", "cycle": [1, 2], "period": 2,
                                "procedure": "alg3"}),
            ("--walk-witnesses",), id="no-recurrent-witness",
        ),
    ],
)
def test_each_fault_fails_the_check(tmp_path, records, flags):
    assert check(tmp_path, records, *flags) == 1


def test_procedure_is_the_rule_checked_by_ci():
    # the library derives procedure from the rule; CI checks the same table
    procedures = load_check_bench().PROCEDURES
    for rule in [f"T3-row{row}" for row in range(1, 37)] + ["diag-ra-ra", "Lemma1"]:
        assert NonTerminating(rule, CycleWitness((0,))).procedure == procedures.get(rule), rule
