import json
import sys
from types import SimpleNamespace

import pytest
from jsonschema import validate

from monoterm import CycleWitness, NonTerminating, ParseError, RecurrentWitness, decide, parse
from monoterm.cli import _summary_counts, main
from monoterm.gen import generate_corpus
from monoterm.interpreter import DIVERGENCE_WINDOW

from conftest import NEG_FIXED_POINT, NEG_MOVING

EXAMPLE1 = "init x = 15; while (x >= 5) { if (x >= 10) { x := x + 1; } else { x := x - 1; } }\n"
EXAMPLE2 = "init x = 3; while (x <= 10) { if (x <= 5) { x := x + 2; } else { x := x - 3; } }\n"
# The body maps [-199, 300] into itself, and the orbit 0, 300, 100, -100, 200
# enters it at 300 after one iteration.
RECURRENT = (
    "init x = 0; while (x <= 1000) { if (x <= 0) { x := x + 300; } else { x := x - 200; } }\n"
)

INT = {"type": "integer"}
# Each witness kind with its own required fields.
WITNESS_FIELDS = {
    "formula": {
        # only a satisfied formula is a witness: a real disjunct whose conjuncts all hold
        "disjunct": {"type": "integer", "minimum": 0},
        "conjuncts": {
            "type": "array",
            "items": {"type": "array", "prefixItems": [{"type": "string"}, {"const": True}],
                      "minItems": 2, "maxItems": 2},
        },
        "bindings": {"type": "object", "additionalProperties": INT},
    },
    "cycle": {"cycle": {"type": "array", "minItems": 1}},
    "divergence": {"iteration": {"type": "integer", "minimum": 0}, "condition": {"type": "string"}},
    "recurrent": {
        "interval": {"type": "array", "items": INT, "minItems": 2, "maxItems": 2},
        "entry": INT,
        "iteration": {"type": "integer", "minimum": 0},
    },
}
WITNESS_SCHEMA = {
    "oneOf": [{"type": "null"}]
    + [
        {
            "type": "object",
            "properties": {
                "kind": {"const": kind},
                "procedure": {"enum": ["alg3", "alg4"]},
                "period": {"type": "integer", "minimum": 1},
                "sparse": {"const": True},
                **fields,
            },
            "required": ["kind", *fields],
        }
        for kind, fields in WITNESS_FIELDS.items()
    ]
}

VERDICT_SCHEMA = {
    "type": "object",
    "properties": {
        "file": {"type": "string"},
        "verdict": {"enum": ["terminating", "nonterminating", "unsupported"]},
        "rule": {"type": ["string", "null"]},
        "witness": WITNESS_SCHEMA,
        "iterations": {"type": "integer", "minimum": 0},
        "reason": {"type": "string"},
        "code": {"enum": ["budget", "non-monotone"]},
        "decision_ms": {"type": "number", "minimum": 0},
        "oracle": {
            "type": "object",
            "properties": {
                "outcome": {"enum": ["terminated", "cycle", "bound-exhausted"]},
                "steps": {"type": "integer"},
                "agrees": {"type": "boolean"},
            },
            "required": ["outcome", "steps", "agrees"],
        },
    },
    "required": ["file", "verdict", "rule", "witness", "decision_ms"],
    # what to_json always emits for these two verdicts
    "allOf": [
        {
            "if": {"properties": {"verdict": {"const": "terminating"}}},
            "then": {"required": ["iterations"]},
        },
        {
            "if": {"properties": {"verdict": {"const": "unsupported"}}},
            "then": {"required": ["reason", "code"]},
        },
    ],
}

# Loops whose verdicts hold integers one digit wider than a literal may be,
# with N = 10**4300 - 1.  The test process keeps the default int-to-str limit,
# so the expected digits are written out as strings.
N = "9" * 4300
WIDE_TERMINATING = f"init x = -{N}; while (x <= {N}) {{ x := x + 1; }}\n"  # 2N + 1 iterations
WIDE_RECURRENT = (  # recurrent interval [-2N + 1, 0]
    f"init x = 0; while (x <= 0) {{ if (x <= -{N}) {{ x := x + {N}; }} "
    f"else {{ x := x - {N}; }} }}\n"
)
WIDE_NON_MONOTONE = (  # reaches -2N before x := -x
    f"init x = 0; while (x <= 0) {{ if (x >= -{N}) {{ x := x - {N}; }} "
    f"else {{ x := -1 * x; }} }}\n"
)
TWO_N_PLUS_1 = "1" + "9" * 4300
TWO_N_MINUS_1 = "1" + "9" * 4299 + "7"
TWO_N = "1" + "9" * 4299 + "8"
NOT_UTF8 = b"# caf\xe9\ninit x = 3; while (x > 0) { x := x - 1; }\n"  # Latin-1 e-acute


@pytest.fixture
def loop_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write


def test_analyze_text_output(capsys, loop_file):
    path = loop_file("example1.loop", EXAMPLE1)
    exit_code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "NONTERMINATING rule=T3-row17" in out
    assert "decision_ms:" in out


def test_analyze_json_cycle_witness(capsys, loop_file):
    path = loop_file("example2.loop", EXAMPLE2)
    exit_code = main(["analyze", str(path), "--format", "json", "--oracle-check"])
    record = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    validate(record, VERDICT_SCHEMA)
    assert record["witness"]["cycle"] == [3, 5, 7, 4, 6]
    assert record["oracle"]["agrees"] is True


def test_analyze_json_recurrent_witness(capsys, loop_file):
    path = loop_file("recurrent.loop", RECURRENT)
    exit_code = main(["analyze", str(path), "--format", "json", "--oracle-check"])
    record = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    validate(record, VERDICT_SCHEMA)
    assert record["witness"] == {
        "kind": "recurrent", "interval": [-199, 300], "entry": 300, "iteration": 1,
        "procedure": "alg3",
    }
    assert record["oracle"] == {"outcome": "cycle", "steps": 5, "agrees": True}
    # the certificate needs only the one jump that reaches its entry
    verdict = decide(parse(RECURRENT), search_budget=1)
    assert verdict == NonTerminating("T3-row21", RecurrentWitness((-199, 300), 300, 1))


def test_analyze_terminating_exit_code(capsys, loop_file):
    path = loop_file("down.loop", "init x = 3; while (x > 0) { x := x - 1; }")
    exit_code = main(["analyze", str(path), "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert record["iterations"] == 3
    validate(record, VERDICT_SCHEMA)


def test_analyze_unsupported_exit_code(capsys, loop_file):
    path = loop_file("alt.loop", "init x = 5; while (x > 0) { x := -2 * x + 1; }")
    assert main(["analyze", str(path)]) == 2
    assert "UNSUPPORTED" in capsys.readouterr().out


def test_analyze_malformed_input(capsys, loop_file):
    path = loop_file("bad.loop", "init x = 1;\nwhile (x >< 5) { x := x + 1; }")
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert "expected" in err and "2:" in err


def test_analyze_missing_file(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "nope.loop")]) == 3


def test_bench_table_and_summary(capsys, tmp_path, loop_file):
    loop_file("a.loop", EXAMPLE1)
    loop_file("b.loop", "init x = 3; while (x > 0) { x := x - 1; }")
    loop_file("c.loop", "totally not a loop")
    exit_code = main(["bench", str(tmp_path), "--oracle-check"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "Total: 2 analyzed, 1 errors" in out
    assert "T=1 NT=1 TO=0 M=0" in out
    assert "ERROR" in out


def test_summary_counts_timeouts_by_reason_code():
    # the word "exceeded" in a reason no longer makes a timeout; the code does
    records = [
        {"verdict": "unsupported", "reason": "walk exceeded 5 jumps", "code": "budget"},
        {"verdict": "unsupported", "reason": "exceeded, alternates", "code": "non-monotone"},
        {"verdict": "terminating"},
    ]
    assert _summary_counts(records) == {"T": 1, "NT": 0, "TO": 1, "M": 1}


def test_bench_json_is_schema_valid_array(capsys, tmp_path, loop_file):
    loop_file("a.loop", EXAMPLE1)
    loop_file("b.loop", EXAMPLE2)
    loop_file("c.loop", RECURRENT)
    exit_code = main(["bench", str(tmp_path), "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert isinstance(records, list) and len(records) == 3
    for record in records:
        validate(record, VERDICT_SCHEMA)


def test_bench_json_appends_error_records(capsys, tmp_path, loop_file):
    loop_file("a.loop", EXAMPLE1)
    loop_file("b.loop", "totally not a loop")
    (tmp_path / "c.loop").mkdir()  # unreadable
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    validate(records[0], VERDICT_SCHEMA)
    assert [sorted(r) for r in records[1:]] == [["error", "file"], ["error", "file"]]
    names = ("a.loop", "b.loop", "c.loop")
    assert [r["file"] for r in records] == [str(tmp_path / name) for name in names]


def test_usage_errors_are_input_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "a.loop", "--format", "xml"])
    assert exc.value.code == 3
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0


def test_bench_empty_dir(capsys, tmp_path):
    assert main(["bench", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Total: 0 analyzed, 0 errors" in out
    assert "T=0 NT=0 TO=0 M=0" in out


def test_bench_on_a_missing_path_or_a_file_is_an_input_error(capsys, tmp_path, loop_file):
    path = loop_file("a.loop", EXAMPLE1)
    for target in (tmp_path / "nope", path):
        for fmt in ("text", "json"):
            assert main(["bench", str(target), "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {target}: not a directory\n"


# (count, shape, bound, cover_rows) that gen.check_corpus rejects, and its message
REJECTED_CORPORA = {
    "bound-0": (20, "mix", 0, False, "bound must be >= 1, got 0"),
    "bound-negative": (20, "mix", -3, False, "bound must be >= 1, got -3"),
    "count-0": (0, "mix", 20, False, "count must be >= 1, got 0"),
    "count-negative": (-2, "mix", 20, False, "count must be >= 1, got -2"),
    "count-before-bound": (0, "mix", 0, False, "count must be >= 1, got 0"),
    "shape-unknown": (
        20, "cube", 20, False,
        "shape must be one of single, diagonal, multipath or mix, not 'cube'",
    ),
    "cover-rows-few-files": (
        10, "multipath", 20, True,
        "cover_rows needs count >= 36 and shape multipath or mix,"
        " got count 10 and shape 'multipath'",
    ),
    "cover-rows-diagonal": (
        36, "diagonal", 20, True,
        "cover_rows needs count >= 36 and shape multipath or mix,"
        " got count 36 and shape 'diagonal'",
    ),
}


@pytest.mark.parametrize("case", REJECTED_CORPORA.values(), ids=REJECTED_CORPORA.keys())
def test_gen_prints_the_generators_message_before_writing(capsys, tmp_path, case):
    # one owner: the CLI prints exactly what generate_corpus raises
    count, shape, bound, cover_rows, message = case
    with pytest.raises(ValueError) as exc:
        generate_corpus(1, count, shape, bound, cover_rows)
    assert str(exc.value) == message
    outdir = tmp_path / "out"
    argv = ["gen", str(outdir), "--seed", "1", "--count", str(count), "--shape", shape]
    argv += ["--bound", str(bound)] + (["--cover-rows"] if cover_rows else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not outdir.exists()


def test_a_value_error_while_drawing_exits_4(capsys, tmp_path, monkeypatch):
    # only gen's own argument checks are input errors, not a fault in the generator
    def fault(*args):
        raise ValueError("boom")

    monkeypatch.setattr("monoterm.gen.random_program", fault)
    outdir = tmp_path / "out"
    assert main(["gen", str(outdir), "--seed", "1", "--count", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: ValueError: boom\n"
    assert not outdir.exists()


def test_gen_into_a_regular_file_is_an_input_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for outdir in (blocker, blocker / "sub"):
        assert main(["gen", str(outdir), "--seed", "1", "--count", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(outdir) in captured.err


def test_gen_is_reproducible(capsys, tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["gen", str(out1), "--seed", "7", "--count", "10"]) == 0
    assert main(["gen", str(out2), "--seed", "7", "--count", "10"]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_then_bench_oracle_all_pass(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen", str(corpus), "--seed", "7", "--count", "25"]) == 0
    capsys.readouterr()
    assert main(["bench", str(corpus), "--oracle-check", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 25
    for record in records:
        if record["verdict"] == "unsupported":
            continue
        assert record["oracle"]["agrees"] is True, record


def test_max_steps_flag_sets_the_oracle_budget(capsys, loop_file, monkeypatch):
    path = loop_file("up.loop", "init x = 1; while (x > 0) { x := x + 1; }")
    main(["analyze", str(path), "--format", "json", "--oracle-check", "--max-steps", "50"])
    record = json.loads(capsys.readouterr().out)
    assert record["oracle"]["steps"] == 50
    # the environment sets nothing: the default budget stops at its divergence window
    monkeypatch.setenv("MONOTERM_MAX_STEPS", "80")
    main(["analyze", str(path), "--format", "json", "--oracle-check"])
    record = json.loads(capsys.readouterr().out)
    assert record["oracle"]["steps"] == DIVERGENCE_WINDOW


def test_negative_coefficient_loops_exit_with_verdict_codes(capsys, loop_file):
    fixed = loop_file("neg_fixed.loop", NEG_FIXED_POINT)
    moving = loop_file("neg_moving.loop", NEG_MOVING)
    assert main(["analyze", str(fixed), "--oracle-check"]) == 1
    out = capsys.readouterr().out
    assert 'witness: {"kind": "cycle", "cycle": [0], "period": 1}' in out
    assert "oracle: cycle after 1 steps, agrees" in out
    assert main(["analyze", str(moving)]) == 2
    assert "non-monotone" in capsys.readouterr().out
    assert main(["analyze", str(moving), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["code"] == "non-monotone"
    assert main(["bench", str(moving.parent)]) == 0
    assert "T=0 NT=1 TO=0 M=1" in capsys.readouterr().out


def test_overlong_integer_literal_is_a_syntax_error(capsys, tmp_path, loop_file):
    literal = "9" * 4400
    path = loop_file("big.loop", f"init x = {literal};\nwhile (x > 0) {{ x := x - 1; }}")
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1:10: expected an integer of at most" in err
    loop_file("ok.loop", "init x = 3; while (x > 0) { x := x - 1; }")
    assert main(["bench", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "big.loop  ERROR" in out and "Total: 1 analyzed, 1 errors" in out


@pytest.mark.parametrize(
    "argv_tail, message",
    [
        (["--max-steps", "0"], "must be >= 1, got 0"),
        (["--max-steps", "-5"], "must be >= 1, got -5"),
        (["--max-steps", "abc"], "must be an integer, got 'abc'"),
    ],
)
def test_bad_step_budget_is_an_input_error(capsys, loop_file, argv_tail, message):
    # a usage error like any other: argparse's usage line, then one error line
    path = loop_file("up.loop", "init x = 1; while (x > 0) { x := x + 1; }")
    for command in (["analyze", str(path)], ["bench", str(path.parent)]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--oracle-check"] + argv_tail)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: monoterm {command[0]} ")
        assert captured.err.endswith(
            f"\nmonoterm {command[0]}: error: argument --max-steps: {message}\n"
        )


def test_bench_json_is_json_dumps_indent2(capsys, tmp_path, loop_file):
    loop_file("a.loop", EXAMPLE2)  # cycle witness
    loop_file("b.loop", EXAMPLE1)  # formula witness
    loop_file("c.loop", "totally not a loop")
    assert main(["bench", str(tmp_path), "--format", "json", "--oracle-check"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)
    assert [r.get("witness", {}).get("kind") for r in records] == ["cycle", "formula", None]
    assert out == json.dumps(records, indent=2) + "\n"


# a syntax error on the second line, with each line end the CLI may meet
LINE_END_ERRORS = {
    "crlf": b"init x = 1;\r\nwhile (x < 5) { x := x }\r\n",
    "lone-cr": b"init x = 1;\rwhile (x < 5) { x := x }\r",
}


@pytest.mark.parametrize("data", LINE_END_ERRORS.values(), ids=LINE_END_ERRORS.keys())
def test_analyze_locates_an_error_where_parse_does(capsys, tmp_path, data):
    # the CLI reads bytes with no newline translation: only "\n" ends a line
    path = tmp_path / "bad.loop"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse(data.decode("utf-8"))
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {exc.value}\n"


def test_crlf_and_lf_files_decide_the_same(capsys, tmp_path):
    (tmp_path / "lf.loop").write_bytes(EXAMPLE2.encode())
    (tmp_path / "crlf.loop").write_bytes(EXAMPLE2.replace("\n", "\r\n").encode())
    (tmp_path / "latin1.loop").write_bytes(NOT_UTF8)
    assert main(["analyze", str(tmp_path / "latin1.loop")]) == 3
    assert main(["bench", str(tmp_path), "--format", "json", "--oracle-check"]) == 0
    crlf, lf, latin1 = json.loads(capsys.readouterr().out)  # error records come last
    for record in (crlf, lf):
        del record["file"], record["decision_ms"]
    assert crlf == lf and lf["verdict"] == "nonterminating" and lf["oracle"]["agrees"]
    assert sorted(latin1) == ["error", "file"]


def test_bench_on_a_directory_it_cannot_list_is_an_input_error(capsys, tmp_path, monkeypatch):
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("monoterm.cli.os.listdir", denied)
    assert main(["bench", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path}: [Errno 13] Permission denied: '{tmp_path}'\n"


def _raise_internal(*args, **kwargs):
    raise AssertionError("boom")


def test_analyze_internal_error_exits_4(capsys, loop_file, monkeypatch):
    monkeypatch.setattr("monoterm.cli.decide", _raise_internal)
    path = loop_file("a.loop", EXAMPLE1)
    for fmt in ("text", "json"):
        assert main(["analyze", str(path), "--format", fmt]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: AssertionError: boom\n"


def test_analyze_prints_oracle_details_for_a_disagreement(capsys, loop_file, monkeypatch):
    wrong = NonTerminating("Lemma1", CycleWitness((3,)))
    monkeypatch.setattr("monoterm.cli.decide", lambda program: wrong)
    path = loop_file("countdown.loop", "init x = 3; while (x > 0) { x := x - 1; }\n")
    assert main(["analyze", str(path), "--oracle-check"]) == 1
    out = capsys.readouterr().out
    assert "oracle: terminated after 3 steps, DISAGREES\n" in out
    assert out.endswith(
        "oracle details: decided nonterminating, oracle saw TerminatedIn(steps=3)\n"
    )


def test_bench_internal_error_is_recorded_and_exits_4(capsys, tmp_path, loop_file, monkeypatch):
    loop_file("a.loop", EXAMPLE1)
    loop_file("b.loop", "totally not a loop")
    monkeypatch.setattr("monoterm.cli.decide", _raise_internal)
    assert main(["bench", str(tmp_path), "--format", "json"]) == 4
    records = json.loads(capsys.readouterr().out)
    assert records[0] == {"file": str(tmp_path / "a.loop"),
                          "error": "internal: AssertionError: boom"}
    assert sorted(records[1]) == ["error", "file"]
    assert main(["bench", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert "a.loop  ERROR  internal: AssertionError: boom" in out
    assert "Total: 0 analyzed, 2 errors" in out


def test_wide_iteration_count_prints_in_full(capsys, loop_file):
    path = loop_file("wide.loop", WIDE_TERMINATING)
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"TERMINATING iterations={TWO_N_PLUS_1}\n")
    assert main(["analyze", str(path), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out, parse_int=str)
    assert record["iterations"] == TWO_N_PLUS_1


def test_wide_recurrent_interval_prints_in_full(capsys, loop_file):
    path = loop_file("interval.loop", WIDE_RECURRENT)
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NONTERMINATING rule=T3-row21\n")
    assert f'"interval": [-{TWO_N_MINUS_1}, 0]' in out
    assert main(["analyze", str(path), "--format", "json"]) == 1
    record = json.loads(capsys.readouterr().out, parse_int=str)
    assert record["rule"] == "T3-row21"
    assert record["witness"]["interval"] == [f"-{TWO_N_MINUS_1}", "0"]


def test_wide_non_monotone_value_prints_in_full(capsys, loop_file):
    path = loop_file("nonmono.loop", WIDE_NON_MONOTONE)
    reason = "non-monotone update x := -1*x + 0: alternates direction"
    assert main(["analyze", str(path)]) == 2
    assert f"reason: {reason}\n" in capsys.readouterr().out
    assert main(["analyze", str(path), "--format", "json"]) == 2
    record = json.loads(capsys.readouterr().out, parse_int=str)
    assert (record["reason"], record["code"]) == (reason, "non-monotone")


def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, loop_file):
    path = tmp_path / "latin1.loop"
    path.write_bytes(NOT_UTF8)
    for fmt in ("text", "json"):
        assert main(["analyze", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
        assert "internal" not in captured.err
    loop_file("ok.loop", "init x = 3; while (x > 0) { x := x - 1; }")
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["verdict"] == "terminating"
    assert records[1]["file"] == str(path)
    assert not records[1]["error"].startswith("internal:")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_main_restores_the_int_digit_limit(capsys, loop_file, monkeypatch):
    wide = loop_file("wide.loop", WIDE_TERMINATING)
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (saved, 640):
            sys.set_int_max_str_digits(limit)
            assert main(["analyze", str(wide)]) == 0
            assert sys.get_int_max_str_digits() == limit
        with monkeypatch.context() as patch:
            patch.setattr("monoterm.cli.decide", _raise_internal)
            assert main(["analyze", str(wide)]) == 4
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert TWO_N_PLUS_1 in capsys.readouterr().out


def test_a_fault_while_writing_output_exits_4(capsys, tmp_path, loop_file, monkeypatch):
    path = loop_file("a.loop", EXAMPLE1)
    monkeypatch.setattr("monoterm.cli._print_text", _raise_internal)
    monkeypatch.setattr("monoterm.cli.json", SimpleNamespace(dumps=_raise_internal))
    for argv in (["analyze", str(path)], ["bench", str(tmp_path), "--format", "json"]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: AssertionError: boom\n"
