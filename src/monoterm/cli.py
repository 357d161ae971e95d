"""Command-line driver: analyze one loop file, bench a corpus, or generate one.

Exit codes for `analyze`: 0 terminating, 1 non-terminating, 2 unsupported,
3 input error (usage errors, a bad --max-steps among them, and a loop file
that cannot be read, is not UTF-8 or does not parse), 4 internal error:
`main` turns any other exception, in a command or while writing its output,
into one `error: internal:` line.  `bench` lists bad files and goes on; it
exits 3 on a command-line input error (a path that is not a directory, or
that cannot be listed, included), 4 if any file hit an internal error, else
0.  `gen` states no rule of its own, its shapes among them: it exits 3,
before it creates anything, with the message of `gen.check_corpus` when that
rejects its arguments, and exits 3 when it cannot write its output
directory.  A verdict's integers may be wider than the parser's 4300-digit
literal limit; `main` lifts the interpreter's int-to-str limit while a
command runs, so they print in full.  Library callers must lift it
themselves.
Decision times cover the decider call only (never parsing or the oracle)
and are reported in milliseconds with microsecond digits.

A process pays only for what its command runs.  `bench` lists its directory
once with `os.listdir` and keeps the names that end in `.loop`, in sorted
order.  A loop file is read as bytes and decoded as strict UTF-8 with no
newline translation, so an error is located where `parse()` locates it on
the same text.  The oracle (`interpreter`) is imported only for
`--oracle-check`, and the generator (`gen`) only by `gen`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .analyzer import decide
from .model import DEFAULT_MAX_STEPS, LoopProgram, Unsupported, Verdict
from .parser import ParseError, parse

_INPUT_ERRORS = (ParseError, OSError, UnicodeDecodeError)  # a bad loop file: exit 3
# verdict -> (its column in bench's table, analyze's exit code)
_VERDICTS = {"terminating": ("T", 0), "nonterminating": ("NT", 1), "unsupported": ("U", 2)}


def _max_steps(text: str) -> int:
    """The argparse type of --max-steps, the oracle's step budget: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _internal_error(err: Exception) -> str:
    return f"internal: {type(err).__name__}: {err}"


def _oracle_json(program: LoopProgram, verdict: Verdict, max_steps: int) -> dict:
    """The `oracle` field of a record: the interpreter's replay of the verdict."""
    from .interpreter import BoundExhausted, CycleDetected, TerminatedIn, agreement_check

    agreement = agreement_check(program, verdict, max_steps)
    result = agreement.oracle
    if isinstance(result, TerminatedIn):
        outcome, steps = "terminated", result.steps
    elif isinstance(result, CycleDetected):
        outcome, steps = "cycle", result.period
    else:
        assert isinstance(result, BoundExhausted)
        outcome, steps = "bound-exhausted", result.steps
    out = {"outcome": outcome, "steps": steps, "agrees": agreement.ok}
    if agreement.note:
        out["note"] = agreement.note
    if agreement.details:
        out["details"] = agreement.details
    return out


def _analyze_one(path: Path, max_steps: int, oracle_check: bool) -> dict:
    """Analysis record for one file; raises one of _INPUT_ERRORS on bad input."""
    program = parse(path.read_bytes().decode("utf-8"))
    start = time.perf_counter()
    verdict = decide(program)
    decision_ms = (time.perf_counter() - start) * 1000.0
    record = {"file": str(path), **verdict.to_json(), "decision_ms": round(decision_ms, 6)}
    if oracle_check and not isinstance(verdict, Unsupported):
        record["oracle"] = _oracle_json(program, verdict, max_steps)
    return record


def _print_text(record: dict) -> None:
    line = record["verdict"].upper()
    if record.get("rule"):
        line += f" rule={record['rule']}"
    if record.get("iterations") is not None:
        line += f" iterations={record['iterations']}"
    print(line)
    if record.get("reason"):
        print(f"reason: {record['reason']}")
    if record.get("witness"):
        print(f"witness: {json.dumps(record['witness'])}")
    print(f"decision_ms: {record['decision_ms']:.3f}")
    oracle = record.get("oracle")
    if oracle:
        agrees = "agrees" if oracle["agrees"] else "DISAGREES"
        note = f" ({oracle['note']})" if oracle.get("note") else ""
        print(f"oracle: {oracle['outcome']} after {oracle['steps']} steps, {agrees}{note}")
        if oracle.get("details"):
            print(f"oracle details: {oracle['details']}")


def cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        record = _analyze_one(path, args.max_steps, args.oracle_check)
    except _INPUT_ERRORS as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        _print_text(record)
    return _VERDICTS[record["verdict"]][1]


def _summary_counts(records: list[dict]) -> dict:
    counts = {"T": 0, "NT": 0, "TO": 0, "M": 0}  # TO: budget timeouts, M: other unsupported
    for r in records:
        short = _VERDICTS[r["verdict"]][0]
        if short == "U":
            short = "TO" if r.get("code") == "budget" else "M"
        counts[short] += 1
    return counts


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory}: not a directory", file=sys.stderr)
        return 3
    try:
        names = sorted(name for name in os.listdir(directory) if name.endswith(".loop"))
    except OSError as err:  # a directory that cannot be listed
        print(f"error: {directory}: {err}", file=sys.stderr)
        return 3
    files = [directory / name for name in names]
    records: list[dict] = []
    errors: list[tuple[Path, str]] = []
    internal = False
    for path in files:
        try:
            records.append(_analyze_one(path, args.max_steps, args.oracle_check))
        except _INPUT_ERRORS as err:
            errors.append((path, str(err)))
        except Exception as err:  # a fault in the analysis: report it and go on
            errors.append((path, _internal_error(err)))
            internal = True
    exit_code = 4 if internal else 0
    if args.format == "json":
        errors_json = [{"file": str(path), "error": message} for path, message in errors]
        print(json.dumps(records + errors_json, indent=2))
        return exit_code
    name_width = max([len(p.name) for p in files], default=4)
    header = f"{'file':<{name_width}}  {'verdict':<3}  {'rule':<14}  {'ms':>10}"
    if args.oracle_check:
        header += "  oracle"
    print(header)
    print("-" * len(header))
    total_ms = 0.0
    for r in records:
        total_ms += r["decision_ms"]
        line = (
            f"{Path(r['file']).name:<{name_width}}  {_VERDICTS[r['verdict']][0]:<3}  "
            f"{(r.get('rule') or '-'):<14}  {r['decision_ms']:>10.3f}"
        )
        if args.oracle_check:
            oracle = r.get("oracle")
            line += f"  {'pass' if oracle and oracle['agrees'] else 'FAIL' if oracle else '-'}"
        print(line)
    for path, message in errors:
        print(f"{path.name:<{name_width}}  ERROR  {message}")
    counts = _summary_counts(records)
    print(
        f"Total: {len(records)} analyzed, {len(errors)} errors | "
        f"T={counts['T']} NT={counts['NT']} TO={counts['TO']} M={counts['M']} | "
        f"decision time {total_ms:.3f} ms"
    )
    return exit_code


def cmd_gen(args: argparse.Namespace) -> int:
    from .gen import check_corpus, generate_corpus

    try:  # only the checker: a ValueError while drawing is an internal error
        check_corpus(args.count, args.shape, args.bound, args.cover_rows)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    outdir = Path(args.outdir)
    files = generate_corpus(args.seed, args.count, args.shape, args.bound, args.cover_rows)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (outdir / name).write_text(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(f"wrote {len(files)} files to {outdir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, not argparse's 2 (the unsupported code)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoterm", description="Termination analysis for monotone linear integer loops"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, target, help_text, func in (
        ("analyze", "file", "decide one loop file", cmd_analyze),
        ("bench", "dir", "decide every .loop file in a directory", cmd_bench),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument(target)
        command.add_argument("--oracle-check", action="store_true")
        command.add_argument("--max-steps", type=_max_steps, default=DEFAULT_MAX_STEPS)
        command.add_argument("--format", choices=("text", "json"), default="text")
        command.set_defaults(func=func)

    gen = sub.add_parser("gen", help="generate a random loop corpus")
    gen.add_argument("outdir")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--shape", default="mix")
    gen.add_argument("--bound", type=int, default=20)
    gen.add_argument("--cover-rows", action="store_true")
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Python 3.10.0-3.10.6 have no int-to-str digit limit to lift.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except Exception as err:  # a fault in a command or in writing its output, not a verdict
        print(f"error: {_internal_error(err)}", file=sys.stderr)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
