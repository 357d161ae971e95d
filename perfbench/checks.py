"""Correctness checks on what the program printed.

A file ends correctly when it has a decided verdict whose
(file, verdict, rule, iterations) matches the expected verdicts recorded
for the seed, and the bounded interpreter agrees with that verdict.
Witness bodies are not compared: their format may change while the
verdicts stay.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from monoterm.interpreter import agreement_check
from monoterm.model import NonTerminating, Terminating
from monoterm.parser import parse

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DIGESTS_FILE = EXPECTED_DIR / "digests.json"

VerdictKey = tuple[str, str, str, str]


def verdict_key(record: dict) -> VerdictKey:
    """(file, verdict, rule, iterations) of one output record, as strings."""
    iterations = record.get("iterations")
    return (
        Path(record["file"]).name,
        record["verdict"],
        record.get("rule") or "-",
        "-" if iterations is None else str(iterations),
    )


def verdicts_digest(keys: list[VerdictKey]) -> str:
    h = hashlib.sha256()
    for key in sorted(keys):
        h.update(("\t".join(key) + "\n").encode())
    return h.hexdigest()


def expected_table_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-{seed}.tsv"


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}


class Expected:
    """What is recorded for one (workload, seed): a per-file table, a digest, or nothing."""

    def __init__(self, workload: str, seed: int):
        entry = load_digests().get(workload, {}).get(str(seed))
        self.corpus_digest: str | None = entry["corpus"] if entry else None
        self.verdicts_digest: str | None = entry["verdicts"] if entry else None
        path = expected_table_path(workload, seed)
        self.table: dict[str, VerdictKey] | None = None
        if path.exists():
            rows = [tuple(line.split("\t")) for line in path.read_text().splitlines() if line]
            self.table = {row[0]: row for row in rows}
        self.source = (
            path.name if self.table is not None
            else "digests.json" if self.verdicts_digest else None
        )

    def table_mismatches(self, keys: dict[str, VerdictKey]) -> set[str]:
        """Names among keys whose key differs from the recorded table, if there is one."""
        if self.table is None:
            return set()
        return {name for name, key in keys.items() if self.table.get(name) != key}

    def digest_matches(self, keys: dict[str, VerdictKey]) -> bool:
        """Whether the keys of the whole corpus match the recorded digest, if there is one."""
        return self.verdicts_digest is None or verdicts_digest(list(keys.values())) == (
            self.verdicts_digest
        )


def _verdict_from_record(record: dict):
    if record["verdict"] == "terminating":
        return Terminating(record.get("iterations"))
    # agreement_check reads only the verdict's type for non-termination
    return NonTerminating(record["rule"], None)


def oracle_disagreements(records: list[dict], texts: dict[str, str]) -> dict[str, str]:
    """Cross-check each decided record with the bounded interpreter.

    Returns {file name: reason} for every record the oracle does not confirm
    or accept as consistent.
    """
    bad: dict[str, str] = {}
    for record in records:
        if record["verdict"] == "unsupported":
            continue
        name = Path(record["file"]).name
        agreement = agreement_check(parse(texts[name]), _verdict_from_record(record))
        if not agreement.ok:
            bad[name] = agreement.details or "oracle disagrees"
    return bad


def record_failures(records: list[dict], names: list[str]) -> dict[str, str]:
    """Files missing from the output or left undecided, and oracle fields that disagree."""
    by_name = {Path(r["file"]).name: r for r in records}
    bad: dict[str, str] = {}
    for name in names:
        record = by_name.get(name)
        if record is None:
            bad[name] = "missing from output"
        elif record["verdict"] == "unsupported":
            bad[name] = f"unsupported: {record.get('reason')}"
        elif "oracle" in record and not record["oracle"]["agrees"]:
            bad[name] = f"oracle disagrees: {record['oracle'].get('details')}"
    return bad
