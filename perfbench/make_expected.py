#!/usr/bin/env python3
"""Record the expected verdicts the benchmark checks every run against.

Run from the repository root:

    python3 perfbench/make_expected.py

For every workload and every seed in RECORDED_SEEDS this decides each
generated loop in-process and cross-checks each decided loop with the
bounded interpreter (`agreement_check`).  It refuses to record anything
if a loop is left undecided or the interpreter disagrees.  It writes
expected/digests.json (corpus and verdict digests for every recorded
seed) and one table of (file, verdict, rule, iterations) per workload
for the primary and held-out seeds.  Witness bodies are not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    DIGESTS_FILE,
    expected_table_path,
    verdict_key,
    verdicts_digest,
)
from monoterm.analyzer import decide  # noqa: E402
from monoterm.interpreter import agreement_check  # noqa: E402
from monoterm.model import Unsupported  # noqa: E402
from monoterm.parser import parse  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_SEED,
    PRIMARY_SEED,
    RECORDED_SEEDS,
    WORKLOADS,
    build_corpus,
    corpus_digest,
)


def checked_keys(workload, seed: int) -> tuple[str, list]:
    files = build_corpus(workload, seed)
    keys = []
    for name, text in files:
        program = parse(text)
        verdict = decide(program)
        if isinstance(verdict, Unsupported):
            raise SystemExit(f"{workload.name} seed {seed}: {name} undecided: {verdict.reason}")
        agreement = agreement_check(program, verdict)
        if not agreement.ok:
            raise SystemExit(f"{workload.name} seed {seed}: {name}: {agreement.details}")
        keys.append(verdict_key({"file": name, **verdict.to_json()}))
    return corpus_digest(files), keys


def main() -> int:
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for workload in WORKLOADS.values():
        digests[workload.name] = {}
        for seed in RECORDED_SEEDS:
            corpus, keys = checked_keys(workload, seed)
            digests[workload.name][str(seed)] = {
                "corpus": corpus,
                "verdicts": verdicts_digest(keys),
            }
            if seed in (PRIMARY_SEED, HELD_OUT_SEED):
                rows = ["\t".join(key) for key in sorted(keys)]
                expected_table_path(workload.name, seed).write_text("\n".join(rows) + "\n")
            print(f"{workload.name} seed {seed}: {len(keys)} loops agree with the oracle")
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
