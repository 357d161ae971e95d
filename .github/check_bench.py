"""Check the JSON that `monoterm bench --oracle-check --format json` wrote.

    python3 .github/check_bench.py BENCH_JSON [--records N] [--walk-witnesses]

Exits 1 when there are no records, when a record holds an error, an
oracle disagreement, a decided verdict with no oracle object (output not
written with --oracle-check), a formula witness that is not satisfied (a
negative disjunct or a false conjunct) or a procedure that is not its
rule's (a non-terminating witness names "alg3" exactly on T3-row21-22 and
"alg4" exactly on T3-row23-24), when --records is given and the record
count differs, or when --walk-witnesses is given and no witness is a
recurrent interval, none names "alg3" or none names "alg4".
"""

import argparse
import json
import sys

#: Rule -> the fixed-point search its witness names; other rules name none.
PROCEDURES = {"T3-row21": "alg3", "T3-row22": "alg3", "T3-row23": "alg4", "T3-row24": "alg4"}
#: What --walk-witnesses needs one of each of: a witness kind or a procedure.
WALK_WITNESSES = ("recurrent", "alg3", "alg4")
#: The verdicts the oracle checks; it skips unsupported ones.
DECIDED = ("terminating", "nonterminating")


def refuted(witness: dict | None) -> bool:
    """True for a formula witness that does not show a satisfied disjunct."""
    if not witness or witness.get("kind") != "formula":
        return False
    return witness["disjunct"] < 0 or not all(value is True for _, value in witness["conjuncts"])


def unchecked(record: dict) -> bool:
    """True for a decided record that carries no oracle object."""
    return record.get("verdict") in DECIDED and "oracle" not in record


def misnamed(record: dict) -> bool:
    """True for a non-terminating record whose procedure is not its rule's."""
    if record.get("verdict") != "nonterminating":
        return False
    return record["witness"].get("procedure") != PROCEDURES.get(record["rule"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json")
    parser.add_argument("--records", type=int, help="the exact number of records")
    parser.add_argument("--walk-witnesses", action="store_true",
                        help="need a recurrent interval, an alg3 and an alg4 witness")
    args = parser.parse_args()
    with open(args.bench_json, encoding="utf-8") as f:
        records = json.load(f)
    bad = [
        r for r in records
        if "error" in r
        or r.get("oracle", {}).get("agrees") is False
        or unchecked(r)
        or refuted(r.get("witness"))
        or misnamed(r)
    ]
    witnesses = [r.get("witness") or {} for r in records]
    counts = {kind: sum(kind in (w.get("kind"), w.get("procedure")) for w in witnesses)
              for kind in WALK_WITNESSES}
    print(f"{len(records)} records, {len(bad)} with an error, an oracle disagreement or "
          f"none, an unsatisfied formula or a procedure not its rule's; witnesses by kind or "
          f"procedure: {counts}")
    for record in bad:
        print(record)
    ok = (
        records
        and not bad
        and (args.records is None or len(records) == args.records)
        and (all(counts.values()) or not args.walk_witnesses)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
