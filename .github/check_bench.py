"""Check the JSON that `monoterm bench --oracle-check --format json` wrote.

    python3 .github/check_bench.py BENCH_JSON [--records N] [--recurrent]

Exits 1 when there are no records, when a record holds an error, an
oracle disagreement or a formula witness that is not satisfied (a negative
disjunct or a false conjunct), when --records is given and the record
count differs, or when --recurrent is given and no witness is a recurrent
interval.
"""

import argparse
import json
import sys


def refuted(witness: dict | None) -> bool:
    """True for a formula witness that does not show a satisfied disjunct."""
    if not witness or witness.get("kind") != "formula":
        return False
    return witness["disjunct"] < 0 or not all(value is True for _, value in witness["conjuncts"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json")
    parser.add_argument("--records", type=int, help="the exact number of records")
    parser.add_argument("--recurrent", action="store_true", help="need a recurrent interval")
    args = parser.parse_args()
    with open(args.bench_json, encoding="utf-8") as f:
        records = json.load(f)
    bad = [
        r for r in records
        if "error" in r or r.get("oracle", {}).get("agrees") is False or refuted(r.get("witness"))
    ]
    recurrent = [r for r in records if (r.get("witness") or {}).get("kind") == "recurrent"]
    print(f"{len(records)} records, {len(bad)} with an error, an oracle disagreement or an "
          f"unsatisfied formula, {len(recurrent)} with a recurrent interval")
    for record in bad:
        print(record)
    ok = (
        records
        and not bad
        and (args.records is None or len(records) == args.records)
        and (recurrent or not args.recurrent)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
