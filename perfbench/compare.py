"""Compare two benchmark result records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the ``perfbench/out/result-*.json`` files a run writes.
Prints each metric both records carry with the ratio after/before.  Two
records whose environments differ in gmpy2 presence are not comparable:
``zeta`` moves by about an order of magnitude with it.  The script then
says so and exits with 3; other environment differences are listed.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        before, after = json.load(a), json.load(b)
    for key in sorted(set(before["env"]) | set(after["env"])):
        if before["env"].get(key) != after["env"].get(key):
            print(f"env {key}: {before['env'].get(key)} -> {after['env'].get(key)}")
    if before["env"].get("gmpy2") != after["env"].get("gmpy2"):
        print("NOT COMPARABLE: gmpy2 presence differs between the two records")
        return 3
    if before["workload"] != after["workload"]:
        print(f"NOT COMPARABLE: workloads {before['workload']} and {after['workload']}")
        return 3
    for name, entry in before["metrics"].items():
        if name in after["metrics"]:
            old, new = entry["value"], after["metrics"][name]["value"]
            ratio = f"{new / old:.3f}" if old else "n/a"
            print(f"{name:<46} {old:>14.6g} {new:>14.6g} {entry['unit']:<6} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
