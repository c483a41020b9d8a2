#!/usr/bin/env python3
"""Compare two bench_suite JSON files on their non-wall fields.

    python3 tools/bench_compare.py REFERENCE CANDIDATE

Cells are keyed by (experiment, label). Every reference cell must appear
in the candidate with the same `ok`, `simulated_seconds` and `error`;
candidate-only cells are ignored. Exits 1 on any difference or missing
cell, printing the first 20. Used for a --cache=off run against a
--cache=cold run, and for a fresh run against the committed
baselines/BENCH_suite.after.json.
"""

import json
import sys

FIELDS = ("ok", "simulated_seconds", "error")


def cells(path):
    with open(path) as fh:
        return {(c["experiment"], c["label"]): {f: c.get(f) for f in FIELDS}
                for c in json.load(fh)["cells"]}


def main(argv):
    if len(argv) != 3:
        print("usage: bench_compare.py REFERENCE CANDIDATE", file=sys.stderr)
        return 2
    reference, candidate = cells(argv[1]), cells(argv[2])
    bad = [(key, want, candidate.get(key, "missing"))
           for key, want in reference.items() if candidate.get(key) != want]
    for (experiment, label), want, got in bad[:20]:
        print(f"MISMATCH {experiment} {label}: reference {want} "
              f"candidate {got}")
    print(f"bench_compare: {len(reference) - len(bad)} of {len(reference)} "
          f"reference cells identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
