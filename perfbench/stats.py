#!/usr/bin/env python3
"""Repeats benchmark runs and judges their spread (stdlib only).

    python3 perfbench/stats.py run --workload <name> --runs 10 [--first-seed 1] [--out results.json]
    python3 perfbench/stats.py compare base.json change.json

`run` runs perfbench/run.py once per seed (--first-seed, +1, ...), with the
run length of BENCHMARK.json, saves every result line, and prints each
end-to-end metric's median, quartiles and spread. `compare` says whether
two saved result sets of one workload agree within the bounds.

Steadiness criterion: the spread of a metric is (q3 - q1) / median, with
the quartiles of statistics.quantiles(values, n=4). A result set is steady
when every spread except setup_s's is below a third of the metric's bound.
Two sets agree when, for every metric, the second median is not worse than
the first by more than the bound (in the metric's `better` direction),
every spread except setup_s's stays within its bound, and the share of
failed operations is exactly the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    spec = load_spec()
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        runs.append({"seed": seed, "exit": done.returncode, "result": result})
        print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
    data = {"workload": args.workload, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    report(data, spec)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def metric_values(data, name):
    return [r["result"]["metrics"][name]["value"] for r in data["runs"]
            if r["result"] and name in r["result"]["metrics"]]


def failed_share(data):
    shares = {r["result"]["failed"] / r["result"]["attempted"]
              for r in data["runs"] if r["result"]}
    return shares


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def report(data, spec):
    print(f"workload {data['workload']}: {len(data['runs'])} runs, "
          f"failed shares {sorted(failed_share(data))}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  steady")
    for m in spec["end_to_end"]:
        values = metric_values(data, m["name"])
        if len(values) < 2:
            print(f"{m['name']:24} too few values")
            continue
        s, q1, q3 = spread(values)
        steady = ("n/a" if m["name"] == "setup_s"
                  else "yes" if s < m["bound"] / 3 else "NO")
        print(f"{m['name']:24} {statistics.median(values):14.6g} "
              f"{q1:14.6g} {q3:14.6g} {s:8.4f} {m['bound']:6.3f}  {steady}")


def compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    ok = base["workload"] == change["workload"]
    if not ok:
        print("the two sets are of different workloads")
    if failed_share(base) != failed_share(change) or \
            len(failed_share(base)) != 1:
        print(f"failed shares differ: {failed_share(base)} vs "
              f"{failed_share(change)}")
        ok = False
    print(f"{'metric':24} {'base':>14} {'change':>14} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        a, b = metric_values(base, m["name"]), metric_values(change, m["name"])
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        if m["name"] != "setup_s":
            for values in (a, b):
                if spread(values)[0] > m["bound"]:
                    verdict = "SPREAD"
        ok = ok and verdict == "ok"
        print(f"{m['name']:24} {ma:14.6g} {mb:14.6g} {worse:9.4f} "
              f"{m['bound']:6.3f}  {verdict}")
    print("agree" if ok else "disagree")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=run)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(fn=compare)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
