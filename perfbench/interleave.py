#!/usr/bin/env python3
"""Runs two interleaved sets of benchmark runs of one build and checks them
against the bounds in BENCHMARK.json.

    python3 perfbench/interleave.py [--runs 10] [--workloads a,b] [--json out.json]

Set A uses seeds 1001.., set B seeds 2001..; run i of A and run i of B go
back to back, A first on even i and B first on odd i, so that drift in the
machine's speed lands on both sets alike. For every workload x end-to-end
metric it prints each set's median and quartiles, the spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles) and how much worse B's median is than A's, both against the
metric's bound. A spread above a third of the bound is flagged as unsteady.
The share of failed operations must be the same in both sets.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    binary = bench.build()
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = (1001 if side == "A" else 2001) + i
                _, result = bench.run(binary, w, seed, spec["run_seconds"], 0)
                results[w][side].append(result)
                print("run %2d %-15s set %s seed %d correct %s" %
                      (i, w, side, seed, result["correct"]), file=sys.stderr)

    ok = True
    for w in workloads:
        print("\n## %s\n" % w)
        print("| metric | bound | A median [q1, q3] | spread A | B median [q1, q3] "
              "| spread B | B worse by | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, spreads = [], []
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[w][side]]
                q1, med, q3 = quartiles(values)
                spreads.append((q3 - q1) / med)
                cols.append(("%.6g [%.6g, %.6g]" % (med, q1, q3), med))
            a, b = cols[0][1], cols[1][1]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = []
            if name != "setup_s" and max(spreads) > bound:
                verdict.append("SPREAD")
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict.append("unsteady")
            if worse > bound:
                verdict.append("DRIFT")
            ok = ok and "SPREAD" not in verdict and "DRIFT" not in verdict
            print("| %s | %.2f | %s | %.3f | %s | %.3f | %+.3f | %s |" %
                  (name, bound, cols[0][0], spreads[0], cols[1][0], spreads[1],
                   worse, " ".join(verdict) or "ok"))
        shares = []
        for side in ("A", "B"):
            attempted = sum(r["attempted"] for r in results[w][side])
            failed = sum(r["failed"] for r in results[w][side])
            per_run = sorted({(r["failed"], r["attempted"]) for r in results[w][side]})
            shares.append({r[0] / r[1] for r in per_run})
            print("\nset %s: %d of %d operations failed; correct in every run: %s" %
                  (side, failed, attempted, all(r["correct"] for r in results[w][side])))
            ok = ok and all(r["correct"] for r in results[w][side])
        if len(shares[0] | shares[1]) != 1:
            print("failed share differs between runs: %s" % sorted(shares[0] | shares[1]))
            ok = False

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    print("\nverdict: %s" % ("within bounds" if ok else "OUT OF BOUNDS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
