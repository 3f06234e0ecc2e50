#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For every workload, a tiny run (small inputs, one round) must pass every
check, untraced and traced, and the same run with one expected result
deliberately perturbed (--perturb) must report correct: false. Exits 0
when all of that holds.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main():
    binary = bench.build()
    ok = True
    for workload in bench.WORKLOADS:
        cases = [("tiny", 0, [], True), ("tiny traced", 1, [], True),
                 ("tiny perturbed", 0, ["--perturb"], False)]
        for label, trace, extra, want in cases:
            _, result = bench.run(binary, workload, 7, 1, trace, ["--tiny"] + extra)
            good = result["correct"] is want and result["attempted"] > 0
            ok = ok and good
            print("%-15s %-15s correct=%-5s want %-5s %s" %
                  (workload, label, result["correct"], want, "ok" if good else "FAIL"))
    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
