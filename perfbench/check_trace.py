"""Check that two traced runs with one seed count the same work.

    python3 perfbench/check_trace.py [--workload lift|certify ...] [--seed N]

For each workload, runs `run.py --trace 1` twice with the same seed and
compares every count the tracer keeps (calls, points, iterations,
nodes, nfev, matrices, failures, ...) for every wrapped function. liftkit
promises deterministic results, so the counts must be identical; times
are not compared. Exits 1 on any difference or failed operation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_STATS = ("self_s", "import_s")


def traced_counts(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = os.path.join(HERE, "out", "result-%s-seed%d-trace1.json" % (workload, seed))
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    counts = {k: v for k, v in detail["layers"].items() if not k.endswith(TIME_STATS)}
    return counts, detail["result"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=("lift", "certify"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0
    for workload in args.workload or ("lift", "certify"):
        first, res1 = traced_counts(workload, args.seed)
        second, res2 = traced_counts(workload, args.seed)
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        for k in diff:
            print("%s: %s differs: %r then %r" % (workload, k, first.get(k), second.get(k)))
        for res in (res1, res2):
            if res["failed"] or not res["correct"]:
                print("%s: %d failed operation(s)" % (workload, res["failed"]))
                bad += 1
        bad += len(diff)
        print("%s: %d counts compared, %d differ" % (workload, len(first), len(diff)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
