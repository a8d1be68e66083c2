"""Run one workload of the liftkit benchmark and print its metrics.

    python3 perfbench/run.py --workload lift|certify --seed N --seconds S --trace 0|1

Run from the root of a liftkit checkout; liftkit is imported from its
src/ directory. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured with tracing off;
with --trace 1 they are its per-layer ones, from a traced run. Details
(sample counts, every layer total, the tracing overhead, the spans) go
to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lift", "certify")
# Traced runs repeat a fixed number of (untraced, traced) pass pairs, not
# as many as fit in --seconds, so that their counts do not depend on the
# machine's speed.
TRACE_ROUNDS = {"lift": 4, "certify": 2}
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import liftkit.cli; "
                "print(time.perf_counter() - t)")


class Tally:
    """Attempted and failed operations, and the wall times of each
    operation of the list, by its position."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.times = defaultdict(list)

    def fail(self, op, msg, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append("%s/%s: %s" % (op.kind, op.form, msg))


def run_op(op, tally, pairs):
    """Run, time and check one operation; return its wall time."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        ans = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        dt = time.perf_counter() - t0
        tally.fail(op, "%s: %s" % (type(exc).__name__, exc), wrong=False)
        return dt
    dt = time.perf_counter() - t0
    try:
        op.check(ans)
        if op.pair is not None:
            if op.pair in pairs:
                checks.check_agree(pairs.pop(op.pair), ans, op.kind)
            else:
                pairs[op.pair] = ans
    except Exception as exc:  # a checker that cannot read the answer rejects it
        tally.fail(op, "%s: %s" % (type(exc).__name__, exc), wrong=True)
    return dt


def run_pass(ops, tally, spans=None):
    """One pass over the list; returns the summed operation time. With
    spans (a Tracer), each operation's spans carry its number."""
    pairs = {}
    total = 0.0
    for i, op in enumerate(ops):
        if spans is not None:
            spans.op_id = tally.attempted
        dt = run_op(op, tally, pairs)
        tally.times[i].append(dt)
        total += dt
    return total


def geomean_of_medians(ops, times, form):
    """Geometric mean, over the queries of the list, of the median time
    of one answer in the given form (the median over passes). Queries
    differ in cost by more than tenfold, so one median over all of them
    would jump between kinds; the geometric mean weighs a 10% change in
    any query alike, and averages over the seeded inputs."""
    meds = [statistics.median(times[i]) for i, op in enumerate(ops) if op.form == form]
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


def import_seconds():
    """Median time to import liftkit.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    vals = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        vals.append(float(out.strip()))
    return statistics.median(vals)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "liftkit", "__init__.py")):
        print("error: no liftkit sources under %s" % src, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, src)
    import liftkit

    tally = Tally()
    build = workloads.build_lift if args.workload == "lift" else workloads.build_certify
    ops = build(liftkit, args.seed)
    run_op(ops[0], tally, {})  # untimed warm-up
    setup_s = time.perf_counter() - T_START

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        metrics = traced_run(args, ops, tally, bench, detail)
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            run_pass(ops, tally)
            if time.perf_counter() >= deadline:
                break
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "analytic_ms": 1e3 * geomean_of_medians(ops, tally.times, workloads.ANALYTIC),
            "expr_ms": 1e3 * geomean_of_medians(ops, tally.times, workloads.EXPR),
            "pass_s": sum(statistics.median(v) for v in tally.times.values()),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        # every median is over the run's passes, one sample per pass
        detail["samples"] = {"passes": len(tally.times[0]),
                             "queries": dict(Counter(op.form for op in ops))}

    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail["errors"] = tally.errors
    detail["result"] = result
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for err in tally.errors:
        print("failed: " + err, file=sys.stderr)
    print("samples: " + json.dumps(detail.get("samples", {}), sort_keys=True))
    print(json.dumps(result))
    return 0


def traced_run(args, ops, tally, bench, detail):
    """Alternate untraced and traced passes of the workload's list, then
    do the same once for the cli argument lists run in process, so that
    cli.run, and every layer it reaches, is measured on every workload.
    The tracing overhead is the traced passes' time over the untraced."""
    t = tracer.Tracer()
    cli_ops = workloads.build_cli_ops(args.seed, workloads.CliChecker(ROOT))
    times = {"workload": ([], []), "cli": ([], [])}
    lists = [("workload", ops)] * TRACE_ROUNDS[args.workload] + [("cli", cli_ops)]
    for name, op_list in lists:
        if name == "cli":
            detail["workload_layers"] = t.layer_metrics()
        base, traced = times[name]
        base.append(run_pass(op_list, tally))
        with t:
            traced.append(run_pass(op_list, tally, spans=t))
    layers = t.layer_metrics()
    layers["cli.import_s"] = import_seconds()
    t.write_spans(os.path.join(OUT, "spans-%s-seed%d.csv.gz" % (args.workload, args.seed)))
    overhead = {k: sum(traced) / sum(base) - 1.0 for k, (base, traced) in times.items()}
    detail["layers"] = layers
    detail["tracing_overhead"] = overhead
    detail["spans"] = len(t.span_id)
    detail["samples"] = {k: {"untraced_pass_s": base, "traced_pass_s": traced}
                         for k, (base, traced) in times.items()}
    print("tracing overhead: %+.1f%% on the workload's passes, %+.1f%% on the cli pass; "
          "%d spans" % (100.0 * overhead["workload"], 100.0 * overhead["cli"], len(t.span_id)))
    return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
