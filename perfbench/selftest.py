"""Self-test of the benchmark's checkers: each must accept liftkit's
real answer and reject a slightly perturbed one.

    python3 perfbench/selftest.py [--seed N]

Every operation of one pass of each workload runs once (the cli
invocations in process). Its answer must pass its checker. Then every
checked value in the answer is perturbed in turn, and the checker must
reject each perturbed answer: a float is moved up and down by a
relative 1e-6 (plus 1e-6), and by 6% where the checker's own tolerance
is wider (profile infima 5%, shell estimates 2%); an integer by +-1; a
flag is flipped; a word is replaced; a list loses its last entry. A cli
answer is also given a wrong exit code, a NaN, a report without
tool_version, and a stdout that differs from the first pass by one
byte. Exits 1 if any perturbation is accepted.
"""

import argparse
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEPS = (1e-6, 0.06)
BYTE_LABEL = "stdout changed by one byte"

# result fields each cli invocation checks, as paths into "results"
CLI_KEYS = {
    "invert": [("preimage",)],
    "lift": [("verdict",)],
    "hadamard": [("profile", "infima"), ("classification", "class"),
                 ("classification", "caveat")],
    "fiber": [("count",), ("preimages",)],
    "sheets": [("sheets",), ("orbit",)],
    "deriv": [("jacobian_svd",), ("shell_sampling",)],
    "implicit": [("verdict",), ("y_end",)],
    "branches": [("groups",), ("members",)],
}


def leaves(obj, path=()):
    """(path, value) for every scalar inside obj."""
    if isinstance(obj, dict):
        for k in obj:
            yield from leaves(obj[k], path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, path + (i,))
    else:
        yield path, obj


def lists(obj, path=()):
    if isinstance(obj, dict):
        for k in obj:
            yield from lists(obj[k], path + (k,))
    elif isinstance(obj, list):
        yield path
        for i, v in enumerate(obj):
            yield from lists(v, path + (i,))


def replaced(obj, path, fn):
    out = copy.deepcopy(obj)
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = fn(node[path[-1]])
    return out


def perturbations(ans):
    """(label, [perturbed answers]) per checked value; a label counts as
    caught when every answer in one of its groups is rejected."""
    for path, val in leaves(ans):
        label = "/".join(str(p) for p in path)
        if isinstance(val, bool):
            yield label, [[replaced(ans, path, lambda v: not v)]]
        elif isinstance(val, int):
            yield label, [[replaced(ans, path, lambda v: v + 1),
                           replaced(ans, path, lambda v: v - 1)]]
        elif isinstance(val, float):
            yield label, [[replaced(ans, path, lambda v, d=d: v * (1 + d) + d),
                           replaced(ans, path, lambda v, d=d: v * (1 - d) - d)]
                          for d in STEPS]
        elif isinstance(val, str):
            yield label, [[replaced(ans, path, lambda v: "perturbed")]]
    for path in lists(ans):
        if path:
            yield "/".join(map(str, path)) + "[:-1]", [
                [replaced(ans, path, lambda v: v[:-1])]]


def cli_perturbations(kind, ans):
    doc = json.loads(ans["stdout"])

    def text(d):
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    yield "exit code", [[dict(ans, code=ans["code"] + 1)]]
    first = next(p for p, v in leaves(doc["results"])
                 if isinstance(v, float) and not isinstance(v, bool))
    yield "NaN in results", [[dict(ans, stdout=text(
        replaced(doc, ("results",) + first, lambda v: float("nan"))))]]
    yield "no tool_version", [[dict(ans, stdout=text(
        {k: v for k, v in doc.items() if k != "tool_version"}))]]
    yield BYTE_LABEL, [[dict(ans, stdout=ans["stdout"] + " ")]]
    for key in CLI_KEYS[kind]:
        sub = doc["results"]
        for k in key:
            sub = sub[k]
        for label, groups in perturbations({"v": sub}):
            yield "/".join(key) + label[1:], [
                [dict(ans, stdout=text(replaced(doc, ("results",) + key,
                                                lambda _, p=p: p["v"])))
                 for p in group] for group in groups]


def rejects(check, ans):
    try:
        check(ans)
    except Exception:  # run.py counts any exception from a check as a wrong answer
        return True
    return False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liftkit
    import workloads

    checker = workloads.CliChecker(ROOT)
    suites = [
        ("lift", workloads.build_lift(liftkit, args.seed), perturbations),
        ("certify", workloads.build_certify(liftkit, args.seed), perturbations),
        ("cli", workloads.build_cli_ops(args.seed, checker), None),
    ]
    missed = 0
    for name, ops, gen in suites:
        seen = set()
        for op in ops:
            if (op.kind, op.form) in seen:
                continue
            seen.add((op.kind, op.form))
            ans = op.run()
            if rejects(op.check, ans):
                print("FAIL %s %s/%s: the real answer is rejected" % (name, op.kind, op.form))
                missed += 1
                continue
            items = list(gen(ans) if gen else cli_perturbations(op.kind, ans))
            caught = 0
            for label, groups in items:

                def judge(a, label=label):
                    if gen is None:
                        # judge each cli report afresh; the byte test needs
                        # the real stdout remembered as the first pass
                        checker.first.clear()
                        if label == BYTE_LABEL:
                            op.check(ans)
                    return rejects(op.check, a)

                hit = next((i for i, g in enumerate(groups)
                            if all(judge(a) for a in g)), None)
                if hit is None:
                    print("FAIL %s %s/%s: perturbed %s accepted" % (name, op.kind, op.form, label))
                    missed += 1
                else:
                    caught += 1
            print("ok   %-8s %-20s %-9s %3d perturbations rejected"
                  % (name, op.kind, op.form, caught))
    print("selftest: %s" % ("FAILED, %d accepted" % missed if missed else "every checker rejects every perturbation"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
