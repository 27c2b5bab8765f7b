#!/usr/bin/env python3
"""The repository benchmark: one command over the authorized query service.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs one
      workload and prints every metric; the last stdout line is the result
      object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
      the end-to-end metrics, --trace 1 the per-layer ones (and a Chrome
      trace under .bench_build/out). Each result is also saved, stamped with
      run_meta, under .bench_build/results/. Exit status 0 = correct run.

  python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
      Compares two sets of saved results (parent and change) per workload and
      metric: improved / unchanged / regressed / unresolved.

  python3 perfbench/run.py selftest
      Checks the comparator on synthetic inputs and the binary's own helpers.

Workload parameters and the metric map live in perfbench/design.json; metric
units, directions and bounds in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170

# design.json parameter -> binary flag.
FLAGS = {
    "data_sf": "--sf",
    "exec_threads": "--exec-threads",
    "adhoc_pool": "--adhoc-pool",
    "write_rate": "--write-rate",
}


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------- build --

def build():
    """Configures and builds incrementally; output goes to a log."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j",
              str(os.cpu_count() or 1)]]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed (see %s):\n%s" % (log_path, "\n".join(tail)))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# --------------------------------------------------------------------- run --

def parse_run_args(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %s" % flag)
        try:
            args[flag[2:]] = next(it)
        except StopIteration:
            fail("%s needs a value" % flag)
    missing = {"workload", "seed", "seconds", "trace"} - set(args)
    if missing:
        fail("missing " + ", ".join("--" + m for m in sorted(missing)))
    if args["trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return args


def run(argv):
    args = parse_run_args(argv)
    design = load_json(HERE / "design.json")
    workload = design["workloads"].get(args["workload"])
    if workload is None:
        fail("unknown workload %s (known: %s)" %
             (args["workload"], ", ".join(design["workloads"])))
    comparator_failures = comparator_selfcheck(quiet=True)
    if comparator_failures:
        fail("comparator self-checks failed")
    build()

    out_dir = BUILD_ROOT / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--out", str(out_dir)]
    for key, value in workload["params"].items():
        cmd += [FLAGS[key], str(value)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    # Everything but the result line is human-readable progress.
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail("benchmark failed with exit status %d" % proc.returncode)

    result = json.loads(lines[-1])
    run_meta = {"git_sha": git_sha(), "nproc": os.cpu_count()}
    for line in lines:
        if line.startswith("run_meta "):
            run_meta.update(json.loads(line[len("run_meta "):]))
    record = {
        "workload": args["workload"],
        "seed": int(args["seed"]),
        "trace": int(args["trace"]),
        "seconds": float(args["seconds"]),
        "started_unix": started,
        "params": workload["params"],
        "run_meta": run_meta,
        "result": result,
    }
    results = BUILD_ROOT / "results"
    results.mkdir(exist_ok=True)
    name = "%s.trace%s.seed%s.json" % (args["workload"], args["trace"],
                                       args["seed"])
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("run_meta: %s; result saved to %s" %
          (json.dumps(run_meta, sort_keys=True), results / name))
    print(json.dumps(result, separators=(",", ":")))


# -------------------------------------------------------------- comparator --

def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound):
    """The choosing-metrics rule (sections 6 and 8) for one metric.

    `pairs` is a list of (parent, change, parent_ran_first) from runs on the
    same seed. Returns (verdict, detail dict).
    """
    n = len(pairs)
    detail = {"pairs": n}
    if n < 2:
        return "unresolved", dict(detail, reason="fewer than 2 pairs")
    parent = [p for p, _, _ in pairs]
    change = [c for _, c, _ in pairs]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    sign = -1.0 if better == "lower" else 1.0  # > 0: the change is better
    gap = (cmed - pmed) * sign
    wins = sum(1 for p, c, _ in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c, _ in pairs if (c - p) * sign < 0)
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    detail.update(parent_median=pmed, parent_q1=pq1, parent_q3=pq3,
                  change_median=cmed, change_q1=cq1, change_q3=cq3,
                  win_rate=wins / n, loss_rate=losses / n)
    firsts = [first for _, _, first in pairs]
    alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
    if n < 10:
        return "unresolved", dict(detail, reason="fewer than 10 pairs")
    if not alternating:
        return "unresolved", dict(detail, reason="run order not alternating")
    if wins / n >= 0.9 and gap > iqr:
        return "improved", detail
    if bound is None:
        # Per-layer metrics carry no bound: mirror the gain rule.
        if losses / n >= 0.9 and -gap > iqr:
            return "regressed", detail
        if abs(gap) <= iqr:
            return "unchanged", detail
        return "unresolved", dict(detail, reason="gap beyond parent spread")
    spread = iqr / abs(pmed) if pmed else 0.0
    if spread > bound and not all_better:
        return "unresolved", dict(detail, reason="parent spread %.3f exceeds "
                                  "bound %.3f" % (spread, bound))
    if -gap > bound * abs(pmed):
        return "regressed", detail
    return "unchanged", detail


def load_results(directory):
    """{(workload, trace): {seed: record}} from a results directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = load_json(path)
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def compare_results(parent, change, spec):
    """Yields (workload, trace, metric, verdict, detail)."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    for key in sorted(set(parent) & set(change)):
        # Pairs in the order they ran, so alternation can be checked.
        seeds = sorted(set(parent[key]) & set(change[key]),
                       key=lambda s: min(parent[key][s]["started_unix"],
                                         change[key][s]["started_unix"]))
        names = set()
        for s in seeds:
            names |= set(parent[key][s]["result"]["metrics"])
        for name in sorted(names):
            m = metrics.get(name)
            if m is None:
                continue
            pairs = []
            for s in seeds:
                p, c = parent[key][s], change[key][s]
                if name in p["result"]["metrics"] and \
                        name in c["result"]["metrics"]:
                    pairs.append((p["result"]["metrics"][name]["value"],
                                  c["result"]["metrics"][name]["value"],
                                  p["started_unix"] < c["started_unix"]))
            v, detail = verdict(pairs, m["better"], m.get("bound"))
            yield key[0], key[1], name, v, detail


def compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare PARENT_DIR CHANGE_DIR")
    spec = load_json(ROOT / "BENCHMARK.json")
    parent, change = load_results(argv[0]), load_results(argv[1])
    rows = list(compare_results(parent, change, spec))
    if not rows:
        fail("no workload has results on both sides")
    print("%-14s %-5s %-28s %-10s %12s %12s %6s  %s" %
          ("workload", "trace", "metric", "verdict", "parent_med",
           "change_med", "wins", "note"))
    for workload, trace, name, v, d in rows:
        print("%-14s %-5d %-28s %-10s %12.6g %12.6g %6s  %s" % (
            workload, trace, name, v, d.get("parent_median", float("nan")),
            d.get("change_median", float("nan")),
            "%.2f" % d["win_rate"] if "win_rate" in d else "-",
            d.get("reason", "")))
    regressed = [r for r in rows if r[3] == "regressed" and r[1] == 0]
    print("end-to-end regressions: %d" % len(regressed))
    sys.exit(1 if regressed else 0)


def comparator_selfcheck(quiet=False):
    failures = 0

    def check(ok, what):
        nonlocal failures
        if not ok:
            failures += 1
            print("comparator self-check FAILED: %s" % what, file=sys.stderr)

    def pairs(parent, change):
        return [(p, c, i % 2 == 0) for i, (p, c) in
                enumerate(zip(parent, change))]

    base = [100.0 + i for i in range(10)]
    faster = [80.0 + i for i in range(10)]
    check(verdict(pairs(base, faster), "lower", 0.1)[0] == "improved",
          "20% faster on every pair is improved")
    check(verdict(pairs(base, [b * 1.3 for b in base]), "lower",
                  0.1)[0] == "regressed", "30% slower with bound 10% regresses")
    noisy = [b + (0.5 if i % 2 else -0.5) for i, b in enumerate(base)]
    check(verdict(pairs(base, noisy), "lower", 0.1)[0] == "unchanged",
          "noise inside the bound is unchanged")
    wide = [50.0, 150.0] * 5
    check(verdict(pairs(wide, [w * 1.02 for w in wide]), "lower",
                  0.1)[0] == "unresolved", "spread above bound is unresolved")
    check(verdict(pairs(base[:5], faster[:5]), "lower",
                  0.1)[0] == "unresolved", "five pairs are too few")
    check(verdict(pairs(base, [b * 1.2 for b in base]), "higher",
                  0.1)[0] == "improved", "higher-is-better gain")
    same_order = [(p, c, True) for p, c in zip(base, faster)]
    check(verdict(same_order, "lower", 0.1)[0] == "unresolved",
          "pairs that never alternate order are unresolved")
    # 8 wins of 10 is below the 9/10 win rate even with a large gap.
    mixed = faster[:8] + [b + 1 for b in base[8:]]
    check(verdict(pairs(base, mixed), "lower", 0.25)[0] != "improved",
          "8/10 wins is not a gain")
    # A gap smaller than the parent's IQR is not a gain.
    check(verdict(pairs(base, [b - 1 for b in base]), "lower",
                  0.1)[0] == "unchanged", "gap inside parent IQR is unchanged")
    # Counts with no spread: any consistent drop is a gain.
    check(verdict(pairs([5.0] * 10, [4.0] * 10), "lower",
                  None)[0] == "improved", "deterministic count drop improves")
    check(verdict(pairs([5.0] * 10, [6.0] * 10), "lower",
                  None)[0] == "regressed", "unbounded metric loss regresses")
    if not quiet:
        print("comparator self-checks: %s" % ("ok" if not failures else
                                               "%d FAILED" % failures))
    return failures


def selftest():
    failures = comparator_selfcheck()
    build()
    failures += subprocess.run([str(BINARY), "--selftest"]).returncode != 0
    sys.exit(1 if failures else 0)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        compare(argv[1:])
    elif argv and argv[0] == "selftest":
        selftest()
    else:
        run(argv)


if __name__ == "__main__":
    main()
