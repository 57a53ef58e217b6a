#!/usr/bin/env python3
"""Alternating-pair comparison of a parent revision against a change.

    python3 bench/pairs.py --parent <rev> [--change <rev>] [--pairs 10]
        [--workloads cluster-stream,...] [--seeds 1,2,3] [--scratch DIR]

Exports the parent (and, if given, the change) with `git archive` into a
scratch directory outside the repository; without --change the change is the
working tree itself. For each workload it runs `perfbench/run.py` on both
sides, untraced and for BENCHMARK.json's `run_seconds`, for N pairs: pair i
uses the i-th seed (cycling) and the side that runs first alternates from pair
to pair, so a drift in the host's speed falls on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the median's change, and in how many pairs the change was better in
the direction the metric's `better` gives (ties count for neither side and are
listed). A pair with a failed side counts as run but not won. Runs that fail or
report incorrect results are counted per side. The verdict column reads
- `gain` when the change won at least nine tenths of all pairs run, the medians
  differ by more than the parent's quartile spread and the change failed no
  more runs than the parent;
- `WORSE` when the change's median is worse than the parent's by more than the
  metric's bound;
- `unresolved` when the parent's quartile spread is wider than the bound times
  its median, unless every change run reads better than every parent run;
- blank otherwise.

Nothing is written under perfbench/ or into BENCHMARK.json; each side's
benchmark build lives in that side's own tree (.bench_build/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Writes the tree of `rev` into `dest` with git archive."""
    os.makedirs(dest, exist_ok=True)
    proc = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
        archive.extractall(dest)
    if proc.wait() != 0:
        sys.exit(f"pairs: git archive {rev} failed")


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in `tree`; its JSON result, or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not result or not result.get("correct"):
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v / 1000:.1f}k"
    if abs(v) >= 10:
        return f"{v:.1f}"
    if abs(v) >= 0.1:
        return f"{v:.3f}"
    return f"{v:.4g}"


def summarise(workload, metrics, runs):
    """Prints one workload's table; `runs` is a list of (parent, change)."""
    whole = [(p, c) for p, c in runs if p and c]
    failed_p = sum(1 for p, _ in runs if not p)
    failed_c = sum(1 for _, c in runs if not c)
    print(f"\n## {workload}: {len(whole)} whole pairs "
          f"(failed runs: parent {failed_p}, change {failed_c})")
    print("| metric | parent median (q1/q3) | change median (q1/q3) "
          "| change | change better | verdict |")
    print("|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in whole
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        lower = metric["better"] == "lower"
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        mp, mc = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        ties = sum(1 for p, c in pairs if c == p)
        delta = (mc - mp) / mp if mp else 0.0
        worse = delta if lower else -delta
        all_better = (max(change) < min(parent) if lower
                      else min(change) > max(parent))
        verdict = ""
        if (wins * 10 >= 9 * len(runs) and abs(mc - mp) > (p3 - p1)
                and failed_c <= failed_p):
            verdict = "gain"
        elif worse > metric["bound"]:
            verdict = "WORSE"
        elif p3 - p1 > metric["bound"] * abs(mp) and not all_better:
            verdict = "unresolved"
        print(f"| {name} | {fmt(mp)} ({fmt(p1)}/{fmt(p3)}) "
              f"| {fmt(mc)} ({fmt(c1)}/{fmt(c3)}) | {delta * 100:+.1f}% "
              f"| {wins}/{len(runs)}{f', {ties} tied' if ties else ''} "
              f"| {verdict} |")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", help="change revision (default: working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--scratch", help="export directory, outside the repo "
                    "(default: a fresh temporary directory)")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            sys.exit(f"pairs: unknown workload '{w}' (BENCHMARK.json has "
                     f"{', '.join(names)})")
    seeds = [int(s) for s in args.seeds.split(",")]
    scratch = os.path.abspath(args.scratch or tempfile.mkdtemp(prefix="pts-pairs-"))
    if os.path.commonpath([scratch, ROOT]) == ROOT:
        sys.exit("pairs: the scratch directory must be outside the repository")

    parent_tree = os.path.join(scratch, "parent")
    export(args.parent, parent_tree)
    change_tree = ROOT
    if args.change:
        change_tree = os.path.join(scratch, "change")
        export(args.change, change_tree)
    seconds = f"{bench['run_seconds']:g}"
    print(f"pairs: parent {args.parent} in {parent_tree}, change "
          f"{args.change or 'working tree'} in {change_tree}; {args.pairs} "
          f"pairs, seeds {args.seeds}, {seconds} s untraced", flush=True)

    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            sides = {}
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                tree = parent_tree if side == "parent" else change_tree
                sides[side] = run_once(tree, workload, seed, seconds)
            runs.append((sides["parent"], sides["change"]))
            print(f"pairs: {workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                  f"{order[0]} first) done", file=sys.stderr, flush=True)
        summarise(workload, bench["end_to_end"], runs)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
