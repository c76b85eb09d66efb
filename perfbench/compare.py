#!/usr/bin/env python3
"""A/B comparison and steadiness checks for the repository benchmark.

  python3 perfbench/compare.py ab REV_A REV_B [--workload W ...] [--pairs 10]
  python3 perfbench/compare.py selfcheck [--workload W ...] [--runs 10]

`ab` exports both git revisions into scratch trees, copies this checkout's
perfbench/ and BENCHMARK.json into each (so both sides run identical
benchmark code), and runs A/B pairs on the same seed, flipping which side
goes first. For every end-to-end metric it prints each side's median and
quartiles, the fraction of pairs B won, and whether the medians differ by
more than A's interquartile range ("resolved") or not ("within noise").
With REV_A == REV_B it is a steadiness check across two builds.

`selfcheck` runs the benchmark of this checkout on N seeds and prints, per
end-to-end metric, the spread of the N results (interquartile range over
median) against the metric's bound, the largest deviation of a single run
from the median, the per-run values (exact metrics must match digit for
digit between two sets on the same seeds), and for the host-time metrics
the spread of the raw and the per-rep-adjusted values side by side: the
evidence that reference-speed adjustment works on the machine at hand.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns (result JSON, selfcheck fields)."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("benchmark failed in %s:\n%s%s" % (tree, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        words = line.split()
        if words[:1] == ["selfcheck"]:
            metric = None
            for w in words[1:]:
                if "=" in w:
                    k, v = w.split("=")
                    raw[(metric, k)] = float(v)
                else:
                    metric = w
    return result, raw


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def export_tree(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def cmd_ab(args, spec):
    work = tempfile.mkdtemp(prefix="lsrbench-ab-")
    trees = {"A": os.path.join(work, "a"), "B": os.path.join(work, "b")}
    metrics = spec["end_to_end"]
    try:
        export_tree(args.rev_a, trees["A"])
        export_tree(args.rev_b, trees["B"])
        for wl in args.workload or [w["name"] for w in spec["workloads"]]:
            vals = {"A": {m["name"]: [] for m in metrics}, "B": {m["name"]: [] for m in metrics}}
            for i in range(args.pairs):
                order = ("A", "B") if i % 2 == 0 else ("B", "A")
                for side in order:
                    res, _ = run_bench(trees[side], wl, args.seed + i, args.seconds)
                    if not res["correct"]:
                        sys.exit("%s: side %s reported correct=false (seed %d)"
                                 % (wl, side, args.seed + i))
                    for m in metrics:
                        vals[side][m["name"]].append(res["metrics"][m["name"]]["value"])
                print("%s: pair %d/%d done" % (wl, i + 1, args.pairs), file=sys.stderr)
            print("\n== %s: A=%s B=%s, %d pairs" % (wl, args.rev_a, args.rev_b, args.pairs))
            print("%-18s %-6s %28s %28s %8s  %s" % ("metric", "unit", "A median [q1, q3]",
                                                  "B median [q1, q3]", "B wins", "verdict"))
            for m in metrics:
                a, b = vals["A"][m["name"]], vals["B"][m["name"]]
                qa, qb = quartiles(a), quartiles(b)
                lower = m["better"] == "lower"
                wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
                gap = qb[1] - qa[1]
                resolved = abs(gap) > (qa[2] - qa[0])
                worse = gap > 0 if lower else gap < 0
                verdict = "within noise"
                if resolved:
                    verdict = "B worse" if worse else "B better"
                    if worse and abs(gap) / qa[1] > m["bound"]:
                        verdict += " (beyond bound %.2f)" % m["bound"]
                print("%-18s %-6s %12.5g [%.5g, %.5g] %12.5g [%.5g, %.5g] %7.0f%%  %s"
                      % (m["name"], m["unit"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                         100.0 * wins / len(a), verdict))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cmd_selfcheck(args, spec):
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        results, raws = [], []
        for i in range(args.runs):
            res, raw = run_bench(ROOT, wl, args.seed + i, args.seconds)
            if not res["correct"]:
                sys.exit("%s: correct=false at seed %d" % (wl, args.seed + i))
            results.append(res)
            raws.append(raw)
            print("%s: run %d/%d done" % (wl, i + 1, args.runs), file=sys.stderr)
        print("\n== %s: %d runs, seeds %d..%d" % (wl, args.runs, args.seed,
                                                  args.seed + args.runs - 1))
        print("%-18s %-6s %14s %10s %9s %8s %s" % ("metric", "unit", "median", "spread",
                                                  "max dev", "bound", ""))
        for m in spec["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(xs)
            s = spread(xs)
            dev = max(abs(x - med) for x in xs) / med if med else 0.0
            flag = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO NOISY")
            print("%-18s %-6s %14.6g %9.2f%% %8.2f%% %7.0f%% %s" % (m["name"], m["unit"], med,
                                                               100 * s, 100 * dev,
                                                               100 * m["bound"], flag))
        print("per-run values:")
        for m in spec["end_to_end"]:
            print("  %-16s %s" % (m["name"], " ".join(repr(r["metrics"][m["name"]]["value"])
                                                      for r in results)))
        print("reference-speed adjustment (spread = IQR/median; range = max/min):")
        for metric in ("host_us_per_txn", "setup_s"):
            cells = []
            for how in ("raw", "rep"):
                xs = [r[(metric, how)] for r in raws if (metric, how) in r]
                if xs:
                    cells.append("%s %5.2f%% (range %.3fx)" % (how, 100 * spread(xs),
                                                               max(xs) / min(xs)))
            print("  %-16s %s" % (metric, "   ".join(cells)))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    ab = sub.add_parser("ab", help="compare two git revisions")
    ab.add_argument("rev_a")
    ab.add_argument("rev_b")
    ab.add_argument("--pairs", type=int, default=10)
    sc = sub.add_parser("selfcheck", help="spread of N runs of this checkout")
    sc.add_argument("--runs", type=int, default=10)
    for s in (ab, sc):
        s.add_argument("--workload", action="append",
                       help="workload name (repeatable; default: all)")
        s.add_argument("--seed", type=int, default=1, help="first seed")
        s.add_argument("--seconds", type=int, default=None,
                       help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.cmd == "ab":
        cmd_ab(args, spec)
    else:
        cmd_selfcheck(args, spec)


if __name__ == "__main__":
    main()
