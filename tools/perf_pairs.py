#!/usr/bin/env python3
"""Interleaved perfbench pairs of two source trees, summarized.

    tools/perf_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N [--seconds S]

Each pair runs ``perfbench/run.py --workload W --seed 1 --seconds S
--trace 0`` once in each tree, one after the other; the side that runs
first alternates from pair to pair, so drift in machine speed hits both
alike.  For every end-to-end metric of the change tree's BENCHMARK.json it
prints the parent's median and quartile spread (as a share of the median),
the change's median, their ratio and the number of pairs the change won.
It exits 1 if any run fails or is not ``correct``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seconds):
    """One ``--trace 0`` run in ``tree``; returns its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartile_spread(values):
    """(upper quartile - lower quartile) / median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def summarize(pairs, metrics):
    """One row per metric over ``pairs`` of (parent, change) results.

    ``metrics`` holds BENCHMARK.json's end-to-end entries.  A row is
    ``(name, parent_median, parent_spread, change_median, ratio, wins)``,
    with ``ratio`` = change / parent and ``wins`` the pairs in which the
    change is better in the metric's own direction.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if metric["better"] == "lower":
            wins = sum(c < p for p, c in zip(parent, change))
        else:
            wins = sum(c > p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append((name, p_med, quartile_spread(parent), c_med,
                     c_med / p_med, wins))
    return rows


def format_rows(rows, n_pairs):
    out = [f"{'metric':<14s} {'parent':>12s} {'spread':>7s} "
           f"{'change':>12s} {'ratio':>7s} {'wins':>6s}"]
    for name, p_med, spread, c_med, ratio, wins in rows:
        out.append(f"{name:<14s} {p_med:>12.6g} {spread:>6.1%} "
                   f"{c_med:>12.6g} {ratio:>7.3f} {wins:>3d}/{n_pairs}")
    return "\n".join(out)


def all_correct(pairs):
    return all(r["correct"] for pair in pairs for r in pair)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                sides[side] = run_once(getattr(args, side), args.workload,
                                       args.seconds)
            except (RuntimeError, ValueError) as exc:
                print(f"pair {i + 1}, {side}: {exc}", file=sys.stderr)
                return 1
        pairs.append((sides["parent"], sides["change"]))
        values = "  ".join(
            f"{m['name']} {sides['parent']['metrics'][m['name']]['value']:.6g}"
            f" -> {sides['change']['metrics'][m['name']]['value']:.6g}"
            for m in metrics)
        print(f"pair {i + 1} ({order[0]} first): {values}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    print(format_rows(summarize(pairs, metrics), args.pairs))
    if not all_correct(pairs):
        print("a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
