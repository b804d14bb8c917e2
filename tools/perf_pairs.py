#!/usr/bin/env python3
"""Interleaved perfbench pairs of two source trees, summarized.

    tools/perf_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N
        [--seconds S] [--seed K]

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in each tree (K defaults to 1), one after the other; the side that runs
first alternates from pair to pair, so drift in machine speed hits both
alike.  For every end-to-end metric of the change tree's BENCHMARK.json it
prints each side's median and quartile spread (as a share of the median),
their ratio, the number of pairs the change won and a verdict:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side), and the medians differ by more than the distance
  between the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, as a share of the parent's median;
- ``unresolved``: anything else.  Within the bound but not a gain is not
  "unchanged": the runs could not tell.

It exits 1 if any run fails or is not ``correct``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seconds, seed):
    """One ``--trace 0`` run in ``tree``; returns its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
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


def verdict(p_med, p_spread, c_med, wins, n_pairs, better, bound):
    """``gain``, ``worse`` or ``unresolved`` (see the module docstring)."""
    # the change's improvement, in the metric's own direction
    gain = (p_med - c_med) if better == "lower" else (c_med - p_med)
    if wins >= 0.9 * n_pairs and gain > p_spread * p_med:
        return "gain"
    if -gain > bound * p_med:
        return "worse"
    return "unresolved"


def summarize(pairs, metrics):
    """One row per metric over ``pairs`` of (parent, change) results.

    ``metrics`` holds BENCHMARK.json's end-to-end entries.  A row is
    ``(name, parent_median, parent_spread, change_median, change_spread,
    ratio, wins, verdict)``, with ``ratio`` = change / parent and ``wins``
    the pairs in which the change is better in the metric's own direction.
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
        p_spread = quartile_spread(parent)
        rows.append((name, p_med, p_spread, c_med, quartile_spread(change),
                     c_med / p_med, wins,
                     verdict(p_med, p_spread, c_med, wins, len(pairs),
                             metric["better"], metric["bound"])))
    return rows


def format_rows(rows, n_pairs):
    out = [f"{'metric':<14s} {'parent':>12s} {'spread':>7s} "
           f"{'change':>12s} {'spread':>7s} {'ratio':>7s} {'wins':>6s}  "
           f"verdict"]
    for name, p_med, p_spread, c_med, c_spread, ratio, wins, what in rows:
        out.append(f"{name:<14s} {p_med:>12.6g} {p_spread:>6.1%} "
                   f"{c_med:>12.6g} {c_spread:>6.1%} {ratio:>7.3f} "
                   f"{wins:>3d}/{n_pairs}  {what}")
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
    # a claim is checked again on a seed the change was not written against
    parser.add_argument("--seed", type=int, default=1)
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
                                       args.seconds, args.seed)
            except (RuntimeError, ValueError) as exc:
                print(f"pair {i + 1}, {side}: {exc}", file=sys.stderr)
                return 1
        pairs.append((sides["parent"], sides["change"]))
        values = "  ".join(
            f"{m['name']} {sides['parent']['metrics'][m['name']]['value']:.6g}"
            f" -> {sides['change']['metrics'][m['name']]['value']:.6g}"
            for m in metrics)
        print(f"pair {i + 1} ({order[0]} first): {values}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seed {args.seed}")
    print(format_rows(summarize(pairs, metrics), args.pairs))
    if not all_correct(pairs):
        print("a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
