#!/usr/bin/env python3
"""Alternates two perfbench builds over seeds 1..N and writes a JSON block.

Build each side's perfbench executable once, each from its own checkout
(building perfbench rewrites perfbench/Cargo.lock, so build the parent in a
`git archive` copy):

    cargo build --offline --release --manifest-path perfbench/Cargo.toml

then run, from the repository root:

    python3 crates/bench/scripts/perf_pairs.py \\
        --parent <parent executable> --parent-dir <parent checkout> \\
        --change <change executable> --change-dir <change checkout> \\
        --parent-rev <rev> --change-rev <text> --workload churn \\
        --seconds 30 --pairs 10 --key <block name> --change-note <text>

Pair k runs both executables with `--seed k` (k = 1..pairs), each from its
own checkout root (perfbench keeps its work directories under ./target), the
parent first in odd pairs. Per end-to-end metric of BENCHMARK.json the block
records each side's median and quartiles over the runs, the pairs the change
won, the relative change of the medians and a verdict against the metric's
bound: `worse` beyond the bound, `better` when the change wins at least nine
pairs in ten and its median gains more than the parent's interquartile
range, `within` otherwise. BENCHMARK.json is only read. The block replaces
`--key` in `--file` (created if missing); the rest of the file is kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(exe, cwd, workload, seed, seconds):
    """One perfbench run: its last stdout line, parsed."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def side_summary(values):
    q1, q3 = quartiles(values)
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "runs": [round(v, 4) for v in values],
    }


def verdict(metric, parent, change, wins, pairs):
    """`worse`, `better` or `within`, as the module docs define them."""
    lower = metric["better"] == "lower"
    p, c = parent["median"], change["median"]
    bound = metric["bound"]
    if (lower and c > p * (1 + bound)) or (not lower and c < p * (1 - bound)):
        return "worse"
    gain = p - c if lower else c - p
    if 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
        return "better"
    return "within"


def tool_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--parent-dir", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--change-dir", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-rev", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--file", default="BENCH_perf_pairs.json")
    ap.add_argument("--key", required=True)
    ap.add_argument("--change-note", required=True)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {
        "parent": (os.path.abspath(args.parent), os.path.abspath(args.parent_dir)),
        "change": (os.path.abspath(args.change), os.path.abspath(args.change_dir)),
    }
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = pair + 1
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            exe, cwd = sides[side]
            runs[side].append(run_once(exe, cwd, args.workload, seed, args.seconds))
        print(f"pair {pair + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    results = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        summary = {side: side_summary(values[side]) for side in runs}
        lower = metric["better"] == "lower"
        won = [(c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])]
        wins = sum(won)
        p, c = summary["parent"]["median"], summary["change"]["median"]
        summary["change_won_by_pair"] = won
        summary["change_wins"] = wins
        summary["relative_change"] = round((c - p) / p, 4) if p else None
        summary["bound"] = metric["bound"]
        summary["better"] = metric["better"]
        summary["verdict"] = verdict(metric, summary["parent"], summary["change"], wins, args.pairs)
        results[name] = summary

    block = {
        "change": args.change_note,
        "revisions": {"parent": args.parent_rev, "change": args.change_rev},
        "environment": {"nproc": len(os.sched_getaffinity(0)), "rustc": tool_line(["rustc", "--version"])},
        "method": (
            f"crates/bench/scripts/perf_pairs.py: workload {args.workload}, {args.seconds} s per run, "
            f"{args.pairs} pairs, pair k on seed k, parent first in odd pairs, each side run from its "
            "own checkout. Per metric and side: median and quartiles over the runs; change_wins counts "
            "the pairs the change won; the verdict applies the metric's BENCHMARK.json bound."
        ),
        "correct": {
            side: all(r["correct"] for r in runs[side]) for side in runs
        },
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "results": results,
    }
    try:
        with open(args.file) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {}
    doc[args.key] = block
    with open(args.file, "w") as f:
        json.dump(doc, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    main()
