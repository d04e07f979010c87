#!/usr/bin/env python3
"""Alternates two builds of one criterion-stub bench and writes a JSON block.

Build each side's bench executable once, e.g. for the parent in a `git
archive` copy and for the change in this checkout:

    cargo bench --no-run -p arsp-bench --bench parallel_flat

then run, from the repository root:

    python3 crates/bench/scripts/bench_pairs.py \\
        --parent <parent executable> --change <change executable> \\
        --parent-rev <rev> --change-rev <text> --pairs 10 \\
        --rows union/kdtt_plus/flat_seq,union/kdtt_plus/flat_par/t2 \\
        --file BENCH_parallel_flat.json --key <block name> --change-note <text>

Each pair runs both executables with `--bench` from `crates/bench`, parent
first in odd pairs. Per row and side the block records the median over the
runs of the stub's per-run mean, the quartiles of those means, the median of
the per-run minima, and how many pairs the change won. Rows ending in
`flat_seq` and `flat_par/t2` also give each side's t2 speedup over
sequential. The block replaces `--key` in `--file`; the rest of the file is
kept.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

UNITS = {"ns": 1e-6, "µs": 1e-3, "us": 1e-3, "ms": 1.0, "s": 1e3}
LINE = re.compile(r"^\s+(\S+)\s+mean\s+([\d.]+)(ns|µs|us|ms|s)\s+min\s+([\d.]+)(ns|µs|us|ms|s)")


def run_once(exe, cwd):
    """One run of a bench executable: {row id: (mean_ms, min_ms)}."""
    out = subprocess.run([exe, "--bench"], cwd=cwd, capture_output=True, text=True, check=True).stdout
    rows = {}
    for line in out.splitlines():
        m = LINE.match(line)
        if m:
            rows[m[1]] = (float(m[2]) * UNITS[m[3]], float(m[4]) * UNITS[m[5]])
    return rows


def summary(means, mins):
    q1, _, q3 = statistics.quantiles(means, n=4)
    return {
        "median_of_means_ms": round(statistics.median(means), 3),
        "q1_ms": round(q1, 3),
        "q3_ms": round(q3, 3),
        "median_of_mins_ms": round(statistics.median(mins), 3),
        "runs": len(means),
    }


def tool_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-rev", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rows", required=True, help="comma-separated row ids")
    ap.add_argument("--file", required=True)
    ap.add_argument("--key", required=True)
    ap.add_argument("--change-note", required=True)
    ap.add_argument("--cwd", default="crates/bench")
    args = ap.parse_args()

    rows = args.rows.split(",")
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            got = run_once(os.path.abspath(getattr(args, side)), args.cwd)
            missing = [r for r in rows if r not in got]
            if missing:
                sys.exit(f"{side} run printed no row {missing}")
            runs[side].append(got)
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    results = {}
    for row in rows:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = summary([r[row][0] for r in runs[side]], [r[row][1] for r in runs[side]])
        sides["parent_over_change"] = round(
            sides["parent"]["median_of_means_ms"] / sides["change"]["median_of_means_ms"], 2
        )
        sides["change_wins"] = sum(
            c[row][0] < p[row][0] for p, c in zip(runs["parent"], runs["change"])
        )
        results[row] = sides

    speedups = {"parent": {}, "change": {}}
    for row in rows:
        if row.endswith("/flat_seq") and row[: -len("flat_seq")] + "flat_par/t2" in results:
            algo = row[: -len("/flat_seq")]
            par = row[: -len("flat_seq")] + "flat_par/t2"
            for side in speedups:
                speedups[side][algo] = round(
                    results[row][side]["median_of_means_ms"] / results[par][side]["median_of_means_ms"], 2
                )

    block = {
        "change": args.change_note,
        "revisions": {"parent": args.parent_rev, "change": args.change_rev},
        "environment": {"nproc": os.cpu_count(), "rustc": tool_line(["rustc", "--version"])},
        "method": (
            f"crates/bench/scripts/bench_pairs.py: each side's bench executable built once with "
            f"`cargo bench --no-run` and run with --bench from {args.cwd}, {args.pairs} pairs, "
            "parent first in odd pairs. Per row and side: median over the runs of the stub's per-run "
            "mean, the quartiles of those means and the median of the per-run minima. "
            "parent_over_change is the ratio of the two medians; change_wins counts the pairs whose "
            "change mean is lower. t2_speedup_over_seq is each side's flat_seq median over its "
            "flat_par/t2 median."
        ),
        "results_ms": results,
        "t2_speedup_over_seq": speedups,
    }
    with open(args.file) as f:
        doc = json.load(f)
    doc[args.key] = block
    with open(args.file, "w") as f:
        json.dump(doc, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    main()
