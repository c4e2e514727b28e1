#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload over alternating pairs.

    scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N
                          [--seconds 20] [--append BENCH_<W>.json]
                          [--parent-id ID] [--change-id ID]

Each DIR is a checkout of the repository. The script runs N pairs of
`perfbench/run.py --workload W --seed S --seconds X --trace 0`, one run per
side, alternating which side runs first; each run goes through that
checkout's own perfbench/run.py, which builds the checkout's benchmark
before it times anything. Host time on a shared machine
moves in load phases that last minutes, so only paired runs resolve a
host-time change.

A checkout whose .bench_build/perfbench/CMakeCache.txt names another source
directory is refused: a copied checkout keeps its original
CMAKE_HOME_DIRECTORY, so its build would compile and measure the original's
sources.

For each end-to-end metric of BENCHMARK.json the script prints both sides'
median and quartiles, the pairs the change won, and the parent's IQR over
its median. A change is resolved on a metric when, over at least 10 pairs,
it won at least 9 of 10 and its median beats the parent's by more than the
parent's IQR; fewer pairs give no verdict.
--append adds one entry with both commit ids, the seed, the pair count and
every metric's medians and quartiles to a JSON trajectory file (a list).
A commit id is `git describe --always --dirty` of the checkout, or
--parent-id / --change-id. Pass an id for a checkout that is not a git
repository, such as a `git archive` copy, and for uncommitted changes:
"<commit>-dirty" names every uncommitted tree on that commit alike.

Exits 1 if a run fails or reports failed operations, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def check_build_dir(tree):
    """Refuses a tree whose benchmark build was configured for other sources."""
    cache = os.path.join(tree, ".bench_build", "perfbench", "CMakeCache.txt")
    if not os.path.isfile(cache):
        return
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
                want = os.path.join(tree, "perfbench")
                if os.path.realpath(home) != os.path.realpath(want):
                    fail(f"{cache} builds {home}, not {want}; delete {os.path.dirname(cache)} "
                         "so the benchmark is configured for this checkout")
                return


def commit_id(tree):
    out = subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(tree, args):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited with code {out.returncode}")
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    if result["failed"] != 0:
        fail(f"{tree}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--append", metavar="BENCH_JSON")
    parser.add_argument("--parent-id")
    parser.add_argument("--change-id")
    args = parser.parse_args()
    if args.pairs < 2:
        fail("--pairs must be at least 2")
    trees = {side: os.path.abspath(path)
             for side, path in (("parent", args.parent), ("change", args.change))}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    for tree in trees.values():
        check_build_dir(tree)
    runs = {"parent": [], "change": []}
    for p in range(args.pairs):
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args))
        print(f"pair {p + 1}/{args.pairs}: wall_s parent {runs['parent'][-1]['wall_s']:.4f}, "
              f"change {runs['change'][-1]['wall_s']:.4f}", file=sys.stderr)

    entry = {"parent": args.parent_id or commit_id(trees["parent"]),
             "change": args.change_id or commit_id(trees["change"]),
             "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
             "seconds": args.seconds, "metrics": {}}
    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs at "
          f"--seconds {args.seconds:g}")
    print(f"{'metric':<22}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'wins':>7}{'IQR/med':>9}  verdict")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ps, cs = summary(parent), summary(change)
        iqr = ps["q3"] - ps["q1"]
        if parent == change:
            verdict = "identical"
        elif args.pairs < 10:
            verdict = "no verdict (< 10 pairs)"
        elif wins >= 0.9 * args.pairs and sign * (ps["median"] - cs["median"]) > iqr:
            verdict = "resolved: change better"
        elif losses >= 0.9 * args.pairs and sign * (cs["median"] - ps["median"]) > iqr:
            verdict = "resolved: change worse"
        else:
            verdict = "unresolved"
        spread = iqr / ps["median"] if ps["median"] else 0.0
        print(f"{name:<22}{ps['median']:>14.6g} [{ps['q1']:.6g}, {ps['q3']:.6g}]"
              f"{cs['median']:>14.6g} [{cs['q1']:.6g}, {cs['q3']:.6g}]"
              f"{wins:>4}/{args.pairs:<2}{spread:>9.3f}  {verdict}")
        entry["metrics"][name] = {"parent": ps, "change": cs, "wins": wins}

    if args.append:
        trajectory = []
        if os.path.isfile(args.append):
            with open(args.append) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(args.append, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
        print(f"appended to {args.append}")


if __name__ == "__main__":
    main()
