#!/usr/bin/env python3
"""Diff the modeled output of two builds of the repository.

    scripts/diff_outputs.py PARENT_BUILD CHANGE_BUILD

Runs every `example_*` binary and every figure and table bench
(`bench_fig*`, `bench_table*`) found in either build directory, once per
build, and compares what each run prints. A bench runs at --scale=0.03 if
it reads --scale (the dataset sweeps); a bench that does not rejects the
flag at once ("unknown flag") and runs with no arguments, as the examples
do. A bench that a CTest smoke test in the build directory runs with a
--json= argument (CMakeLists.txt; today fig19 and two serve benches) runs
at that test's arguments instead, writing its JSON into the run directory,
where it is compared too. example_import_dataset's report file
(gnnie_demo_report.json) is compared as well.

Every run gets a fresh working directory, which is also its TMPDIR, at the
same path for both builds, so output that names a file reads the same.
Lines that start with "wrote " (a bench naming its --json file) are
ignored. For each output that differs the script prints a unified diff,
and it exits 1 if anything differs (an exit status, stdout or a compared
file, or a binary that only one build has), else 0.

bench_serve_throughput and bench_micro_components are not run: they report
host wall-clock times, which differ between any two runs.
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile

SCALE = "--scale=0.03"
WALL_CLOCK = {"bench_serve_throughput", "bench_micro_components"}
JSON_FILE = "out.json"
# Files a run leaves in its directory that are compared across builds.
COMPARED_FILES = {
    "example_import_dataset": ["gnnie_demo_report.json"],
}


def json_runs(build):
    """{binary: arguments} of the bench smoke tests that CTest lists in
    `build` with a --json= argument, that argument dropped (each run appends
    its own). Exits if there are none, so the JSON comparison never drops
    out unnoticed."""
    listing = subprocess.run(["ctest", "--show-only=json-v1"], cwd=build, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    runs = {}
    for test in json.loads(listing)["tests"]:
        binary, *args = test["command"]
        name = os.path.basename(binary)
        if (name.startswith("bench_") and name not in WALL_CLOCK
                and any(a.startswith("--json=") for a in args)):
            runs[name] = [a for a in args if not a.startswith("--json=")]
    if not runs:
        sys.exit("CTest lists no bench smoke with --json= in " + build)
    return runs


def binaries(build, smokes):
    names = set()
    for name in os.listdir(build):
        path = os.path.join(build, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        if name.startswith(("example_", "bench_fig", "bench_table")) or name in smokes:
            names.add(name)
    return names


def execute(binary, args, run_dir):
    return subprocess.run([binary] + args, cwd=run_dir, env=dict(os.environ, TMPDIR=run_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)


def run(build, name, smokes, run_dir):
    """Runs one binary in a fresh run_dir and returns {output name: text}."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    binary = os.path.abspath(os.path.join(build, name))
    if not os.path.exists(binary):
        return {"binary": "missing from " + build + "\n"}
    if name in smokes:
        proc = execute(binary, smokes[name] + ["--json=" + os.path.join(run_dir, JSON_FILE)],
                       run_dir)
    elif name.startswith("bench_"):
        proc = execute(binary, [SCALE], run_dir)
        if proc.returncode != 0 and "unknown flag: " + SCALE in proc.stderr:
            proc = execute(binary, [], run_dir)
    else:
        proc = execute(binary, [], run_dir)
    stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                     if not line.startswith("wrote "))
    outputs = {"exit status": "%d\n" % proc.returncode, "stdout": stdout}
    if proc.returncode != 0:
        outputs["stderr"] = proc.stderr
    files = COMPARED_FILES.get(name, []) + ([JSON_FILE] if name in smokes else [])
    for file_name in files:
        path = os.path.join(run_dir, file_name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                outputs[file_name] = f.read()
        else:
            outputs[file_name] = "(not written)\n"
    shutil.rmtree(run_dir, ignore_errors=True)
    return outputs


def readable(key, a, b):
    """The two texts to diff. JSON files that both parse and hold different
    values are diffed one value per line, so the diff names the value that
    moved; a difference in layout alone is diffed as written."""
    if key.endswith(".json"):
        try:
            pa = json.dumps(json.loads(a), indent=1)
            pb = json.dumps(json.loads(b), indent=1)
        except ValueError:
            return a, b
        if pa != pb:
            return pa + "\n", pb + "\n"
    return a, b


def compare(name, builds, scratch):
    """Runs `name` in both builds, each a (directory, smokes) pair; returns
    its diff text ('' if identical)."""
    run_dir = os.path.join(scratch, name)
    (parent_build, _), (change_build, _) = builds
    parent, change = (run(build, name, smokes, run_dir) for build, smokes in builds)
    text = []
    for key in sorted(set(parent) | set(change)):
        a = parent.get(key, "")
        b = change.get(key, "")
        if a != b:
            a, b = readable(key, a, b)
            text.extend(difflib.unified_diff(
                a.splitlines(keepends=True), b.splitlines(keepends=True),
                fromfile="%s/%s %s" % (parent_build, name, key),
                tofile="%s/%s %s" % (change_build, name, key)))
    return "".join(line if line.endswith("\n") else line + "\n" for line in text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_build")
    parser.add_argument("change_build")
    args = parser.parse_args()
    builds = [(build, json_runs(build)) for build in (args.parent_build, args.change_build)]
    names = sorted(set().union(*(binaries(build, smokes) for build, smokes in builds)))
    if not names:
        sys.exit("no example_* or bench_* binaries in either build directory")
    failed = []
    # Each worker runs one binary in both builds in turn.
    workers = min(3, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as scratch:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(compare, name, builds, scratch) for name in names}
            for name in names:
                diff = futures[name].result()
                print(("DIFFERS  " if diff else "same     ") + name, flush=True)
                if diff:
                    failed.append(name)
                    sys.stdout.write(diff)
    print("%d of %d binaries differ" % (len(failed), len(names)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
