#!/usr/bin/env python3
"""Repo-specific determinism/invariant linter for the GNNIE tree.

Enforces rules clang-tidy cannot express, each protecting the ROADMAP's
determinism contract (a (trace, scheduler, fleet, seed) tuple must always
produce bit-identical reports, on every platform, serial or parallel):

  clocks   No wall-clock or libc randomness in simulated code: std::rand /
           srand / time() / clock() / gettimeofday / clock_gettime /
           std::random_device / std::chrono::{steady,system,high_resolution}
           _clock are banned in src/, tests/, and examples/. bench/ is
           exempt (wall-clock throughput timing lives there by design), as
           is src/common/rng.* (the one sanctioned randomness source).

  ptrmaps  No *iteration* over pointer-keyed associative containers in
           src/serve + src/core: iteration order of a pointer-keyed
           std::map/std::set follows allocation addresses and of an
           unordered container follows the hash of the pointer value —
           both vary run to run, so any result assembled by walking one is
           nondeterministic. Lookup-only use is fine; declaring such a
           container is flagged only when the file also iterates it.

  headers  Every public header under src/ (plus bench/bench_util.hpp) must
           compile standalone: a generated one-include translation unit per
           header is compiled with -fsyntax-only. A header that only
           compiles after its includer pulled in prerequisites breaks
           incremental refactors silently. The compiles run in parallel
           across os.cpu_count() workers; findings still come out in header
           order.

A finding can be suppressed by putting  lint-invariants: allow(<rule>)  in a
comment on the offending line (rule = clocks | ptrmaps).

`--self-test` runs the rules against the checked-in violation fixtures in
scripts/lint_fixtures/ and exits nonzero unless every fixture is flagged —
so CI proves the linter still detects what it claims to.

Exit status: 0 = clean, 1 = findings (or self-test failure), 2 = usage error.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

# ---------------------------------------------------------------------------
# clocks rule

CLOCK_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.])(?:std::)?time\s*\("), "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "std::chrono wall clock"),
]

SUPPRESS = re.compile(r"lint-invariants:\s*allow\((\w+)\)")


def strip_line_comment(line):
    """Drop everything from '//' on (prose may legitimately mention clocks)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def suppressed(raw_line, rule):
    m = SUPPRESS.search(raw_line)
    return bool(m) and m.group(1) == rule


def check_clocks(path, text):
    findings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if suppressed(raw, "clocks"):
            continue
        code = strip_line_comment(raw)
        for pattern, what in CLOCK_PATTERNS:
            if pattern.search(code):
                findings.append(
                    (path, lineno,
                     f"clocks: {what} is nondeterministic across runs; draw from "
                     f"common/rng (or move wall-clock timing into bench/)"))
    return findings


# ---------------------------------------------------------------------------
# ptrmaps rule

CONTAINER_DECL = re.compile(
    r"\b(?:std::)?(?:unordered_)?(?:map|set|multimap|multiset)\s*<")


def split_top_level(args_text):
    """Template argument list -> top-level comma-separated pieces."""
    pieces, depth, current = [], 0, []
    for ch in args_text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    pieces.append("".join(current))
    return pieces


def pointer_keyed_names(text):
    """Names of declared map/set variables whose key type holds a pointer."""
    names = set()
    for m in CONTAINER_DECL.finditer(text):
        # Walk the template argument list with bracket counting (nested
        # templates appear in real keys, e.g. pair<const void*, const void*>).
        depth, i = 1, m.end()
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        key = split_top_level(text[m.end():i - 1])[0]
        if "*" not in key:
            continue
        decl = re.match(r"\s*(\w+)\s*[;={(]", text[i:])
        if decl:
            names.add(decl.group(1))
    return names


def check_ptrmaps(path, text):
    names = pointer_keyed_names(text)
    if not names:
        return []
    findings = []
    alternation = "|".join(sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))?(" + alternation + r")\b")
    begin_iter = re.compile(
        r"=\s*(?:\w+(?:\.|->))?(" + alternation + r")\s*\.\s*c?begin\s*\(")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if suppressed(raw, "ptrmaps"):
            continue
        code = strip_line_comment(raw)
        m = range_for.search(code) or begin_iter.search(code)
        if m:
            findings.append(
                (path, lineno,
                 f"ptrmaps: iterating pointer-keyed container '{m.group(1)}' — "
                 f"iteration order follows allocation addresses and varies run "
                 f"to run; iterate a dense index or a recorded insertion order "
                 f"instead"))
    return findings


# ---------------------------------------------------------------------------
# headers rule

def check_headers(root, headers, include_dirs, compiler):
    """Compile one generated TU per header across os.cpu_count() workers;
    findings come back in `headers` order."""
    with tempfile.TemporaryDirectory(prefix="gnnie_lint_") as tmp:
        def compile_one(index, header):
            tu = os.path.join(tmp, f"tu{index}.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                incpath = os.path.relpath(
                    header, next(d for d in include_dirs
                                 if header.startswith(d + os.sep)))
                f.write(f'#include "{incpath}"\n')
            cmd = [compiler, "-std=c++20", "-fsyntax-only"]
            for d in include_dirs:
                cmd += ["-I", d]
            cmd.append(tu)
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                return None
            detail = proc.stderr.strip().splitlines()
            head = detail[0] if detail else "compile failed"
            return (os.path.relpath(header, root), 1,
                    f"headers: not self-contained ({head})")

        # Threads suffice: each worker just waits on its compiler process.
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(compile_one, range(len(headers)), headers))
    return [finding for finding in results if finding is not None]


# ---------------------------------------------------------------------------
# driver

def iter_files(root, subdirs, exts):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in exts:
                    yield os.path.join(dirpath, name)


def run_lint(root, compiler, check_headers_too=True):
    findings = []

    rng_prefix = os.path.join(root, "src", "common", "rng")
    for path in iter_files(root, ["src", "tests", "examples"],
                           {".cpp", ".hpp", ".h"}):
        if path.startswith(rng_prefix):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, root)
        findings += check_clocks(rel, text)

    for path in iter_files(root, [os.path.join("src", "serve"),
                                  os.path.join("src", "core")],
                           {".cpp", ".hpp", ".h"}):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, root)
        findings += check_ptrmaps(rel, text)

    if check_headers_too:
        src = os.path.join(root, "src")
        bench = os.path.join(root, "bench")
        headers = list(iter_files(root, ["src"], {".hpp", ".h"}))
        bench_util = os.path.join(bench, "bench_util.hpp")
        if os.path.exists(bench_util):
            headers.append(bench_util)
        findings += check_headers(root, headers, [src, bench], compiler)

    return findings


def self_test(root, compiler):
    """The linter must flag every checked-in violation fixture."""
    fixtures = os.path.join(root, "scripts", "lint_fixtures")
    failures = []

    def expect(name, found, rule):
        if not found:
            failures.append(f"{rule} rule missed fixture {name}")

    path = os.path.join(fixtures, "bad_clock.cpp")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    expect("bad_clock.cpp", check_clocks(path, text), "clocks")

    path = os.path.join(fixtures, "bad_ptr_map_iteration.cpp")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    expect("bad_ptr_map_iteration.cpp", check_ptrmaps(path, text), "ptrmaps")

    bad_header = os.path.join(fixtures, "bad_header.hpp")
    expect("bad_header.hpp",
           check_headers(fixtures, [bad_header], [fixtures], compiler),
           "headers")

    # Negative control: the clean fixture must NOT be flagged, or the linter
    # is matching noise rather than violations.
    path = os.path.join(fixtures, "clean.cpp")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if check_clocks(path, text) or check_ptrmaps(path, text):
        failures.append("clean.cpp fixture was falsely flagged")

    if failures:
        for failure in failures:
            print(f"lint_invariants self-test FAILED: {failure}")
        return 1
    print("lint_invariants self-test passed: every fixture violation detected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--compiler", default="c++",
                        help="C++ compiler for the header self-containment rule")
    parser.add_argument("--no-headers", action="store_true",
                        help="skip the (slow) header self-containment rule")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter flags the checked-in fixtures")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"--root {root} does not look like the repo root", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root, args.compiler)

    findings = run_lint(root, args.compiler,
                        check_headers_too=not args.no_headers)
    for path, lineno, message in findings:
        print(f"{path}:{lineno}: {message}")
    if findings:
        print(f"\nlint_invariants: {len(findings)} finding(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
