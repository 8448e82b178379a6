#!/usr/bin/env python3
"""Repo-specific determinism and zero-alloc lints for the bundler simulator.

The simulator's core guarantees — bit-identical runs at a fixed seed
(including across --threads and ShardRunner worker counts) and an
allocation-free steady-state datapath — are properties a compiler does not
check. This linter enforces the source-level discipline behind them:

  unordered-iteration   Iterating a std::unordered_{map,set} feeds
                        address-dependent order into whatever consumes the
                        loop. Lookups are fine; iteration is not. Use
                        std::map/std::vector, or sort first.
  pointer-keyed-order   std::map/std::set keyed by a raw pointer iterates in
                        address order, which varies run to run.
  wall-clock            rand()/srand()/time()/std::chrono wall clocks inject
                        nondeterminism; simulations must use the seeded
                        bundler RNG and the simulated clock.
  datapath-std-function std::function in datapath directories (src/sim,
                        src/net, src/qdisc, src/transport) heap-allocates
                        non-trivial captures; use InlineFunction (fixed
                        inline storage).
  datapath-heap-alloc   new / make_unique / make_shared / malloc in datapath
                        directories. Construction-time allocation is fine but
                        must be visibly justified with lint:allow; placement
                        new (`::new (ptr)`) is exempt. Note: container
                        push_back-style growth is intentionally NOT a text
                        rule — ring buffers share that API and amortized
                        growth is vetted instead by the ctest checks that
                        count allocations (tests/alloc_counter.h).
  raw-mutex             A file declaring std::mutex must include
                        src/util/thread_annotations.h and pair the mutex
                        with GUARDED_BY annotations; unannotated mutexes are
                        invisible to Clang's thread-safety analysis.
                        Function-local mutexes take a lint:allow.

Escape hatch: append `// lint:allow(<rule>)` to the offending line, or put
it alone on the line directly above. Allows are per-line and per-rule so a
grep for lint:allow audits every sanctioned exception.

Usage: bundler_lint.py [--list-rules] [paths...]
Paths default to src/. Directories are walked for *.h/*.cc. Exit status is 1
when any violation is reported, 0 otherwise.
"""

import argparse
import os
import re
import sys

DATAPATH_DIRS = ("src/sim", "src/net", "src/qdisc", "src/transport")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Matches an unordered container declaration and captures the variable name:
#   std::unordered_map<K, V> name;   (possibly with initializer)
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*[;{=(]")
UNORDERED_TYPE_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")

POINTER_KEY_RE = re.compile(r"std::(?:map|set|multimap|multiset)\s*<\s*[\w:]+\s*\*")

WALL_CLOCK_RE = re.compile(
    r"(?<![\w.>])(?:rand|srand)\s*\(|"
    r"(?<![\w.>])time\s*\(|"
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)|"
    r"(?<!_)(?:system_clock|steady_clock|high_resolution_clock)::")

STD_FUNCTION_RE = re.compile(r"std::function\s*<")

# `new T`, `new T[n]`, std::make_unique/make_shared, C allocators. Placement
# new (`::new (addr)` or `new (addr)`) is exempt: it constructs into storage
# the caller already owns (InlineFunction, arenas).
HEAP_ALLOC_RE = re.compile(
    r"(?<!:)\bnew\s+[A-Za-z_]|"
    r"\bmake_unique\s*<|\bmake_shared\s*<|"
    r"(?<![\w.>])(?:malloc|calloc|realloc)\s*\(")

MUTEX_DECL_RE = re.compile(r"(?<!\w)std::(?:mutex|shared_mutex|recursive_mutex)\s+\w")
THREAD_ANNOTATIONS_INCLUDE = '#include "src/util/thread_annotations.h"'

RULES = {
    "unordered-iteration": "iteration over an unordered container is address-ordered",
    "pointer-keyed-order": "pointer-keyed ordered container iterates in address order",
    "wall-clock": "wall-clock/rand in simulation code breaks fixed-seed determinism",
    "datapath-std-function": "std::function heap-allocates captures; use InlineFunction",
    "datapath-heap-alloc": "heap allocation in the datapath; justify with lint:allow",
    "raw-mutex": "std::mutex without thread_annotations.h include + GUARDED_BY",
}


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string/char literals.

    Keeps the line length roughly stable so column info stays meaningful.
    Block comments are not handled (the codebase uses // exclusively).
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def allowed_rules(lines, idx):
    """Rules allowed for line idx (0-based): same-line or whole-line-above."""
    allowed = set()
    m = ALLOW_RE.search(lines[idx])
    if m:
        allowed.update(r.strip() for r in m.group(1).split(","))
    if idx > 0:
        prev = lines[idx - 1].strip()
        m = ALLOW_RE.fullmatch(prev) or (ALLOW_RE.search(prev)
                                         if prev.startswith("//") else None)
        if m:
            allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


def is_datapath(path):
    rel = path.replace(os.sep, "/")
    return any(f"/{d}/" in f"/{rel}" or rel.startswith(d + "/")
               for d in DATAPATH_DIRS)


def lint_file(path, rel_path=None):
    rel = rel_path or path
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Violation(rel, 0, "io", str(e))]

    code_lines = [strip_comments_and_strings(l) for l in raw_lines]
    datapath = is_datapath(rel)
    violations = []

    def report(idx, rule, message):
        if rule not in allowed_rules(raw_lines, idx):
            violations.append(Violation(rel, idx + 1, rule, message))

    # Pass 1: collect unordered-container variable names (file-local
    # heuristic scope: members and locals alike).
    unordered_vars = set()
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_vars.add(m.group(1))

    iter_res = []
    for v in sorted(unordered_vars):
        # range-for over the container, or explicit iterator walk.
        iter_res.append((v, re.compile(
            rf"for\s*\([^;)]*:\s*{re.escape(v)}\s*\)|"
            rf"{re.escape(v)}\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")))

    has_annotations_include = any(
        THREAD_ANNOTATIONS_INCLUDE in l for l in raw_lines)
    has_guarded_by = any(re.search(r"\bGUARDED_BY\s*\(", c)
                         for c in code_lines)

    for idx, code in enumerate(code_lines):
        if not code.strip():
            continue

        for var, rx in iter_res:
            if rx.search(code):
                report(idx, "unordered-iteration",
                       f"iterating unordered container '{var}' yields "
                       "address-dependent order")

        if POINTER_KEY_RE.search(code):
            report(idx, "pointer-keyed-order",
                   "ordered container keyed by raw pointer iterates in "
                   "address order")

        if WALL_CLOCK_RE.search(code):
            report(idx, "wall-clock",
                   "wall-clock/rand source; use the seeded RNG and the "
                   "simulated clock")

        if datapath and STD_FUNCTION_RE.search(code):
            report(idx, "datapath-std-function",
                   "std::function in the datapath; use InlineFunction")

        if datapath and HEAP_ALLOC_RE.search(code):
            report(idx, "datapath-heap-alloc",
                   "heap allocation in the datapath; move it to "
                   "construction time and justify with lint:allow")

        if MUTEX_DECL_RE.search(code):
            if not has_annotations_include:
                report(idx, "raw-mutex",
                       "std::mutex in a file that does not include "
                       "src/util/thread_annotations.h")
            elif not has_guarded_by:
                report(idx, "raw-mutex",
                       "std::mutex with no GUARDED_BY annotations in this "
                       "file; annotate what it protects")

    return violations


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith((".h", ".cc")):
                        files.append(os.path.join(root, name))
        else:
            files.append(p)
    return sorted(set(files))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bundler determinism/zero-alloc linter")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}: {desc}")
        return 0

    violations = []
    for path in collect_files(args.paths or ["src"]):
        violations.extend(lint_file(path))

    for v in violations:
        print(v)
    if violations:
        print(f"bundler_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
