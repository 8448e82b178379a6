#!/usr/bin/env python3
"""Checks the trace-category lists that people read against the code: the
category column of README's trace table must list kCatNames from
src/obs/trace.cc in order, and every backticked src/ path in the layer column
must exist (as a directory, or as <path>.h or <path>.cc). Given the path of a
built bundler_run as its first argument (the readme_trace_table ctest passes
one), it also checks that `bundler_run --help` lists the same categories in
the same order.

  python3 scripts/trace_table_test.py [path/to/bundler_run]"""

import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLER_RUN = (sys.argv.pop(1)
               if len(sys.argv) > 1 and not sys.argv[1].startswith("-") else None)
TABLE_HEADER = re.compile(r"^\|\s*category\s*\|\s*layer\s*\|\s*events\s*\|$")


def read(rel_path):
    with open(os.path.join(ROOT, rel_path), encoding="utf-8") as f:
        return f.read()


def code_categories():
    """The string literals of kCatNames in src/obs/trace.cc, in order."""
    body = re.search(r"kCatNames\[\]\s*=\s*\{(.*?)\};", read("src/obs/trace.cc"),
                     re.DOTALL)
    assert body, "kCatNames not found in src/obs/trace.cc"
    return re.findall(r'"([^"]*)"', body.group(1))


def readme_rows():
    """(category, layer) cells of the README table headed category|layer|events."""
    lines = read("README.md").splitlines()
    start = next(i for i, line in enumerate(lines) if TABLE_HEADER.match(line))
    rows = []
    for line in lines[start + 2:]:  # skip the header and its |---| rule
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append((cells[0].strip("`"), cells[1]))
    return rows


class TraceTableTest(unittest.TestCase):
    def test_categories_match_code_in_order(self):
        self.assertEqual([cat for cat, _ in readme_rows()], code_categories())

    def test_layer_paths_exist(self):
        for cat, layer in readme_rows():
            for path in re.findall(r"`(src/[^`]*)`", layer):
                full = os.path.join(ROOT, path)
                with self.subTest(category=cat, path=path):
                    self.assertTrue(
                        os.path.isdir(full) or os.path.isfile(full + ".h") or
                        os.path.isfile(full + ".cc"),
                        f"README trace table row `{cat}` names `{path}`, "
                        "which is neither a directory nor a .h/.cc file")

    def test_cli_help_lists_categories_in_order(self):
        if BUNDLER_RUN is None:
            self.skipTest("no bundler_run path given")
        usage = subprocess.run([BUNDLER_RUN, "--help"], check=True,
                               capture_output=True, text=True).stdout
        line = re.search(r"^  ([a-z]+(?:,[a-z]+)+)$", usage, re.MULTILINE)
        self.assertIsNotNone(
            line, "bundler_run --help prints no line listing the trace "
            "categories on its own:\n" + usage)
        self.assertEqual(line.group(1).split(","), code_categories())


if __name__ == "__main__":
    unittest.main()
