#!/usr/bin/env python3
"""Checks the README's trace-category table against the code: the category
column must list kCatNames from src/obs/trace.cc in order, and every
backticked src/ path in the layer column must exist (as a directory, or as
<path>.h or <path>.cc). Run directly or via ctest."""

import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


if __name__ == "__main__":
    unittest.main()
