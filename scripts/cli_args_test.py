#!/usr/bin/env python3
"""Checks that bundler_run rejects malformed numeric flags, trace options
given without --trace, a --trace that names no category, and removed flags as
usage errors: each must exit 2, name the flag (and the bad value) on stderr,
and stop before anything runs, so no --out directory appears. A trace file
that cannot be opened must fail with exit 1, also before anything runs.
Every argument list used here stops before the first trial, so no trial and
no worker thread ever starts.

  python3 scripts/cli_args_test.py path/to/bundler_run"""

import os
import subprocess
import sys
import tempfile
import unittest

BUNDLER_RUN = sys.argv.pop(1) if len(sys.argv) > 1 else None
SCENARIO = "fig02_queue_shift"
MALFORMED = ["two", "3x", "-1", "1" * 30]
# Flag -> bad values. Counts must also be at least 1; the seed base may be 0.
BAD_VALUES = {
    "--trials": MALFORMED + ["0"],
    "--threads": MALFORMED + ["0"],
    "--trace-ring": MALFORMED + ["0"],
    "--seed-base": MALFORMED,
}


class CliArgsTest(unittest.TestCase):
    def run_rejected(self, args):
        """Runs bundler_run with `args` and asserts a usage error that
        created no --out directory. Returns stderr."""
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = os.path.join(tmp, "out")
            proc = subprocess.run(
                [BUNDLER_RUN, "--scenario", SCENARIO, *args, "--out", out_dir,
                 "--quiet"],
                capture_output=True, text=True, timeout=60)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertFalse(os.path.exists(out_dir),
                             f"{args} created the --out directory")
            return proc.stderr

    def test_malformed_numbers_are_usage_errors(self):
        for flag, values in BAD_VALUES.items():
            for value in values:
                with self.subTest(flag=flag, value=value):
                    stderr = self.run_rejected([flag, value])
                    self.assertIn(flag, stderr)
                    self.assertIn(value, stderr)

    def test_trace_options_need_trace(self):
        for args in (["--trace-out", "trace.jsonl"], ["--trace-ring", "64"]):
            with self.subTest(args=args):
                stderr = self.run_rejected(args)
                self.assertIn(args[0], stderr)
                self.assertIn("--trace", stderr)

    def test_trace_needs_a_category(self):
        for spec in (",", "tenant,bogus"):
            with self.subTest(spec=spec):
                stderr = self.run_rejected(["--trace", spec])
                self.assertIn("--trace", stderr)
                self.assertIn(spec, stderr)

    def test_unwritable_trace_fails_before_any_trial(self):
        with tempfile.TemporaryDirectory() as tmp:
            not_a_dir = os.path.join(tmp, "file")
            with open(not_a_dir, "w"):
                pass
            out_dir = os.path.join(tmp, "out")
            trace = os.path.join(not_a_dir, "t.trace.jsonl")
            proc = subprocess.run(
                [BUNDLER_RUN, "--scenario", SCENARIO, "--trace", "sim",
                 "--trace-out", trace, "--out", out_dir, "--quiet"],
                capture_output=True, text=True, timeout=60)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertIn(trace, proc.stderr)
            self.assertFalse(os.path.exists(out_dir),
                             "the trials ran before the trace file failed")

    def test_removed_flags_are_unknown(self):
        for args in (["--shards", "4"], ["--trace-format", "jsonl"]):
            with self.subTest(args=args):
                stderr = self.run_rejected(args)
                self.assertIn("unknown argument: " + args[0], stderr)


if __name__ == "__main__":
    if BUNDLER_RUN is None:
        sys.exit("usage: cli_args_test.py path/to/bundler_run")
    unittest.main()
