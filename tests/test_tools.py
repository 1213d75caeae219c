"""The scripts under tools/, run as a user runs them."""

import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools")


@pytest.mark.parametrize("seed", ["abc", "-1"])
def test_output_hashes_rejects_a_bad_seed_with_its_usage_line(seed):
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(TOOLS, "output_hashes.py"),
         "smoke", seed],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "usage: output_hashes.py <workload> <seed>...\n"
