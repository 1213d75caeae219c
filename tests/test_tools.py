"""The scripts under tools/, run as a user runs them."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


@pytest.mark.parametrize("seed", ["abc", "-1"])
def test_output_hashes_rejects_a_bad_seed_with_its_usage_line(seed):
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(TOOLS, "output_hashes.py"),
         "smoke", seed],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "usage: output_hashes.py <workload> <seed>...\n"


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    # pytest with this checkout's settings, where warnings are errors: a
    # failing @given test must come out as a test failure with its example,
    # not as an INTERNALERROR raised from a plugin hook
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    before = sorted(os.listdir(ROOT))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_property.py::test_small" in proc.stdout
    assert "Falsifying example: test_small(" in proc.stdout
    assert sorted(os.listdir(ROOT)) == before
