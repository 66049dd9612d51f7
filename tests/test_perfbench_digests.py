"""The benchmark reproduces its pinned seed-0 run records.

``perfbench/run.py`` prints a SHA-256 digest over the run records of every
pass of a workload; each pass must give the same digest, and it must equal
the one pinned here. The traced run wraps cosched's functions by module
attribute name, so a rename that breaks it fails here first. A change that
means to move the records updates these digests and says so.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    ("contended-tiny", 0): "cda3bc70095f2d8a5a38cff94dec134a525b2697059742ad6207cc307934c4c5",
    ("small-walker", 0): "83d210762a07f5cfd0513c6c21207671ec00b607cfaeb1f8dd4a24bce54028ea",
    ("contended-tiny", 1): "04d81e6ef9bf22084fc7db77f71a9981b5f6304a8452769e53f7d65dd579a5b4",
    ("small-walker", 1): "c66ab93beba9e1cc8a6155998470225ab88da8fd33911f76d10dae1ccf4b8433",
}


@pytest.mark.parametrize("workload, trace", list(PINNED), ids=lambda v: str(v))
def test_perfbench_reproduces_pinned_digest(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert f"# digest sha256={PINNED[(workload, trace)]} (identical across passes)" in lines
    assert any(re.fullmatch(r"# passes=.* failed=0", line) for line in lines)
