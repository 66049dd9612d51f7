"""The benchmark reproduces its pinned seed-0 run records.

``perfbench/run.py`` prints a SHA-256 digest over the run records of every
pass of a workload; each pass must give the same digest, and it must equal
the one pinned in ``pinned_digests.json``. The traced run wraps cosched's
functions by module attribute name, so a rename that breaks it fails here
first. A change that means to move the records updates those digests and
says so.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import pinned_digests

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    (workload, int(trace.removeprefix("trace"))): digest
    for workload, digests in pinned_digests("perfbench_seed0").items()
    for trace, digest in digests.items()
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
