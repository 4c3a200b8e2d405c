"""The benchmark's own tests (perfbench/selftest.py) run as part of this suite.

They check that every tracer target still resolves in the package, that the
traced call counts equal cProfile's, and that the seed-0 digests match, so a
change to a traced function is caught here rather than by the benchmark.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
