"""Regenerate ``BENCH_serving.json``: run the serving sweeps (which write
to a session tmp dir) and copy their output over the checked-in file.

Usage: ``python benchmarks/regen.py``
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sweeps = str(ROOT / "benchmarks" / "test_serving_throughput.py")
        status = pytest.main(["-q", sweeps, f"--basetemp={tmp}/run"])
        if status == 0:
            shutil.copy(
                Path(tmp) / "run" / "bench" / "BENCH_serving.json",
                ROOT / "BENCH_serving.json",
            )
    sys.exit(int(status))
