"""The benchmark's output checks still reject corrupted outputs and pass
clean ones, so renaming a name the benchmark imports or breaking a
workload's output fails here and not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_runs_clean():
    r = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PROBLEM" not in r.stdout
    assert r.stdout.count("corrupted output ->") == 4, r.stdout
