"""Self-test of the benchmark: every workload at a tiny size, in both modes.

Runs ``bench/run.py --smoke`` from the repository root; it fails when a
metric named in ``BENCHMARK.json`` is missing or has another unit, or when
the correctness gate reports a failure.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_every_workload_reports_its_metrics():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke ok"
