"""Two traced runs with the same seed must give identical count metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
TIMED = ("_s", "overhead_ratio")


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=BENCH.parent, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert "counts repeat across passes: yes" in done.stdout
    return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith(TIMED)}


@pytest.mark.parametrize("workload", ["anchor-coloring", "axiom-scan", "list-search", "cli-certify"])
def test_count_metrics_repeat_exactly(workload):
    first = traced_counts(workload, "1")
    assert first == traced_counts(workload, "2")
    assert first["core.calls"] > 0
