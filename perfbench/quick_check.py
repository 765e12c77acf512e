"""End-to-end check of the benchmark harness on tiny inputs.

Run from the root of a checkout, either way::

    python3 perfbench/quick_check.py
    python3 -m pytest -q perfbench/quick_check.py

It runs every workload in ``--quick`` mode, untraced and traced, and checks
the result line of each: a broken harness shows here in about a minute,
before a long run.  It also checks that the benchmark refuses to run
without the program's sources.  The file name keeps it out of the test
suite's default collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_quick_runs():
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            done = run_benchmark(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(units)
            for name, entry in result["metrics"].items():
                assert entry["unit"] == units[name]
                assert isinstance(entry["value"], (int, float))
            if workload == "table2_sweep":
                # The deadline operation fails once per round (see README).
                assert result["failed"] >= 1
            if trace == 0:
                assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_without_sources():
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, "table2_sweep", 0)
        assert done.returncode != 0
        assert not done.stdout.strip()


if __name__ == "__main__":
    test_quick_runs()
    test_refuses_without_sources()
    print("quick check passed")
