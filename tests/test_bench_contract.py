"""The benchmark's output contract: a short `bench/run.py` run of each
workload ends with one JSON line that reports a correct run and every
end-to-end metric.

`bench/child.py` reaches into the package (it wraps
`evaluation.recommend` to time the four-method rankings and passes
`run_eval`'s `jobs` positionally), so a refactor can break the benchmark
while every other test passes. The run works on a copy of the repository
in a temporary directory, so nothing is written to `.bench_work/`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-root")
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, root / tree, ignore=skip)
    (root / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracle.py", root / "tests")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", ["fixed-compare", "incremental-jobs2"])
def test_short_run_reports_every_metric(bench_copy, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "401",
         "--seconds", "1", "--trace", "0"],
        cwd=bench_copy, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    names = [metric["name"] for metric in declared]
    assert len(names) == 4
    for name in names:
        assert result["metrics"][name]["value"] is not None, name
