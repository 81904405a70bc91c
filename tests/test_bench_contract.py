"""The benchmark's output contract: a short `bench/run.py` run of each
workload ends with one JSON line that reports a correct run and a value
for every metric BENCHMARK.json declares: the end-to-end ones untraced,
the per-layer ones traced.

`bench/child.py` reaches into the package (it wraps
`evaluation.recommend` to time the four-method rankings and passes
`run_eval`'s `jobs` positionally; traced runs wrap a dozen more of its
functions by name), so a refactor can break the benchmark while every
other test passes. The run works on a copy of the repository
in a temporary directory, so nothing is written to `.bench_work/`.

Every run also pins the report digest it prints: a change that moves a
report fails here and must show that `tests/oracle.py` agrees with the
new rankings before the pinned value is updated. The same digest of
`fixed-compare`'s shape scaled to 1,000 records is pinned too, where the
exact fallbacks run ten times as often as in the workloads' reports.
"""

import hashlib
import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import revrec
from revrec.cli import compare_selections
from revrec.evaluation import SubSelections

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the CSV and table texts of one `compare` report, per workload and seed.
DIGESTS = {
    ("fixed-compare", 401): "8429a75411897acb5f4c9763e2f7598c2bf72ae551b500cddad75c8c9a2fb04a",
    ("fixed-compare", 402): "789254b6b7ae235e06a1302c21df13b17b12d90418c7d6ea8804996fa15f7e26",
    ("incremental-jobs2", 401): "d10ea021bc7104b6adb3bce5e5e8418ca3db2a9f16be3ebd9b6ddbced282ecb3",
    ("incremental-jobs2", 402): "3b70a819c1cbfd075e81d4d8126fc6b4f774defd85d930b0183343b711700a8a",
}


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


def bench_result(root, workload, seed, trace, kind):
    """Run `bench/run.py` for one second; check that it reports a correct
    run with a value for every metric BENCHMARK.json declares of ``kind``
    and the pinned report digest, and return that result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[2] for line in lines if line.startswith("bench: digest ")]
    assert digests == [DIGESTS[workload, seed]]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    for metric in declared:
        assert result["metrics"][metric["name"]]["value"] is not None, metric["name"]
    return result


@pytest.mark.parametrize("workload", ["fixed-compare", "incremental-jobs2"])
def test_short_run_reports_every_metric(bench_copy, workload):
    result = bench_result(bench_copy, workload, 401, 0, "end_to_end")
    assert len(result["metrics"]) == 4


@pytest.mark.parametrize("workload", ["fixed-compare", "incremental-jobs2"])
def test_other_seed_reports_every_metric(bench_copy, workload):
    bench_result(bench_copy, workload, 402, 0, "end_to_end")


# A traced run reads a layer whose function was renamed or deleted as null,
# which the untraced runs above cannot see.
@pytest.mark.parametrize("workload", ["fixed-compare", "incremental-jobs2"])
def test_traced_run_reports_every_layer(bench_copy, workload):
    bench_result(bench_copy, workload, 401, 1, "per_layer")


# sha256 of the same texts for bench/gen.py's `fixed-compare` shape scaled to
# 1,000 records (seed "fixed-compare/401"): fixed sampling at 0.10 with seed
# 7, and incremental sampling in 8 steps.
SCALED_DIGESTS = {
    "fixed": "033f8b65cf2a48c0b0fc2f192bb4eaa31d27b846657138be1919976f4ee382d5",
    "incremental": "b399bea19249f590b58dd3da9b7bf3f1f591b2ec46ec5abf5c4128522fa543e3",
}
# The reviewer sums that the same reports' sub-selection filter computes
# exactly (``SubSelections.exact``): a filter that decides less from its
# bounds gives the same digests but more calls.
SCALED_EXACT_CALLS = {"fixed": 46, "incremental": 140}


@pytest.fixture(scope="module")
def scaled_inputs(tmp_path_factory):
    """The corpus and table of `fixed-compare` at 1,000 records, generated
    as bench/run.py generates the workload's."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(gen)
    rng = random.Random("fixed-compare/401")
    shape = gen.CorpusShape(records=1000, reviewers=60, records_per_path=5.0,
                            modules=12, vocabulary=1500, project="nova")
    records = gen.generate_records(shape, rng)
    root = tmp_path_factory.mktemp("scaled")
    gen.write_records(records, str(root / "corpus.jsonl"))
    words = gen.table_words(gen.comment_vocabulary(records), 0.8, rng)
    gen.write_table(words, 50, rng.randrange(2**32), str(root / "vectors.txt"))
    return (revrec.load_corpus(str(root / "corpus.jsonl"), "nova"),
            revrec.load_embedding_table(str(root / "vectors.txt")))


@pytest.mark.parametrize("sampling, settings", [("fixed", {"rng_seed": 7}), ("incremental", {"steps": 8})])
def test_scaled_report_digest(scaled_inputs, sampling, settings, monkeypatch):
    corpus, table = scaled_inputs
    calls = []
    exact = SubSelections.exact

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(SubSelections, "exact", counting)
    config = revrec.EvalConfig(methods=compare_selections(), sampling=revrec.Sampling(sampling), **settings)
    report = revrec.run_eval(corpus, config, table)
    text = report.to_csv_text() + "\0" + report.to_table_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SCALED_DIGESTS[sampling]
    assert len(calls) == SCALED_EXACT_CALLS[sampling]
