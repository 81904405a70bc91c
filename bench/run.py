"""Seeded benchmark for revrec.

Usage (from the repository root):

    python3 bench/run.py --workload fixed-compare --seed 1 --seconds 45 --trace 0

This process generates the workload's inputs from ``--seed``, checks
that they validate cleanly, cross-checks a seeded sample of rankings
against the brute-force oracle in ``tests/oracle.py``, and then starts
one fresh child process per report (child.py) until ``--seconds`` have
passed. Every child's report digest must equal the first one's. It
prints each metric with its unit and sample count, then, as its last
stdout line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. It exits 1 when a check fails and 2 when the
package cannot be imported.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the children alternate untraced and traced runs and the
metrics are the per-layer ones, plus the tracing overhead. Generated
inputs, per-child results and span files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
MAX_OVERRUN = 1.4
SETUP_REPEATS = 2
ORACLE_TOLERANCE = 1e-12
# Batch runs time the evaluation's rankings with all four methods, the
# selection a user would ask `revrec recommend` for. 200 latency samples
# leave 10 beyond the p95.
LATENCY_SELECTION = "FP_JC+FP_HD+RC_CS+RC_JC"
LATENCY_SAMPLES = 200

# Why each workload exists is recorded in BENCHMARK.json. The corpora are
# sized so that one report takes a few seconds on a 2-core host, which
# lets a run hold about ten reports.
WORKLOADS = {
    "fixed-compare": {
        "sampling": "fixed", "steps": 4, "test_fraction": 0.10, "jobs": 1,
        "shape": gen.CorpusShape(records=200, reviewers=60, records_per_path=5.0,
                                 modules=12, vocabulary=1500, project="nova"),
        "dimension": 50, "coverage": 0.8,
    },
    "incremental-jobs2": {
        "sampling": "incremental", "steps": 8, "test_fraction": 0.10, "jobs": 2,
        "shape": gen.CorpusShape(records=176, reviewers=60, records_per_path=2.0,
                                 modules=12, vocabulary=1500, project="nova"),
        "dimension": 50, "coverage": 0.8,
    },
}
SELECTIONS = 16  # the 15 method combinations of `revrec compare` and REVFINDER


def prepare(name: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Generate the inputs; return the child spec and the input shape."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_path, table_path = workdir / "corpus.jsonl", workdir / "vectors.txt"
    records = gen.generate_records(w["shape"], rng)
    gen.write_records(records, str(corpus_path))
    vocab = gen.comment_vocabulary(records)
    words = gen.table_words(vocab, w["coverage"], rng)
    gen.write_table(words, w["dimension"], rng.randrange(2**32), str(table_path))
    spec = {"project": w["shape"].project, "corpus": str(corpus_path), "table": str(table_path),
            "setup_repeats": SETUP_REPEATS, "latency_selection": LATENCY_SELECTION,
            "sampling": w["sampling"], "steps": w["steps"], "test_fraction": w["test_fraction"], "jobs": w["jobs"]}
    if w["sampling"] == "fixed":
        queries = math.ceil(w["test_fraction"] * len(records))
    else:
        queries = sum(end - start for start, end in validation_ranges(len(records), w))
    shape = {
        "records": len(records),
        "distinct_paths": len({r["file_path"] for r in records}),
        "reviewers": len({r["reviewer_id"] for r in records}),
        "changes": len({r["change_id"] for r in records}),
        "queries": queries,
        "selections": SELECTIONS,
        "table_words": len(words),
        "table_dimension": w["dimension"],
        "comment_vocabulary": len(vocab),
    }
    return spec, shape


def validation_ranges(n: int, w: dict) -> list[tuple[int, int]]:
    """[start, end) of each incremental step's validation records, split
    the way revrec's incremental sampling documents it."""
    base, rem = divmod(n, w["steps"])
    ranges, end = [], 0
    for step in range(w["steps"]):
        size = base + (1 if step < rem else 0)
        end += size
        ranges.append((end - math.ceil(w["test_fraction"] * size), end))
    return ranges


def check_inputs(revrec, spec: dict):
    """Problems found by `revrec validate` and the table loader, and the
    loaded table."""
    from revrec.cli import main as cli_main

    problems = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["validate", "--corpus", spec["corpus"]])
    if code != 0 or err.getvalue():
        problems.append(f"validate: exit {code}: {err.getvalue().strip()}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = revrec.load_embedding_table(spec["table"])
    problems += [f"table: {item.message}" for item in caught]
    return problems, table


def oracle_sample(revrec, oracle, spec: dict, table, name: str, seed: int) -> tuple[int, int, float]:
    """Cross-check seeded rankings against the oracle, one query per
    selection. Returns (attempted, failed, max score difference)."""
    from revrec.cli import compare_selections
    from revrec.recommender import selection_label

    w = WORKLOADS[name]
    rng = random.Random(f"oracle/{name}/{seed}")
    records = list(revrec.load_corpus(spec["corpus"], spec["project"]).records)
    stopwords = oracle.stopword_list()

    def history_and_query():
        n = len(records)
        if w["sampling"] == "fixed":
            # The held-out sample of EvalConfig's default rng_seed, 0.
            test_idx = set(random.Random(0).sample(range(n), math.ceil(w["test_fraction"] * n)))
            history = [r for i, r in enumerate(records) if i not in test_idx]
            return history, records[rng.choice(sorted(test_idx))]
        start, end = rng.choice(validation_ranges(n, w))
        return records[:start], records[rng.randrange(start, end)]

    selections = compare_selections()
    attempted = failed = 0
    max_diff = 0.0
    for selection in selections:
        history, query = history_and_query()
        label = selection_label(selection)
        if selection == revrec.REVFINDER:
            got = revrec.revfinder_recommend(query, history).entries
            want = oracle.revfinder(query, history)
        else:
            got = revrec.recommend(query, history, selection, table).entries
            want = oracle.recommend(query, history, label.split("+"), table.entries, table.dimension, stopwords)
        attempted += 1
        same_order = [r for r, _ in got] == [r for r, _ in want]
        diff = max((abs(a[1] - b[1]) for a, b in zip(got, want)), default=0.0)
        max_diff = max(max_diff, diff)
        if not same_order or diff > ORACLE_TOLERANCE:
            failed += 1
            print(f"bench: oracle mismatch for {label} on {query.change_id}: diff {diff}", file=sys.stderr)
    return attempted, failed, max_diff


def run_child(spec: dict, path: Path, timeout: float) -> dict | None:
    path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "REVREC_STOPWORDS"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"bench: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"bench: child failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_problems(csv_text: str) -> list[str]:
    """Shape checks on a compare report, from its CSV text."""
    rows = [line.split(",") for line in csv_text.splitlines() if line and not line.startswith("#")][1:]
    methods = {row[0] for row in rows}
    problems = []
    if len(methods) != 16 or len(rows) != 64:
        problems.append(f"report has {len(methods)} selections and {len(rows)} rows, want 16 and 64")
    best = max((float(row[3]) for row in rows if row[1] == "10"), default=0.0)
    if not 0.0 < best < 1.0:
        problems.append(f"best MRR@10 is {best}, want strictly between 0 and 1")
    return problems


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles, inclusive."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import oracle
        import revrec
    except ImportError as err:
        print(f"bench: cannot import revrec and its oracle from {ROOT}: {err}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec, shape = prepare(args.workload, args.seed, workdir)
    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace} shape={json.dumps(shape)}")

    problems, table = check_inputs(revrec, spec)
    attempted, failed = 1, int(bool(problems))
    n_oracle, bad_oracle, max_diff = oracle_sample(revrec, oracle, spec, table, args.workload, args.seed)
    attempted += n_oracle
    failed += bad_oracle
    print(f"bench: oracle sample: {n_oracle} rankings, {bad_oracle} mismatched, max |score diff| {max_diff:.3g}")

    min_children = 4 if args.trace else math.ceil(LATENCY_SAMPLES / shape["queries"])
    children: list[dict] = []
    reference = None
    start, last_wall = time.perf_counter(), 0.0

    def more() -> bool:
        # A run starts only if it should end within --seconds, unless the
        # run still lacks latency samples and has not overrun by much.
        # With tracing, untraced and traced runs alternate and the loop
        # ends on a pair.
        elapsed = time.perf_counter() - start
        return ((len(children) < min_children and elapsed < MAX_OVERRUN * args.seconds)
                or (args.trace and len(children) % 2 == 1) or elapsed + last_wall <= args.seconds)

    while more():
        traced = bool(args.trace) and len(children) % 2 == 1
        child_spec = {**spec, "trace": traced, "spans_path": str(workdir / f"spans-{len(children)}.jsonl")}
        if args.trace:
            child_spec["setup_repeats"] = 1
        timeout = min(CHILD_TIMEOUT_S, 175 - (time.perf_counter() - began))
        child_start = time.perf_counter()
        result = run_child(child_spec, workdir / f"spec-{len(children)}.json", timeout)
        last_wall = time.perf_counter() - child_start
        attempted += 1  # one operation is one report
        if result is None:
            failed += 1
            problems.append(f"run {len(children)} did not finish")
            break
        result["traced"] = traced
        if reference is None:
            reference = result["digest"]
            bad_report = report_problems(result["csv"])
            failed += bool(bad_report)
            problems += bad_report
        if result["digest"] != reference:
            problems.append(f"run {len(children)}: digest {result['digest'][:12]} != {reference[:12]}")
            failed += 1
        children.append(result)

    plain = [c for c in children if not c["traced"]]
    traced_runs = [c for c in children if c["traced"]]
    ranks_per_child = shape["queries"] * shape["selections"]
    metrics: dict[str, tuple[float | None, str, int]] = {}
    calibration = [c["calibration_ms"] for c in children]
    if plain:
        setups = [s for c in plain for s in c["setup_s"]]
        latencies = [x for c in plain for x in c["latencies_ms"]]
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        # Pooled over the run's reports: the host's speed swings between
        # two levels for seconds at a time, and a mean over reports moves
        # with the share of slow time where a median jumps between levels.
        metrics["rankings_per_s"] = (ranks_per_child * len(plain) / sum(c["span_s"] for c in plain), "1/s", len(plain))
        # Printed only, not in BENCHMARK.json: with two host speed levels
        # the median of the latencies jumps between them from run to run.
        metrics["recommend_p50_ms"] = (statistics.median(latencies), "ms", len(latencies))
        metrics["recommend_p95_ms"] = (percentile(latencies, 95), "ms", len(latencies))
        metrics["peak_rss_mb"] = (statistics.median(c["peak_rss_mb"] for c in plain), "MB", len(plain))
    if args.trace:
        before = len(problems)
        metrics = layer_summary(traced_runs, plain, problems)
        failed += len(problems) - before
    metrics["host.calibration_ms"] = (statistics.median(calibration), "ms", len(calibration)) if calibration else (None, "ms", 0)

    for key, (value, unit, n) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"bench: {key:40s} {shown:>12} {unit:6s} (n={n})")
    print(f"bench: digest {reference} over {len(children)} runs; host calibration per run (ms): "
          + " ".join(f"{x:.1f}" for x in calibration))
    (workdir / "result.json").write_text(json.dumps(
        {"shape": shape, "children": [{k: v for k, v in c.items() if k not in ("latencies_ms", "csv")}
                                      for c in children], "problems": problems}, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    # The result carries the metrics BENCHMARK.json names for this mode;
    # the others above are printed for reading only.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and not problems and bool(children)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (None,))[0], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


COUNT_KEYS = ("calls", "lines_parsed", "records_selected")


def layer_summary(traced: list[dict], plain: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics: counts from the first traced run (they must
    repeat exactly), times and ratios as medians over traced runs."""
    if not traced:
        problems.append("no traced run finished")
        return {}
    out = {}
    for key, first in traced[0]["layers"].items():
        values = [c["layers"][key] for c in traced]
        is_count = key.endswith(COUNT_KEYS)
        unit = "count" if is_count else ("ratio" if key.endswith("hit_ratio") else "s")
        if first is None:
            out[key] = (None, unit, len(values))
        elif is_count:
            if len(set(values)) != 1:
                problems.append(f"{key} differs across traced runs: {values}")
            out[key] = (first, unit, len(values))
        else:
            out[key] = (statistics.median(values), unit, len(values))
    overhead = statistics.median(c["span_s"] for c in traced) - statistics.median(c["span_s"] for c in plain)
    out["trace.overhead_s"] = (overhead, "s", min(len(traced), len(plain)))
    return out


if __name__ == "__main__":
    sys.exit(main())
