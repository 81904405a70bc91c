"""One measured run of one workload, in a fresh process.

Usage: python3 child.py SPEC.json

The spec (written by run.py) names the generated files and the workload's
settings. The run loads the inputs (set-up, repeated and timed), times a
fixed calibration loop, then times one `revrec compare` report (run_eval
with all 16 selections, and rendering both report texts) and prints one
JSON object on its last stdout line. With ``"trace": true`` the public
functions of each revrec module are wrapped from here (see tracer.py) and
the per-layer figures are added to the result.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import revrec  # noqa: E402
import revrec.corpus  # noqa: E402
import revrec.evaluation  # noqa: E402
import revrec.recommender  # noqa: E402
import revrec.textprep  # noqa: E402
from revrec.cli import compare_selections  # noqa: E402

from tracer import Tracer  # noqa: E402

CALIBRATION_N = 400_000


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: a probe of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_N):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def timed_setup(spec: dict, repeats: int, load_corpus, load_table):
    """Load the corpus and the table `repeats` times; return the last
    load and the seconds each load took."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        corpus = load_corpus(spec["corpus"], spec["project"])
        table = load_table(spec["table"])
        times.append(time.perf_counter() - start)
    return corpus, table, times


def install(tracer: Tracer) -> dict[str, bool]:
    """Replace the module attributes the layers call each other through.
    Returns which wrapped names exist, so that a deleted function reads
    as absent rather than as zero calls."""
    present = {}

    def wrap(module, name, make):
        fn = getattr(module, name, None)
        present[f"{module.__name__}.{name}"] = fn is not None
        if fn is not None:
            setattr(module, name, make(fn))

    ev, rec = revrec.evaluation, revrec.recommender
    wrap(ev, "recommend", lambda f: tracer.timed("recommender.recommend", f, record=True, wait=True))
    wrap(ev, "revfinder_recommend", lambda f: tracer.timed("recommender.revfinder", f, record=True, wait=True))
    wrap(ev, "topk_accuracy", lambda f: tracer.timed("evaluation.metrics", f, record=True))
    wrap(ev, "mrr_at_k", lambda f: tracer.timed("evaluation.metrics", f, record=True))
    wrap(rec, "method_score", lambda f: tracer.timed(
        lambda *a, **k: "recommender.method_score." + (a[2] if len(a) > 2 else k["method"]).value, f))
    wrap(rec, "comment_vector", lambda f: tracer.timed("embedding.comment_vector", f))
    wrap(rec, "preprocess_comment", lambda f: tracer.counted("textprep.preprocess_comment", f))
    wrap(rec, "tokenize_path", lambda f: tracer.counted("textprep.tokenize_path", f))
    wrap(rec, "jaccard", lambda f: tracer.counted("similarity.jaccard", f))
    wrap(rec, "cosine", lambda f: tracer.counted("similarity.cosine", f))
    wrap(rec, "adapted_hamming_similarity", lambda f: tracer.counted("similarity.adapted_hamming", f))
    wrap(revrec.corpus, "parse_record_line", lambda f: tracer.counted("corpus.lines_parsed", f))
    return present


def hit_ratio(fn) -> float | None:
    """Hits over lookups of an lru_cache; 0.0 when it saw no lookup, None
    when the cache no longer exists."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    info = info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, present: dict[str, bool], lines_parsed: int | None, corpus_records: int) -> dict:
    summary, counts = tracer.summary(), tracer.counts()

    def span(name, key, module_attr):
        if not present.get(module_attr, True):
            return None
        return summary.get(name, {}).get(key, 0.0 if key != "calls" else 0)

    def count(name, module_attr):
        return counts.get(name, 0) if present.get(module_attr) else None

    ev, rec = "revrec.evaluation.", "revrec.recommender."
    out = {
        "corpus.load_s": summary["corpus.load"]["s"],
        "corpus.lines_parsed": lines_parsed,
        "corpus.records_selected": corpus_records,
        "embedding.load_table_s": summary["embedding.load_table"]["s"],
        "embedding.comment_vector.calls": span("embedding.comment_vector", "calls", rec + "comment_vector"),
        "embedding.comment_vector.s": span("embedding.comment_vector", "s", rec + "comment_vector"),
        "textprep.preprocess_comment.calls": count("textprep.preprocess_comment", rec + "preprocess_comment"),
        "textprep.preprocess_cache.hit_ratio": hit_ratio(getattr(revrec.textprep, "_preprocess_cached", None)),
        "textprep.tokenize_path.calls": count("textprep.tokenize_path", rec + "tokenize_path"),
        "textprep.tokenize_path.hit_ratio": hit_ratio(getattr(revrec.textprep, "tokenize_path", None)),
        "similarity.jaccard.calls": count("similarity.jaccard", rec + "jaccard"),
        "similarity.adapted_hamming.calls": count("similarity.adapted_hamming", rec + "adapted_hamming_similarity"),
        "similarity.cosine.calls": count("similarity.cosine", rec + "cosine"),
    }
    for method in ("FP_JC", "FP_HD", "RC_CS", "RC_JC"):
        for key in ("calls", "s"):
            out[f"recommender.method_score.{method}.{key}"] = span(
                f"recommender.method_score.{method}", key, rec + "method_score")
    for key in ("calls", "s", "self_s"):
        out[f"recommender.recommend.{key}"] = span("recommender.recommend", key, ev + "recommend")
    for key in ("calls", "s"):
        out[f"recommender.revfinder.{key}"] = span("recommender.revfinder", key, ev + "revfinder_recommend")
    out["recommender.path_overlap.hit_ratio"] = hit_ratio(getattr(revrec.recommender, "_path_overlap_scores", None))
    run_eval = summary.get("evaluation.run_eval")
    out["evaluation.run_eval.s"] = run_eval["s"] if run_eval else 0.0
    out["evaluation.run_eval.self_s"] = run_eval["self_s"] if run_eval else 0.0
    out["evaluation.metrics.s"] = span("evaluation.metrics", "s", ev + "topk_accuracy")
    out["evaluation.report_render_s"] = summary.get("evaluation.report_render", {}).get("s", 0.0)
    out["evaluation.ranking_wait_s"] = tracer.ranking_wait_s
    return out


def run_report(spec: dict, corpus, table, tracer: Tracer | None) -> dict:
    config = revrec.EvalConfig(
        methods=compare_selections(),
        sampling=revrec.Sampling(spec["sampling"]),
        test_fraction=spec["test_fraction"],
        steps=spec["steps"],
    )
    latencies: list[float] = []
    run_eval = revrec.run_eval
    if tracer is None:
        # Latency probe on the evaluation's rankings with one selection, so
        # that the samples come from one distribution.
        inner = revrec.evaluation.recommend
        probed = revrec.parse_method_selection(spec["latency_selection"])

        def probe(query, history, methods, *args, **kwargs):
            if methods != probed:
                return inner(query, history, methods, *args, **kwargs)
            start = time.perf_counter()
            try:
                return inner(query, history, methods, *args, **kwargs)
            finally:
                latencies.append((time.perf_counter() - start) * 1e3)

        revrec.evaluation.recommend = probe
    else:
        run_eval = tracer.timed("evaluation.run_eval", run_eval, record=True)

    def render(report):
        return report.to_csv_text(), report.to_table_text()

    if tracer is not None:
        render = tracer.timed("evaluation.report_render", render, record=True)

    start = time.perf_counter()
    report = run_eval(corpus, config, table, None, spec["jobs"])
    csv_text, table_text = render(report)
    span = time.perf_counter() - start
    digest = hashlib.sha256((csv_text + "\0" + table_text).encode("utf-8")).hexdigest()
    return {"span_s": span, "latencies_ms": latencies, "digest": digest, "csv": csv_text}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer() if spec["trace"] else None
    load_corpus, load_table = revrec.load_corpus, revrec.load_embedding_table
    present = {}
    if tracer is not None:
        present = install(tracer)
        load_corpus = tracer.timed("corpus.load", load_corpus, record=True)
        load_table = tracer.timed("embedding.load_table", load_table, record=True)
    corpus, table, setup_s = timed_setup(spec, spec["setup_repeats"], load_corpus, load_table)
    lines_parsed = None
    if present.get("revrec.corpus.parse_record_line"):
        lines_parsed = tracer.counts()["corpus.lines_parsed"]
    calibration = calibration_ms()
    result = run_report(spec, corpus, table, tracer)
    result.update(
        setup_s=setup_s,
        calibration_ms=calibration,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, present, lines_parsed, len(corpus.records))
        tracer.write(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
