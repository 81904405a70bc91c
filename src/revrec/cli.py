"""Command-line entry point.

Subcommands: validate (corpus diagnostics), recommend (rank reviewers for
one query), evaluate (score method selections under a sampling protocol),
and compare (evaluate across all 15 method combinations plus the
baseline). Exit codes: 0 success, 1 validation/config error, 2 I/O error.
All randomness is fixed by --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

from .corpus import ReviewRecord, load_corpus, read_record_file
from .embedding import load_embedding_table
from .errors import ConfigurationError, RevRecError
from .evaluation import EvalConfig, Sampling, run_eval
from .recommender import (
    REVFINDER,
    MethodId,
    _required,
    parse_method_selection,
    recommend,
    revfinder_recommend,
)
from .textprep import load_stopwords, preprocess_comment

ERROR_PREFIX = "revrec: error:"
WARNING_PREFIX = "revrec: warning:"


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"{WARNING_PREFIX} {message}", file=sys.stderr)


def _needs_table(args, selections) -> bool:
    """Whether some selection holds RC_CS, which fails here, before any
    file is read, when no --embeddings table is given."""
    if not any(s != REVFINDER and MethodId.RC_CS in s for s in selections):
        return False
    if args.embeddings is None:
        _required(None)  # raises recommend's own error for a missing table
    return True


def _load_stopwords(args) -> frozenset[str] | None:
    path = args.stopwords or os.environ.get("REVREC_STOPWORDS")
    return load_stopwords(path) if path else None


def _span(records) -> str:
    stamps = [r.timestamp for r in records]
    return f"{min(stamps):%Y/%m}-{max(stamps):%Y/%m}"


def cmd_validate(args) -> int:
    records, errors = read_record_file(args.corpus)
    if errors:
        for err in errors:
            print(f"{ERROR_PREFIX} {err}", file=sys.stderr)
        return 1
    if not records:
        print(f"{ERROR_PREFIX} {args.corpus}: empty corpus", file=sys.stderr)
        return 1
    by_project: dict[str, list] = {}
    for record in records:
        by_project.setdefault(record.project, []).append(record)
    for project in sorted(by_project):
        group = by_project[project]
        reviewers = {r.reviewer_id for r in group}
        print(
            f"project={project} records={len(group)} "
            f"reviewers={len(reviewers)} span={_span(group)}"
        )
    if len(by_project) > 1:
        print(f"total records={len(records)} projects={len(by_project)}")
    return 0


def cmd_recommend(args) -> int:
    # Every argument is checked before the first file is read.
    selection = parse_method_selection(args.methods)
    needs_table = _needs_table(args, (selection,))
    if not args.file_path.strip():
        raise ConfigurationError("--file-path must be non-empty")
    if args.top_n < 1:
        raise ConfigurationError(f"--top-n must be at least 1, got {args.top_n}")
    corpus = load_corpus(args.corpus, args.project)
    table = load_embedding_table(args.embeddings) if needs_table else None
    stopwords = _load_stopwords(args)
    query = ReviewRecord(
        change_id="query",
        patch_id="query",
        file_path=args.file_path,
        line=0,
        comment=args.comment,
        reviewer_id="",
        timestamp=datetime.fromtimestamp(0, tz=timezone.utc),
        project=corpus.project,
    )
    if selection != REVFINDER and not preprocess_comment(args.comment, stopwords):
        effects = [text for method, text in (
            (MethodId.RC_CS, "RC_CS scores are all zero"),
            (MethodId.RC_JC, "RC_JC matches only history comments that have none either"),
        ) if method in selection]
        if effects:
            warnings.warn("query comment has no usable tokens; " + "; ".join(effects))

    if selection == REVFINDER:
        ranking = revfinder_recommend(query, corpus.records)
    else:
        ranking = recommend(query, corpus.records, selection, table, stopwords)
    for rank, (reviewer, score) in enumerate(ranking.top(args.top_n), start=1):
        print(f"{rank}\t{reviewer}\t{score:.6f}")
    return 0


def _parse_methods_list(spec: str) -> tuple:
    selections = [parse_method_selection(part) for part in spec.split(",") if part.strip()]
    if not selections:
        raise ConfigurationError(f"no method selections in {spec!r}")
    return tuple(selections)


def compare_selections() -> tuple:
    """All 15 method combinations (4 singles, 6 pairs, 4 triples, the
    quadruple) plus the baseline."""
    selections = []
    for size in range(1, len(MethodId) + 1):
        for combo in combinations(MethodId, size):
            selections.append(frozenset(combo))
    selections.append(REVFINDER)
    return tuple(selections)


def _report_base(out: str) -> Path:
    """The --out path without its .csv or .txt suffix, if any."""
    base = Path(out)
    if base.name in ("", ".."):
        raise argparse.ArgumentTypeError(f"{out!r} names a directory, not a report path")
    if base.suffix in (".csv", ".txt"):
        base = base.with_suffix("")
    return base


def _write_report(report, base: Path) -> None:
    base.parent.mkdir(parents=True, exist_ok=True)
    # Appended, not swapped in: "exp.1" and "exp.2" must not share "exp.csv".
    csv_path = Path(f"{base}.csv")
    txt_path = Path(f"{base}.txt")
    csv_path.write_text(report.to_csv_text(), encoding="utf-8")
    txt_path.write_text(report.to_table_text(), encoding="utf-8")
    print(f"wrote {csv_path} and {txt_path}")


def _run_eval_command(args, methods: tuple) -> int:
    # Every argument is checked before the first file is read.
    config = EvalConfig(
        methods=methods,
        sampling=Sampling(args.sampling),
        k_values=tuple(args.k),
        test_fraction=args.test_fraction,
        steps=args.steps,
        rng_seed=args.seed,
    )
    needs_table = _needs_table(args, methods)
    corpus = load_corpus(args.corpus, args.project)
    table = load_embedding_table(args.embeddings) if needs_table else None
    stopwords = _load_stopwords(args)
    print(f"seed={config.rng_seed}")
    report = run_eval(corpus, config, table, stopwords, jobs=args.jobs)
    print(report.to_table_text(), end="")
    if args.out:
        _write_report(report, args.out)
    return 0


def cmd_evaluate(args) -> int:
    return _run_eval_command(args, _parse_methods_list(args.methods))


def cmd_compare(args) -> int:
    return _run_eval_command(args, compare_selections())


def _parse_k_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None


def _add_corpus_options(sub) -> None:
    sub.add_argument("--corpus", required=True, help="record file (JSON lines)")
    sub.add_argument("--project", default=None, help="project label to select from the file")


def _add_scoring_options(sub) -> None:
    sub.add_argument("--embeddings", default=None, help="word-vector file for RC_CS")
    sub.add_argument(
        "--stopwords",
        default=None,
        help="stop-word file, one word per line (default: env REVREC_STOPWORDS, "
        "else the bundled list)",
    )


def _add_eval_options(sub) -> None:
    sub.add_argument("--sampling", choices=["fixed", "incremental"], default="fixed")
    sub.add_argument("--test-fraction", type=float, default=0.10)
    sub.add_argument("--steps", type=int, default=4, help="incremental sampling steps")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed; fixes all randomness")
    sub.add_argument("--k", type=_parse_k_list, default=[1, 3, 5, 10], help="comma-separated ks")
    sub.add_argument("--out", type=_report_base, help="report path; writes <base>.csv and <base>.txt")
    sub.add_argument(
        "--jobs", type=int, default=1, help="accepted; evaluation runs serially (no effect)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revrec",
        description="Recommend code reviewers from review history and evaluate "
        "recommendation quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a record file and print its summary")
    p_validate.add_argument("--corpus", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_recommend = sub.add_parser("recommend", help="rank reviewers for one query change")
    _add_corpus_options(p_recommend)
    _add_scoring_options(p_recommend)
    p_recommend.add_argument("--file-path", required=True, help="query change file path")
    p_recommend.add_argument("--comment", required=True, help="query review comment (may be empty)")
    p_recommend.add_argument("--methods", default="FP_JC", help="'+'-joined methods or REVFINDER")
    p_recommend.add_argument("--top-n", type=int, default=10)
    p_recommend.set_defaults(func=cmd_recommend)

    p_evaluate = sub.add_parser("evaluate", help="score method selections on a corpus")
    _add_corpus_options(p_evaluate)
    _add_scoring_options(p_evaluate)
    p_evaluate.add_argument(
        "--methods",
        required=True,
        help="comma-separated selections, each '+'-joined, e.g. FP_JC+RC_JC,REVFINDER",
    )
    _add_eval_options(p_evaluate)
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_compare = sub.add_parser(
        "compare", help="evaluate all 15 method combinations plus the baseline"
    )
    _add_corpus_options(p_compare)
    _add_scoring_options(p_compare)
    _add_eval_options(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are config
        # errors here, and I/O failures keep 2.
        return 0 if exc.code == 0 else 1
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except RevRecError as err:
            print(f"{ERROR_PREFIX} {err}", file=sys.stderr)
            return 1
        except OSError as err:
            print(f"{ERROR_PREFIX} {err}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
