"""End-to-end command-line behavior: exit codes, output shapes, and
determinism of written reports."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
from conftest import late_owner_records, make_record, planted_records, random_records, random_table
from revrec import cli
from revrec.corpus import Corpus, save_corpus
from revrec.embedding import load_embedding_table, save_embedding_table
from revrec.recommender import parse_method_selection, recommend

ROOT = Path(__file__).resolve().parent.parent

GOOD = {
    "change_id": "I1", "patch_id": "3", "file_path": "nova/db/api.py",
    "line": 12, "comment": "this breaks the layering", "reviewer_id": "rev1",
    "timestamp": "2014-05-01T10:00:00Z", "project": "nova",
}


@pytest.fixture()
def planted_file(tmp_path):
    records = sorted(planted_records(), key=lambda r: r.sort_key())
    path = tmp_path / "planted.jsonl"
    save_corpus(Corpus(project="planted", records=tuple(records)), path)
    return str(path)


@pytest.fixture()
def late_owner_file(tmp_path):
    records = sorted(late_owner_records(), key=lambda r: r.sort_key())
    path = tmp_path / "late.jsonl"
    save_corpus(Corpus(project="lateowner", records=tuple(records)), path)
    return str(path)


@pytest.fixture()
def synth_file(tmp_path):
    records = random_records(random.Random(4), 20)
    path = tmp_path / "synth.jsonl"
    save_corpus(Corpus(project="synth", records=tuple(records)), path)
    return str(path)


@pytest.fixture()
def vectors_file(tmp_path):
    path = tmp_path / "vectors.txt"
    save_embedding_table(random_table(random.Random(6)), path)
    return str(path)


class TestValidate:
    def test_valid_file_summary(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        lines = [
            json.dumps({**GOOD, "change_id": f"I{i}", "reviewer_id": f"rev{i % 2}"})
            for i in range(3)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["validate", "--corpus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records=3" in out and "reviewers=2" in out
        assert "span=2014/05-2014/05" in out

    def test_bad_timestamp_cites_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(GOOD) + "\n" + json.dumps({**GOOD, "timestamp": "noon"}) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["validate", "--corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("revrec: error:")
        assert "line 2" in err and "timestamp" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert cli.main(["validate", "--corpus", str(tmp_path / "nope.jsonl")]) == 2
        assert "revrec: error:" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert cli.main(["validate", "--corpus", str(path)]) == 1

    def test_multi_project_totals(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(GOOD), json.dumps({**GOOD, "project": "qt", "change_id": "I2"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["validate", "--corpus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "project=nova records=1" in out
        assert "project=qt records=1" in out
        assert "total records=2 projects=2" in out

    def test_path_without_tokens_cites_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(GOOD) + "\n" + json.dumps({**GOOD, "file_path": "__"}) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["validate", "--corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "file_path" in err and "no tokens" in err

    def test_lone_surrogate_cites_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(GOOD) + "\n" + json.dumps({**GOOD, "comment": "a\ud800b"}) + "\n",
            encoding="utf-8",
        )
        assert cli.main(["validate", "--corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "comment" in err and "surrogate" in err

    def test_unknown_key_warns_but_passes(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({**GOOD, "vote": 2}) + "\n", encoding="utf-8")
        assert cli.main(["validate", "--corpus", str(path)]) == 0
        assert "revrec: warning:" in capsys.readouterr().err


class TestRecommend:
    def test_planted_query_ranks_owner_first(self, planted_file, capsys):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/socket/linkzz.py",
            "--comment", "socket buffer latency",
            "--methods", "FP_JC+RC_JC",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("1\talice\t")

    def test_top_n_beyond_reviewer_count_prints_all(self, planted_file, capsys):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "db/store/rowsaa.py", "--comment", "schema",
            "--top-n", "50",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # only two reviewers exist
        assert lines[0].split("\t")[1] == "bob"

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_is_config_error(self, planted_file, capsys, top_n):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "db/store/rowsaa.py", "--comment", "schema",
            "--top-n", top_n,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top-n" in captured.err

    def test_empty_comment_with_comment_method(self, planted_file, capsys):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/socket/linkaa.py",
            "--comment", "42 971",  # all noise
            "--methods", "RC_JC",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "revrec: warning:" in captured.err
        lines = captured.out.splitlines()
        reviewers = [line.split("\t")[1] for line in lines]
        scores = {line.split("\t")[2] for line in lines}
        assert reviewers == sorted(reviewers)
        assert scores == {"0.000000"}

    @pytest.mark.parametrize("methods, effects", [
        ("RC_JC", ["RC_JC matches only history comments that have none either"]),
        ("FP_JC+RC_CS+RC_JC", ["RC_CS scores are all zero",
                               "RC_JC matches only history comments that have none either"]),
    ])
    def test_tokenless_query_comment_warning_is_true(self, tmp_path, vectors_file, capsys,
                                                     methods, effects):
        # "42 !!" passes validate but has no usable tokens, so RC_JC scores
        # it 1.0 against the tokenless query comment "the 7".
        records = sorted(planted_records(), key=lambda r: r.sort_key())
        records.append(replace(records[-1], change_id="odd", comment="42 !!", reviewer_id="carol"))
        corpus = Corpus(project="planted", records=tuple(records))
        path = tmp_path / "odd.jsonl"
        save_corpus(corpus, path)
        args = ["recommend", "--corpus", str(path), "--file-path", "net/socket/linkaa.py",
                "--comment", "the 7", "--methods", methods, "--embeddings", vectors_file]
        assert cli.main(["validate", "--corpus", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        warning = "query comment has no usable tokens; " + "; ".join(effects)
        assert captured.err == f"revrec: warning: {warning}\n"
        query = make_record(change_id="query", patch_id="query", file_path="net/socket/linkaa.py",
                            comment="the 7", project="planted")
        ranking = recommend(query, corpus.records, parse_method_selection(methods),
                            load_embedding_table(vectors_file))
        assert captured.out.splitlines() == [
            f"{rank}\t{reviewer}\t{score:.6f}"
            for rank, (reviewer, score) in enumerate(ranking.top(10), start=1)
        ]
        if methods == "RC_JC":
            assert captured.out.splitlines()[0] == "1\tcarol\t1.000000"

    def test_revfinder_selection(self, planted_file, capsys):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/socket/linkab.py", "--comment", "x",
            "--methods", "REVFINDER",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].split("\t")[1] == "alice"

    def test_unknown_method_is_config_error(self, planted_file, capsys):
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/a.py", "--comment", "x",
            "--methods", "FP_ZZ",
        ])
        assert code == 1
        assert "revrec: error:" in capsys.readouterr().err

    def test_missing_embeddings_unread_without_rc_cs(self, planted_file, tmp_path, capsys):
        args = ["recommend", "--corpus", planted_file, "--file-path", "a/b.py",
                "--comment", "x", "--embeddings", str(tmp_path / "missing.txt")]
        assert cli.main(args + ["--methods", "FP_JC+RC_JC"]) == 0
        assert cli.main(args + ["--methods", "REVFINDER"]) == 0
        assert cli.main(args + ["--methods", "FP_JC+RC_CS"]) == 2

    @pytest.mark.parametrize("comment", ["socket", "the 7"], ids=["tokens", "no-tokens"])
    def test_rc_cs_without_embeddings(self, planted_file, capsys, comment):
        # Fails before any output, and before warning that the comment has
        # no usable tokens.
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/a.py", "--comment", comment,
            "--methods", "RC_CS",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "--embeddings" in err

    def test_custom_stopwords_via_env(self, planted_file, tmp_path, capsys, monkeypatch):
        stop = tmp_path / "stop.txt"
        stop.write_text("socket\nbuffer\nlatency\n", encoding="utf-8")
        monkeypatch.setenv("REVREC_STOPWORDS", str(stop))
        code = cli.main([
            "recommend", "--corpus", planted_file,
            "--file-path", "net/socket/linkaa.py",
            "--comment", "socket buffer latency",  # all stopped now
            "--methods", "RC_JC",
        ])
        assert code == 0
        assert "no usable tokens" in capsys.readouterr().err

    def test_stopwords_flag_wins_over_env(self, planted_file, tmp_path, capsys, monkeypatch):
        # The env list stops every comment word, the flag's list none of
        # them: the flag's list is the one used.
        env_list, flag_list = tmp_path / "env.txt", tmp_path / "flag.txt"
        env_list.write_text("socket\nbuffer\nlatency\n", encoding="utf-8")
        flag_list.write_text("unrelated\n", encoding="utf-8")
        monkeypatch.setenv("REVREC_STOPWORDS", str(env_list))
        args = ["recommend", "--corpus", planted_file, "--file-path", "net/socket/linkaa.py",
                "--comment", "socket buffer latency", "--methods", "RC_JC"]
        assert cli.main(args + ["--stopwords", str(flag_list)]) == 0
        flagged = capsys.readouterr()
        assert "no usable tokens" not in flagged.err
        monkeypatch.delenv("REVREC_STOPWORDS")
        assert cli.main(args) == 0
        assert capsys.readouterr() == flagged
        monkeypatch.setenv("REVREC_STOPWORDS", str(env_list))
        assert cli.main(args) == 0
        assert "no usable tokens" in capsys.readouterr().err


class TestEvaluate:
    def test_fixed_report_row_count(self, synth_file, tmp_path, capsys):
        out = tmp_path / "report"
        code = cli.main([
            "evaluate", "--corpus", synth_file, "--methods", "FP_JC",
            "--sampling", "fixed", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("seed=7\n")
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        data = [l for l in csv_lines if l and not l.startswith("#")]
        assert data[0] == "method,k,topk_accuracy,mrr"
        assert len(data) == 1 + 4  # header + k in {1,3,5,10}
        assert all(line.startswith("FP_JC,") for line in data[1:])
        assert (tmp_path / "report.txt").exists()

    def test_incremental_combo_vs_baseline_matches_oracle(
        self, late_owner_file, tmp_path, capsys
    ):
        out = tmp_path / "pair"
        code = cli.main([
            "evaluate", "--corpus", late_owner_file,
            "--methods", "FP_JC+FP_HD+RC_JC,REVFINDER",
            "--sampling", "incremental", "--steps", "4",
            "--test-fraction", "0.10", "--k", "1,5,10", "--out", str(out),
        ])
        assert code == 0
        records = sorted(late_owner_records(), key=lambda r: r.sort_key())
        want = oracle.incremental_eval(
            records,
            {"FP_JC+FP_HD+RC_JC": {"FP_JC", "FP_HD", "RC_JC"}, "REVFINDER": "REVFINDER"},
            (1, 5, 10), 0.10, 4, stopwords=oracle.stopword_list(),
        )
        data = [
            l for l in (tmp_path / "pair.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("method,")
        ]
        assert len(data) == 6  # 2 selections x 3 ks
        for line in data:
            method, k, acc, mrr = line.split(",")
            wacc, wmrr = want[(method, int(k))]
            assert abs(float(acc) - wacc) < 1e-12
            assert abs(float(mrr) - wmrr) < 1e-12

    def test_repeated_runs_byte_identical(self, synth_file, tmp_path, capsys):
        args = [
            "evaluate", "--corpus", synth_file, "--methods", "FP_JC+RC_JC,REVFINDER",
            "--sampling", "fixed", "--seed", "3", "--k", "1,5",
        ]
        outs = []
        for name in ("a", "b"):
            assert cli.main(args + ["--out", str(tmp_path / name)]) == 0
            outs.append((
                (tmp_path / f"{name}.csv").read_bytes(),
                (tmp_path / f"{name}.txt").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_dotted_out_names_keep_their_own_reports(self, synth_file, tmp_path, capsys):
        args = ["evaluate", "--corpus", synth_file, "--methods", "FP_JC", "--k", "1"]
        runs = tmp_path / "runs"
        for name, seed in (("exp.1", "1"), ("exp.2", "2"), ("run.csv", "1")):
            assert cli.main(args + ["--seed", seed, "--out", str(runs / name)]) == 0
        assert sorted(p.name for p in runs.iterdir()) == [
            "exp.1.csv", "exp.1.txt", "exp.2.csv", "exp.2.txt", "run.csv", "run.txt",
        ]
        assert "# seed=1" in (runs / "exp.1.csv").read_text()
        assert "# seed=2" in (runs / "exp.2.csv").read_text()
        assert cli.main(args + ["--out", str(runs / "..")]) == 1
        assert "names a directory" in capsys.readouterr().err

    def test_jobs_flag_keeps_reports_identical(self, synth_file, tmp_path, capsys):
        base = [
            "evaluate", "--corpus", synth_file, "--methods", "FP_JC+FP_HD",
            "--seed", "5", "--k", "1,3",
        ]
        assert cli.main(base + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        assert cli.main(base + ["--jobs", "3", "--out", str(tmp_path / "par")]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()
        assert (tmp_path / "serial.txt").read_bytes() == (tmp_path / "par.txt").read_bytes()

    @pytest.mark.parametrize("command", [["evaluate", "--methods", "FP_JC,RC_CS"], ["compare"]],
                             ids=["evaluate", "compare"])
    def test_rc_cs_needs_embeddings_flag(self, synth_file, capsys, command):
        # Fails before any output, the seed line included.
        code = cli.main(command + ["--corpus", synth_file])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "--embeddings" in err

    def test_rc_cs_with_embeddings(self, synth_file, vectors_file, tmp_path, capsys):
        code = cli.main([
            "evaluate", "--corpus", synth_file, "--methods", "RC_CS",
            "--embeddings", vectors_file, "--k", "1", "--out", str(tmp_path / "cs"),
        ])
        assert code == 0

    def test_embeddings_read_only_for_rc_cs(self, synth_file, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        code = cli.main([
            "evaluate", "--corpus", synth_file, "--methods", "FP_JC,REVFINDER",
            "--embeddings", missing, "--k", "1",
        ])
        assert code == 0
        code = cli.main([
            "evaluate", "--corpus", synth_file, "--methods", "FP_JC,RC_CS",
            "--embeddings", missing, "--k", "1",
        ])
        assert code == 2

    def test_near_one_test_fraction_fails_fast(self, tmp_path):
        # The minimum corpus size is bisected, not found by counting up to
        # about 1 / (1 - f).
        path = tmp_path / "big.jsonl"
        records = tuple(random_records(random.Random(8), 1000))
        save_corpus(Corpus(project="synth", records=records), path)
        proc = subprocess.run(
            [sys.executable, "-m", "revrec.cli", "evaluate", "--corpus", str(path),
             "--methods", "FP_JC", "--test-fraction", "0.9999999999"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 1
        assert "needs at least 9999989636" in proc.stderr

    def test_multi_project_requires_choice(self, tmp_path, capsys):
        path = tmp_path / "multi.jsonl"
        lines = []
        for i in range(12):
            lines.append(json.dumps({
                **GOOD, "change_id": f"I{i}", "project": "nova" if i % 2 else "qt",
                "timestamp": f"2014-05-{i + 1:02d}T10:00:00Z",
            }))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["evaluate", "--corpus", str(path), "--methods", "FP_JC"])
        assert code == 1
        assert "--project" in capsys.readouterr().err
        code = cli.main([
            "evaluate", "--corpus", str(path), "--methods", "FP_JC",
            "--project", "nova", "--test-fraction", "0.34", "--k", "1",
        ])
        assert code == 0


class TestCompare:
    def test_all_selections_plus_baseline(self, synth_file, vectors_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli.main([
            "compare", "--corpus", synth_file, "--embeddings", vectors_file,
            "--k", "1,5", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        data = [
            l for l in (tmp_path / "cmp.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("method,")
        ]
        assert len(data) == 16 * 2  # 15 selections + baseline, two ks
        methods = {line.split(",")[0] for line in data}
        assert "REVFINDER" in methods
        assert "FP_JC+FP_HD+RC_CS+RC_JC" in methods
        assert len(methods) == 16

    @pytest.mark.parametrize("sampling", ["fixed", "incremental"])
    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path, sampling):
        # PYTHONHASHSEED changes every str hash, and with it the iteration
        # order of str-keyed sets, and of dicts filled from them.
        corpus_path = tmp_path / "synth.jsonl"
        records = tuple(random_records(random.Random(12), 120))
        save_corpus(Corpus(project="synth", records=records), corpus_path)
        vectors_path = tmp_path / "vectors.txt"
        save_embedding_table(random_table(random.Random(13)), vectors_path)
        reports = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "revrec.cli", "compare", "--corpus", str(corpus_path),
                 "--embeddings", str(vectors_path), "--sampling", sampling, "--seed", "7",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out.with_suffix(".csv").read_bytes(),
                            out.with_suffix(".txt").read_bytes()))
        assert reports[0] == reports[1]

    def test_runs_import_no_numpy_module_beyond_the_cli_s(self, tmp_path):
        # A numpy submodule imported lazily on first use (numpy.ma, say)
        # costs every fresh process that time, as a cold benchmark run does.
        corpus_path, vectors_path = tmp_path / "synth.jsonl", tmp_path / "vectors.txt"
        save_corpus(Corpus(project="synth", records=tuple(random_records(random.Random(14), 120))),
                    corpus_path)
        save_embedding_table(random_table(random.Random(15)), vectors_path)
        script = (
            "import json, sys\n"
            "from revrec import cli\n"
            "before = {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
            "for sampling in ('fixed', 'incremental'):\n"
            f"    assert cli.main(['compare', '--corpus', {str(corpus_path)!r}, '--embeddings',"
            f" {str(vectors_path)!r}, '--sampling', sampling]) == 0\n"
            "print(json.dumps(sorted({m for m in sys.modules if m.split('.')[0] == 'numpy'} - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_always_reads_embeddings(self, synth_file, tmp_path, capsys):
        code = cli.main([
            "compare", "--corpus", synth_file, "--embeddings", str(tmp_path / "missing.txt"),
        ])
        assert code == 2


class TestMainPlumbing:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_no_command_is_config_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["validate", "--corpus", "x", "--bogus"]) == 1

    def test_compare_selections_shape(self):
        selections = cli.compare_selections()
        assert len(selections) == 16
        assert selections[-1] == "REVFINDER"
        sizes = sorted(len(s) for s in selections[:-1])
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_package_exports_resolve(self):
        import revrec

        missing = [name for name in revrec.__all__ if not hasattr(revrec, name)]
        assert not missing
        namespace = {}
        exec("from revrec import *", namespace)
        assert set(revrec.__all__) <= set(namespace)
