"""Record parsing, corpus loading, and round-trip fidelity."""

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import make_record, random_records
from revrec.corpus import (
    Corpus,
    ReviewRecord,
    distinct_reviewers,
    format_timestamp,
    load_corpus,
    parse_record_line,
    parse_timestamp,
    read_record_file,
    save_corpus,
)
from revrec.errors import ConfigurationError, EmptyCorpusError, ValidationError

GOOD = {
    "change_id": "I1", "patch_id": "3", "file_path": "nova/db/api.py",
    "line": 12, "comment": "this breaks the layering", "reviewer_id": "rev1",
    "timestamp": "2014-05-01T10:00:00Z", "project": "nova",
}


def _write_lines(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


class TestParseTimestamp:
    def test_zulu_suffix(self):
        assert parse_timestamp("2014-05-01T10:00:00Z") == datetime(
            2014, 5, 1, 10, tzinfo=timezone.utc
        )

    def test_naive_read_as_utc(self):
        assert parse_timestamp("2014-05-01T10:00:00").utcoffset() == timedelta(0)

    def test_offset_normalized_to_utc(self):
        parsed = parse_timestamp("2014-05-01T12:00:00+02:00")
        assert parsed == datetime(2014, 5, 1, 10, tzinfo=timezone.utc)

    def test_round_trip(self):
        stamp = parse_timestamp("2014-05-01T10:00:00Z")
        assert parse_timestamp(format_timestamp(stamp)) == stamp
        assert format_timestamp(stamp).endswith("Z")

    @pytest.mark.parametrize("text,want", [
        ("2014-05-01", datetime(2014, 5, 1, tzinfo=timezone.utc)),
        ("2014-05-01T10:00", datetime(2014, 5, 1, 10, tzinfo=timezone.utc)),
        ("2014-05-01 10:00:07", datetime(2014, 5, 1, 10, 0, 7, tzinfo=timezone.utc)),
        ("2014-05-01T10:00:07.1+00:00", datetime(2014, 5, 1, 10, 0, 7, 100000, tzinfo=timezone.utc)),
        ("2014-05-01T10:00:07.123456Z", datetime(2014, 5, 1, 10, 0, 7, 123456, tzinfo=timezone.utc)),
        ("2014-05-01T10:00z", datetime(2014, 5, 1, 10, tzinfo=timezone.utc)),
        ("2014-05-01T12:30+02:30", datetime(2014, 5, 1, 10, tzinfo=timezone.utc)),
        ("2014-05-01T10:00:00-01:00", datetime(2014, 5, 1, 11, tzinfo=timezone.utc)),
        ("2014-05-01T00:30-23:59", datetime(2014, 5, 2, 0, 29, tzinfo=timezone.utc)),
        ("  2014-05-01T10:00Z\n", datetime(2014, 5, 1, 10, tzinfo=timezone.utc)),
    ])
    def test_accepted_forms(self, text, want):
        parsed = parse_timestamp(text)
        assert parsed == want
        assert parsed.tzinfo is timezone.utc

    @pytest.mark.parametrize("text", [
        "", "yesterday", "2014-5-1", "2014/05/01", "20200102T030405", "2020-W01-1",
        "2020-001", "2014-05-01t10:00", "2014-05-01T10", "2014-05-01T10:00:07.1234567",
        "2014-05-01T10:00:07,5", "2014-05-01T10:00.5", "2014-05-01Z",
        "2014-05-01T10:00 Z", "2014-05-01T10:00+0200", "2014-05-01T10:00+02",
        "2014-05-01T10:00+02:00:30", "2014-05-01T10:00+02:60", "2014-05-01T10:00+24:00",
        "2014-13-01", "2014-02-30", "2014-05-01T24:00", "2014-05-01T10:60",
        "2014-05-01T10:00:60", "\u0662\u0660\u0661\u0664-05-01",
        "9999-12-31T23:00-05:00", "0001-01-01T00:30+01:00",
    ])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)
        with pytest.raises(ValidationError) as exc:
            parse_record_line(json.dumps({**GOOD, "timestamp": text}), 7)
        assert exc.value.field == "timestamp"
        assert exc.value.line_no == 7
        assert str(exc.value).startswith("line 7: timestamp: ")


class TestParseRecordLine:
    def test_valid(self):
        record = parse_record_line(json.dumps(GOOD), 1)
        assert record.change_id == "I1"
        assert record.line == 12
        assert record.timestamp.tzinfo is not None

    def test_missing_reviewer_id_names_field_and_line(self):
        bad = {k: v for k, v in GOOD.items() if k != "reviewer_id"}
        with pytest.raises(ValidationError) as exc:
            parse_record_line(json.dumps(bad), 7)
        assert "reviewer_id" in str(exc.value)
        assert "line 7" in str(exc.value)
        assert exc.value.field == "reviewer_id"
        assert exc.value.line_no == 7

    def test_invalid_json_cites_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_record_line("{not json", 3)
        assert exc.value.line_no == 3

    def test_unknown_keys_warn(self):
        with pytest.warns(UserWarning, match="unknown keys"):
            record = parse_record_line(json.dumps({**GOOD, "extra": 1}), 1)
        assert record.change_id == "I1"

    def test_bad_timestamp(self):
        with pytest.raises(ValidationError) as exc:
            parse_record_line(json.dumps({**GOOD, "timestamp": "yesterday"}), 2)
        assert exc.value.field == "timestamp"

    @pytest.mark.parametrize("field,value", [
        ("line", "12"), ("line", True), ("line", -1),
        ("change_id", 5), ("comment", "   "), ("file_path", ""),
        ("file_path", "a// b"), ("file_path", "__"), ("file_path", "."),
        ("file_path", "-"), ("reviewer_id", ""),
    ] + [(field, "a\ud800b") for field in
         ("change_id", "patch_id", "file_path", "comment", "reviewer_id", "project")])
    def test_field_violations(self, field, value):
        with pytest.raises(ValidationError) as exc:
            parse_record_line(json.dumps({**GOOD, field: value}), 1)
        assert exc.value.field == field


class TestLoadCorpus:
    def test_sorted_chronologically(self, tmp_path):
        objs = [
            {**GOOD, "change_id": "I2013", "timestamp": "2013-06-01T00:00:00Z"},
            {**GOOD, "change_id": "I2014", "timestamp": "2014-06-01T00:00:00Z"},
            {**GOOD, "change_id": "I2012", "timestamp": "2012-06-01T00:00:00Z"},
        ]
        path = tmp_path / "c.jsonl"
        _write_lines(path, objs)
        corpus = load_corpus(path, "nova")
        assert len(corpus) == 3
        assert [r.change_id for r in corpus.records] == ["I2012", "I2013", "I2014"]

    def test_tie_break_is_deterministic(self, tmp_path):
        objs = [
            {**GOOD, "change_id": "B"},
            {**GOOD, "change_id": "A"},
        ]
        path = tmp_path / "c.jsonl"
        _write_lines(path, objs)
        assert [r.change_id for r in load_corpus(path, "nova").records] == ["A", "B"]

    def test_other_projects_skipped(self, tmp_path):
        objs = [GOOD, {**GOOD, "project": "qt", "change_id": "I9"}]
        path = tmp_path / "c.jsonl"
        _write_lines(path, objs)
        corpus = load_corpus(path, "nova")
        assert len(corpus) == 1 and corpus.project == "nova"

    def test_unknown_project_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [GOOD])
        with pytest.raises(EmptyCorpusError):
            load_corpus(path, "neutron")

    def test_first_error_raised(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(GOOD) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path, "nova")
        assert exc.value.line_no == 2

    def test_single_project_selected_without_name(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [GOOD, {**GOOD, "change_id": "I2"}])
        corpus = load_corpus(path)
        assert corpus.project == "nova" and len(corpus) == 2

    def test_several_projects_need_a_name(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [GOOD, {**GOOD, "project": "qt", "change_id": "I9"}])
        with pytest.raises(ConfigurationError, match="nova, qt"):
            load_corpus(path)

    def test_empty_file_without_name(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_corpus(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.jsonl", "nova")


class TestReadRecordFile:
    def test_blank_lines_warn_and_skip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(GOOD) + "\n\n" + json.dumps(GOOD) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="blank line"):
            records, errors = read_record_file(path)
        assert len(records) == 2 and not errors

    def test_errors_collected_per_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "bad\n" + json.dumps(GOOD) + "\n" + json.dumps({**GOOD, "line": -2}) + "\n",
            encoding="utf-8",
        )
        records, errors = read_record_file(path)
        assert len(records) == 1
        assert [e.line_no for e in errors] == [1, 3]


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = random.Random(5)
        records = random_records(rng, 30, project="rt")
        corpus = Corpus(project="rt", records=tuple(records))
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        again = load_corpus(path, "rt")
        assert again.records == corpus.records

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_survive(self, tmp_path, sep):
        records = [
            make_record(change_id="c0", comment=f"first{sep}second", minute=0),
            make_record(change_id="c1", file_path=f"src/a{sep}b.py", minute=1),
            make_record(change_id="c2", comment=f"{sep}lead and trail{sep}", minute=2),
        ]
        corpus = Corpus(project="test", records=tuple(records))
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        assert sep in path.read_text(encoding="utf-8")  # written raw, not escaped
        assert load_corpus(path, "test").records == corpus.records

    def test_unencodable_value_leaves_target_unchanged(self, tmp_path):
        path = tmp_path / "out.jsonl"
        save_corpus(Corpus(project="test", records=(make_record(),)), path)
        before = path.read_bytes()
        records = (make_record(change_id="c0"), make_record(change_id="c1", comment="a\ud800b"))
        with pytest.raises(UnicodeEncodeError):
            save_corpus(Corpus(project="test", records=records), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize("field, value", [
        ("comment", " \t"), ("file_path", "__"), ("line", -1), ("reviewer_id", ""),
    ])
    def test_record_that_cannot_load_back_leaves_target_unchanged(self, tmp_path, field, value):
        path = tmp_path / "out.jsonl"
        save_corpus(Corpus(project="test", records=(make_record(),)), path)
        before = path.read_bytes()
        records = (make_record(change_id="c0"), make_record(change_id="c1", **{field: value}))
        with pytest.raises(ValidationError) as err:
            save_corpus(Corpus(project="test", records=records), path)
        assert err.value.field == field
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_random_unicode_save_load_identity(self, tmp_path):
        # Astral characters, combining marks, the three separators that
        # str.splitlines breaks on but a record file does not, quotes,
        # backslashes, and escapes JSON must spell.
        rng = random.Random(7)
        odd = ["😀", "\U0001d518", "\u0301", "e\u0308", "\u2028", "\u2029", "\u0085",
               '"', "'", "\\", "\t", "\n", "\r\n", " ", "é", "ß", "\x00", "\u200b"]
        plain = list("aZ9._-")

        def text(extra=()):
            chars = [rng.choice(odd + plain + list(extra)) for _ in range(rng.randint(0, 8))]
            chars.insert(rng.randint(0, len(chars)), rng.choice("xY😀é"))
            return "".join(chars)

        for trial in range(30):
            project = text()
            records = [
                ReviewRecord(
                    change_id=text(), patch_id=text(),
                    file_path="/".join(text() for _ in range(rng.randint(1, 3))),
                    line=rng.randint(0, 10**6), comment=text("/"), reviewer_id=text("/"),
                    timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc)
                    + timedelta(seconds=rng.randint(0, 10**8), microseconds=rng.randint(0, 3)),
                    project=project,
                )
                for _ in range(rng.randint(1, 12))
            ]
            corpus = Corpus(project=project, records=tuple(sorted(records, key=ReviewRecord.sort_key)))
            path = tmp_path / f"out{trial}.jsonl"
            save_corpus(corpus, path)
            assert load_corpus(path, project) == corpus
            assert load_corpus(path) == corpus

    def test_multiset_preserved(self, tmp_path):
        records = [make_record(change_id=f"c{i}", reviewer_id=f"r{i % 3}", minute=i)
                   for i in range(9)]
        corpus = Corpus(project="test", records=tuple(records))
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        again = load_corpus(path, "test")
        assert sorted(r.sort_key() for r in again.records) == sorted(
            r.sort_key() for r in records
        )


class TestDistinctReviewers:
    def test_set_semantics(self):
        records = [make_record(change_id=f"c{i}", reviewer_id=r, minute=i)
                   for i, r in enumerate(["a", "b", "a"])]
        corpus = Corpus(project="test", records=tuple(records))
        assert distinct_reviewers(corpus) == {"a", "b"}

    def test_bounded_by_record_count(self):
        rng = random.Random(7)
        records = random_records(rng, 25)
        corpus = Corpus(project="synth", records=tuple(records))
        assert 1 <= len(distinct_reviewers(corpus)) <= len(corpus)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            distinct_reviewers(Corpus(project="test", records=()))


def test_record_is_hashable_and_frozen():
    record = make_record()
    assert hash(record) == hash(make_record())
    with pytest.raises(AttributeError):
        record.line = 5
