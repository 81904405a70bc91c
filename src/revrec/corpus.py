"""Review-record data model and corpus loading.

A corpus file is UTF-8 JSON Lines: one flat object per line with keys
exactly ``change_id``, ``patch_id``, ``file_path``, ``line``, ``comment``,
``reviewer_id``, ``timestamp`` (the ISO-8601 subset that
``parse_timestamp`` documents), ``project``. Unknown keys are ignored with
a warning. A loaded Corpus is immutable and chronologically sorted, so it
is safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .errors import ConfigurationError, EmptyCorpusError, ValidationError
from .fileio import write_replacing
from .textprep import tokenize_path

RECORD_FIELDS = (
    "change_id",
    "patch_id",
    "file_path",
    "line",
    "comment",
    "reviewer_id",
    "timestamp",
    "project",
)


@dataclass(frozen=True)
class ReviewRecord:
    """One reviewed code change: a file path, a review comment, and who
    reviewed it. ``line`` is informational only; no similarity method
    reads it, but it is kept for round-trip fidelity."""

    change_id: str
    patch_id: str
    file_path: str
    line: int
    comment: str
    reviewer_id: str
    timestamp: datetime
    project: str

    def sort_key(self) -> tuple:
        return (self.timestamp, self.change_id, self.patch_id, self.reviewer_id)


@dataclass(frozen=True)
class Corpus:
    """Chronologically ordered review records for one project."""

    project: str
    records: tuple[ReviewRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


def validate_record(record: ReviewRecord) -> None:
    """Raise ValidationError (naming the field) if a record invariant fails."""
    # FP_JC scores path tokens, so a path without any (``__``, ``.``) is
    # rejected at load time rather than midway through an evaluation.
    tokenize_path(record.file_path)
    if any(not seg.strip() for seg in record.file_path.split("/")):
        raise ValidationError(
            f"file_path {record.file_path!r} has a whitespace-only segment", field="file_path"
        )
    if not record.comment.strip():
        raise ValidationError("comment must be non-empty after trimming", field="comment")
    if not record.reviewer_id:
        raise ValidationError("reviewer_id must be non-empty", field="reviewer_id")
    if record.line < 0:
        raise ValidationError(f"line must be non-negative, got {record.line}", field="line")


TIMESTAMP_FORM = "YYYY-MM-DD[(T| )HH:MM[:SS[.f{1,6}]][Z|z|+HH:MM|-HH:MM]]"
_TIMESTAMP_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})"
    r"(?:[T ](\d{2}):(\d{2})(?::(\d{2})(?:\.(\d{1,6}))?)?"
    r"(?:[Zz]|([+-])(\d{2}):([0-5]\d))?)?",
    re.ASCII,
)


def parse_timestamp(value: str) -> datetime:
    """Parse one instant of the ISO-8601 subset ``TIMESTAMP_FORM``, in UTC.

    Surrounding whitespace is ignored; a missing time is midnight and a
    missing zone is UTC. Anything else raises ValueError, whatever
    ``datetime.fromisoformat`` accepts on the running Python.
    """
    match = _TIMESTAMP_RE.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"expected {TIMESTAMP_FORM}, got {value!r}")
    year, month, day, hour, minute, second, fraction, sign, off_h, off_m = match.groups()
    zone = timezone.utc
    try:
        if sign:
            offset = timedelta(hours=int(off_h), minutes=int(off_m))
            zone = timezone(-offset if sign == "-" else offset)
        parsed = datetime(
            int(year), int(month), int(day), int(hour or 0), int(minute or 0),
            int(second or 0), int(fraction.ljust(6, "0")) if fraction else 0, tzinfo=zone,
        )
        return parsed.astimezone(timezone.utc)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{value!r} is out of range ({err})") from None


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_record_line(line: str, line_no: int) -> ReviewRecord:
    """Parse and validate one record line; errors carry the line number."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValidationError(f"line {line_no}: invalid JSON ({err.msg})", line_no=line_no) from err
    if not isinstance(raw, dict):
        raise ValidationError(f"line {line_no}: record is not an object", line_no=line_no)

    unknown = sorted(set(raw) - set(RECORD_FIELDS))
    if unknown:
        warnings.warn(f"line {line_no}: ignoring unknown keys {unknown}", stacklevel=2)

    def fail(field: str, message: str) -> ValidationError:
        return ValidationError(f"line {line_no}: {field}: {message}", line_no=line_no, field=field)

    values = {}
    for field in RECORD_FIELDS:
        if field not in raw:
            raise fail(field, "missing")
        values[field] = raw[field]
    for field in ("change_id", "patch_id", "file_path", "comment", "reviewer_id", "project"):
        if not isinstance(values[field], str):
            raise fail(field, f"expected a string, got {type(values[field]).__name__}")
        # JSON escapes can spell a lone surrogate, which no UTF-8 file
        # (and so no saved corpus) can hold.
        try:
            values[field].encode("utf-8")
        except UnicodeEncodeError:
            raise fail(field, "holds a lone surrogate, which UTF-8 cannot encode") from None
    if not isinstance(values["line"], int) or isinstance(values["line"], bool):
        raise fail("line", f"expected an integer, got {values['line']!r}")
    if not isinstance(values["timestamp"], str):
        raise fail("timestamp", f"expected a string of the form {TIMESTAMP_FORM}")
    try:
        values["timestamp"] = parse_timestamp(values["timestamp"])
    except ValueError as err:
        raise fail("timestamp", str(err)) from err

    record = ReviewRecord(**values)
    try:
        validate_record(record)
    except ValidationError as err:
        raise fail(err.field or "record", str(err)) from err
    return record


def read_record_file(path: str | Path) -> tuple[list[ReviewRecord], list[ValidationError]]:
    """Read every line, collecting parsed records and per-line errors.

    Missing files raise the underlying OSError. Blank lines are ignored
    with a warning. Lines end at line feeds and carriage returns only, so
    U+2028, U+2029 and U+0085 may appear raw inside a record, as
    ``save_corpus`` writes them.
    """
    records: list[ReviewRecord] = []
    errors: list[ValidationError] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                warnings.warn(f"line {line_no}: blank line ignored", stacklevel=2)
                continue
            try:
                records.append(parse_record_line(line, line_no))
            except ValidationError as err:
                errors.append(err)
    return records, errors


def load_corpus(path: str | Path, project: str | None = None) -> Corpus:
    """Load one project's records from a record file, sorted
    chronologically (ties broken by change_id, patch_id, reviewer_id).

    Records for other projects in the same file are skipped. With no
    ``project``, a file holding one project selects it, and a file holding
    several raises ConfigurationError naming them. Raises the first
    per-line ValidationError, or EmptyCorpusError when no record of the
    project survives.
    """
    records, errors = read_record_file(path)
    if errors:
        raise errors[0]
    if project is None:
        projects = sorted({r.project for r in records})
        if not projects:
            raise EmptyCorpusError(f"no records in {path}")
        if len(projects) > 1:
            raise ConfigurationError(
                f"{path} contains projects {', '.join(projects)}; select one with --project"
            )
        project = projects[0]
    selected = sorted((r for r in records if r.project == project), key=ReviewRecord.sort_key)
    if not selected:
        raise EmptyCorpusError(f"no records for project {project!r} in {path}")
    return Corpus(project=project, records=tuple(selected))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back out in the record file format. A value that
    UTF-8 cannot encode (a lone surrogate) raises UnicodeEncodeError and
    leaves ``path`` as it was."""
    with write_replacing(path) as fh:
        for record in corpus.records:
            payload = {field: getattr(record, field) for field in RECORD_FIELDS}
            payload["timestamp"] = format_timestamp(record.timestamp)
            fh.write(json.dumps(payload, ensure_ascii=False) + "\n")


def distinct_reviewers(corpus: Corpus) -> set[str]:
    """The deduplicated set of reviewer ids in the corpus."""
    if not corpus.records:
        raise EmptyCorpusError(f"corpus for project {corpus.project!r} has no records")
    return {record.reviewer_id for record in corpus.records}
