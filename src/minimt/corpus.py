"""Parallel-data model and bookkeeping: JSONL/TSV IO, exact-pair dedup,
direction reversal, and split sizes.

JSONL is the canonical on-disk format (fields src_lang, tgt_lang, src, tgt,
origin); TSV is ingestion-only. Noise flags are test-only metadata and are
never serialized.
"""

from __future__ import annotations

import csv
import json
import os
import unicodedata
from dataclasses import dataclass, field

from .model import check_counts
from .vocab import validate_lang_code

@dataclass(frozen=True)
class ParallelRecord:
    """One bitext pair. flags carry injected-noise ground truth for tests and
    are invisible to serialization and to the filter pipeline."""

    src_lang: str
    tgt_lang: str
    src: str
    tgt: str
    origin: str = ""
    flags: frozenset = frozenset()

    def __post_init__(self):
        validate_lang_code(self.src_lang)
        validate_lang_code(self.tgt_lang)
        object.__setattr__(self, "src", unicodedata.normalize("NFC", self.src))
        object.__setattr__(self, "tgt", unicodedata.normalize("NFC", self.tgt))
        object.__setattr__(self, "flags", frozenset(self.flags))

    @property
    def direction(self) -> str:
        return f"{self.src_lang}-{self.tgt_lang}"


def dedup_key(record: ParallelRecord) -> tuple[str, str]:
    """Exact (src, tgt) pair after NFC + trim; used at every dedup point."""
    return (record.src.strip(), record.tgt.strip())


def split_key(record: ParallelRecord) -> tuple[str, str, str, str]:
    return (record.src_lang, record.tgt_lang, record.src, record.tgt)


@dataclass
class ReadReport:
    path: str
    n_lines: int = 0
    errors: list = field(default_factory=list)  # (line_number, message)

    @property
    def n_malformed(self) -> int:
        return len(self.errors)


class CorpusFormatError(Exception):
    pass


_REQUIRED_FIELDS = ("src_lang", "tgt_lang", "src", "tgt")


def _record_from_fields(fields: dict) -> ParallelRecord:
    return ParallelRecord(
        src_lang=fields["src_lang"], tgt_lang=fields["tgt_lang"],
        src=fields["src"], tgt=fields["tgt"], origin=fields.get("origin", ""),
    )


def read_corpus(path, format: str = "jsonl"):
    """Streaming read. Malformed lines go into the report; more than 10%
    malformed (on a nonempty file) is a hard error.

    Returns (records, ReadReport).
    """
    path = os.fspath(path)
    report = ReadReport(path=path)
    records: list[ParallelRecord] = []
    with open(path, encoding="utf-8", newline="") as f:
        if format == "jsonl":
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                report.n_lines += 1
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("line is not a JSON object")
                    missing = [k for k in _REQUIRED_FIELDS if k not in obj]
                    if missing:
                        raise ValueError(f"missing fields: {missing}")
                    records.append(_record_from_fields(obj))
                except (json.JSONDecodeError, ValueError, TypeError) as e:
                    report.errors.append((lineno, str(e)))
        elif format == "tsv":
            # Excel-style quoting: a field wrapped in double quotes may
            # contain tabs and doubled quotes
            reader = csv.reader(f, delimiter="\t", quotechar='"')
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                report.n_lines += 1
                try:
                    if len(row) not in (4, 5):
                        raise ValueError(f"expected 4 or 5 columns, got {len(row)}")
                    fields = dict(zip(_REQUIRED_FIELDS, row[:4]))
                    if len(row) == 5:
                        fields["origin"] = row[4]
                    records.append(_record_from_fields(fields))
                except ValueError as e:
                    report.errors.append((reader.line_num, str(e)))
        else:
            raise ValueError(f"unknown corpus format {format!r}")

    if report.n_lines and report.n_malformed / report.n_lines > 0.10:
        raise CorpusFormatError(
            f"{path}: {report.n_malformed}/{report.n_lines} lines malformed (> 10%)")
    return records, report


def record_to_json(record: ParallelRecord) -> str:
    obj = {
        "src_lang": record.src_lang, "tgt_lang": record.tgt_lang,
        "src": record.src, "tgt": record.tgt, "origin": record.origin,
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def corpus_jsonl(records) -> str:
    """Canonical JSONL: one record_to_json line per record."""
    return "".join(record_to_json(r) + "\n" for r in records)


@dataclass(frozen=True)
class SplitSpec:
    """train/dev/devtest sizes. dev doubles as validation and the layer
    importance set; devtest is held out for final evaluation."""

    train_size: int = 2000
    dev_size: int = 200
    devtest_size: int = 200

    def __post_init__(self):
        check_counts(self, "train_size", "dev_size", "devtest_size", minimum=0)
