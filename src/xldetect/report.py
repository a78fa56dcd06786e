"""Structured experiment reports: key=value sections plus fenced CSV blocks.

The writer is canonical (ordering and float formatting are deterministic)
and the parser preserves everything, so parse -> serialize reproduces a
written report byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import formats
from .errors import FormatError
from .metrics import SCORES, MetricsReport

_HEADER = "XLREPORT 1"
_FENCE = "```"


@dataclass
class CsvBlock:
    name: str
    columns: list[str]
    rows: list[list[str]]

    def lines(self) -> list[str]:
        """The CSV layout: the column line, then each row, comma-joined."""
        return [",".join(fields) for fields in [self.columns, *self.rows]]


@dataclass
class Report:
    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    tables: dict[str, CsvBlock] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, str]:
        return self.sections.setdefault(name, {})

    def add_table(self, name: str, columns: list[str], rows: list[list[str]]) -> None:
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"table {name!r}: row width {len(row)} != {len(columns)}")
        self.tables[name] = CsvBlock(name, list(columns), [list(r) for r in rows])


def _breaks_line(text: str) -> bool:
    """Whether text would not read back as one line: read_report reads in
    universal-newline mode, so "\r" ends a line as "\n" does."""
    return "\n" in text or "\r" in text


def serialize_report(report: Report) -> str:
    parts = [_HEADER, ""]
    for name, kv in report.sections.items():
        parts.append(f"[{name}]")
        for key, value in kv.items():
            if "=" in key or _breaks_line(key) or _breaks_line(str(value)):
                raise ValueError(f"illegal report key/value under {name!r}: {key!r}")
            parts.append(f"{key}={value}")
        parts.append("")
    for block in report.tables.values():
        for cell in (c for row in [block.columns, *block.rows] for c in row):
            if "," in cell or _breaks_line(cell):
                raise ValueError(f"illegal cell in table {block.name!r}: {cell!r}")
        parts.append(f"{_FENCE}csv {block.name}")
        parts.extend(block.lines())
        parts.append(_FENCE)
        parts.append("")
    return "\n".join(parts)


def parse_report(text: str) -> Report:
    lines = text.split("\n") if text else []  # serialize_report's separator only
    if not lines or lines[0] != _HEADER:
        raise FormatError(f"not a report: first line is {lines[0]!r}" if lines else "empty report")
    report = Report()
    section: dict[str, str] | None = None
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line:
            i += 1
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in report.sections:
                raise FormatError(f"duplicate section {name!r}")
            section = report.section(name)
            i += 1
        elif line.startswith(_FENCE + "csv "):
            name = line[len(_FENCE) + 4 :]
            try:  # the line after the opening fence is the column line
                end = lines.index(_FENCE, i + 2)
            except ValueError:
                raise FormatError(f"unterminated csv block {name!r}") from None
            columns, *rows = [ln.split(",") for ln in lines[i + 1 : end]]
            report.add_table(name, columns, rows)
            i, section = end + 1, None
        elif "=" in line and section is not None:
            key, value = line.split("=", 1)
            section[key] = value
            i += 1
        else:
            raise FormatError(f"cannot parse report line {i + 1}: {line!r}")
    return report


def write_report(report: Report, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(report))


def read_report(path: str | Path) -> Report:
    art = formats.TextArtifact(path)
    try:
        return parse_report("\n".join(art.lines))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def metrics_section(metrics: MetricsReport) -> dict[str, str]:
    """Full-precision metric fields; F1 is recomputable from the counts."""
    return {
        "positive_class": metrics.positive_class,
        **{f"confusion.{k}": str(v) for k, v in asdict(metrics.confusion).items()},
        **{score: repr(getattr(metrics, score)) for score in SCORES},
        "flags": ",".join(metrics.flags),
    }

