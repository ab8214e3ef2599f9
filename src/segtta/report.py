"""Result tables in CSV and markdown.

Column order is fixed: IoU, Dice, HD95 for two-class runs; mIoU, aIoU,
mDice, aDice, HD95 for multi-class. Overlap metrics are rendered as
percentages with two decimals, HD95 in millimeters; delta columns against
the reference variant carry an explicit sign. CSV and markdown contain the
same formatted values, so the two formats never disagree numerically.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .core import writing
from .errors import ConfigError
from .pipeline import RunResult

FORMATS = ("csv", "markdown")


def _metric_columns(num_classes: int):
    """(column header, MetricReport/aggregate field) pairs in table order."""
    if num_classes == 2:
        return [("IoU", "aiou"), ("Dice", "adice"), ("HD95", "hd95")]
    return [
        ("mIoU", "miou"),
        ("aIoU", "aiou"),
        ("mDice", "mdice"),
        ("aDice", "adice"),
        ("HD95", "hd95"),
    ]


def _fmt(field: str, value, sign: str = "") -> str:
    """One metric cell: blank for None, HD95 in mm, an overlap metric in
    percent; a delta passes ``sign="+"``."""
    if value is None:
        return ""
    return f"{value if field == 'hd95' else value * 100:{sign}.2f}"


def _row(columns, scope: str, case: str, variant: str, values: dict,
         reference: dict, undefined: str, fg) -> dict:
    """One table row as a dict of formatted strings. ``values`` and
    ``reference`` map metric fields to numbers; a missing value is blank,
    and so is a delta without a reference value."""
    row = {"scope": scope, "case": case, "variant": variant}
    for header, field in columns:
        value, ref = values.get(field), reference.get(field)
        row[header] = _fmt(field, value)
        row[f"d{header}"] = _fmt(
            field, None if value is None or ref is None else value - ref, "+")
    row["HD95_undefined"] = undefined
    row["FG_mm3"] = f"{fg:.1f}" if fg is not None else ""
    return row


def _rows(result: RunResult):
    """All table rows as dicts of already formatted strings."""
    columns = _metric_columns(result.num_classes)
    reference = result.aggregates.get(result.reference, {}) if result.reference else {}
    rows = []
    for variant in result.variants:
        agg = result.aggregates.get(variant)
        if agg is not None:
            rows.append(_row(
                columns, "mean", "", variant, agg,
                {} if variant == result.reference else reference,
                str(agg.get("hd95_undefined", "")), agg.get("fg_mm3"),
            ))
    for case_id in sorted(result.per_case):
        for variant in result.variants:
            if variant not in result.per_case[case_id]:
                continue
            report = result.per_case[case_id][variant]
            values = ({**report.to_dict(), "hd95": report.hd95_mm}
                      if report is not None else {})
            rows.append(_row(columns, "case", case_id, variant, values, {}, "",
                             result.fg_volume.get(case_id, {}).get(variant)))
    return rows


def _headers(result: RunResult):
    names = [header for header, _ in _metric_columns(result.num_classes)]
    return ["scope", "case", "variant", *names, *(f"d{name}" for name in names),
            "HD95_undefined", "FG_mm3"]


def render_csv(result: RunResult) -> str:
    headers = _headers(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in _rows(result):
        writer.writerow([row[h] for h in headers])
    return buf.getvalue()


def render_markdown(result: RunResult) -> str:
    headers = _headers(result)
    rows = _rows(result)
    lines = [f"# {result.dataset}", ""]
    if result.reference:
        lines += [f"Deltas are taken against the `{result.reference}` row.", ""]
    mean_rows = [r for r in rows if r["scope"] == "mean"]
    case_rows = [r for r in rows if r["scope"] == "case"]
    for title, section, cols in (
        ("Aggregate (mean over cases)", mean_rows, headers[2:]),
        ("Per-case", case_rows, headers[1:]),
    ):
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in section:
            lines.append("| " + " | ".join(row[c] for c in cols) + " |")
        lines.append("")
    if result.failures:
        lines.append("## Failures")
        lines.append("")
        for case_id, message in result.failures:
            lines.append(f"- `{case_id}`: {message}")
        lines.append("")
    return "\n".join(lines)


def render(result: RunResult, format: str = "markdown") -> str:
    if format not in FORMATS:
        raise ConfigError(f"format={format!r} not in {FORMATS}")
    return render_csv(result) if format == "csv" else render_markdown(result)


def emit_report(result: RunResult, format: str, path) -> Path:
    """Render and write a report file, through
    :func:`~segtta.core.writing`; returns the path written."""
    with writing(path) as f:
        f.write(render(result, format).encode())
    return Path(path)
