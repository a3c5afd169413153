"""Report formatting: bound reports and tables as md, csv or json text.

Every output is deterministic: the same reports give byte-identical text.
The CLI registers this module lazily, so a command that prints no report
never compiles it.
"""

from __future__ import annotations

from . import bounds

_QUANTITY_LABEL = {"cat": "cat", "tc": "TC", "eqtc": "TC_G"}


def _json_text(doc) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _report_dict(report: bounds.BoundReport) -> dict:
    return {
        "space": report.space,
        "quantity": report.quantity,
        "n": report.n,
        "group": report.group,
        "lower": report.lower,
        "upper": report.upper,
        "verifiedLower": report.verified_lower,
        "inconsistent": report.inconsistent,
        "trace": [
            {
                "rule": t.rule,
                "source": t.source,
                "bound": t.bound,
                "value": t.value,
                "status": t.status,
            }
            for t in report.trace
        ],
    }


_MAIN_HEADER = "| space | n | quantity | lower | upper |\n|---|---|---|---|---|"
_TRACE_HEADER = "| rule | bound | value | status |\n|---|---|---|---|"
_CSV_HEADER = ("space", "n", "quantity", "group", "lower", "upper",
               "rule", "bound", "value", "status")


def _main_row(report: bounds.BoundReport) -> str:
    label = _QUANTITY_LABEL[report.quantity]
    return f"| {report.space} | {report.n} | {label} | {report.lower} | {report.upper} |"


def _csv_text(reports) -> str:
    """The header and one row per trace entry, quoted where a field holds
    a comma (space strings such as rh:5,3 do)."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in reports:
        label = _QUANTITY_LABEL[r.quantity]
        base = [r.space, r.n, label, r.group or "", r.lower, r.upper]
        writer.writerows(base + [t.rule, t.bound, t.value, t.status] for t in r.trace)
    return out.getvalue()


def emit_report(report: bounds.BoundReport, fmt: str = "md") -> str:
    if fmt == "md":
        lines = [_MAIN_HEADER, _main_row(report), "", _TRACE_HEADER]
        for t in report.trace:
            lines.append(f"| {t.rule} | {t.bound} | {t.value} | {t.status} |")
        if report.inconsistent:
            lines.append("")
            lines.append("**inconsistent: lower exceeds upper**")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text([report])
    if fmt == "json":
        return _json_text(_report_dict(report))
    raise ValueError(f"unknown format {fmt!r}")


def emit_table(reports, fmt: str = "md") -> str:
    reports = sorted(reports, key=lambda r: (r.space, r.n, r.quantity))
    if fmt == "md":
        lines = [_MAIN_HEADER] + [_main_row(r) for r in reports]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(reports)
    if fmt == "json":
        return _json_text([_report_dict(r) for r in reports])
    raise ValueError(f"unknown format {fmt!r}")
