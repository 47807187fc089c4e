"""Per-user and run-level report emission: structured JSON plus Markdown.

Reports are pure functions of the stage rows, keyed by stage file name,
and of the stages' stats; this module neither reads nor writes files.
``users.jsonl`` rows follow ``summaries.jsonl`` order. Human-readable
fractions are rounded to two decimals; the structured output keeps full precision.
"""

from __future__ import annotations

import hashlib
import re

from . import runfiles, stats
from .aggregation import NON_TEMPORAL_SECTIONS, TEMPORAL_SECTIONS, section_lines

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]")


def author_slug(author: str) -> str:
    """Filesystem-safe, collision-resistant file stem for an author."""
    slug = _SLUG_RE.sub("_", author)
    if slug != author or not slug:
        digest = hashlib.sha1(author.encode("utf-8")).hexdigest()[:8]
        slug = f"{slug or 'user'}-{digest}"
    return slug


def _fmt(fraction: float) -> str:
    return f"{fraction:.2f}"


def build_run_report(rows: dict, stage_stats: dict, aliases: dict[str, str]) -> dict:
    """Assemble all run-level statistics from the stage rows and stats."""
    feature_rows = [r for r in rows[runfiles.FEATURES] if r["status"] == "ok"]
    entry_frac, user_frac = stats.temporal_coverage(feature_rows, rows[runfiles.SUMMARIES])
    therapy_table = stats.therapy_frequency(rows[runfiles.RECOMMENDATIONS], aliases)
    return {
        "stage_counts": stage_stats,
        "severity": stats.severity_distribution(feature_rows),
        "temporal_coverage": {
            "entry_fraction_with_timeline": entry_frac,
            "user_fraction_with_temporal_summary": user_frac,
        },
        "therapy_frequency": [{"therapy": name, "users": count} for name, count in therapy_table],
        "relations": stats.relation_distribution(rows[runfiles.RELATIONS]),
        "conservation_violations": stats.conservation_violations(stage_stats),
    }


def _table(left: str, right: str, rows) -> list[str]:
    """A two-column Markdown table: header line, rule line, one line per (left, right) row."""
    return [f"| {left} | {right} |", "| --- | --- |", *(f"| {a} | {b} |" for a, b in rows)]


def _fractions(table: dict[str, float]) -> list[tuple[str, str]]:
    return [(label, _fmt(fraction)) for label, fraction in table.items()]


def _run_report_markdown(report: dict) -> str:
    severity = report["severity"]
    lines = ["# Run report", ""]
    lines.append("## Severity distribution")
    lines.append("")
    lines += _table("Entry band", "Fraction", _fractions(severity["entry_level"]))
    lines.append("")
    lines += _table("User band", "Fraction", _fractions(severity["user_level"]))
    excluded = severity["users_excluded_all_flagged"]
    lines.append("")
    lines.append(f"Users excluded from the user-level map (all entries flagged): {excluded}")
    lines.append("")
    coverage = report["temporal_coverage"]
    lines.append("## Temporal coverage")
    lines.append("")
    lines.append(
        f"- Entries with an in-text timeline: {_fmt(coverage['entry_fraction_with_timeline'])}"
    )
    lines.append(
        f"- Users with a temporal summary: {_fmt(coverage['user_fraction_with_temporal_summary'])}"
    )
    lines.append("")
    lines.append("## Therapy frequency")
    lines.append("")
    therapies = [(row["therapy"], row["users"]) for row in report["therapy_frequency"]]
    lines += _table("Therapy", "Users", therapies)
    lines.append("")
    lines.append("## Post-comment relations")
    lines.append("")
    lines.append(f"Related fraction: {_fmt(report['relations']['related_fraction'])} "
                 f"over {report['relations']['total_pairs']} pairs")
    lines.append("")
    lines += _table("Relation", "Fraction", _fractions(report["relations"]["fractions"]))
    lines.append("")
    lines.append("## Stage counts")
    lines.append("")
    for stage, counters in report["stage_counts"].items():
        summary = ", ".join(f"{key}={value}" for key, value in sorted(counters.items()))
        lines.append(f"- {stage}: {summary}")
    violations = report["conservation_violations"]
    lines.append("")
    lines.append("## Conservation")
    lines.append("")
    if violations:
        lines.extend(f"- VIOLATION: {v}" for v in violations)
    else:
        lines.append("- all stage dispositions conserved")
    return "\n".join(lines) + "\n"


def _user_payload(summary_row: dict, by_author: dict[str, dict[str, dict]]) -> dict:
    """The report of the author of one ``summaries.jsonl`` row."""
    author = summary_row["author"]
    diagnosis_row = by_author[runfiles.DIAGNOSIS].get(author)
    rec_row = by_author[runfiles.RECOMMENDATIONS].get(author)
    payload = {"author": author, "status": summary_row["status"]}
    if summary_row["status"] == "safety_excluded":
        # recommend writes an escalation row for every safety-excluded author
        payload["escalation"] = by_author[runfiles.RECOMMENDATIONS][author]["notice"]
        return payload
    payload["non_temporal_summary"] = summary_row["non_temporal"]
    payload["temporal_summary"] = summary_row["temporal"]
    payload["chronology"] = summary_row["chronology"]
    if diagnosis_row:
        payload["diagnosis"] = {
            key: diagnosis_row.get(key)
            for key in ("status", "text", "word_count", "over_budget", "failure")
        }
    if rec_row:
        payload["recommendations"] = {
            key: rec_row.get(key)
            for key in ("status", "therapies", "behavior_changes", "warnings", "failure")
        }
    return payload


def _user_markdown(payload: dict) -> str:
    lines = [f"# User profile: {payload['author']}", ""]
    if payload["status"] == "safety_excluded":
        lines.append("## Safety escalation")
        lines.append("")
        lines.append(payload["escalation"])
        lines.append("")
        return "\n".join(lines) + "\n"

    non_temporal = payload.get("non_temporal_summary")
    lines.append("## Non-temporal summary")
    lines.append("")
    if non_temporal:
        lines.extend(f"- {line}" for line in section_lines(non_temporal, NON_TEMPORAL_SECTIONS))
    else:
        lines.append(f"unavailable ({payload['status']})")
    lines.append("")

    lines.append("## Temporal summary")
    lines.append("")
    temporal = payload.get("temporal_summary")
    if temporal:
        lines.extend(f"- {line}" for line in section_lines(temporal, TEMPORAL_SECTIONS))
    else:
        lines.append("none")
    lines.append("")

    chronology = payload.get("chronology") or []
    lines.append("## Chronology")
    lines.append("")
    if chronology:
        for event in chronology:
            lines.append(f"- {event['date']} | {event['timeline']} | {event['content']}")
    else:
        lines.append("no entries with temporal references")
    lines.append("")

    diagnosis = payload.get("diagnosis")
    lines.append("## Diagnosis summary")
    lines.append("")
    if diagnosis and diagnosis.get("status") == "ok":
        lines.append(diagnosis["text"])
        lines.append("")
        over = " (over budget)" if diagnosis["over_budget"] else ""
        lines.append(f"Word count: {diagnosis['word_count']}{over}")
    else:
        lines.append("unavailable")
    lines.append("")

    recommendations = payload.get("recommendations")
    lines.append("## Recommendations")
    lines.append("")
    if recommendations and recommendations.get("status") == "ok":
        lines.append("Therapies:")
        for index, therapy in enumerate(recommendations["therapies"], start=1):
            lines.append(f"{index}. {therapy}")
        lines.append("")
        lines.append("Behavior changes:")
        for index, change in enumerate(recommendations["behavior_changes"], start=1):
            lines.append(f"{index}. {change}")
        for warning in recommendations.get("warnings") or []:
            lines.append(f"- note: {warning}")
    else:
        lines.append("unavailable")
    lines.append("")
    return "\n".join(lines) + "\n"


def emit_reports(rows: dict, stage_stats: dict, aliases: dict[str, str]) -> dict[str, object]:
    """Per-user reports and the run report, keyed by path in the run directory."""
    # built from the reversed rows, so each author maps to their first row
    by_author = {
        name: {row["author"]: row for row in reversed(rows[name])}
        for name in (runfiles.DIAGNOSIS, runfiles.RECOMMENDATIONS)
    }
    payloads = [_user_payload(row, by_author) for row in rows[runfiles.SUMMARIES]]
    files: dict[str, object] = {f"{runfiles.REPORTS_DIR}/users.jsonl": payloads}
    for payload in payloads:
        slug = author_slug(payload["author"])
        files[f"{runfiles.REPORTS_DIR}/users/{slug}.md"] = _user_markdown(payload)
    report = build_run_report(rows, stage_stats, aliases)
    files[f"{runfiles.REPORTS_DIR}/run_report.json"] = report
    files[f"{runfiles.REPORTS_DIR}/run_report.md"] = _run_report_markdown(report)
    return files
