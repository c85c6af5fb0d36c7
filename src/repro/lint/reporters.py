"""Deterministic text and JSON reporters.

Both formats render *only* from the (already sorted) findings list --
no timestamps, no absolute paths, no environment details -- so the
same tree always produces byte-identical reports.  The JSON form is
the golden-fixture format used by ``tests/lint``.
"""

from __future__ import annotations

import json

from repro.lint.findings import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: list[Finding]) -> str:
    """One line per finding plus a summary line."""
    lines = [finding.render() for finding in sorted(findings)]
    files = len({finding.path for finding in findings})
    lines.append(f"{len(findings)} finding(s) in {files} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Canonical JSON: sorted findings, per-rule totals, no timestamps."""
    ordered = sorted(findings)
    by_rule: dict[str, int] = {}
    for finding in ordered:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": 1,
        "findings": [finding.to_dict() for finding in ordered],
        "summary": {
            "total": len(ordered),
            "files": len({finding.path for finding in ordered}),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
