"""Diagnostic records and the three lint output formats.

A :class:`Diagnostic` is one finding: ``file:line:col: CODE message``.
Diagnostics order by location (then code), so every report renders in a
stable, diff-friendly order regardless of rule execution order — the same
determinism contract the rules themselves enforce.

Three renderers:

* ``text`` — the classic compiler format, one finding per line;
* ``json`` — a versioned document for tooling;
* ``github`` — GitHub Actions workflow commands (``::error file=...``),
  so CI findings annotate the diff inline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, anchored to a source location."""

    #: POSIX-style path, relative to the lint invocation's root.
    path: str
    line: int
    col: int
    #: Rule code (``PAS001`` ... ``PAS008``; ``PAS000`` = unparseable file).
    code: str
    message: str
    #: The stripped source line, for human context.
    #: Excluded from ordering/equality: two findings at one location with
    #: equal messages are the same finding.
    snippet: str = field(default="", compare=False)

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def github(self) -> str:
        message = self.message.replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{message}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }


def render_text(findings: list[Diagnostic], n_files: int) -> str:
    """The human-facing report: findings, then a one-line summary."""
    lines = [diag.text() for diag in findings]
    lines.append(f"{len(findings)} finding(s) in {n_files} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Diagnostic], n_files: int) -> str:
    """Versioned machine-readable report (``pascal-lint`` format)."""
    doc = {
        "format": "pascal-lint",
        "version": 2,
        "n_files": n_files,
        "diagnostics": [d.as_dict() for d in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_github(findings: list[Diagnostic], n_files: int) -> str:
    """GitHub Actions annotations: errors for findings, a notice summary."""
    lines = [diag.github() for diag in findings]
    lines.append(
        f"::notice title=pascal-lint::{len(findings)} finding(s) in "
        f"{n_files} file(s)"
    )
    return "\n".join(lines)


#: ``--format`` choice -> renderer.
FORMATS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
