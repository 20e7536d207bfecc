"""The lint engine: file discovery, suppression, rule dispatch.

:func:`lint_paths` is the library entry point (the CLI in
:mod:`repro.analysis.cli` is a thin shell around it):

1. expand the given paths into a sorted list of ``.py`` files —
   directories recurse (skipping :data:`DEFAULT_EXCLUDES`, e.g. the
   deliberately-bad lint fixtures), explicitly named files are always
   linted (that is how the CI smoke proves the gate goes red);
2. parse each file once, run every registered per-file rule whose scope
   matches, then the project-level rules over the whole set;
3. drop findings carrying an inline ``# lint-ignore[: CODE[,CODE]]``
   suppression (same line, or a standalone comment on the line above).

The walk order, rule order and diagnostic sort are all deterministic —
the linter holds itself to the contracts it enforces.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import RULES, FileContext, LintRule

# Import for the side effect of registering the project-level rule.
from repro.analysis import contracts  # noqa: F401  (registers PAS005)

#: Directory names never descended into during discovery.
SKIP_DIRNAMES = frozenset({"__pycache__", ".git", ".hypothesis", ".venv"})

#: Relative paths excluded from *directory expansion* (explicitly named
#: files are still linted): the corpus of deliberately-bad rule fixtures.
DEFAULT_EXCLUDES = ("tests/fixtures/lint",)

#: ``# lint-ignore`` (all codes) or ``# lint-ignore: PAS003, PAS004``;
#: trailing prose after the code list is welcome (justify the ignore!).
_IGNORE_RE = re.compile(
    r"#\s*lint-ignore\b"
    r"(?::\s*(?P<codes>[A-Z0-9_]+(?:\s*,\s*[A-Z0-9_]+)*))?"
)

#: Pseudo-code attached to unparseable files.
PARSE_ERROR_CODE = "PAS000"


@dataclass
class LintReport:
    """The outcome of one lint run."""

    #: Findings no inline suppression covers (the gate fails on these).
    findings: list[Diagnostic] = field(default_factory=list)
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(
    paths: Sequence[str | Path],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
    root: Path | None = None,
) -> list[Path]:
    """Expand paths into a deterministic, deduplicated ``.py`` file list.

    Directories recurse in sorted order; ``excludes`` (relative-path
    prefixes) and :data:`SKIP_DIRNAMES` apply only during that
    expansion, so naming a file (or an excluded directory) explicitly
    always lints it.
    """
    root = (root or Path.cwd()).resolve()
    exclude_prefixes = tuple(str(Path(e)) for e in excludes)
    seen: set[Path] = set()
    ordered: list[Path] = []

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            ordered.append(path)

    def excluded(path: Path) -> bool:
        rel = _relpath(path, root)
        return any(
            rel == prefix or rel.startswith(prefix + "/")
            for prefix in (p.replace("\\", "/") for p in exclude_prefixes)
        )

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            # Naming an excluded directory explicitly lints it; the
            # exclusion list only prunes *recursion* from above.
            prune = not excluded(path)
            for candidate in sorted(path.rglob("*.py")):
                if SKIP_DIRNAMES & set(candidate.parts):
                    continue
                if prune and excluded(candidate):
                    continue
                add(candidate)
        elif path.suffix == ".py":
            add(path)
    return ordered


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _suppressions(lines: Sequence[str]) -> dict[int, frozenset[str] | None]:
    """Line number -> suppressed codes (None = all codes).

    A trailing ``# lint-ignore: PAS003`` suppresses its own line; a
    standalone ``# lint-ignore`` comment line suppresses the next line.
    """
    table: dict[int, frozenset[str] | None] = {}

    def merge(lineno: int, codes: frozenset[str] | None) -> None:
        existing = table.get(lineno, frozenset())
        if codes is None or existing is None:
            table[lineno] = None
        else:
            table[lineno] = existing | codes

    for idx, line in enumerate(lines, start=1):
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        raw = match.group("codes")
        codes = (
            frozenset(c.strip() for c in raw.split(",") if c.strip())
            if raw
            else None
        )
        target = idx + 1 if line.lstrip().startswith("#") else idx
        merge(target, codes)
    return table


def _suppressed(
    diag: Diagnostic, table: dict[int, frozenset[str] | None]
) -> bool:
    codes = table.get(diag.line, frozenset())
    return codes is None or diag.code in codes


def load_context(path: Path, root: Path) -> FileContext | Diagnostic:
    """Parse one file; a syntax error becomes a PAS000 diagnostic."""
    relpath = _relpath(path, root)
    try:
        source = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return Diagnostic(
            path=relpath,
            line=1,
            col=1,
            code=PARSE_ERROR_CODE,
            message=f"cannot read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Diagnostic(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code=PARSE_ERROR_CODE,
            message=f"syntax error: {exc.msg}",
        )
    return FileContext(
        path=path,
        relpath=relpath,
        tree=tree,
        lines=tuple(source.splitlines()),
    )


def lint_paths(
    paths: Sequence[str | Path],
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
    rules: Iterable[LintRule] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Run the registered rules over ``paths``, minus inline suppressions."""
    root = (root or Path.cwd()).resolve()
    active = list(rules) if rules is not None else [
        RULES[code] for code in sorted(RULES)
    ]
    per_file = [rule for rule in active if not rule.project_level]
    project = [rule for rule in active if rule.project_level]

    contexts: dict[str, FileContext] = {}
    tables: dict[str, dict[int, frozenset[str] | None]] = {}
    findings: list[Diagnostic] = []
    report = LintReport()

    for path in iter_python_files(paths, excludes=excludes, root=root):
        loaded = load_context(path, root)
        report.n_files += 1
        if isinstance(loaded, Diagnostic):
            findings.append(loaded)
            continue
        contexts[loaded.relpath] = loaded
        tables[loaded.relpath] = _suppressions(loaded.lines)
        for rule in per_file:
            if rule.applies_to(loaded):
                findings.extend(rule.check(loaded))

    for rule in project:
        findings.extend(rule.check_project(contexts))

    report.findings = [
        diag
        for diag in sorted(findings)
        if not _suppressed(diag, tables.get(diag.path, {}))
    ]
    return report
