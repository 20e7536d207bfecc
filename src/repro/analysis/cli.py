"""The ``lint`` command-line front end.

Reached as ``python -m repro.harness lint ...`` (the harness dispatches
here) or directly as ``python -m repro.analysis``::

    python -m repro.harness lint                      # src + tests
    python -m repro.harness lint src/repro/core       # a subtree
    python -m repro.harness lint --format github      # CI annotations

Exit codes: 0 = clean, 1 = findings, 2 = usage error.  A deliberate
exception is suppressed inline, with its justification, by a
``# lint-ignore: CODE`` comment.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import FORMATS
from repro.analysis.engine import lint_paths

#: Default lint targets when no paths are given.
DEFAULT_PATHS = ("src", "tests")


def _lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness lint",
        description=(
            "AST-based determinism & contract linter (rules PAS001-PAS008; "
            "see docs/lint_rules.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=f"files or directories to lint (default: "
        f"{' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="report format (default: text; `github` emits workflow "
        "annotations)",
    )
    return parser


def run_lint(argv: Sequence[str]) -> int:
    """The `lint` subcommand; returns the process exit status."""
    args = _lint_parser().parse_args(list(argv))
    paths = args.paths or list(DEFAULT_PATHS)
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(
            f"lint: no such path(s): {', '.join(missing)}", file=sys.stderr
        )
        return 2

    report = lint_paths(paths)
    print(FORMATS[args.format](report.findings, report.n_files))
    return 0 if report.ok else 1
