"""Static analysis for the reproduction's determinism & API contracts.

Every guarantee the harness sells — byte-identical golden tables,
parallel ``sweep()`` == serial, cache hits == recompute — rests on
coding rules (seeded RNG only, no wall clock in sim paths, ordered
iteration, complete cache keys) that property tests can only catch
after the fact.  This package enforces them at diff time: an AST-based
lint engine with PASCAL-specific rules (PAS001-PAS008), inline
suppressions, and text/JSON/GitHub output.

Entry points:

* CLI — ``python -m repro.harness lint [PATHS...]`` (or
  ``python -m repro.analysis``);
* library — :func:`repro.analysis.engine.lint_paths`.

Rule reference: ``docs/lint_rules.md``.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import LintReport, lint_paths
from repro.analysis.rules import RULES, FileContext, LintRule, register_rule

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "LintRule",
    "RULES",
    "lint_paths",
    "register_rule",
]
