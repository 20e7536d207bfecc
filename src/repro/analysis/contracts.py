"""PAS005: cache-key completeness (the stale-cache-hit bug class).

The on-disk result store addresses each simulation cell by a hash of its
canonical spec (:func:`repro.harness.spec.cell_spec`).  Any settings
field that does not reach that serialization is a knob two different
runs can disagree on while sharing a cache entry — the exact bug PR 4
had to hand-fix when ``EvalSettings.extensions`` was added without
joining the key.

This rule cross-checks the *declared* fields of every cache-key settings
dataclass (``EvalSettings``, ``ReplaySettings``,
``CharacterizationSettings``, and the nested ``ExtensionPolicyConfig`` /
``PoolSpec``) against the *canonical field manifest*
(:func:`repro.harness.spec.canonical_field_manifest`) — which fields the
real serializer actually emits — and flags any declared field the
serializer drops, anchored at the field's definition line.

Unlike the syntactic rules, this one imports the live dataclasses: the
contract is between runtime serialization and runtime field lists, so
source-only inspection would just re-implement ``dataclasses.fields``
badly.  The core check is injectable (``classes`` / ``manifest``) so
tests can exercise the bug class on synthetic dataclasses.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import FileContext, LintRule, register_rule


def _default_classes() -> tuple[type, ...]:
    from repro.config import ExtensionPolicyConfig, PoolSpec
    from repro.harness.runner import (
        CharacterizationSettings,
        EvalSettings,
        ReplaySettings,
    )

    return (
        EvalSettings,
        ReplaySettings,
        CharacterizationSettings,
        ExtensionPolicyConfig,
        PoolSpec,
    )


def _default_manifest() -> dict[str, frozenset[str]]:
    from repro.harness import spec

    return spec.canonical_field_manifest()


def _class_node(
    ctx: FileContext, class_name: str
) -> ast.ClassDef | None:
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    return None


def _field_node(cls_node: ast.ClassDef, field_name: str) -> ast.AST:
    for item in cls_node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id == field_name
        ):
            return item
    return cls_node


def _defining_context(
    files: dict[str, FileContext], cls: type
) -> tuple[FileContext, ast.ClassDef] | None:
    """The linted file (and ClassDef) where ``cls`` is defined, if any."""
    import inspect

    try:
        source = inspect.getsourcefile(cls)
    except TypeError:  # pragma: no cover - builtins only
        return None
    if source is None:
        return None
    target = Path(source).resolve()
    for ctx in files.values():
        try:
            if ctx.path.resolve() == target:
                node = _class_node(ctx, cls.__name__)
                if node is not None:
                    return ctx, node
        except OSError:  # pragma: no cover - vanished file
            continue
    return None


def cache_key_diagnostics(
    files: dict[str, FileContext],
    classes: Sequence[type] | None = None,
    manifest: dict[str, frozenset[str]] | None = None,
) -> Iterator[Diagnostic]:
    """Findings for settings fields the canonical serializer drops.

    Diagnostics attach to the field's declaration line in its defining
    file; classes whose defining module is not part of the linted set
    are skipped (there is nowhere to anchor the finding).
    """
    if classes is None:
        classes = _default_classes()
    if manifest is None:
        manifest = _default_manifest()
    for cls in classes:
        located = _defining_context(files, cls)
        if located is None:
            continue
        ctx, cls_node = located
        covered = manifest.get(cls.__name__)
        if covered is None:
            yield ctx.diag(
                cls_node,
                "PAS005",
                f"settings dataclass `{cls.__name__}` never reaches the "
                f"canonical cell serialization (harness/runner.py); cells "
                f"differing in it would share a cache entry",
            )
            continue
        for f in dataclasses.fields(cls):
            if f.name not in covered:
                yield ctx.diag(
                    _field_node(cls_node, f.name),
                    "PAS005",
                    f"field `{cls.__name__}.{f.name}` does not "
                    f"participate in the canonical cell serialization; "
                    f"runs differing only in it would share a cache "
                    f"entry (add it to the spec, or justify an inline "
                    f"`# lint-ignore: PAS005` on the field)",
                )


@register_rule
class CacheKeyCompletenessRule(LintRule):
    """PAS005: every settings field must reach the canonical cache key.

    A settings dataclass field absent from the canonical cell
    serialization (``harness/runner.py``) means two runs that differ only
    in that knob resolve to the same disk-cache entry — the second run
    silently reads the first run's results.  A deliberately excluded
    field (none today) takes an inline ``# lint-ignore: PAS005`` on its
    line, with the justification beside it.
    """

    code = "PAS005"
    project_level = True

    def check_project(
        self, files: dict[str, FileContext]
    ) -> Iterator[Diagnostic]:
        yield from cache_key_diagnostics(files)
