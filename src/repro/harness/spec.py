"""Declarative experiment specs.

An :class:`ExperimentSpec` is one paper figure, declared once:

* ``figure_id`` and ``title`` — what the rendered table is headed with;
* ``cells`` — the simulation work items (:class:`~repro.harness.runner.EvalCell`
  / :class:`~repro.harness.runner.CharCell`) the figure needs, as a
  function of its settings, plus the factory of its scale-default
  settings;
* ``table`` — a pure function from the results of exactly those cells
  (cell -> result, in declared order) to a :class:`Table`: headers, rows
  and notes.  It runs no simulation and looks no result up itself.

:meth:`ExperimentSpec.run` sweeps the declared cells through
:func:`~repro.harness.runner.sweep` (serially unless ``jobs > 1``), hands
their results to the table and heads it with the id and title.  A sweep
fills the shared memo, so the harness can also fan the *union* of cells
across all figures (they overlap heavily) out over worker processes
first; every table then reads memo hits.  Because each cell is a
deterministic function of its spec, a parallel sweep yields
byte-identical figures to a serial run.  A figure whose simulations are
too cheap to dispatch declares no cells: its table runs them itself and
takes keyword options instead of settings.

This module is also the public face of the *canonical cell
serialization* that each cell kind in :mod:`repro.harness.runner`
implements: :func:`cell_spec` maps a cell to a plain JSON-ready dict, and
its sorted-key hash mixed with the simulator-code fingerprint
(:func:`cell_key`) is the cell's address, both in the runner's
in-process memo and in the on-disk result store
(:mod:`repro.harness.cache`).  The spec embeds the full settings
dataclass and the full dataset model — including distribution parameters
— so changing *any* knob yields a new key, and a recorded trace is
addressed by its file *content*, not its path.
:func:`canonical_field_manifest` is the ground truth the PAS005 lint rule
checks settings fields against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.harness.report import FigureResult
from repro.harness.runner import (
    Cell,
    CharacterizationSettings,
    EvalSettings,
    ReplaySettings,
    cell_key,
    cell_spec,
    dataset_spec,
    settings_spec,
    sweep,
)

__all__ = [
    "ExperimentSpec",
    "Table",
    "canonical_field_manifest",
    "cell_key",
    "cell_spec",
    "dataset_spec",
    "settings_spec",
]


def canonical_field_manifest() -> dict[str, frozenset[str]]:
    """Dataclass name -> field names reaching the canonical cell spec.

    Built by serializing a *default instance* of every cache-key
    settings dataclass with :func:`settings_spec` and recording,
    recursively, which declared fields appear in the output.  Nested
    config dataclasses contribute their own entries (the defaults
    instantiate them via ``default_factory``), so the manifest covers
    ``ExtensionPolicyConfig`` and ``PoolSpec`` too.

    This is the ground truth the PAS005 cache-key-completeness rule
    checks against: it reflects what the serializer *actually emits*,
    not what anyone believes it emits.
    """
    manifest: dict[str, frozenset[str]] = {}

    def record(obj: Any, serialized: Any) -> None:
        if not dataclasses.is_dataclass(obj) or not isinstance(
            serialized, dict
        ):
            return
        covered = frozenset(
            f.name for f in dataclasses.fields(obj) if f.name in serialized
        )
        name = type(obj).__name__
        manifest[name] = manifest.get(name, frozenset()) | covered
        for f in dataclasses.fields(obj):
            if f.name in serialized:
                record(getattr(obj, f.name), serialized[f.name])

    for cls in (EvalSettings, ReplaySettings, CharacterizationSettings):
        instance = cls()
        record(instance, settings_spec(instance))
    return manifest


class Table(NamedTuple):
    """A figure's body, as its table function returns it."""

    headers: list[str]
    rows: list[list]
    notes: list[str]


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure: its id, title, work items and table function."""

    figure_id: str
    title: str
    #: ``table(settings, results) -> Table``, where ``results`` maps each
    #: declared cell to its result in declared order; an inline figure's
    #: is ``table(**options) -> Table`` and runs its own simulations.
    table: Callable[..., Table]
    #: ``cells(settings) -> tuple[Cell, ...]``; None for inline figures,
    #: whose simulations are too cheap to be worth dispatching.
    cells: Callable[[Any], tuple[Cell, ...]] | None = None
    #: Zero-arg factory for a cell-backed figure's scale-default settings.
    settings_factory: Callable[[], Any] | None = None

    def required_cells(self, settings: Any = None) -> tuple[Cell, ...]:
        """The sweep cells this figure needs under ``settings``."""
        if self.cells is None:
            return ()
        if settings is None:
            settings = self.settings_factory()
        return tuple(self.cells(settings))

    def run(
        self, settings: Any = None, jobs: int | None = None, **options: Any
    ) -> FigureResult:
        """Sweep the declared cells (serially unless ``jobs > 1``), then
        build the table from their results.

        An inline figure ignores ``settings`` and ``jobs`` and hands
        ``options`` (e.g. ``n_samples``) to its table instead.
        """
        if self.cells is None:
            table = self.table(**options)
        else:
            if settings is None:
                settings = self.settings_factory()
            results = sweep(self.required_cells(settings), jobs=jobs or 1)
            table = self.table(settings, results, **options)
        return FigureResult(self.figure_id, self.title, *table)

    __call__ = run
