"""Declarative experiment specs.

An :class:`ExperimentSpec` describes one paper figure as data:

* ``cells`` — the simulation work items (:class:`~repro.harness.runner.EvalCell`
  / :class:`~repro.harness.runner.CharCell` /
  :class:`~repro.harness.runner.ReplayCell`) the figure needs, as a
  function of its settings;
* ``build`` — a pure function that assembles the
  :class:`~repro.harness.report.FigureResult` from the memoized runs.

Separating the two lets the harness fan the cells of one figure — or the
union of cells across *all* figures, which overlap heavily — out over
worker processes via :func:`~repro.harness.runner.sweep`, then build every
table from the shared memo.  Because each cell is a deterministic function
of its spec, a parallel sweep yields byte-identical figures to a serial
run.

Specs are callable with the same ``(settings=None)`` convention as the
original per-figure functions, plus an optional ``jobs`` fan-out degree.

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
from typing import Any, Callable

from repro.harness.report import FigureResult
from repro.harness.runner import (
    CapacityCell,
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
from repro.workload.datasets import DatasetSpec, MixedDataset

__all__ = [
    "ExperimentSpec",
    "canonical_field_manifest",
    "capacity_spec",
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


def capacity_spec(
    dataset: DatasetSpec | MixedDataset,
    settings: EvalSettings,
    probe_requests: int,
) -> dict:
    """Spec of the capacity probe shared by ``settings``' evaluation cells
    (see :class:`~repro.harness.runner.CapacityCell`)."""
    return cell_spec(CapacityCell.of(dataset, settings, probe_requests))


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure: its work items plus its table builder."""

    figure_id: str
    title: str
    #: ``build(settings) -> FigureResult``; must tolerate ``settings=None``
    #: (each builder falls back to its scale-default settings).
    build: Callable[[Any], FigureResult]
    #: ``cells(settings) -> tuple[Cell, ...]`` (eval, characterization or
    #: replay cells); None for figures whose simulations are too cheap to
    #: be worth dispatching.
    cells: Callable[[Any], tuple[Cell, ...]] | None = None
    #: Zero-arg factory for the figure's scale-default settings.
    settings_factory: Callable[[], Any] | None = None

    def default_settings(self) -> Any:
        if self.settings_factory is None:
            return None
        return self.settings_factory()

    def required_cells(self, settings: Any = None) -> tuple[Cell, ...]:
        """The sweep cells this figure needs under ``settings``."""
        if self.cells is None:
            return ()
        if settings is None:
            settings = self.default_settings()
        return tuple(self.cells(settings))

    def run(
        self, settings: Any = None, jobs: int | None = None
    ) -> FigureResult:
        """Build the figure, optionally pre-running its cells in parallel."""
        if settings is None:
            settings = self.default_settings()
        if jobs is not None and jobs > 1:
            cells = self.required_cells(settings)
            if cells:
                sweep(cells, jobs=jobs)
        return self.build(settings)

    def __call__(
        self, settings: Any = None, jobs: int | None = None
    ) -> FigureResult:
        return self.run(settings, jobs=jobs)
