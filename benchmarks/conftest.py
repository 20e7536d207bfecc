"""Benchmark-suite helpers.

Each benchmark reproduces one table/figure of the paper: it runs (or reuses,
via the runner-level memoization) the simulations behind the figure, prints
the reproduction table next to the paper's quoted numbers, asserts the
qualitative shape (who wins, rough factors, crossovers), and saves the
rendered table under ``benchmarks/results/`` for the experiment log.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.runner import default_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def figure():
    """``figure(fn)`` builds the FigureResult ``fn()`` once per scale and
    session.  A figure's first test times that build; its other tests
    reuse it instead of rebuilding the table, whose QoE evaluation alone
    is most of fig11's build."""
    built = {}

    def _build(fn):
        key = (fn, default_scale())
        if key not in built:
            built[key] = fn()
        return built[key]

    return _build


@pytest.fixture
def record_figure(capsys):
    """Print a FigureResult and persist it to benchmarks/results/."""

    def _record(result):
        text = result.render()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)
        return result

    return _record
