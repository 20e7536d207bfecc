"""Harness runner tests (settings plumbing, caching, sweep; no heavy sims)."""

import dataclasses

import pytest

from repro.harness import runner
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.runner import (
    CharacterizationSettings,
    CharacterizationRun,
    CharCell,
    EvalCell,
    EvalSettings,
    cell_key,
    clear_caches,
    measured_capacity_req_per_s,
    run_cell,
    run_characterization,
    run_evaluation,
    sweep,
)
from repro.metrics.summary import mean
from repro.workload.datasets import (
    ALPACA_EVAL,
    ARENA_HARD,
    DatasetSpec,
    LengthSpec,
    reasoning_heavy_mix,
)


class TestEvalSettings:
    def test_defaults(self):
        settings = EvalSettings()
        assert settings.n_instances == 8
        assert dict(settings.load_factors)["high"] > 1.0

    def test_cluster_config_wires_capacity(self):
        settings = EvalSettings(kv_capacity_tokens=12345)
        assert settings.cluster_config().instance.gpu_kv_tokens() == 12345

    def test_resident_capacity_scales_inversely_with_request_size(self):
        settings = EvalSettings()
        alpaca = settings.resident_request_capacity(ALPACA_EVAL)
        arena = settings.resident_request_capacity(ARENA_HARD)
        assert alpaca > arena  # alpaca requests are smaller

    def test_resident_capacity_handles_mixtures(self):
        settings = EvalSettings()
        assert settings.resident_request_capacity(reasoning_heavy_mix()) > 0

    def test_n_requests_floor(self):
        settings = EvalSettings(n_requests=10, trace_residency_multiple=0.001)
        assert settings.n_requests_for(ALPACA_EVAL) == 10

    def test_n_requests_scales_with_residency(self):
        small = EvalSettings(trace_residency_multiple=1.0)
        big = EvalSettings(trace_residency_multiple=5.0)
        assert big.n_requests_for(ALPACA_EVAL) >= small.n_requests_for(
            ALPACA_EVAL
        )

    def test_for_scale_paper_is_larger(self):
        quick = EvalSettings.for_scale("quick")
        paper = EvalSettings.for_scale("paper")
        assert paper.trace_residency_multiple > quick.trace_residency_multiple

    def test_settings_hashable_for_memoization(self):
        assert hash(EvalSettings()) == hash(EvalSettings())


class TestCharacterizationSettings:
    def test_rate_for_phases(self):
        settings = CharacterizationSettings()
        assert settings.rate_for("reasoning") == settings.reasoning_rate_per_s
        assert settings.rate_for("answering") == settings.answering_rate_per_s
        with pytest.raises(ValueError):
            settings.rate_for("prefill")

    def test_for_scale(self):
        assert CharacterizationSettings.for_scale("quick").n_requests == 150
        assert CharacterizationSettings.for_scale("paper").n_requests == 300


class TestCharacterizationRunner:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def small(self):
        return CharacterizationSettings(
            n_requests=20,
            reasoning_rate_per_s=0.5,
            answering_rate_per_s=0.5,
        )

    def test_oracle_run_and_cap_derivation(self):
        run = run_characterization("reasoning", "oracle", self.small())
        assert isinstance(run, CharacterizationRun)
        assert run.oracle_peak_tokens > 0
        assert len(run.metrics.requests) == 20

    def test_constrained_capacity_is_half_of_peak(self):
        settings = self.small()
        oracle = run_characterization("reasoning", "oracle", settings)
        fcfs = run_characterization("reasoning", "fcfs", settings)
        assert fcfs.capacity_tokens == max(
            1024, int(oracle.oracle_peak_tokens * 0.5)
        )

    def test_memoization_returns_same_object(self):
        settings = self.small()
        first = run_characterization("reasoning", "fcfs", settings)
        second = run_characterization("reasoning", "fcfs", settings)
        assert first is second

    def test_answering_phase_workload_precomputed(self):
        run = run_characterization("answering", "oracle", self.small())
        assert all(r.reasoning_len == 0 for r in run.metrics.requests)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            run_characterization("prefill", "fcfs", self.small())

    def test_oracle_uncapped_when_only_peak_cache_is_warm(self):
        # Regression: a parallel sweep of non-oracle cells once left only
        # the oracle's *peak* memoized, and a later oracle query fell
        # through to the 50%-of-peak cap.  After such a sweep the oracle
        # must still run (or be served) at full capacity.
        settings = self.small()
        oracle_full = run_characterization("reasoning", "oracle", settings)
        clear_caches()
        results = sweep(
            [CharCell("reasoning", p, settings) for p in ("fcfs", "rr")],
            jobs=2,
        )
        fcfs = results[CharCell("reasoning", "fcfs", settings)]

        oracle = run_characterization("reasoning", "oracle", settings)
        assert oracle.capacity_tokens == oracle_full.capacity_tokens
        assert oracle.capacity_tokens > fcfs.capacity_tokens
        assert oracle.oracle_peak_tokens == oracle_full.oracle_peak_tokens


class TestSweep:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def settings(self):
        return CharacterizationSettings(
            n_requests=20,
            reasoning_rate_per_s=0.5,
            answering_rate_per_s=0.5,
        )

    def cells(self):
        s = self.settings()
        return [
            CharCell("reasoning", policy, s)
            for policy in ("oracle", "fcfs", "rr")
        ]

    def test_run_cell_matches_direct_runner(self):
        cell = self.cells()[1]
        via_cell = run_cell(cell)
        direct = run_characterization("reasoning", "fcfs", self.settings())
        assert via_cell is direct  # same memoized object

    def test_run_cell_rejects_non_cells(self):
        with pytest.raises(TypeError):
            run_cell("fig12")

    def test_serial_sweep_covers_all_cells(self):
        results = sweep(self.cells(), jobs=1)
        assert set(results) == set(self.cells())
        for run in results.values():
            assert len(run.metrics.requests) == 20

    def test_sweep_deduplicates_cells(self):
        cells = self.cells() + self.cells()
        results = sweep(cells, jobs=1)
        assert len(results) == 3

    def test_parallel_sweep_matches_serial(self):
        serial = {
            cell: run_cell(cell).metrics for cell in self.cells()
        }
        serial_view = {
            cell: sorted(
                (r.rid, r.done_t, r.n_preemptions) for r in metrics.requests
            )
            for cell, metrics in serial.items()
        }
        clear_caches()
        parallel = sweep(self.cells(), jobs=2)
        parallel_view = {
            cell: sorted(
                (r.rid, r.done_t, r.n_preemptions)
                for r in run.metrics.requests
            )
            for cell, run in parallel.items()
        }
        assert serial_view == parallel_view

    def test_parallel_sweep_seeds_the_cache(self):
        sweep(self.cells(), jobs=2)
        # A follow-up serial call must hit the memoized result, not rerun.
        first = run_characterization("reasoning", "rr", self.settings())
        second = run_characterization("reasoning", "rr", self.settings())
        assert first is second

    def test_parallel_sweep_with_only_prewarmed_cells(self):
        # Oracle cells are the prerequisites a sweep prewarms for other
        # characterization cells; a sweep of nothing else has no
        # prerequisite to run and sends them straight to the pool.
        s = self.settings()
        cells = [
            CharCell("reasoning", "oracle", s),
            CharCell("answering", "oracle", s),
        ]
        results = sweep(cells, jobs=2)
        assert set(results) == set(cells)
        for run in results.values():
            assert len(run.metrics.requests) == 20

    def test_workers_are_seeded_with_prerequisites_only(self, monkeypatch):
        # The pool's initializer gets the shared prerequisite results (here
        # the reasoning oracle), never the rest of the parent's memo.
        captured = {}

        class SerialPool:
            def __init__(self, processes, initializer, initargs):
                captured["seed"] = initargs[0]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return [fn(cell) for cell in cells]

        class SerialContext:
            Pool = SerialPool

        monkeypatch.setattr(
            runner.multiprocessing, "get_context", lambda: SerialContext()
        )
        s = self.settings()
        run_characterization("answering", "oracle", s)  # unrelated entry
        sweep([CharCell("reasoning", p, s) for p in ("fcfs", "rr")], jobs=2)
        assert list(captured["seed"]) == [
            cell_key(CharCell("reasoning", "oracle", s))
        ]

    def test_cells_are_hashable_and_comparable(self):
        s = self.settings()
        assert CharCell("reasoning", "fcfs", s) == CharCell(
            "reasoning", "fcfs", s
        )
        eval_cell = EvalCell(ALPACA_EVAL, "high", "pascal", EvalSettings())
        assert hash(eval_cell) == hash(
            EvalCell(ALPACA_EVAL, "high", "pascal", EvalSettings())
        )


class TestCellIdentity:
    """The memo addresses a cell by its full spec, not by names."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def test_same_name_different_length_model_are_different_cells(self):
        # Regression: the in-process memo once keyed on `dataset.name`, so
        # a second length model under the same name was served the first
        # one's capacity probe and evaluation run.
        base = DatasetSpec(
            "same-name",
            prompt=LengthSpec(20.0, 0.5, 4, 64),
            reasoning=LengthSpec(200.0, 0.8, 8, 2000),
            answering=LengthSpec(120.0, 0.6, 8, 1000),
        )
        lighter = dataclasses.replace(
            base, reasoning=LengthSpec(60.0, 0.8, 8, 2000)
        )
        settings = EvalSettings(
            n_requests=30,
            n_instances=2,
            kv_capacity_tokens=4000,
            trace_residency_multiple=0.5,
        )
        assert measured_capacity_req_per_s(
            base, settings
        ) < measured_capacity_req_per_s(lighter, settings)
        base_run = run_evaluation(base, "low", "fcfs", settings)
        lighter_run = run_evaluation(lighter, "low", "fcfs", settings)
        assert mean([r.reasoning_len for r in base_run.requests]) > mean(
            [r.reasoning_len for r in lighter_run.requests]
        )


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        expected = {
            "fig2", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig16x",
            "deferral-stress", "sec5a", "sec5c", "ablation-alg2",
            "ablation-partition",
        }
        assert set(ALL_EXPERIMENTS) == expected
        assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())

    def test_spec_ids_match_keys(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        for name, spec in ALL_EXPERIMENTS.items():
            assert spec.figure_id == name
            assert spec.title

    def test_eval_specs_declare_cells(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        settings = EvalSettings()
        cells = ALL_EXPERIMENTS["fig12"].required_cells(settings)
        assert len(cells) == 18  # 2 datasets x 3 tiers x 3 policies
        assert all(isinstance(cell, EvalCell) for cell in cells)
        assert all(cell.settings == settings for cell in cells)

    def test_char_specs_declare_cells(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        cells = ALL_EXPERIMENTS["fig4"].required_cells(_tiny_char_settings())
        assert {cell.policy for cell in cells} == {"oracle", "fcfs", "rr"}
        assert all(cell.phase == "reasoning" for cell in cells)

    def test_cheap_specs_declare_no_cells(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        for name in ("fig2", "fig8", "fig14", "sec5a"):
            assert ALL_EXPERIMENTS[name].required_cells() == ()

    def test_spec_runs_and_builds(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        result = ALL_EXPERIMENTS["fig2"]()
        assert result.figure_id == "fig2"


def _tiny_char_settings():
    return CharacterizationSettings(
        n_requests=20, reasoning_rate_per_s=0.5, answering_rate_per_s=0.5
    )


#: Small settings per settings type for the declared-cells check.  One
#: instance's pool must fit every GPQA request of the deferral-stress mix
#: (8000 tokens does not), hence 30000 tokens.
_SMALL_SETTINGS = {
    EvalSettings: EvalSettings(
        n_requests=60,
        n_instances=2,
        kv_capacity_tokens=30000,
        trace_residency_multiple=0.0,
    ),
    CharacterizationSettings: CharacterizationSettings(n_requests=30),
}


@pytest.mark.parametrize(
    "name",
    sorted(
        name
        for name, spec in ALL_EXPERIMENTS.items()
        if spec.cells is not None
    ),
)
def test_table_reads_only_its_declared_cells(name):
    """Once a figure's declared cells are swept, building its table
    simulates nothing: no table reads a cell its declaration omits."""
    spec = ALL_EXPERIMENTS[name]
    settings = _SMALL_SETTINGS[type(spec.settings_factory())]
    cells = spec.required_cells(settings)
    sweep(cells, jobs=1)
    # Narrow the memo to the declared cells and the probes they rest on,
    # so a cell another figure computed cannot stand in for one this
    # declaration omits.
    keep = {cell_key(c) for c in cells} | {
        cell_key(dep) for c in cells for dep in c.prerequisites()
    }
    saved = runner.snapshot_caches()
    runner.restore_caches({k: v for k, v in saved.items() if k in keep})
    try:
        runner.reset_simulation_count()
        spec(settings)
        assert runner.simulation_count() == 0
    finally:
        runner.restore_caches(saved)
