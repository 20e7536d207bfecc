"""Dataset, arrival-process and trace tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams
from repro.workload import arrival, synthetic
from repro.workload.datasets import (
    ALL_DATASETS,
    ALPACA_EVAL,
    ARENA_HARD,
    GPQA,
    MixedDataset,
    get_dataset,
    mean_request_tokens,
    reasoning_heavy_mix,
)
from repro.workload.trace import TraceConfig, build_trace, trace_token_stats


class TestArrivals:
    def test_poisson_is_sorted_and_positive(self):
        rng = RandomStreams(0).stream("arr")
        times = arrival.poisson_arrivals(2.0, 100, rng)
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_poisson_rate_matches(self):
        rng = RandomStreams(1).stream("arr")
        times = arrival.poisson_arrivals(5.0, 5000, rng)
        measured_rate = len(times) / times[-1]
        assert 4.5 < measured_rate < 5.5

    def test_poisson_seed_reproducible(self):
        a = arrival.poisson_arrivals(1.0, 50, RandomStreams(3).stream("x"))
        b = arrival.poisson_arrivals(1.0, 50, RandomStreams(3).stream("x"))
        assert a == b

    def test_poisson_invalid_inputs(self):
        rng = RandomStreams(0).stream("arr")
        with pytest.raises(ValueError):
            arrival.poisson_arrivals(0.0, 10, rng)
        with pytest.raises(ValueError):
            arrival.poisson_arrivals(1.0, -1, rng)


class TestDatasets:
    def test_all_five_paper_datasets_exist(self):
        assert set(ALL_DATASETS) == {
            "alpaca-eval-2.0",
            "arena-hard",
            "math-500",
            "gpqa",
            "livecodebench",
        }

    def test_get_dataset_unknown_raises(self):
        with pytest.raises(KeyError):
            get_dataset("imagenet")

    @pytest.mark.parametrize("spec", list(ALL_DATASETS.values()))
    def test_sampled_means_match_paper(self, spec):
        rng = RandomStreams(99).stream(f"means:{spec.name}")
        n = 3000
        reasoning = [spec.reasoning.sample(rng) for _ in range(n)]
        answering = [spec.answering.sample(rng) for _ in range(n)]
        r_mean = sum(reasoning) / n
        a_mean = sum(answering) / n
        # Clipping pulls heavy-tailed means down slightly; 12% tolerance.
        assert abs(r_mean - spec.reasoning.mean) / spec.reasoning.mean < 0.12
        assert abs(a_mean - spec.answering.mean) / spec.answering.mean < 0.12

    def test_chat_skew_majority_under_1000(self):
        rng = RandomStreams(5).stream("skew")
        n = 3000
        for spec in (ALPACA_EVAL, ARENA_HARD):
            reasoning = [spec.reasoning.sample(rng) for _ in range(n)]
            frac = sum(1 for x in reasoning if x < 1000) / n
            assert frac > 0.70  # Figure 10 caption

    def test_gpqa_reasoning_heavy_ratio(self):
        rng = RandomStreams(6).stream("gpqa")
        n = 3000
        reasoning = [GPQA.reasoning.sample(rng) for _ in range(n)]
        answering = [GPQA.answering.sample(rng) for _ in range(n)]
        ratio = (sum(reasoning) / n) / (sum(answering) / n)
        assert ratio > 6.0  # paper quotes up to 8.48x

    def test_sample_request_fields(self):
        rng = RandomStreams(0).stream("req")
        req = ALPACA_EVAL.sample_request(7, 3.0, rng)
        assert req.rid == 7
        assert req.arrival_t == 3.0
        assert req.dataset == "alpaca-eval-2.0"
        assert req.prompt_len >= 1 and req.answer_len >= 1

    def test_mean_request_tokens(self):
        total = mean_request_tokens(ALPACA_EVAL)
        assert total == pytest.approx(60.0 + 557.75 + 566.85)


class TestMixedDataset:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedDataset("bad", ((ALPACA_EVAL, 0.7), (ARENA_HARD, 0.7)))

    def test_mix_contains_all_components(self):
        mix = reasoning_heavy_mix()
        rng = RandomStreams(8).stream("mix")
        seen = {
            mix.sample_request(i, 0.0, rng).dataset for i in range(600)
        }
        assert seen == {
            "arena-hard",
            "math-500",
            "gpqa",
            "livecodebench",
        }

    def test_mix_is_half_arena(self):
        mix = reasoning_heavy_mix()
        rng = RandomStreams(9).stream("mix2")
        n = 4000
        arena = sum(
            1
            for i in range(n)
            if mix.sample_request(i, 0.0, rng).dataset == "arena-hard"
        )
        assert 0.45 < arena / n < 0.55


class TestTraceBuilding:
    def test_build_trace_deterministic(self):
        cfg = TraceConfig(ALPACA_EVAL, 50, 2.0, seed=21)
        a = build_trace(cfg)
        b = build_trace(cfg)
        assert [(r.prompt_len, r.reasoning_len, r.answer_len, r.arrival_t)
                for r in a] == [
            (r.prompt_len, r.reasoning_len, r.answer_len, r.arrival_t)
            for r in b
        ]

    def test_build_trace_seed_changes_trace(self):
        a = build_trace(TraceConfig(ALPACA_EVAL, 50, 2.0, seed=1))
        b = build_trace(TraceConfig(ALPACA_EVAL, 50, 2.0, seed=2))
        assert [r.reasoning_len for r in a] != [r.reasoning_len for r in b]

    def test_trace_stats(self):
        trace = build_trace(TraceConfig(ALPACA_EVAL, 200, 2.0, seed=3))
        stats = trace_token_stats(trace)
        assert stats["n_requests"] == 200
        assert stats["reasoning_mean"] > 0
        assert stats["total_tokens"] > 200 * 100

    def test_trace_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_token_stats([])


class TestSyntheticWorkloads:
    def test_reasoning_workload_shape(self):
        rng = RandomStreams(0).stream("fig4")
        reqs = synthetic.reasoning_phase_workload(
            100, [float(i) for i in range(100)], rng
        )
        assert len(reqs) == 100
        assert all(r.prompt_len == 128 for r in reqs)
        assert all(r.answer_len == 1 for r in reqs)
        assert {r.reasoning_len for r in reqs} <= set(
            synthetic.CHARACTERIZATION_LENGTHS
        )

    def test_answering_workload_shape(self):
        rng = RandomStreams(0).stream("fig5")
        reqs = synthetic.answering_phase_workload(
            100, [float(i) for i in range(100)], rng
        )
        assert all(r.reasoning_len == 0 for r in reqs)
        assert all(r.skip_prefill for r in reqs)
        assert all(r.reasoning_end_t == r.arrival_t for r in reqs)
        assert {r.answer_len for r in reqs} <= set(
            synthetic.CHARACTERIZATION_LENGTHS
        )

    def test_workloads_validate_arrivals(self):
        rng = RandomStreams(0).stream("short")
        with pytest.raises(ValueError):
            synthetic.reasoning_phase_workload(10, [0.0], rng)
        with pytest.raises(ValueError):
            synthetic.answering_phase_workload(10, [0.0], rng)

    def test_fixed_length_requests(self):
        reqs = synthetic.fixed_length_requests(
            3, 1, 4, 4, [0.0, 1.0, 2.0]
        )
        assert [r.arrival_t for r in reqs] == [0.0, 1.0, 2.0]
        assert all(r.total_decode_tokens == 8 for r in reqs)

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_reasoning_workload_any_size(self, n):
        rng = RandomStreams(4).stream(f"n{n}")
        reqs = synthetic.reasoning_phase_workload(
            n, [0.5 * i for i in range(n)], rng
        )
        assert len(reqs) == n
        assert all(r.rid == i for i, r in enumerate(reqs))


class TestOnOffArrivals:
    """The on-off modulated Poisson process behind ``deferral-stress``."""

    def test_full_duty_matches_poisson_draw_for_draw(self):
        # duty >= 1.0 must delegate: identical RNG consumption, identical
        # times, so existing experiments are byte-stable.
        plain = list(
            arrival.iter_poisson_arrivals(
                2.0, 200, RandomStreams(9).stream("arr")
            )
        )
        onoff = list(
            arrival.iter_onoff_arrivals(
                2.0, 200, RandomStreams(9).stream("arr"), duty=1.0
            )
        )
        assert onoff == plain

    def test_bursty_arrivals_land_inside_on_windows(self):
        duty, cycle = 0.25, 40.0
        times = list(
            arrival.iter_onoff_arrivals(
                3.0, 500, RandomStreams(4).stream("arr"),
                duty=duty, cycle_s=cycle,
            )
        )
        assert times == sorted(times)
        on_s = duty * cycle
        for t in times:
            # Allow a hair of float slack at the window edge.
            assert (t % cycle) <= on_s + 1e-9

    def test_bursty_preserves_long_run_rate(self):
        times = list(
            arrival.iter_onoff_arrivals(
                5.0, 5000, RandomStreams(1).stream("arr"),
                duty=0.5, cycle_s=20.0,
            )
        )
        measured = len(times) / times[-1]
        assert 4.5 < measured < 5.5

    def test_burst_rate_is_rate_over_duty(self):
        # Within the on-window the process runs hot at rate/duty.
        duty, cycle = 0.2, 50.0
        times = list(
            arrival.iter_onoff_arrivals(
                2.0, 4000, RandomStreams(2).stream("arr"),
                duty=duty, cycle_s=cycle,
            )
        )
        on_time = (times[-1] // cycle + 1) * duty * cycle
        within_rate = len(times) / on_time
        assert 8.0 < within_rate < 12.0  # ~= 2.0 / 0.2

    def test_invalid_knobs_rejected(self):
        rng = RandomStreams(0).stream("arr")
        with pytest.raises(ValueError):
            list(arrival.iter_onoff_arrivals(2.0, 10, rng, duty=0.0))
        with pytest.raises(ValueError):
            list(arrival.iter_onoff_arrivals(2.0, 10, rng, duty=-0.5))
        with pytest.raises(ValueError):
            list(arrival.iter_onoff_arrivals(2.0, 10, rng, cycle_s=0.0))
        with pytest.raises(ValueError):
            list(arrival.iter_onoff_arrivals(0.0, 10, rng))
        with pytest.raises(ValueError):
            list(arrival.iter_onoff_arrivals(2.0, -1, rng))

    def test_trace_config_threads_burst_knobs(self):
        base = TraceConfig(ALPACA_EVAL, 80, 2.0, seed=11)
        bursty = TraceConfig(
            ALPACA_EVAL, 80, 2.0, seed=11, burst_duty=0.25, burst_cycle_s=40.0
        )
        plain_trace = build_trace(base)
        bursty_trace = build_trace(bursty)
        # Same lengths (same sampling stream), different arrival pattern.
        assert [r.reasoning_len for r in plain_trace] == [
            r.reasoning_len for r in bursty_trace
        ]
        assert [r.arrival_t for r in plain_trace] != [
            r.arrival_t for r in bursty_trace
        ]
        for r in bursty_trace:
            assert (r.arrival_t % 40.0) <= 10.0 + 1e-9

    def test_default_trace_config_is_byte_stable(self):
        # The new knobs default to pass-through: pre-existing traces are
        # unchanged (golden-table safety for every other experiment).
        base = TraceConfig(ALPACA_EVAL, 60, 2.0, seed=5)
        explicit = TraceConfig(
            ALPACA_EVAL, 60, 2.0, seed=5, burst_duty=1.0, burst_cycle_s=60.0
        )
        assert [r.arrival_t for r in build_trace(base)] == [
            r.arrival_t for r in build_trace(explicit)
        ]
