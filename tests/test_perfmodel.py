"""Performance model tests: roofline, profile table, unit model, MAPE."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig, ModelConfig
from repro.perfmodel.analytical import AnalyticalPerfModel, PerfModel
from repro.perfmodel.profile import ProfileTable, _interp_weight
from repro.perfmodel.unit import UnitPerfModel
from repro.perfmodel.validate import mape


@pytest.fixture(scope="module")
def model():
    return AnalyticalPerfModel(ModelConfig(), GPUConfig())


class TestModelConfig:
    def test_kv_bytes_per_token_matches_geometry(self):
        cfg = ModelConfig()
        # 2 (K+V) * 64 layers * 8 KV heads * 128 head dim * 2 bytes
        assert cfg.kv_bytes_per_token == 262_144

    def test_weight_bytes(self):
        cfg = ModelConfig()
        assert cfg.weight_bytes == pytest.approx(65.6e9)

    def test_kv_capacity_positive_on_h100(self):
        cfg = ModelConfig()
        gpu = GPUConfig()
        assert gpu.kv_capacity_tokens(cfg) > 50_000

    def test_kv_capacity_zero_when_weights_exceed_hbm(self):
        tiny_gpu = GPUConfig(hbm_bytes=1e9)
        assert tiny_gpu.kv_capacity_tokens(ModelConfig()) == 0


class TestAnalyticalDecode:
    def test_monotone_in_kv(self, model):
        assert model.decode_step_seconds(8, 10_000) < model.decode_step_seconds(
            8, 100_000
        )

    def test_monotone_in_batch(self, model):
        assert model.decode_step_seconds(1, 1000) < model.decode_step_seconds(
            64, 1000
        )

    def test_realistic_single_request_latency(self, model):
        # 32B on one H100: a decode step should land in 20-60 ms.
        step = model.decode_step_seconds(1, 1000)
        assert 0.02 < step < 0.06

    def test_small_batch_penalty_fades(self, model):
        # Per-token cost must improve with batch size (batching amortizes
        # the weight read).
        t1 = model.decode_step_seconds(1, 0)
        t32 = model.decode_step_seconds(32, 0)
        assert t32 / 32 < t1

    def test_invalid_inputs(self, model):
        with pytest.raises(ValueError):
            model.decode_step_seconds(0, 100)
        with pytest.raises(ValueError):
            model.decode_step_seconds(1, -1)


class TestAnalyticalPrefill:
    def test_zero_prompt_is_free(self, model):
        assert model.prefill_seconds(0) == 0.0

    def test_superlinear_in_prompt(self, model):
        # Quadratic attention term: 2x tokens -> more than 2x latency
        # minus the fixed overhead.
        t1 = model.prefill_seconds(2048) - model.step_overhead_s
        t2 = model.prefill_seconds(4096) - model.step_overhead_s
        assert t2 > 2.0 * t1

    def test_realistic_128_token_prompt(self, model):
        assert 0.005 < model.prefill_seconds(128) < 0.1

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.prefill_seconds(-1)


class TestSwap:
    def test_swap_linear_in_tokens(self, model):
        assert model.swap_seconds(2000) == pytest.approx(
            2 * model.swap_seconds(1000)
        )

    def test_swap_uses_pcie(self, model):
        # 1000 tokens * 256 KiB over ~50 GB/s: around 5 ms.
        assert 0.002 < model.swap_seconds(1000) < 0.02

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.swap_seconds(-5)


class TestProfileTable:
    def test_exact_on_grid_points(self, model):
        table = ProfileTable.from_model(model)
        for b in (1, 8, 64):
            for k in (0, 16_384, 131_072):
                assert table.decode_step_seconds(b, k) == pytest.approx(
                    model.decode_step_seconds(b, k)
                )

    def test_interpolation_error_is_small(self, model):
        table = ProfileTable.from_model(model)
        errors = []
        for b in (3, 7, 13, 29, 55, 111):
            for k in (500, 3000, 20_000, 90_000, 200_000):
                truth = model.decode_step_seconds(b, k)
                approx = table.decode_step_seconds(b, k)
                errors.append(abs(approx - truth) / truth)
        assert max(errors) < 0.08

    def test_clamps_beyond_grid(self, model):
        table = ProfileTable.from_model(model)
        assert table.decode_step_seconds(1024, 0) == pytest.approx(
            model.decode_step_seconds(256, 0)
        )

    def test_prefill_interpolates(self, model):
        table = ProfileTable.from_model(model)
        truth = model.prefill_seconds(300)
        approx = table.prefill_seconds(300)
        assert abs(approx - truth) / truth < 0.15

    def test_prefill_zero(self, model):
        table = ProfileTable.from_model(model)
        assert table.prefill_seconds(0) == 0.0

    def test_invalid_inputs(self, model):
        table = ProfileTable.from_model(model)
        with pytest.raises(ValueError):
            table.decode_step_seconds(0, 10)
        with pytest.raises(ValueError):
            table.decode_step_seconds(1, -1)
        with pytest.raises(ValueError):
            table.prefill_seconds(-1)

    @given(
        b=st.integers(min_value=1, max_value=300),
        k=st.integers(min_value=0, max_value=600_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_interpolation_within_envelope(self, model, b, k):
        table = ProfileTable.from_model(model)
        value = table.decode_step_seconds(b, k)
        assert value > 0
        # Piecewise-linear interpolation of a monotone convex-ish surface
        # stays within the surface's global range on the grid box.
        low = model.decode_step_seconds(1, 0)
        high = model.decode_step_seconds(256, 524_288) * 1.05
        assert low * 0.5 <= value <= high


class TestDecodeEpoch:
    """An epoch's step times: the base class loops over
    ``decode_step_seconds``; the analytical model's closed form must give
    the same floats, bit for bit."""

    @given(
        batch=st.integers(min_value=1, max_value=512),
        kv_first=st.integers(min_value=0, max_value=2_000_000),
        steps=st.integers(min_value=1, max_value=300),
        start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        overhead=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_per_step_loop(
        self, model, batch, kv_first, steps, start, overhead
    ):
        closed = model.decode_epoch(batch, kv_first, steps, start, overhead)
        looped = PerfModel.decode_epoch(
            model, batch, kv_first, steps, start, overhead
        )
        assert closed == looped
        assert [t.hex() for t in closed] == [t.hex() for t in looped]

    def test_loop_is_the_step_sum(self):
        unit = UnitPerfModel(decode_step_s=2.0)
        # Step latencies 2.5 (the overhead lands on step 0), 2.0, 2.0.
        assert unit.decode_epoch(3, 10, 3, 1.0, 0.5) == [3.5, 5.5, 7.5]

    @pytest.mark.parametrize(
        "args",
        [(0, 10, 1), (1, -1, 1), (1, 10, 0)],
        ids=["no-batch", "negative-kv", "no-steps"],
    )
    def test_argument_checks(self, model, args):
        batch, kv_first, steps = args
        with pytest.raises(ValueError):
            model.decode_epoch(batch, kv_first, steps, 0.0, 0.0)
        with pytest.raises(ValueError):
            PerfModel.decode_epoch(model, batch, kv_first, steps, 0.0, 0.0)


class TestInterpWeight:
    def test_below_grid(self):
        assert _interp_weight((10, 20, 30), 5) == (0, 0, 0.0)

    def test_above_grid(self):
        assert _interp_weight((10, 20, 30), 99) == (2, 2, 0.0)

    def test_interior(self):
        lo, hi, w = _interp_weight((10, 20, 30), 25)
        assert (lo, hi) == (1, 2)
        assert w == pytest.approx(0.5)

    def test_exact_grid_point(self):
        lo, hi, w = _interp_weight((10, 20, 30), 20)
        assert lo <= 1 <= hi
        value = 20 * (1 - w) + (30 if hi == 2 else 20) * w
        assert value == pytest.approx(20)


class TestUnitModel:
    def test_constant_decode(self):
        unit = UnitPerfModel(decode_step_s=2.0)
        assert unit.decode_step_seconds(1, 0) == 2.0
        assert unit.decode_step_seconds(64, 1_000_000) == 2.0

    def test_free_prefill_and_swap_by_default(self):
        unit = UnitPerfModel()
        assert unit.prefill_seconds(100) == 0.0
        assert unit.swap_seconds(100) == 0.0

    def test_configurable_costs(self):
        unit = UnitPerfModel(prefill_s=0.5, swap_s_per_token=0.01)
        assert unit.prefill_seconds(10) == 0.5
        assert unit.swap_seconds(10) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitPerfModel(decode_step_s=0)
        with pytest.raises(ValueError):
            UnitPerfModel(prefill_s=-1)


class TestMape:
    def test_zero_for_identical(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_percentage_semantics(self):
        assert mape([100.0], [110.0]) == pytest.approx(10.0)

    def test_skips_zero_reference(self):
        assert mape([0.0, 100.0], [5.0, 150.0]) == pytest.approx(50.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0, 2.0])

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            mape([0.0], [1.0])
