"""Harness tests: report rendering, calibration, timeline, cheap figures."""

import pytest

from repro.harness import calibrate
from repro.harness.report import FigureResult, format_cell, render_table
from repro.harness.timeline import ascii_timeline
from repro.workload.datasets import ALPACA_EVAL, reasoning_heavy_mix
from repro.workload.request import Request


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_large_floats_have_commas(self):
        assert format_cell(12345.6) == "12,346"

    def test_mid_floats_one_decimal(self):
        assert format_cell(42.25) == "42.2"

    def test_small_floats_three_decimals(self):
        assert format_cell(0.12345) == "0.123"

    def test_strings_and_ints_pass_through(self):
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"


class TestRenderTable:
    def test_header_and_rows_aligned(self):
        text = render_table(["a", "bb"], [[1, 2], [33, 44]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            render_table([], [])


class TestFigureResult:
    def fig(self):
        return FigureResult(
            figure_id="figX",
            title="demo",
            headers=["k", "v"],
            rows=[["a", 1], ["b", 2]],
            notes=["note one"],
        )

    def test_render_contains_notes(self):
        text = self.fig().render()
        assert "[figX] demo" in text
        assert "note: note one" in text

    def test_column(self):
        assert self.fig().column("v") == [1, 2]

    def test_column_unknown_rejected(self):
        with pytest.raises(KeyError):
            self.fig().column("zzz")

    def test_row_map(self):
        assert self.fig().row_map()["a"] == ["a", 1]
        assert self.fig().row_map("v")[2] == ["b", 2]


class TestCalibrate:
    def test_mixture_means(self):
        single = calibrate.mixture_mean_request_tokens(ALPACA_EVAL)
        assert single == pytest.approx(60.0 + 557.75 + 566.85)
        mix = reasoning_heavy_mix()
        mixed = calibrate.mixture_mean_request_tokens(mix)
        components = [
            calibrate.mixture_mean_request_tokens(spec)
            for spec, _ in mix.components
        ]
        assert min(components) < mixed < max(components)

    def test_decode_means(self):
        decode = calibrate.mixture_mean_decode_tokens(ALPACA_EVAL)
        assert decode == pytest.approx(557.75 + 566.85)


class TestTimeline:
    def test_ascii_timeline_marks_tokens(self):
        req = Request(rid=0, prompt_len=1, reasoning_len=2, answer_len=2)
        req.done_t = 4.0
        text = ascii_timeline([req], {0: [0.5, 1.5, 2.5, 3.5]})
        row = text.splitlines()[1]
        assert row.startswith("req 0")
        assert row.count("#") == 4

    def test_waiting_cells_dotted(self):
        req = Request(
            rid=0, prompt_len=1, reasoning_len=2, answer_len=2, arrival_t=0.0
        )
        req.done_t = 5.0
        text = ascii_timeline([req], {0: [4.5]}, horizon_slots=6)
        row = text.splitlines()[1]
        assert "." in row

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_timeline([], {})


class TestCheapExperiments:
    def test_fig2_runs(self):
        from repro.harness.experiments import fig2_timeline

        result = fig2_timeline()
        assert result.figure_id == "fig2"
        assert len(result.rows) == 3

    def test_fig8_runs(self):
        from repro.harness.experiments import fig8_chat_distributions

        result = fig8_chat_distributions(n_samples=500)
        assert {row[0] for row in result.rows} == {
            "alpaca-eval-2.0",
            "arena-hard",
        }

    def test_sec5a_runs(self):
        from repro.harness.experiments import sec5a_validation

        result = sec5a_validation(n_requests=20)
        assert [row[0] for row in result.rows] == [
            "end-to-end latency",
            "mean TTFT",
            "TPOT",
        ]
        assert all(row[2] >= 0 for row in result.rows)
