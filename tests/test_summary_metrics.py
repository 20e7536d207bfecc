"""Percentile, binning and adaptive-tail tests (Figure 10 machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.summary import (
    adaptive_tail,
    mean,
    percentile,
    tail_ttft_bins,
)
from repro.workload.request import Request


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_range(self, values, pct):
        p = percentile(values, pct)
        span = max(values) - min(values)
        tol = 1e-9 * (1.0 + span + abs(max(values)))
        assert min(values) - tol <= p <= max(values) + tol

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_percentile_monotone_in_pct(self, values):
        assert percentile(values, 25) <= percentile(values, 75)

    def test_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0]
        for pct in (10, 25, 50, 75, 90, 99):
            assert percentile(values, pct) == pytest.approx(
                float(numpy.percentile(values, pct, method="linear"))
            )


class TestMean:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestAdaptiveTail:
    """The paper's sample-size-dependent tail rule (Figure 10 caption)."""

    def test_under_five_omitted(self):
        assert adaptive_tail([1.0] * 4) is None

    def test_five_to_nine_uses_max(self):
        name, value = adaptive_tail(list(map(float, range(7))))
        assert name == "max" and value == 6.0

    def test_ten_to_nineteen_uses_p90(self):
        name, _ = adaptive_tail(list(map(float, range(15))))
        assert name == "p90"

    def test_twenty_to_ninetynine_uses_p95(self):
        name, _ = adaptive_tail(list(map(float, range(50))))
        assert name == "p95"

    def test_hundred_plus_uses_p99(self):
        name, _ = adaptive_tail(list(map(float, range(150))))
        assert name == "p99"


def finished_request(rid, reasoning_len, ttft):
    req = Request(
        rid=rid, prompt_len=8, reasoning_len=reasoning_len, answer_len=2
    )
    req.first_answer_t = req.arrival_t + ttft
    return req


class TestTailBins:
    def test_bins_by_reasoning_length(self):
        requests = [
            finished_request(i, 100 + (i % 2) * 300, float(i))
            for i in range(40)
        ]
        bins = tail_ttft_bins(requests, bin_width=256)
        assert [b.lo for b in bins] == [0, 256]
        assert all(b.n_samples == 20 for b in bins)
        assert all(b.metric_name == "p95" for b in bins)

    def test_sparse_bins_omitted(self):
        requests = [finished_request(i, 100, 1.0) for i in range(4)]
        assert tail_ttft_bins(requests) == []

    def test_unfinished_requests_skipped(self):
        done = [finished_request(i, 100, 1.0) for i in range(6)]
        pending = Request(rid=99, prompt_len=8, reasoning_len=100, answer_len=2)
        bins = tail_ttft_bins(done + [pending])
        assert bins[0].n_samples == 6

    def test_bin_labels(self):
        requests = [finished_request(i, 300, 1.0) for i in range(6)]
        assert tail_ttft_bins(requests)[0].label == "[256-511]"

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            tail_ttft_bins([], bin_width=0)


class TestKendallTau:
    def test_perfect_order_is_one(self):
        pairs = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        from repro.metrics.summary import kendall_tau

        assert kendall_tau(pairs) == pytest.approx(1.0)

    def test_reversed_order_is_minus_one(self):
        from repro.metrics.summary import kendall_tau

        pairs = [(3.0, 10.0), (2.0, 20.0), (1.0, 30.0)]
        assert kendall_tau(pairs) == pytest.approx(-1.0)

    def test_tau_b_handles_ties_on_one_side(self):
        from repro.metrics.summary import kendall_tau

        # x ties on the first two pairs: tau-b normalizes them away
        # rather than diluting toward zero like tau-a would.
        pairs = [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert kendall_tau(pairs) == pytest.approx(0.8164965809, rel=1e-6)

    def test_constant_side_is_nan(self):
        import math

        from repro.metrics.summary import kendall_tau

        assert math.isnan(kendall_tau([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)]))

    def test_monotone_transform_invariance(self):
        # The property that makes EWMA token estimates and unitless LTR
        # scores comparable in one column: tau sees only the order.
        from repro.metrics.summary import kendall_tau

        pairs = [(1.0, 5.0), (4.0, 2.0), (2.0, 9.0), (8.0, 4.0)]
        squashed = [(x**3, y) for x, y in pairs]
        assert kendall_tau(pairs) == pytest.approx(kendall_tau(squashed))

    def test_fewer_than_two_pairs_rejected(self):
        from repro.metrics.summary import kendall_tau

        with pytest.raises(ValueError):
            kendall_tau([])
        with pytest.raises(ValueError):
            kendall_tau([(1.0, 2.0)])

    def test_pairs_tied_in_both_are_neutral(self):
        from repro.metrics.summary import kendall_tau

        base = [(1.0, 10.0), (2.0, 20.0)]
        padded = base + [(1.0, 10.0)]  # duplicate point
        assert kendall_tau(base) == pytest.approx(1.0)
        assert kendall_tau(padded) == pytest.approx(1.0)
