"""Token pacer and QoE metric tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.qoe import qoe_score, release_schedule


class TestReleaseSchedule:
    @pytest.mark.parametrize(
        "times, releases",
        [
            # The first token is released the instant it exists.
            ([5.0], [5.0]),
            # A burst is smoothed to one token per TPOT target.
            ([1.0, 1.0, 1.0, 1.0], [1.0, 1.1, 1.2, 1.3]),
            # A token slower than the pace is released on arrival.
            ([1.0, 2.0], [1.0, 2.0]),
            # Burst, then gaps longer than the pace.
            ([1.0, 1.0, 1.0, 2.0, 5.0], [1.0, 1.1, 1.2, 2.0, 5.0]),
        ],
        ids=["first-token", "burst", "slow-token", "burst-then-gaps"],
    )
    def test_release_recurrence(self, times, releases):
        assert release_schedule(times, 0.1) == pytest.approx(releases)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            release_schedule([2.0, 1.0], 0.1)

    def test_rejects_bad_tpot(self):
        with pytest.raises(ValueError):
            release_schedule([1.0], 0.0)

    def test_invalid_tpot_rejected(self):
        # A non-positive pace is refused before any token history is read.
        for tpot in (0.0, -0.1):
            with pytest.raises(ValueError):
                release_schedule([], tpot)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_releases_monotone_and_paced(self, raw_times):
        times = sorted(raw_times)
        releases = release_schedule(times, 0.1)
        for i in range(1, len(releases)):
            assert releases[i] >= releases[i - 1] + 0.1 - 1e-12
        for g, r in zip(times, releases):
            assert r >= g


class TestQoE:
    def test_perfect_pacing_scores_one(self):
        times = [1.0 + 0.1 * k for k in range(20)]
        assert qoe_score(times, 0.1) == pytest.approx(1.0)

    def test_single_token_scores_one(self):
        assert qoe_score([3.0], 0.1) == pytest.approx(1.0)

    def test_fast_generation_scores_one(self):
        # Generation faster than the user's pace: pacer smooths, QoE = 1.
        times = [1.0 + 0.01 * k for k in range(30)]
        assert qoe_score(times, 0.1) == pytest.approx(1.0)

    def test_mid_stream_stall_lowers_score(self):
        times = [1.0 + 0.1 * k for k in range(10)]
        times += [times[-1] + 30.0 + 0.1 * k for k in range(10)]
        score = qoe_score(times, 0.1)
        assert score < 0.95

    def test_short_stall_covered_by_buffer(self):
        # Burst of 20 tokens at t=1 buys 2 s of buffer; a 1 s gap is hidden.
        times = [1.0] * 20 + [2.0 + 0.1 * k for k in range(5)]
        assert qoe_score(times, 0.1) == pytest.approx(1.0)

    def test_anchor_penalizes_late_start(self):
        # Tokens keep perfect pace but start 5 s after the anchor.
        times = [5.0 + 0.1 * k for k in range(10)]
        anchored = qoe_score(times, 0.1, anchor_t=0.0)
        free = qoe_score(times, 0.1)
        assert free == pytest.approx(1.0)
        assert anchored < 0.5

    def test_anchor_after_start_does_not_exceed_one(self):
        times = [1.0 + 0.1 * k for k in range(10)]
        assert qoe_score(times, 0.1, anchor_t=50.0) == 1.0

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            qoe_score([], 0.1)

    def test_bad_tpot_rejected(self):
        with pytest.raises(ValueError):
            qoe_score([1.0], -0.1)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_score_always_in_unit_interval(self, raw_times, tpot):
        score = qoe_score(sorted(raw_times), tpot)
        assert 0.0 <= score <= 1.0

    @given(st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_longer_stall_never_improves_qoe(self, stall):
        base = [1.0 + 0.1 * k for k in range(10)]
        tail = [base[-1] + stall + 0.1 * k for k in range(10)]
        longer_tail = [base[-1] + stall + 5 + 0.1 * k for k in range(10)]
        assert qoe_score(base + longer_tail, 0.1) <= qoe_score(
            base + tail, 0.1
        ) + 1e-9
