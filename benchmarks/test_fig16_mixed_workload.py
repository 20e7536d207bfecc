"""Figure 16: 50% Arena-Hard + 50% reasoning-heavy mixed workload.

Paper shape: with short answering phases there is little phase contention,
so PASCAL's edge shrinks — still up to 70% tail-TTFT reduction vs FCFS on
shorter bins, small bounded degradations on long-reasoning bins (+6.8%
worst), modest wins vs RR (up to 13.9%, worst-case degradation < 7.7%),
and SLO violations at or below both baselines.
"""

from repro.harness.experiments import fig16_mixed_workload


def test_fig16_mixed_workload(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig16_mixed_workload,), rounds=1, iterations=1
    )
    record_figure(result)
    bin_rows = [r for r in result.rows if r[0] != "slo_violation_%"]
    slo_row = next(r for r in result.rows if r[0] == "slo_violation_%")

    vs_fcfs = [r[5] for r in bin_rows]
    vs_rr = [r[6] for r in bin_rows]
    # Meaningful best-case reduction vs FCFS on some bin.
    assert max(vs_fcfs) > 10.0
    # Wins vs RR are modest here (paper: <= 13.9%), losses bounded.
    assert max(vs_rr) > 0.0
    assert min(vs_rr) > -15.0
    assert min(vs_fcfs) > -15.0

    # SLO: PASCAL at or below both baselines (paper: ~= RR, < FCFS).
    fcfs_slo, rr_slo, pascal_slo = slo_row[2], slo_row[3], slo_row[4]
    assert pascal_slo <= fcfs_slo + 0.3
    assert pascal_slo <= rr_slo + 0.3


def test_fig16_gains_smaller_than_chat_workload(record_figure, figure):
    """Phase contention is minimal, so the RR gap shrinks vs Figure 10."""
    from repro.harness.experiments import fig10_tail_ttft

    mixed = figure(fig16_mixed_workload)
    chat = figure(fig10_tail_ttft)
    mixed_best_rr = max(
        r[6] for r in mixed.rows if r[0] != "slo_violation_%"
    )
    chat_best_rr = max(row[8] for row in chat.rows)
    assert mixed_best_rr <= chat_best_rr + 5.0
