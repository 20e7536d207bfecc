"""Figure 12: serving throughput across arrival rates.

Paper claim: PASCAL's phase-aware scheduling costs essentially no
throughput — within 3% of both baselines at every rate and dataset.
"""

from repro.harness.experiments import fig12_throughput


def test_fig12_throughput(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig12_throughput,), rounds=1, iterations=1
    )
    record_figure(result)
    for row in result.rows:
        dataset, rate, fcfs, rr, pascal, deficit_pct = row
        # PASCAL within a few percent of the best baseline (paper: 3%).
        assert deficit_pct < 6.0
        # Throughput is monotone in offered load for every policy.
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        series = [r for r in result.rows if r[0] == dataset]
        by_rate = {r[1]: r for r in series}
        for policy_idx in (2, 3, 4):
            assert (
                by_rate["low"][policy_idx]
                <= by_rate["medium"][policy_idx]
                <= by_rate["high"][policy_idx] * 1.02
            )


def test_fig12_pascal_never_collapses(record_figure, figure):
    result = figure(fig12_throughput)
    for row in result.rows:
        fcfs, rr, pascal = row[2], row[3], row[4]
        assert pascal > 0.8 * max(fcfs, rr)
