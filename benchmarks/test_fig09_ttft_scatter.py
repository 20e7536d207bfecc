"""Figure 9: absolute TTFT across arrival rates.

Paper shape: TTFT grows with the arrival rate for every policy; the high
rate punishes FCFS (blocking) and RR (tail preemption) much harder than
PASCAL; PASCAL's mean TTFT is the lowest at high load on both datasets.
"""

from repro.harness.experiments import fig9_ttft


def pick(rows, dataset, rate, policy):
    for row in rows:
        if row[0] == dataset and row[1] == rate and row[2] == policy:
            return row
    raise KeyError((dataset, rate, policy))


def test_fig9_ttft(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig9_ttft,), rounds=1, iterations=1
    )
    record_figure(result)
    rows = result.rows
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        # Load monotonicity for the blocking baseline.
        fcfs_means = [
            pick(rows, dataset, rate, "fcfs")[3]
            for rate in ("low", "medium", "high")
        ]
        assert fcfs_means[0] <= fcfs_means[1] <= fcfs_means[2]

        # At the high rate PASCAL holds the lowest mean TTFT.
        high = {
            policy: pick(rows, dataset, "high", policy)[3]
            for policy in ("fcfs", "rr", "pascal")
        }
        assert high["pascal"] <= high["fcfs"]
        assert high["pascal"] <= high["rr"] * 1.02

        # RR mitigates FCFS's head-of-line blocking on mean TTFT.
        assert high["rr"] <= high["fcfs"] * 1.02


def test_fig9_reasoning_dominates_ttft(record_figure, figure):
    result = figure(fig9_ttft)
    # Arena-Hard reasons ~2x longer than AlpacaEval; its TTFTs scale along.
    alpaca = pick(result.rows, "alpaca-eval-2.0", "low", "fcfs")[3]
    arena = pick(result.rows, "arena-hard", "low", "fcfs")[3]
    assert arena > alpaca
