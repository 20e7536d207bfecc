"""Figure 15: the value of the adaptive migration override.

Paper shape: TTFT distributions look similar, but blindly migrating at
every transition (NonAdaptive) sends requests to memory-starved targets:
SLO violations climb with arrival rate (7.45% vs 0.69% at high in the
paper) and end-to-end latency degrades (median +20.1%, tail +9.7%).
"""

from repro.harness.experiments import fig15_non_adaptive


def pick(rows, policy, rate):
    for row in rows:
        if row[0] == policy and row[1] == rate:
            return row
    raise KeyError((policy, rate))


def test_fig15_non_adaptive(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig15_non_adaptive,), rounds=1, iterations=1
    )
    record_figure(result)
    rows = result.rows

    high_pascal = pick(rows, "pascal", "high")
    high_nonadaptive = pick(rows, "pascal-nonadaptive", "high")

    # SLO violations blow up without the adaptive veto (paper: ~10x).
    assert high_nonadaptive[2] > 2 * max(high_pascal[2], 0.2)

    # Violations rise with the arrival rate for NonAdaptive.
    series = [
        pick(rows, "pascal-nonadaptive", rate)[2]
        for rate in ("low", "medium", "high")
    ]
    assert series[0] <= series[1] <= series[2]

    # Median and tail end-to-end latency degrade (paper: +20.1% / +9.7%).
    assert high_nonadaptive[6] > high_pascal[6] * 1.05
    assert high_nonadaptive[7] > high_pascal[7] * 1.02

    # TTFT distributions remain similar (within ~15%).
    assert abs(high_nonadaptive[3] - high_pascal[3]) / high_pascal[3] < 0.15


def test_fig15_pascal_keeps_high_rate_violations_low(record_figure, figure):
    result = figure(fig15_non_adaptive)
    assert pick(result.rows, "pascal", "high")[2] < 5.0
