"""Figure 11: answering-phase SLO violation rates across arrival rates.

Paper shape: violation rates are small at low/medium load for everyone and
grow with the arrival rate; PASCAL is consistently lower than or comparable
to both baselines thanks to SLO-aware placement plus the token pacer.
"""

from repro.harness.experiments import fig11_slo_violations


def pick(rows, dataset, rate):
    for row in rows:
        if row[0] == dataset and row[1] == rate:
            return {"fcfs": row[2], "rr": row[3], "pascal": row[4]}
    raise KeyError((dataset, rate))


def test_fig11_slo_violations(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig11_slo_violations,), rounds=1, iterations=1
    )
    record_figure(result)
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        for rate in ("low", "medium"):
            rates = pick(result.rows, dataset, rate)
            # Lightly loaded: nobody violates much.
            assert rates["pascal"] <= 2.0
            assert rates["pascal"] <= max(rates["fcfs"], rates["rr"]) + 1.0
        high = pick(result.rows, dataset, "high")
        # Under pressure PASCAL stays at or below both baselines.
        assert high["pascal"] <= high["fcfs"] + 0.5
        assert high["pascal"] <= high["rr"] + 0.5


def test_fig11_high_rate_strictly_favors_pascal(record_figure, figure):
    result = figure(fig11_slo_violations)
    # On at least one dataset the high-rate gap is strict and visible.
    strict = 0
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        high = pick(result.rows, dataset, "high")
        if high["pascal"] < min(high["fcfs"], high["rr"]):
            strict += 1
    assert strict >= 1
