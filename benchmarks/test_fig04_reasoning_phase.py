"""Figure 4: reasoning-phase latency breakdown under a 50% memory cap.

Paper shape: FCFS inflates *short* reasoning requests most (head-of-line
blocking; up to 5.14x oracle at 128 tokens, shrinking with length), while
RR stays near-oracle for short requests but pays a preemption penalty on
*long* ones (up to 1.75x at 2048 tokens).
"""

from repro.harness.experiments import fig4_reasoning_phase


def ratio(rows, length, policy):
    for row in rows:
        if row[0] == length and row[1] == policy:
            return row[6]
    raise KeyError((length, policy))


def test_fig4_reasoning_phase(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig4_reasoning_phase,), rounds=1, iterations=1
    )
    record_figure(result)
    rows = result.rows

    # FCFS: blocking-dominated inflation, worst for the shortest requests.
    assert ratio(rows, 128, "fcfs") > 2.0
    assert ratio(rows, 128, "fcfs") > ratio(rows, 2048, "fcfs")

    # RR: short requests near-oracle (the whole point of time-sharing).
    assert ratio(rows, 128, "rr") < 1.2
    assert ratio(rows, 256, "rr") < 1.2

    # RR: long requests pay the preemption penalty; FCFS vs RR cross over.
    assert ratio(rows, 2048, "rr") > 1.2
    assert ratio(rows, 2048, "rr") > ratio(rows, 2048, "fcfs") * 0.9
    assert ratio(rows, 128, "rr") < ratio(rows, 128, "fcfs")

    # Oracle rows are the normalization baseline.
    for length in (128, 256, 512, 1024, 2048):
        assert ratio(rows, length, "oracle") == 1.0


def test_fig4_fcfs_inflation_is_blocking(record_figure, figure):
    result = figure(fig4_reasoning_phase)
    for row in result.rows:
        length, policy, executed, blocked, preempted = row[:5]
        if policy == "fcfs" and length == 128:
            # Waiting (blocked + preempted), not execution, dominates the
            # FCFS slowdown for short requests.
            assert blocked + preempted > executed
