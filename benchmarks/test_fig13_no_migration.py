"""Figure 13: the value of migrating requests at phase boundaries.

Paper shape: with migration disabled, reasoning-phase latency is nearly
unchanged, but transitioned requests stall waiting for memory on their home
instance — P99 blocking latency jumps (27.39 s in the paper vs near zero
for PASCAL) and answering-phase SLO violations rise.
"""

from repro.harness.experiments import fig13_no_migration


def test_fig13_no_migration(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig13_no_migration,), rounds=1, iterations=1
    )
    record_figure(result)
    rows = result.row_map()
    pascal = rows["pascal"]
    nomig = rows["pascal-nomigration"]

    # PASCAL keeps transition blocking near zero.
    assert pascal[4] < 0.5
    # Disabling migration inflates it by an order of magnitude.
    assert nomig[4] > 5 * pascal[4]
    # SLO violations worsen without migration.
    assert nomig[5] > pascal[5]
    # Reasoning-phase latency is nearly unchanged (within 5%).
    assert abs(nomig[3] - pascal[3]) / pascal[3] < 0.05


def test_fig13_ttft_not_better_without_migration(record_figure, figure):
    result = figure(fig13_no_migration)
    rows = result.row_map()
    # Mean TTFT does not improve when migration is disabled.
    assert rows["pascal-nomigration"][1] >= rows["pascal"][1] * 0.98
