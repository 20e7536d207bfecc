"""Figure 8: chat-dataset token-count distributions.

The synthetic trace generators must hit the per-dataset means the paper
prints (AlpacaEval 557.75/566.85, Arena-Hard 968.35/824.02) and the skew
the Figure 10 caption quotes (>70% of requests reason under 1000 tokens).
"""

from repro.harness.experiments import fig8_chat_distributions


def test_fig8_distributions(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig8_chat_distributions,), rounds=1, iterations=1
    )
    record_figure(result)
    for row in result.rows:
        (
            name,
            paper_reason,
            measured_reason,
            paper_answer,
            measured_answer,
            ratio,
            frac_short,
        ) = row
        assert abs(measured_reason - paper_reason) / paper_reason < 0.12
        assert abs(measured_answer - paper_answer) / paper_answer < 0.12
        # Chat datasets answer at length: reasoning:answering near 1.
        assert 0.6 < ratio < 1.6
        # Figure 10 caption: the reasoning-length distribution is skewed.
        assert frac_short > 0.70


def test_fig8_arena_longer_than_alpaca(record_figure, figure):
    result = figure(fig8_chat_distributions)
    by_name = result.row_map()
    alpaca = by_name["alpaca-eval-2.0"]
    arena = by_name["arena-hard"]
    assert arena[2] > alpaca[2]
    assert arena[4] > alpaca[4]
