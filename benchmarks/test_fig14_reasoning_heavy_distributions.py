"""Figure 14: problem-solving dataset distributions.

MATH-500 / GPQA / LiveCodeBench reason long and answer short; GPQA's
reasoning:answering ratio is the paper's quoted 8.48x extreme.
"""

from repro.harness.experiments import fig14_reasoning_heavy_distributions


def test_fig14_distributions(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure,
        args=(fig14_reasoning_heavy_distributions,),
        rounds=1,
        iterations=1,
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
            _frac,
        ) = row
        assert abs(measured_reason - paper_reason) / paper_reason < 0.12
        assert abs(measured_answer - paper_answer) / paper_answer < 0.12
        # Reasoning-heavy: reasoning dominates answering for all three.
        assert ratio > 2.0


def test_fig14_gpqa_is_the_extreme(record_figure, figure):
    result = figure(fig14_reasoning_heavy_distributions)
    by_name = result.row_map()
    ratios = {name: row[5] for name, row in by_name.items()}
    assert max(ratios, key=ratios.get) == "gpqa"
    assert ratios["gpqa"] > 6.0  # paper: up to 8.48x
