"""Figure 10: tail TTFT per 256-token reasoning-length bin, high rate.

Paper headline: PASCAL cuts tail TTFT by up to 61% (AlpacaEval2.0) and 72%
(Arena-Hard) vs FCFS, and by up to 33% / 29% vs RR, with only rare, small
degradations (worst observed +6.12% vs FCFS / +9.23% vs RR).
"""

from repro.harness.experiments import fig10_tail_ttft


def reductions(rows, dataset):
    vs_fcfs = [r[7] for r in rows if r[0] == dataset]
    vs_rr = [r[8] for r in rows if r[0] == dataset]
    return vs_fcfs, vs_rr


def test_fig10_tail_ttft(benchmark, record_figure, figure):
    result = benchmark.pedantic(
        figure, args=(fig10_tail_ttft,), rounds=1, iterations=1
    )
    record_figure(result)
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        vs_fcfs, vs_rr = reductions(result.rows, dataset)
        assert vs_fcfs, f"no shared bins for {dataset}"
        # Large best-case reductions vs FCFS (paper: 61% / 72%).
        assert max(vs_fcfs) > 30.0
        # A clear best-case win vs RR as well (paper: 33% / 29%).
        assert max(vs_rr) > 8.0
        # Degradations exist but stay bounded (paper: ~6-9% worst case).
        assert min(vs_fcfs) > -25.0
        assert min(vs_rr) > -25.0
        # PASCAL wins more bins than it loses against FCFS.
        wins = sum(1 for v in vs_fcfs if v > 0)
        losses = sum(1 for v in vs_fcfs if v < 0)
        assert wins > losses


def test_fig10_short_bins_benefit_most_vs_fcfs(record_figure, figure):
    result = figure(fig10_tail_ttft)
    # Head-of-line blocking hits short reasoning hardest, so PASCAL's
    # biggest per-bin win vs FCFS lands in the shorter half of the bins.
    for dataset in ("alpaca-eval-2.0", "arena-hard"):
        rows = [r for r in result.rows if r[0] == dataset]
        best = max(rows, key=lambda r: r[7])
        lows = [int(r[1].strip("[]").split("-")[0]) for r in rows]
        best_lo = int(best[1].strip("[]").split("-")[0])
        assert best_lo <= sorted(lows)[len(lows) // 2]
