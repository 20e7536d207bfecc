"""One declaration per paper table/figure.

Each figure is an :class:`~repro.harness.spec.ExperimentSpec`, declared
once by ``@_figure`` on its table function: the figure id, its title, the
factory of its scale-default settings and the sweep cells it needs
(``cells(settings)``).  Calling the spec (``fig9_ttft()``,
``fig9_ttft(settings, jobs=8)``) sweeps those cells, serially unless
``jobs > 1``, and hands their results (cell -> result, in declared order)
to the table function, which groups exactly those results into headers,
rows and notes: a table runs no simulation and looks no result up
itself.  ``python -m repro.harness all --jobs N`` first sweeps the
*union* of cells across every figure (they overlap heavily) in one pool.

The inline figures (Figures 2, 8 and 14 and the Section V-A validation)
declare no cells: their simulations are too cheap to dispatch, so their
tables run them directly and take keyword options
(``fig8_chat_distributions(n_samples=500)``) instead of settings.

The benchmark suite under ``benchmarks/`` prints these tables and asserts
the qualitative shape (who wins, approximate factors).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.harness.runner import (
    CharacterizationRun,
    CharacterizationSettings,
    CharCell,
    EvalCell,
    EvalSettings,
)
from repro.harness.spec import ExperimentSpec, Table
from repro.harness.timeline import ascii_timeline
from repro.metrics.collector import RunMetrics
from repro.metrics.summary import mean, percentile
from repro.perfmodel.analytical import AnalyticalPerfModel
from repro.perfmodel.profile import ProfileTable
from repro.perfmodel.unit import UnitPerfModel
from repro.perfmodel.validate import validate_runs
from repro.workload.datasets import (
    ALPACA_EVAL,
    ARENA_HARD,
    GPQA,
    LIVECODEBENCH,
    MATH_500,
    DatasetSpec,
    MixedDataset,
    deferral_stress_mix,
    reasoning_heavy_mix,
)
from repro.workload.request import Phase
from repro.workload.synthetic import (
    CHARACTERIZATION_LENGTHS,
    fixed_length_requests,
)
from repro.workload.trace import TraceConfig, build_trace, trace_token_stats

CHAR_POLICIES = ("oracle", "fcfs", "rr")
EVAL_POLICIES = ("fcfs", "rr", "pascal")
_TIERS = ("low", "medium", "high")
_CHAT = (ALPACA_EVAL, ARENA_HARD)

#: What a cell-backed table is handed: each declared cell's result.
EvalResults = dict[EvalCell, RunMetrics]
CharResults = dict[CharCell, CharacterizationRun]

#: Every figure by id, filled in declaration order by :func:`_figure`.
ALL_EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _figure(
    figure_id: str,
    title: str,
    settings_factory: Callable[[], Any] | None = None,
    cells: Callable[[Any], tuple] | None = None,
) -> Callable[[Callable[..., Table]], ExperimentSpec]:
    """Declare one figure: its table function becomes a registered spec."""

    def declare(table: Callable[..., Table]) -> ExperimentSpec:
        spec = ExperimentSpec(figure_id, title, table, cells, settings_factory)
        ALL_EXPERIMENTS[figure_id] = spec
        return spec

    return declare


# ---------------------------------------------------------------------------
# shared cell declarations and row helpers
# ---------------------------------------------------------------------------
def _eval_cells(datasets, tiers, policies, settings) -> tuple[EvalCell, ...]:
    """The dataset x tier x policy evaluation matrix, policy fastest."""
    return tuple(
        EvalCell(dataset, tier, policy, settings)
        for dataset in datasets
        for tier in tiers
        for policy in policies
    )


def _alpaca_cells(policies, tiers, settings) -> tuple[EvalCell, ...]:
    """Each policy across ``tiers`` on AlpacaEval, tier fastest (the
    policy-major row order of the ablation tables)."""
    return tuple(
        EvalCell(ALPACA_EVAL, tier, policy, settings)
        for policy in policies
        for tier in tiers
    )


def _variant_cells(
    dataset: DatasetSpec | MixedDataset,
    rows: tuple[tuple[str, bool], ...],
    base: EvalSettings,
    variant: Callable[[EvalSettings], EvalSettings],
) -> tuple[EvalCell, ...]:
    """One high-tier cell per ``(policy, is_variant)`` row; a variant row
    runs on ``variant(base)`` instead of ``base``."""
    varied = variant(base)
    return tuple(
        EvalCell(dataset, "high", policy, varied if is_variant else base)
        for policy, is_variant in rows
    )


def _variant_label(cell: EvalCell, base: EvalSettings, suffix: str) -> str:
    """A row label: the policy, suffixed when the cell ran off ``base``."""
    return cell.policy if cell.settings == base else f"{cell.policy}{suffix}"


def _char_cells(phase: str, settings) -> tuple[CharCell, ...]:
    return tuple(CharCell(phase, policy, settings) for policy in CHAR_POLICIES)


def _by_dataset_tier(
    results: EvalResults,
) -> dict[tuple[str, str], dict[str, RunMetrics]]:
    """(dataset, tier) -> policy -> metrics, all in declared order."""
    groups: dict[tuple[str, str], dict[str, RunMetrics]] = {}
    for cell, metrics in results.items():
        groups.setdefault((cell.dataset.name, cell.tier), {})[
            cell.policy
        ] = metrics
    return groups


@dataclasses.dataclass(frozen=True)
class TailBinComparison:
    """One reasoning-length bin of a FCFS / RR / PASCAL tail comparison."""

    label: str
    n_samples: int
    metric_name: str
    fcfs: float
    rr: float
    pascal: float
    #: Fractional tail reduction of PASCAL vs each baseline (0..1).
    red_vs_fcfs: float
    red_vs_rr: float


def _tail_ttft_comparison(
    metrics: dict[str, RunMetrics], bin_width: int = 256
) -> list[TailBinComparison]:
    """Per-bin tail-TTFT comparison shared by Figures 10 and 16."""
    bins = {
        p: {b.lo: b for b in m.ttft_bins(bin_width=bin_width)}
        for p, m in metrics.items()
    }
    shared = sorted(set(bins["fcfs"]) & set(bins["rr"]) & set(bins["pascal"]))
    rows = []
    for lo in shared:
        fcfs_v = bins["fcfs"][lo].tail_value
        rr_v = bins["rr"][lo].tail_value
        pascal_v = bins["pascal"][lo].tail_value
        rows.append(
            TailBinComparison(
                label=bins["pascal"][lo].label,
                n_samples=bins["pascal"][lo].n_samples,
                metric_name=bins["pascal"][lo].metric_name,
                fcfs=fcfs_v,
                rr=rr_v,
                pascal=pascal_v,
                red_vs_fcfs=(fcfs_v - pascal_v) / fcfs_v if fcfs_v > 0 else 0.0,
                red_vs_rr=(rr_v - pascal_v) / rr_v if rr_v > 0 else 0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — scheduling timeline in abstract time units
# ---------------------------------------------------------------------------
@_figure("fig2", "Request C under oracle / FCFS / RR (time units)")
def fig2_timeline() -> Table:
    """Oracle / FCFS / RR timelines for three requests, capacity = 2.

    Requests A, B, C arrive at t = 0, 1, 2; GPU memory fits two requests;
    the RR token quantum is 4.  The paper reads off a TTFT of 7 units for
    request C under FCFS versus 3 under RR.
    """
    rows = []
    timelines = {}
    for policy, capacity_requests in (
        ("oracle", 3),
        ("fcfs", 2),
        ("rr", 2),
    ):
        # One 16-token block per request: prompt 1 + up to 8 decode tokens.
        instance = InstanceConfig(
            kv_capacity_tokens=capacity_requests * 16,
            scheduler=SchedulerConfig(token_quantum=4),
        )
        config = ClusterConfig(n_instances=1, instance=instance)
        cluster = Cluster(
            config, policy=policy, perf=UnitPerfModel(decode_step_s=1.0)
        )
        log = cluster.enable_token_log()
        requests = fixed_length_requests(
            3,
            prompt_len=1,
            reasoning_len=4,
            answer_len=4,
            arrival_times=[0.0, 1.0, 2.0],
            dataset="fig2",
        )
        # Request C is one token shorter, as drawn in the paper.
        requests[2].answer_len = 3
        cluster.run_trace(requests)
        timelines[policy] = ascii_timeline(requests, log)
        req_c = requests[2]
        rows.append(
            [
                policy,
                req_c.first_sched_t - req_c.arrival_t,
                req_c.ttft(),
                max(r.done_t for r in requests),
            ]
        )
    return Table(
        headers=["policy", "C wait", "C TTFT", "makespan"],
        rows=rows,
        notes=[
            "paper: C's service is delayed ~7 units under FCFS vs ~3 under RR",
            *[f"{p} timeline:\n{t}" for p, t in timelines.items()],
        ],
    )


# ---------------------------------------------------------------------------
# Figure 4 — reasoning-phase latency breakdown
# ---------------------------------------------------------------------------
@_figure(
    "fig4",
    "Reasoning-phase latency breakdown (s), 50% memory cap",
    CharacterizationSettings.for_scale,
    lambda s: _char_cells("reasoning", s),
)
def fig4_reasoning_phase(
    settings: CharacterizationSettings, results: CharResults
) -> Table:
    runs = {cell.policy: run for cell, run in results.items()}
    breakdowns = {
        policy: run.metrics.phase_breakdown(
            Phase.REASONING, lambda r: r.reasoning_len
        )
        for policy, run in runs.items()
    }
    rows = []
    for length in CHARACTERIZATION_LENGTHS:
        oracle_total = sum(breakdowns["oracle"].get(length, {}).values())
        for policy, breakdown in breakdowns.items():
            bucket = breakdown.get(
                length, {"executed": 0.0, "blocked": 0.0, "preempted": 0.0}
            )
            total = sum(bucket.values())
            rows.append(
                [
                    length,
                    policy,
                    bucket["executed"],
                    bucket["blocked"],
                    bucket["preempted"],
                    total,
                    (total / oracle_total) if oracle_total > 0 else None,
                ]
            )
    return Table(
        headers=[
            "reasoning_tokens",
            "policy",
            "executed",
            "blocked",
            "preempted",
            "total",
            "vs_oracle",
        ],
        rows=rows,
        notes=[
            "paper: FCFS up to 5.14x oracle at 128 tokens (blocking-dominated)",
            "paper: RR up to 1.75x oracle at 2048 tokens (preemption-dominated)",
            f"capacity: oracle peak {runs['fcfs'].oracle_peak_tokens} tokens, "
            f"constrained {runs['fcfs'].capacity_tokens} tokens",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 5 — answering-phase latency breakdown + SLO attainment
# ---------------------------------------------------------------------------
@_figure(
    "fig5",
    "Answering-phase latency breakdown (s) and SLO attainment",
    CharacterizationSettings.for_scale,
    lambda s: _char_cells("answering", s),
)
def fig5_answering_phase(
    settings: CharacterizationSettings, results: CharResults
) -> Table:
    slo = ClusterConfig().slo
    rows = []
    for length in CHARACTERIZATION_LENGTHS:
        for cell, run in results.items():
            subset = [
                r for r in run.metrics.requests if r.answer_len == length
            ]
            sub_metrics = RunMetrics(policy=cell.policy, requests=subset)
            bucket = sub_metrics.phase_breakdown(
                Phase.ANSWERING, lambda r: 0
            )[0]
            report = sub_metrics.slo_report(slo, include_ttfat=True)
            rows.append(
                [
                    length,
                    cell.policy,
                    bucket["executed"],
                    bucket["blocked"],
                    bucket["preempted"],
                    sum(bucket.values()),
                    report.attainment_rate,
                ]
            )
    return Table(
        headers=[
            "answer_tokens",
            "policy",
            "executed",
            "blocked",
            "preempted",
            "total",
            "slo_attainment",
        ],
        rows=rows,
        notes=[
            "paper: FCFS attainment low across lengths (TTFAT blown by blocking)",
            "paper: RR attainment ~= oracle even where its total latency exceeds "
            "FCFS at 2048 tokens (threshold-based SLO tolerates preemption)",
            "SLO: QoE >= 0.95 with TTFAT target 0.25 s, TPOT target 100 ms",
        ],
    )


# ---------------------------------------------------------------------------
# Figures 8 and 14 — dataset token distributions
# ---------------------------------------------------------------------------
def _distribution_rows(specs, n_samples: int = 4000) -> list[list]:
    rows = []
    for spec in specs:
        trace = build_trace(
            TraceConfig(
                dataset=spec,
                n_requests=n_samples,
                arrival_rate_per_s=1.0,
                seed=13,
            )
        )
        stats = trace_token_stats(trace)
        rows.append(
            [
                spec.name,
                spec.reasoning.mean,
                stats["reasoning_mean"],
                spec.answering.mean,
                stats["answering_mean"],
                stats["reasoning_mean"] / max(stats["answering_mean"], 1e-9),
                stats["frac_reasoning_under_1000"],
            ]
        )
    return rows


_DISTRIBUTION_HEADERS = [
    "dataset",
    "paper_reason_mean",
    "measured_reason_mean",
    "paper_answer_mean",
    "measured_answer_mean",
    "reason/answer",
    "frac_reason<1000",
]


@_figure("fig8", "Chat dataset token distributions (synthetic vs paper means)")
def fig8_chat_distributions(n_samples: int = 4000) -> Table:
    return Table(
        headers=_DISTRIBUTION_HEADERS,
        rows=_distribution_rows((ALPACA_EVAL, ARENA_HARD), n_samples),
        notes=[
            "paper (fig 8): AlpacaEval 557.75/566.85, Arena-Hard 968.35/824.02",
            "paper (fig 10 caption): >70% of requests reason under 1000 tokens",
        ],
    )


@_figure(
    "fig14",
    "Problem-solving dataset distributions (synthetic vs paper means)",
)
def fig14_reasoning_heavy_distributions(n_samples: int = 4000) -> Table:
    return Table(
        headers=_DISTRIBUTION_HEADERS,
        rows=_distribution_rows((MATH_500, GPQA, LIVECODEBENCH), n_samples),
        notes=[
            "paper (fig 14): MATH-500 747.20/164.67, GPQA 2679.27/316.09, "
            "LiveCodeBench 1896.64/697.09",
            "paper: reasoning tokens reach up to 8.48x the answering tokens",
        ],
    )


# ---------------------------------------------------------------------------
# Figures 9-12 — the Section V evaluation matrix
# ---------------------------------------------------------------------------
@_figure(
    "fig9",
    "Absolute TTFT across arrival rates (s)",
    EvalSettings.for_scale,
    lambda s: _eval_cells(_CHAT, _TIERS, EVAL_POLICIES, s),
)
def fig9_ttft(settings: EvalSettings, results: EvalResults) -> Table:
    rows = []
    for cell, metrics in results.items():
        ttfts = metrics.ttfts()
        rows.append(
            [
                cell.dataset.name,
                cell.tier,
                cell.policy,
                mean(ttfts),
                percentile(ttfts, 50),
                percentile(ttfts, 99),
                max(ttfts),
            ]
        )
    return Table(
        headers=[
            "dataset",
            "rate",
            "policy",
            "mean",
            "p50",
            "p99",
            "max",
        ],
        rows=rows,
        notes=[
            "paper: TTFT grows with reasoning length; high rate inflates "
            "FCFS/RR tails far more than PASCAL's",
        ],
    )


@_figure(
    "fig10",
    "Tail TTFT by reasoning-length bin, high arrival rate (s)",
    EvalSettings.for_scale,
    lambda s: _eval_cells(_CHAT, ("high",), EVAL_POLICIES, s),
)
def fig10_tail_ttft(settings: EvalSettings, results: EvalResults) -> Table:
    rows = []
    notes = [
        "paper: PASCAL cuts tail TTFT by up to 61% (AlpacaEval) / 72% "
        "(Arena-Hard) vs FCFS, and 33% / 29% vs RR",
    ]
    for (name, _tier), metrics in _by_dataset_tier(results).items():
        comparison = _tail_ttft_comparison(metrics)
        for bin_row in comparison:
            rows.append(
                [
                    name,
                    bin_row.label,
                    bin_row.n_samples,
                    bin_row.metric_name,
                    bin_row.fcfs,
                    bin_row.rr,
                    bin_row.pascal,
                    100.0 * bin_row.red_vs_fcfs,
                    100.0 * bin_row.red_vs_rr,
                ]
            )
        best_vs_fcfs = max([0.0, *(b.red_vs_fcfs for b in comparison)])
        best_vs_rr = max([0.0, *(b.red_vs_rr for b in comparison)])
        notes.append(
            f"measured {name}: best reduction {100 * best_vs_fcfs:.0f}% vs "
            f"FCFS, {100 * best_vs_rr:.0f}% vs RR"
        )
    return Table(
        headers=[
            "dataset",
            "bin",
            "n",
            "metric",
            "fcfs",
            "rr",
            "pascal",
            "red_vs_fcfs_%",
            "red_vs_rr_%",
        ],
        rows=rows,
        notes=notes,
    )


@_figure(
    "fig11",
    "Answering-phase SLO violation rates (%)",
    EvalSettings.for_scale,
    lambda s: _eval_cells(_CHAT, _TIERS, EVAL_POLICIES, s),
)
def fig11_slo_violations(
    settings: EvalSettings, results: EvalResults
) -> Table:
    slo = settings.cluster_config().slo
    rows = [
        [
            name,
            tier,
            *(
                100.0 * metrics.slo_report(slo).violation_rate
                for metrics in by_policy.values()
            ),
        ]
        for (name, tier), by_policy in _by_dataset_tier(results).items()
    ]
    return Table(
        headers=["dataset", "rate", "fcfs_%", "rr_%", "pascal_%"],
        rows=rows,
        notes=[
            "paper: PASCAL consistently lower or comparable violation rates",
            "violation: QoE (TPOT-anchored) below 0.95",
        ],
    )


@_figure(
    "fig12",
    "Serving throughput (tokens/s)",
    EvalSettings.for_scale,
    lambda s: _eval_cells(_CHAT, _TIERS, EVAL_POLICIES, s),
)
def fig12_throughput(settings: EvalSettings, results: EvalResults) -> Table:
    rows = []
    worst_gap = 0.0
    for (name, tier), by_policy in _by_dataset_tier(results).items():
        values = {
            policy: metrics.throughput_tokens_per_s
            for policy, metrics in by_policy.items()
        }
        baseline_best = max(values["fcfs"], values["rr"])
        gap = (
            (baseline_best - values["pascal"]) / baseline_best
            if baseline_best > 0
            else 0.0
        )
        worst_gap = max(worst_gap, gap)
        rows.append(
            [
                name,
                tier,
                values["fcfs"],
                values["rr"],
                values["pascal"],
                100.0 * gap,
            ]
        )
    return Table(
        headers=[
            "dataset",
            "rate",
            "fcfs",
            "rr",
            "pascal",
            "pascal_deficit_%",
        ],
        rows=rows,
        notes=[
            "paper: PASCAL throughput within 3% of both baselines",
            f"measured worst PASCAL deficit vs best baseline: {100 * worst_gap:.1f}%",
        ],
    )


# ---------------------------------------------------------------------------
# Section V-C — KV cache transfer overhead
# ---------------------------------------------------------------------------
#: The paper's P99 KV-transfer latency (s) per dataset.
_PAPER_TRANSFER_P99_S = {ALPACA_EVAL.name: 0.14, ARENA_HARD.name: 0.25}


@_figure(
    "sec5c",
    "KV-cache transfer overhead under high arrival rate",
    EvalSettings.for_scale,
    lambda s: _eval_cells(_CHAT, ("high",), ("pascal",), s),
)
def sec5c_transfer_overhead(
    settings: EvalSettings, results: EvalResults
) -> Table:
    rows = []
    for cell, metrics in results.items():
        p99 = metrics.p99_transfer_latency()
        ttft_p99 = percentile(metrics.ttfts(), 99)
        rows.append(
            [
                cell.dataset.name,
                len(metrics.transfer_latencies_s),
                _PAPER_TRANSFER_P99_S[cell.dataset.name],
                p99,
                ttft_p99,
                (100.0 * p99 / ttft_p99) if (p99 and ttft_p99 > 0) else None,
            ]
        )
    return Table(
        headers=[
            "dataset",
            "n_transfers",
            "paper_p99_s",
            "measured_p99_s",
            "p99_ttft_s",
            "transfer/ttft_%",
        ],
        rows=rows,
        notes=[
            "paper: P99 transfer latency 0.14 s (AlpacaEval) / 0.25 s "
            "(Arena-Hard); negligible vs multi-second TTFTs",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 13 — disabling migration
# ---------------------------------------------------------------------------
@_figure(
    "fig13",
    "PASCAL vs PASCAL(NoMigration), AlpacaEval high rate",
    EvalSettings.for_scale,
    lambda s: _alpaca_cells(("pascal", "pascal-nomigration"), ("high",), s),
)
def fig13_no_migration(settings: EvalSettings, results: EvalResults) -> Table:
    slo = settings.cluster_config().slo
    rows = []
    for cell, metrics in results.items():
        ttfts = metrics.ttfts()
        blocking = metrics.blocking_latencies()
        rows.append(
            [
                cell.policy,
                mean(ttfts),
                percentile(ttfts, 99),
                mean(metrics.reasoning_latencies()),
                percentile(blocking, 99) if blocking else None,
                100.0 * metrics.slo_report(slo).violation_rate,
            ]
        )
    return Table(
        headers=[
            "policy",
            "mean_ttft_s",
            "p99_ttft_s",
            "mean_reasoning_s",
            "p99_blocking_s",
            "slo_violation_%",
        ],
        rows=rows,
        notes=[
            "paper: NoMigration's P99 blocking latency reaches 27.39 s while "
            "PASCAL keeps it near zero; reasoning latency is nearly unchanged "
            "but tail TTFT and SLO violations worsen",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 15 — disabling adaptive migration
# ---------------------------------------------------------------------------
@_figure(
    "fig15",
    "PASCAL vs PASCAL(NonAdaptive), AlpacaEval",
    EvalSettings.for_scale,
    lambda s: _alpaca_cells(("pascal", "pascal-nonadaptive"), _TIERS, s),
)
def fig15_non_adaptive(settings: EvalSettings, results: EvalResults) -> Table:
    slo = settings.cluster_config().slo
    rows = []
    for cell, metrics in results.items():
        ttfts = metrics.ttfts()
        e2e = metrics.e2e_latencies()
        rows.append(
            [
                cell.policy,
                cell.tier,
                100.0 * metrics.slo_report(slo).violation_rate,
                mean(ttfts),
                percentile(ttfts, 99),
                mean(e2e),
                percentile(e2e, 50),
                percentile(e2e, 99),
            ]
        )
    return Table(
        headers=[
            "policy",
            "rate",
            "slo_violation_%",
            "mean_ttft_s",
            "p99_ttft_s",
            "mean_e2e_s",
            "p50_e2e_s",
            "p99_e2e_s",
        ],
        rows=rows,
        notes=[
            "paper: at high rate NonAdaptive violates SLO 7.45% vs 0.69%; "
            "median e2e +20.1%, tail +9.7%; TTFT distributions similar",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 16 — reasoning-heavy mixed workload
# ---------------------------------------------------------------------------
@_figure(
    "fig16",
    "Mixed 50% Arena-Hard + 50% reasoning-heavy, high rate",
    EvalSettings.for_scale,
    lambda s: _eval_cells(
        (reasoning_heavy_mix(),), ("high",), EVAL_POLICIES, s
    ),
)
def fig16_mixed_workload(
    settings: EvalSettings, results: EvalResults
) -> Table:
    slo = settings.cluster_config().slo
    metrics = {cell.policy: m for cell, m in results.items()}
    comparison = _tail_ttft_comparison(metrics, bin_width=512)
    rows = [
        [
            bin_row.label,
            bin_row.n_samples,
            bin_row.fcfs,
            bin_row.rr,
            bin_row.pascal,
            100.0 * bin_row.red_vs_fcfs,
            100.0 * bin_row.red_vs_rr,
        ]
        for bin_row in comparison
    ]
    best_vs_fcfs = max([0.0, *(b.red_vs_fcfs for b in comparison)])
    best_vs_rr = max([0.0, *(b.red_vs_rr for b in comparison)])
    worst_vs_rr = min([0.0, *(b.red_vs_rr for b in comparison)])
    slo_row = [
        "slo_violation_%",
        None,
        100.0 * metrics["fcfs"].slo_report(slo).violation_rate,
        100.0 * metrics["rr"].slo_report(slo).violation_rate,
        100.0 * metrics["pascal"].slo_report(slo).violation_rate,
        None,
        None,
    ]
    rows.append(slo_row)
    return Table(
        headers=[
            "bin",
            "n",
            "fcfs",
            "rr",
            "pascal",
            "red_vs_fcfs_%",
            "red_vs_rr_%",
        ],
        rows=rows,
        notes=[
            "paper: up to 70% tail-TTFT reduction vs FCFS on short bins; "
            "worst-case +6.8% on long reasoning; vs RR up to 13.9% better, "
            "worst-case degradation < 7.7%; SLO ~= RR, below FCFS",
            f"measured: best {100 * best_vs_fcfs:.0f}% vs FCFS, best "
            f"{100 * best_vs_rr:.0f}% / worst {100 * worst_vs_rr:.0f}% vs RR",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 16 extension — heterogeneous pools and token-weighted load
# ---------------------------------------------------------------------------
def _weighted_settings(settings: EvalSettings) -> EvalSettings:
    """The same cell with ``slo-least-load`` flipped to token-weighted."""
    return dataclasses.replace(
        settings,
        extensions=dataclasses.replace(
            settings.extensions, least_load_weighted=True
        ),
    )


#: (policy, runs on the token-weighted settings) per fig16x row.
_FIG16X_ROWS = (
    ("pascal", False),
    ("slo-least-load", False),
    ("slo-least-load", True),
    ("length-predictive", False),
    ("tiered-express", False),
    ("speculative-replace", False),
)


@_figure(
    "fig16x",
    "Mixed workload, heterogeneous pools + token-weighted load "
    "vs extension baselines, high rate",
    EvalSettings.for_scale,
    lambda s: _variant_cells(
        reasoning_heavy_mix(), _FIG16X_ROWS, s, _weighted_settings
    ),
)
def fig16x_extension_mixed(
    settings: EvalSettings, results: EvalResults
) -> Table:
    """The ROADMAP's extension comparison on the Figure 16 mixed workload:
    ``tiered-express`` (heterogeneous FCFS/PASCAL pool) and token-weighted
    ``slo-least-load`` (the ``[w]`` row) against their single-tier /
    unweighted forms, with the online predictors' accuracy reported
    alongside."""
    slo = settings.cluster_config().slo
    rows = []
    notes = [
        "slo-least-load[w]: load = pending decode tokens (monitor signal) "
        "instead of live request count",
        "tiered-express: "
        f"{settings.extensions.pool.express_count(settings.n_instances)} "
        "FCFS express instances, threshold "
        f"{settings.extensions.pool.express_threshold_tokens} predicted "
        "reasoning tokens",
        "pred_err: |predicted - actual| reasoning length in tokens, "
        "learned online (no oracle lengths)",
        "rank_tau: Kendall tau-b of predicted score vs observed reasoning "
        "length, prequential (higher orders better)",
    ]
    for cell, metrics in results.items():
        label = _variant_label(cell, settings, "[w]")
        ttfts = metrics.ttfts()
        report = metrics.slo_report(slo)
        rows.append(
            [
                label,
                mean(ttfts),
                percentile(ttfts, 99),
                report.mean_qoe,
                100.0 * report.violation_rate,
                metrics.throughput_tokens_per_s,
                metrics.predictor_error_mean(),
                metrics.predictor_error_percentile(90),
                metrics.rank_correlation(),
            ]
        )
        per_dataset = metrics.predictor_error_rows()
        if per_dataset:
            detail = ", ".join(
                f"{dataset}: n={n} mean={err_mean:.0f} p90={err_p90:.0f}"
                for dataset, n, err_mean, err_p90 in per_dataset
            )
            notes.append(f"{label} per-dataset pred_err ({detail})")
    return Table(
        headers=[
            "policy",
            "mean_ttft_s",
            "p99_ttft_s",
            "mean_qoe",
            "slo_violation_%",
            "throughput",
            "pred_err_mean",
            "pred_err_p90",
            "rank_tau",
        ],
        rows=rows,
        notes=notes,
    )


def _stress_settings(settings: EvalSettings) -> EvalSettings:
    """The deferral-stress cell settings: bursty on-off arrivals."""
    return dataclasses.replace(
        settings,
        arrival_burst_duty=0.25,
        arrival_burst_cycle_s=40.0,
    )


def _ltr_settings(settings: EvalSettings) -> EvalSettings:
    """The same cell with the pairwise-LTR predictor selected."""
    return dataclasses.replace(
        settings,
        extensions=dataclasses.replace(
            settings.extensions, predictor="pairwise-ltr"
        ),
    )


#: (policy, uses the pairwise-LTR predictor) per deferral-stress row.
_DEFERRAL_STRESS_ROWS = (
    ("pascal", False),
    ("length-predictive", False),
    ("speculative-replace", False),
    ("speculative-replace", True),
)


@_figure(
    "deferral-stress",
    "Bursty bimodal mix, high rate: speculative "
    "deferral/replacement vs length-predictive",
    EvalSettings.for_scale,
    lambda s: _variant_cells(
        deferral_stress_mix(),
        _DEFERRAL_STRESS_ROWS,
        _stress_settings(s),
        _ltr_settings,
    ),
)
def deferral_stress(settings: EvalSettings, results: EvalResults) -> Table:
    """Speculative deferral/replacement under bursty heavy-tail load.

    The bimodal chat/GPQA mix of :func:`deferral_stress_mix` arrives in
    on-off bursts (duty 0.25: 4x the mean rate while "on") at the high
    tier — the regime where admitting a mis-ranked chain of thought at
    the head of a burst parks it in front of dozens of short chats.
    ``speculative-replace`` defers rank-uncertain and predicted-long
    arrivals into the cluster waiting room and demotes predicted-long
    in-flight requests on pressured targets; the ``[ltr]`` row swaps the
    flat EWMA for the pairwise learning-to-rank predictor.
    """
    stress = _stress_settings(settings)
    slo = stress.cluster_config().slo
    rows = []
    notes = [
        f"arrivals: on-off bursts, duty {stress.arrival_burst_duty:g}, "
        f"cycle {stress.arrival_burst_cycle_s:g}s (mean rate preserved)",
        "deferrals: arrivals parked in the cluster waiting room by the "
        "speculative admission gate (re-placed on re-arrival)",
        "rank_tau: Kendall tau-b of predicted score vs observed reasoning "
        "length, prequential (higher orders better)",
    ]
    for cell, metrics in results.items():
        label = _variant_label(cell, stress, "[ltr]")
        ttfts = metrics.ttfts()
        report = metrics.slo_report(slo)
        rows.append(
            [
                label,
                mean(ttfts),
                percentile(ttfts, 99),
                report.mean_qoe,
                100.0 * report.violation_rate,
                metrics.throughput_tokens_per_s,
                metrics.n_deferrals,
                metrics.rank_correlation(),
            ]
        )
        per_dataset = metrics.rank_correlation_rows()
        if per_dataset:
            detail = ", ".join(
                f"{dataset}: n={n} tau={tau:.2f}"
                for dataset, n, tau in per_dataset
            )
            notes.append(f"{label} per-dataset rank_tau ({detail})")
    return Table(
        headers=[
            "policy",
            "mean_ttft_s",
            "p99_ttft_s",
            "mean_qoe",
            "slo_violation_%",
            "throughput",
            "deferrals",
            "rank_tau",
        ],
        rows=rows,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Section V-A — simulator validation (profile table vs analytical source)
# ---------------------------------------------------------------------------
@_figure(
    "sec5a",
    "Simulator validation: profile-table vs reference model (MAPE %)",
)
def sec5a_validation(n_requests: int = 80, seed: int = 3) -> Table:
    analytical = AnalyticalPerfModel(
        ClusterConfig().instance.model, ClusterConfig().instance.gpu
    )
    profile = ProfileTable.from_model(analytical)
    runs = {}
    for label, perf in (("analytical", analytical), ("profile", profile)):
        trace = build_trace(
            TraceConfig(
                dataset=ALPACA_EVAL,
                n_requests=n_requests,
                arrival_rate_per_s=0.5,
                seed=seed,
            )
        )
        instance = InstanceConfig(kv_capacity_tokens=16000)
        config = ClusterConfig(n_instances=1, instance=instance)
        cluster = Cluster(config, policy="fcfs", perf=perf)
        cluster.run_trace(trace)
        runs[label] = cluster.completed
    report = validate_runs(runs["analytical"], runs["profile"])
    rows = [
        [metric, paper, measured]
        for metric, paper, measured in report.rows()
    ]
    return Table(
        headers=["metric", "paper_mape_%", "measured_mape_%"],
        rows=rows,
        notes=[
            "paper validates simulated vs measured H100 latency; we validate "
            "the profile-interpolation path against its closed-form source, "
            f"over {report.n_requests} paired requests",
        ],
    )


# ---------------------------------------------------------------------------
# Design-choice ablations (claims the paper states without a figure)
# ---------------------------------------------------------------------------
def _alg2_stressed_settings(settings: EvalSettings) -> EvalSettings:
    """The ablation's hotter-than-high "stress" tier on top of the base."""
    return dataclasses.replace(
        settings,
        load_factors=settings.load_factors + (("stress", 1.35),),
    )


@_figure(
    "ablation-alg2",
    "Algorithm 2 fallback: r_i + a_i vs r_i alone, AlpacaEval",
    EvalSettings.for_scale,
    lambda s: _alpaca_cells(
        ("pascal", "pascal-ri-only"),
        ("high", "stress"),
        _alg2_stressed_settings(s),
    ),
)
def ablation_alg2_fallback(
    settings: EvalSettings, results: EvalResults
) -> Table:
    """Algorithm 2's ``r_i + a_i`` fallback vs plain ``r_i`` (Section IV-B).

    The fallback only engages when every instance is violating its
    answering SLO, so this ablation runs a hotter-than-high "stress" tier
    on top of the standard tiers.
    """
    slo = settings.cluster_config().slo
    rows = []
    for cell, metrics in results.items():
        ttfts = metrics.ttfts()
        rows.append(
            [
                cell.policy,
                cell.tier,
                100.0 * metrics.slo_report(slo).violation_rate,
                mean(ttfts),
                percentile(ttfts, 99),
                metrics.throughput_tokens_per_s,
            ]
        )
    return Table(
        headers=[
            "policy",
            "rate",
            "slo_violation_%",
            "mean_ttft_s",
            "p99_ttft_s",
            "throughput",
        ],
        rows=rows,
        notes=[
            "paper (Sec IV-B): considering both r_i and a_i achieves better "
            "load balancing and SLO attainment than r_i alone when no "
            "instance meets the SLO condition",
        ],
    )


@_figure(
    "ablation-partition",
    "Explicit phase partitioning vs PASCAL, AlpacaEval high rate",
    EvalSettings.for_scale,
    lambda s: _alpaca_cells(
        ("pascal", "phase-partitioned", "fcfs"), ("high",), s
    ),
)
def ablation_phase_partitioning(
    settings: EvalSettings, results: EvalResults
) -> Table:
    """DistServe-style explicit phase partitioning (Section VII).

    Half the instances serve only reasoning, half only answering, with a
    mandatory KV transfer at every phase boundary.  The paper argues the
    two phases share identical per-step compute, so partitioning forfeits
    statistical multiplexing for no benefit.
    """
    slo = settings.cluster_config().slo
    rows = []
    for cell, metrics in results.items():
        ttfts = metrics.ttfts()
        rows.append(
            [
                cell.policy,
                mean(ttfts),
                percentile(ttfts, 99),
                100.0 * metrics.slo_report(slo).violation_rate,
                metrics.throughput_tokens_per_s,
                len(metrics.transfer_latencies_s),
            ]
        )
    return Table(
        headers=[
            "policy",
            "mean_ttft_s",
            "p99_ttft_s",
            "slo_violation_%",
            "throughput",
            "migrations",
        ],
        rows=rows,
        notes=[
            "paper (Sec VII): both phases are decode steps with similar "
            "per-step latency, so a DistServe-style split yields no "
            "efficiency gain while halving each phase's memory pool",
        ],
    )
