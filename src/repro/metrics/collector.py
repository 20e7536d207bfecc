"""Per-run metric collection: everything a paper figure needs, in one place."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import SLOConfig
from repro.metrics.slo import SLOReport, evaluate_slo
from repro.metrics.summary import kendall_tau, mean, percentile, tail_ttft_bins
from repro.workload.request import Phase, Request

PHASE_BUCKETS = ("executed", "blocked", "preempted")


@dataclass
class RunMetrics:
    """Measurements extracted from one simulation run.

    ``requests`` holds the *completed* requests; ``rejected`` the ones an
    admission policy turned away before placement (empty everywhere the
    legacy admit-everything paths run).  The two are disjoint by
    construction, and only completed requests enter the latency and SLO
    views — a rejection is an explicit outcome, not a silent violation.

    Collection is snapshot-safe: :func:`collect` may be called mid-run
    (the :class:`repro.api.ServingSession` ``metrics()`` path), in which
    case the views cover the requests resolved so far.
    """

    policy: str
    requests: list[Request]
    throughput_tokens_per_s: float = 0.0
    transfer_latencies_s: list[float] = field(default_factory=list)
    #: Per-dataset absolute reasoning-length prediction errors (tokens),
    #: reported by predictor-driven policies (``length-predictive``,
    #: ``tiered-express``); empty for everything else.
    predictor_abs_errors: dict[str, tuple[float, ...]] = field(
        default_factory=dict
    )
    #: Per-dataset ``(predicted score, observed reasoning length)`` pairs
    #: in observation order, reported by predictor-driven policies;
    #: the raw material of the Kendall-tau rank-correlation views.
    predictor_rank_pairs: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Requests rejected by admission control (never placed, never run).
    rejected: list[Request] = field(default_factory=list)
    #: Requests cancelled by their client before completing (disjoint from
    #: both ``requests`` and ``rejected``: the cluster was serving them,
    #: the client walked away).  They enter no latency or SLO view.
    cancelled: list[Request] = field(default_factory=list)
    #: Admission deferral events over the run (one request deferred k
    #: times counts k; 0 everywhere no gate defers).
    n_deferrals: int = 0

    @property
    def n_rejected(self) -> int:
        """Admission rejections (``rejected`` is the full request list)."""
        return len(self.rejected)

    @property
    def n_cancelled(self) -> int:
        """Client cancellations (``cancelled`` is the full request list)."""
        return len(self.cancelled)

    # ------------------------------------------------------------------
    # latency views
    # ------------------------------------------------------------------
    # Each accessor is called exactly once per request: these views sit in
    # hot figure paths, and the `f(r) ... if f(r) is not None` idiom would
    # double the per-request work.
    def ttfts(self) -> list[float]:
        return [t for t in (r.ttft() for r in self.requests) if t is not None]

    def ttfats(self) -> list[float]:
        return [t for t in (r.ttfat() for r in self.requests) if t is not None]

    def e2e_latencies(self) -> list[float]:
        return [
            t
            for t in (r.e2e_latency() for r in self.requests)
            if t is not None
        ]

    def reasoning_latencies(self) -> list[float]:
        return [
            t
            for t in (r.reasoning_latency() for r in self.requests)
            if t is not None
        ]

    def blocking_latencies(self) -> list[float]:
        """Phase-transition blocking latency (Figure 13(c))."""
        return [
            t
            for t in (r.blocking_latency() for r in self.requests)
            if t is not None
        ]

    # The two headline accessors are NaN-safe: a run where no request
    # completed (e.g. an admission policy rejected everything) has no
    # TTFT distribution, and figure code propagates/format-guards NaN
    # where a raised ValueError would abort the whole table.
    def mean_ttft(self) -> float:
        ttfts = self.ttfts()
        return mean(ttfts) if ttfts else float("nan")

    def tail_ttft(self, pct: float = 99.0) -> float:
        ttfts = self.ttfts()
        return percentile(ttfts, pct) if ttfts else float("nan")

    def ttft_bins(self, bin_width: int = 256):
        return tail_ttft_bins(self.requests, bin_width)

    # ------------------------------------------------------------------
    # phase-time breakdowns (Figures 4, 5)
    # ------------------------------------------------------------------
    def phase_breakdown(
        self, phase: Phase, group_key
    ) -> dict[int, dict[str, float]]:
        """Mean executed/blocked/preempted seconds per request group.

        ``group_key(request) -> int`` selects the x-axis bucket (e.g. the
        request's reasoning length for Figure 4).
        """
        sums: dict[int, dict[str, float]] = {}
        counts: dict[int, int] = {}
        for req in self.requests:
            key = group_key(req)
            cell = sums.setdefault(key, dict.fromkeys(PHASE_BUCKETS, 0.0))
            for bucket in PHASE_BUCKETS:
                cell[bucket] += req.phase_time(phase, bucket)
            counts[key] = counts.get(key, 0) + 1
        return {
            key: {
                bucket: cell[bucket] / counts[key] for bucket in PHASE_BUCKETS
            }
            for key, cell in sums.items()
        }

    # ------------------------------------------------------------------
    # SLO views
    # ------------------------------------------------------------------
    def slo_report(
        self, slo: SLOConfig, include_ttfat: bool = False
    ) -> SLOReport:
        return evaluate_slo(self.requests, slo, include_ttfat=include_ttfat)

    def p99_transfer_latency(self) -> float | None:
        if not self.transfer_latencies_s:
            return None
        return percentile(self.transfer_latencies_s, 99.0)

    # ------------------------------------------------------------------
    # predictor-accuracy views
    # ------------------------------------------------------------------
    def _predictor_errors(self, dataset: str | None) -> list[float]:
        if dataset is not None:
            return list(self.predictor_abs_errors.get(dataset, ()))
        return [
            err
            for errors in self.predictor_abs_errors.values()
            for err in errors
        ]

    def predictor_error_mean(self, dataset: str | None = None) -> float | None:
        """Mean absolute reasoning-length prediction error (tokens)."""
        errors = self._predictor_errors(dataset)
        return mean(errors) if errors else None

    def predictor_error_percentile(
        self, pct: float, dataset: str | None = None
    ) -> float | None:
        """Percentile of the absolute prediction error (tokens)."""
        errors = self._predictor_errors(dataset)
        return percentile(errors, pct) if errors else None

    def predictor_error_rows(
        self, pct: float = 90.0
    ) -> list[tuple[str, int, float, float]]:
        """``(dataset, n, mean_abs_err, p<pct>_abs_err)`` per dataset."""
        return [
            (dataset, len(errors), mean(list(errors)),
             percentile(list(errors), pct))
            for dataset, errors in sorted(self.predictor_abs_errors.items())
            if errors
        ]

    # ------------------------------------------------------------------
    # rank-correlation views (ranking-based predictors)
    # ------------------------------------------------------------------
    def _rank_pairs(self, dataset: str | None) -> list[tuple[float, float]]:
        if dataset is not None:
            return list(self.predictor_rank_pairs.get(dataset, ()))
        return [
            pair
            for _, pairs in sorted(self.predictor_rank_pairs.items())
            for pair in pairs
        ]

    def rank_correlation(self, dataset: str | None = None) -> float | None:
        """Kendall tau-b between predicted scores and observed lengths.

        The metric a *ranking* predictor is judged by: the scheduler only
        needs the order of reasoning lengths, so tau — not absolute error
        — measures what placement actually consumes.  ``None`` with fewer
        than two scored observations (correlation undefined).

        The pooled (``dataset=None``) view concatenates per-dataset pair
        lists; cross-dataset score comparisons are meaningful because
        every predictor scores all datasets on one scale.
        """
        pairs = self._rank_pairs(dataset)
        return kendall_tau(pairs) if len(pairs) >= 2 else None

    def rank_correlation_rows(self) -> list[tuple[str, int, float]]:
        """``(dataset, n, kendall_tau)`` per dataset with >= 2 pairs."""
        return [
            (dataset, len(pairs), kendall_tau(list(pairs)))
            for dataset, pairs in sorted(self.predictor_rank_pairs.items())
            if len(pairs) >= 2
        ]


def throughput_tokens_per_s(completed: Sequence[Request]) -> float:
    """Output tokens (reasoning + answering) per second of makespan.

    The makespan runs from the first arrival to the last completion among
    ``completed``; the token total is an integer sum, so the result does
    not depend on the order of the list.
    """
    if not completed:
        return 0.0
    start = min(r.arrival_t for r in completed)
    end = max(r.done_t for r in completed if r.done_t is not None)
    if end <= start:
        return 0.0
    total = sum(r.total_decode_tokens for r in completed)
    return total / (end - start)


def collect(cluster, requests: list[Request] | None = None) -> RunMetrics:
    """Snapshot a cluster run (finished or mid-flight) into metrics."""
    reqs = requests if requests is not None else cluster.completed
    return RunMetrics(
        policy=cluster.policy_name,
        requests=list(reqs),
        throughput_tokens_per_s=cluster.throughput_tokens_per_s(),
        transfer_latencies_s=cluster.migrations.transfer_latencies(),
        predictor_abs_errors=cluster.policy.predictor_errors(),
        predictor_rank_pairs=cluster.policy.predictor_rank_pairs(),
        rejected=list(cluster.rejected),
        cancelled=list(cluster.cancelled),
        n_deferrals=cluster.n_deferrals,
    )
