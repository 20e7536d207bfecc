"""Fold per-shard :class:`~repro.metrics.collector.RunMetrics` into one.

The merge is pure data-plumbing with two invariants:

* **Identity at one part.**  A single-part merge returns the part
  untouched — the ``shards=1`` path produces the exact object the
  unsharded engine would have, which is what lets the golden tables pin
  byte-identity.
* **Order independence.**  Multi-part output depends only on the *set* of
  per-shard results, never on arrival order of the parts: requests are
  re-sorted on ``(done_t, rid)`` (completion order, rid-tie-broken — two
  requests finishing at the same float instant on different shards have
  no cross-shard causal order, so the rid makes the choice explicit and
  stable), rejections on ``(arrival_t, rid)``, and predictor errors and
  rank pairs merge per sorted dataset name.  Shard-ordered inputs are
  still required for the concatenated views (transfer latencies, each
  dataset's predictor columns) to be reproducible; deferral counts sum.

Throughput cannot be summed or averaged from per-shard values — each
shard computes tokens over *its own* completed span, and the spans
overlap — so it is recomputed from the merged request list with the
function a single cluster uses,
:func:`~repro.metrics.collector.throughput_tokens_per_s` (total decode
tokens over the completed-request makespan).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.metrics.collector import RunMetrics, throughput_tokens_per_s


def merge_metrics(parts: Sequence[RunMetrics]) -> RunMetrics:
    """Combine per-shard run metrics (in shard order) into one record."""
    parts = list(parts)
    if not parts:
        raise ValueError("merge_metrics needs at least one part")
    if len(parts) == 1:
        return parts[0]
    policies = sorted({part.policy for part in parts})
    if len(policies) != 1:
        raise ValueError(
            f"cannot merge metrics from different policies: {policies}"
        )
    requests = sorted(
        (req for part in parts for req in part.requests),
        key=lambda req: (req.done_t, req.rid),
    )
    rejected = sorted(
        (req for part in parts for req in part.rejected),
        key=lambda req: (req.arrival_t, req.rid),
    )
    cancelled = sorted(
        (req for part in parts for req in part.cancelled),
        key=lambda req: (req.cancelled_t, req.rid),
    )
    transfer = [
        lat for part in parts for lat in part.transfer_latencies_s
    ]
    return RunMetrics(
        policy=policies[0],
        requests=requests,
        throughput_tokens_per_s=throughput_tokens_per_s(requests),
        transfer_latencies_s=transfer,
        predictor_abs_errors=_fold_per_dataset(
            part.predictor_abs_errors for part in parts
        ),
        predictor_rank_pairs=_fold_per_dataset(
            part.predictor_rank_pairs for part in parts
        ),
        rejected=rejected,
        cancelled=cancelled,
        n_deferrals=sum(part.n_deferrals for part in parts),
    )


def _fold_per_dataset(per_part: Iterable[dict[str, tuple]]) -> dict[str, tuple]:
    """Concatenate per-dataset observation tuples in shard order."""
    folded: dict[str, tuple] = {}
    for columns in per_part:
        for dataset, values in sorted(columns.items()):
            folded[dataset] = folded.get(dataset, ()) + tuple(values)
    return folded
