"""``repro.shard`` — K-partition sharded simulation.

The cluster splits into ``K`` sub-clusters (:func:`partition_counts`)
and the arrivals into ``K`` hash-partitions (:func:`shard_of` on the
request id — a stable function, never Python's per-process ``hash()``).
PASCAL places requests within one instance pool, so the shards share
nothing: :func:`run_shard` drains each one on its own, serially or on a
``multiprocessing`` pool, and :func:`merge_metrics` folds their metrics
into one :class:`~repro.metrics.collector.RunMetrics`.  The entry point
is :func:`run_sharded`; the harness routes through it whenever a spec's
``shards`` setting exceeds 1 (``--shards K`` on the CLI).

Determinism contract (pinned by ``tests/test_shard.py``; rationale in
``docs/sharding.md``):

* ``shards=1`` is byte-identical to the single-engine path — the golden
  tables do not move;
* for fixed ``shards``, worker count and the order shards run in never
  change a byte: both paths return the payload :func:`run_shard` built
  (the disk cache's exact-round-trip codec), and ``Pool.map`` re-raises
  a shard's own exception, so a malformed trace is the same
  :class:`~repro.workload.trace.TraceFormatError` either way;
* ``shards=K>1`` simulates a *K-way partitioned deployment* — a
  different (realistic) system than one globally scheduled cluster, so
  results legitimately differ from ``shards=1``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.api import ServingSession, as_source
from repro.config import ClusterConfig
from repro.harness.cache import metrics_from_payload, metrics_to_payload
from repro.metrics.collector import RunMetrics, throughput_tokens_per_s
from repro.workload.trace import ReplayTraceConfig, TraceConfig

__all__ = [
    "ShardTask", "merge_metrics", "partition_counts", "run_shard",
    "run_sharded", "set_default_workers", "shard_of", "stable_shard64",
]

_MASK64 = (1 << 64) - 1


def stable_shard64(rid: int) -> int:
    """A 64-bit mix of a request id, stable across processes and runs.

    SplitMix64 finalizer: cheap, well-distributed, and a pure function of
    its input — unlike Python's ``hash()``, whose value for str/bytes
    changes per process (``PYTHONHASHSEED``) and would silently partition
    the same trace differently in every worker.
    """
    z = (rid + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def shard_of(rid: int, n_shards: int) -> int:
    """The partition owning request ``rid`` in an ``n_shards``-way split."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return stable_shard64(rid) % n_shards


def partition_counts(n_instances: int, n_shards: int) -> tuple[int, ...]:
    """Instances per shard for an ``n_shards``-way split of the cluster.

    Near-even: shard ``k`` gets ``n // K`` instances plus one of the
    ``n % K`` remainders, which go to the lowest-numbered shards.  A
    shard with no instance could never place a request, so splitting
    into more shards than instances is an error.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > n_instances:
        raise ValueError(
            f"cannot split {n_instances} instance(s) into {n_shards} "
            f"shards: every shard needs at least one instance"
        )
    base, extra = divmod(n_instances, n_shards)
    return tuple(
        base + (1 if shard < extra else 0) for shard in range(n_shards)
    )


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs, picklable: :func:`run_shard` rebuilds
    the sub-cluster and re-reads the workload from this alone, so a task
    runs identically in-process or in a pool worker."""

    #: This shard's partition index in ``[0, n_shards)``.
    shard: int
    n_shards: int
    #: Registered cluster-policy name (instances are not picklable).
    policy: str
    #: The *sub-cluster* shape: ``n_instances`` already divided down.
    config: ClusterConfig
    #: Global id of the shard's first instance.
    iid_offset: int
    #: The whole workload; the shard keeps its own partition of it.
    workload: TraceConfig | ReplayTraceConfig


def run_shard(task: ShardTask) -> dict:
    """Simulate one shard to completion; returns its metrics payload,
    with local instance ids remapped onto the global grid."""
    session = ServingSession(policy=task.policy, config=task.config)
    session.cluster.attach_arrivals(
        req
        for req in as_source(task.workload)
        if shard_of(req.rid, task.n_shards) == task.shard
    )
    metrics = session.drain()
    if task.iid_offset:
        for req in (*metrics.requests, *metrics.rejected, *metrics.cancelled):
            if req.instance_id is not None:
                req.instance_id += task.iid_offset
    return metrics_to_payload(metrics)


#: Process-wide default for ``run_sharded(workers=None)``; None means one
#: process per shard.  Set by the CLI's ``--shard-workers``: an execution
#: knob, so it never rides in the settings that feed the cache key.
_default_workers: int | None = None


def set_default_workers(workers: int | None) -> None:
    """Set the process-wide worker default (None restores one-per-shard)."""
    global _default_workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _default_workers = workers


def run_sharded(
    workload: TraceConfig | ReplayTraceConfig,
    policy: str = "pascal",
    config: ClusterConfig | None = None,
    shards: int = 1,
    workers: int | None = None,
) -> RunMetrics:
    """Run one workload on a ``shards``-way partitioned cluster.

    ``config`` describes the *whole* pool; its instances are divided
    near-evenly across shards.  Every shard re-synthesizes or re-reads
    ``workload``, so it must be a config (anything else raises
    :class:`TypeError`).  ``workers`` bounds child processes (default:
    one per shard; 1 = serial, in-process).  ``shards=1`` is exactly the
    single-engine ``ServingSession`` + ``drain()`` result.
    """
    if not isinstance(workload, (TraceConfig, ReplayTraceConfig)):
        raise TypeError(
            f"run_sharded takes a TraceConfig or ReplayTraceConfig, not "
            f"{type(workload).__name__}: every shard re-reads the workload"
        )
    config = config or ClusterConfig()
    counts = partition_counts(config.n_instances, shards)
    tasks = [
        ShardTask(
            shard=shard,
            n_shards=shards,
            policy=policy,
            config=dataclasses.replace(config, n_instances=counts[shard]),
            iid_offset=sum(counts[:shard]),
            workload=workload,
        )
        for shard in range(shards)
    ]
    if workers is None:
        workers = _default_workers
    n_procs = shards if workers is None else max(1, min(workers, shards))
    if n_procs > 1 and multiprocessing.current_process().daemon:
        # Daemonic processes (e.g. sweep()'s pool workers) cannot spawn
        # children; the serial path is byte-identical, just slower.
        n_procs = 1
    if n_procs == 1:
        payloads = [run_shard(task) for task in tasks]
    else:
        with multiprocessing.Pool(n_procs) as pool:
            payloads = pool.map(run_shard, tasks, chunksize=1)
    return merge_metrics([metrics_from_payload(p) for p in payloads])


def merge_metrics(parts: Sequence[RunMetrics]) -> RunMetrics:
    """Combine per-shard run metrics (in shard order) into one record.

    One part is returned untouched (the ``shards=1`` identity).  Records
    sort on ``(done_t, rid)``, ``(arrival_t, rid)`` and ``(cancelled_t,
    rid)``: equal times on different shards have no causal order, so the
    rid breaks the tie.  Transfer latencies and per-dataset predictor
    columns concatenate in shard order, deferrals sum, and throughput is
    recomputed over the merged requests (per-shard spans overlap).
    """
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
    return RunMetrics(
        policy=policies[0],
        requests=requests,
        throughput_tokens_per_s=throughput_tokens_per_s(requests),
        transfer_latencies_s=[
            lat for part in parts for lat in part.transfer_latencies_s
        ],
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
