"""The sharded-run coordinator: partition, run each shard, merge.

:func:`run_sharded` is the one entry point.  It splits the cluster into
``shards`` sub-clusters (:func:`~repro.shard.partitioner.partition_counts`),
hands each one :class:`~repro.shard.worker.ShardTask` naming its
hash-partition of the arrival stream, runs every task to completion with
:func:`~repro.shard.worker.run_shard`, and merges the per-shard metrics
into one :class:`~repro.metrics.collector.RunMetrics`.

Shards never exchange requests or load, so nothing synchronises them:

* **serial** (``workers=1``): the tasks run one after another in this
  process — no child processes, and the fallback whenever spawning is
  impossible (daemonic pool workers, e.g. inside ``sweep(jobs=N)``);
* **parallel** (``workers>1``): a ``multiprocessing`` pool maps
  :func:`run_shard` over the tasks, so shards simulate concurrently.

Both return the same payloads (the pool only pickles the dict
:func:`run_shard` built), so for a fixed ``shards`` the two are
byte-identical — worker count is an execution knob, like ``--jobs``, and
never part of a result's identity.  ``Pool.map`` re-raises a shard's own
exception in the caller, so a malformed trace surfaces as the same
:class:`~repro.workload.trace.TraceFormatError` either way.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Iterable

from repro.api.sources import ArrivalSource
from repro.config import ClusterConfig
from repro.harness.cache import metrics_from_payload
from repro.metrics.collector import RunMetrics
from repro.shard.merge import merge_metrics
from repro.shard.partitioner import partition_counts, partition_offsets
from repro.shard.worker import ShardTask, ShardWorkload, run_shard
from repro.workload.request import Request
from repro.workload.trace import ReplayTraceConfig, TraceConfig

#: Process-wide default for ``run_sharded(workers=None)``; None means one
#: process per shard.  An execution knob, never part of a result's
#: identity — which is why it is set out-of-band (the CLI's
#: ``--shard-workers``) instead of riding in the settings dataclasses
#: that feed the cache key.
_default_workers: int | None = None


def set_default_workers(workers: int | None) -> None:
    """Set the process-wide worker default (None restores one-per-shard)."""
    global _default_workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _default_workers = workers


def run_sharded(
    workload: ShardWorkload | ArrivalSource | Iterable[Request],
    policy: str = "pascal",
    config: ClusterConfig | None = None,
    shards: int = 1,
    workers: int | None = None,
) -> RunMetrics:
    """Run one workload on a ``shards``-way partitioned cluster.

    ``config`` describes the *whole* pool; its ``n_instances`` are divided
    near-evenly across shards, and arrivals route to shards by
    :func:`~repro.api.sources.shard_of` on the request id.  ``workers``
    bounds child processes (default: one per shard; 1 = serial,
    in-process).

    With ``shards=1`` this is exactly the single-engine path — one
    partition containing every instance and every request — and the
    result is byte-identical to ``ServingSession`` + ``drain()`` (pinned
    by ``tests/test_shard.py``).
    """
    config = config or ClusterConfig()
    counts = partition_counts(config.n_instances, shards)
    offsets = partition_offsets(counts)
    spec = _workload_spec(workload)
    tasks = [
        ShardTask(
            shard=shard,
            n_shards=shards,
            policy=policy,
            config=dataclasses.replace(config, n_instances=counts[shard]),
            iid_offset=offsets[shard],
            workload=spec,
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


def _workload_spec(
    workload: ShardWorkload | ArrivalSource | Iterable[Request],
) -> ShardWorkload:
    """Normalize a workload into a picklable, re-iterable task payload.

    Arbitrary :class:`ArrivalSource` objects are rejected rather than
    silently materialized: sources are single-use iterables and may be
    unbounded, so callers must hand over the underlying config (re-
    synthesized per worker) or a finite request list (deep-copied per
    worker).
    """
    if isinstance(workload, (TraceConfig, ReplayTraceConfig)):
        return workload
    if isinstance(workload, ArrivalSource):
        raise TypeError(
            f"run_sharded cannot partition a bare "
            f"{type(workload).__name__}: sources are single-use; pass the "
            f"underlying TraceConfig/ReplayTraceConfig or a request list"
        )
    if isinstance(workload, Iterable):
        return tuple(workload)
    raise TypeError(
        f"cannot build a sharded workload from {type(workload).__name__!r}"
    )
