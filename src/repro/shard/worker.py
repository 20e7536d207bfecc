"""One shard of a sharded run: a sub-cluster simulated on its own.

A :class:`ShardTask` says everything a shard needs — its partition index,
its sub-cluster shape, its instance-id base and the whole workload — and
:func:`run_shard` drains one :class:`~repro.api.session.ServingSession`
over that sub-cluster, fed by the shard's hash-partition of the arrivals.
Shards share nothing: no request, event or load figure crosses a
partition, so a shard's result is a pure function of its task and the
coordinator may run the K tasks in any order, in any process.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.api.session import ServingSession
from repro.config import ClusterConfig
from repro.harness.cache import metrics_to_payload
from repro.shard.partitioner import PartitionedSource, as_source, shard_of
from repro.workload.request import Request
from repro.workload.trace import ReplayTraceConfig, TraceConfig

#: Workload shapes a :class:`ShardTask` can carry to a worker process.
#: Configs re-synthesize per shard; request tuples are deep-copied by
#: :func:`run_shard` so simulation never mutates caller-owned objects.
ShardWorkload = TraceConfig | ReplayTraceConfig | tuple[Request, ...]


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs to simulate its partition.

    Self-contained and picklable: :func:`run_shard` rebuilds the
    sub-cluster and the partitioned arrival stream from this alone, so a
    task runs identically in-process or in a pool worker.
    """

    #: This shard's partition index in ``[0, n_shards)``.
    shard: int
    n_shards: int
    #: Registered cluster-policy name (instances are not picklable).
    policy: str
    #: The *sub-cluster* shape: ``n_instances`` already divided down.
    config: ClusterConfig
    #: Global instance-id base (see ``partition_offsets``).
    iid_offset: int
    workload: ShardWorkload


def run_shard(task: ShardTask) -> dict:
    """Simulate one shard to completion; returns its metrics payload.

    Local instance ids are remapped onto the global grid before encoding,
    so the merged run reads like one cluster.  The payload codec (the
    disk cache's exact-round-trip encoder) is used on the serial path as
    well as across the pool's pipe, which is what makes the two
    byte-identical rather than merely close.
    """
    session = ServingSession(policy=task.policy, config=task.config)
    session.attach(_source(task))
    metrics = session.drain()
    offset = task.iid_offset
    if offset:
        for req in (*metrics.requests, *metrics.rejected, *metrics.cancelled):
            if req.instance_id is not None:
                req.instance_id += offset
    return metrics_to_payload(metrics)


def _source(task: ShardTask) -> PartitionedSource:
    """The shard's arrival stream.

    Request tuples are filtered first, then deep-copied — simulation
    mutates request state, and on the serial path every shard shares the
    caller's objects.  Copying only the owned partition keeps the cost at
    1x the workload across all shards.  The (re-)filtering
    PartitionedSource wrapper is a no-op on an already-filtered list but
    keeps every workload shape on the one code path.
    """
    workload = task.workload
    if isinstance(workload, tuple):
        workload = [
            copy.deepcopy(req)
            for req in workload
            if shard_of(req.rid, task.n_shards) == task.shard
        ]
    return PartitionedSource(as_source(workload), task.shard, task.n_shards)
