"""``repro.shard`` — K-partition sharded simulation.

Scale one simulated deployment across processes: the cluster splits into
``K`` sub-clusters, each simulated on its own by :func:`run_shard`, fed
by a deterministic hash-partition of the arrival stream
(:func:`~repro.api.sources.shard_of` on the request id — a stable
function, never Python's per-process ``hash()``).  Shards share nothing —
PASCAL places requests within one instance pool, and a partitioned fleet
runs one scheduler per partition — so each runs to completion without
synchronisation, and the per-shard metrics merge into one
:class:`~repro.metrics.collector.RunMetrics`.

Determinism contract (pinned by ``tests/test_shard.py``; rationale in
``docs/sharding.md``):

* ``shards=1`` is byte-identical to the single-engine path — the golden
  tables do not move;
* for fixed ``shards``, results are invariant to execution strategy:
  worker count and the order shards run in never change a byte;
* ``shards=K>1`` simulates a *K-way partitioned deployment* — a
  different (realistic) system than one globally scheduled cluster, so
  results legitimately differ from ``shards=1``.

Entry point: :func:`run_sharded`.  The harness routes through it whenever
a spec's ``shards`` setting exceeds 1 (``--shards K`` on the CLI).
"""

from repro.shard.coordinator import run_sharded, set_default_workers
from repro.shard.merge import merge_metrics
from repro.shard.partitioner import (
    PartitionedSource,
    partition_counts,
    partition_offsets,
    partitions_of,
    shard_of,
    stable_shard64,
)
from repro.shard.worker import ShardTask, run_shard

__all__ = [
    "PartitionedSource",
    "ShardTask",
    "merge_metrics",
    "partition_counts",
    "partition_offsets",
    "partitions_of",
    "run_shard",
    "run_sharded",
    "set_default_workers",
    "shard_of",
    "stable_shard64",
]
