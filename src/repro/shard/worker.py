"""The shard worker: one sub-cluster simulation, drivable epoch by epoch.

:class:`ShardWorker` owns one :class:`~repro.api.session.ServingSession`
over the shard's sub-cluster, fed by the shard's hash-partition of the
arrival stream.  It exposes exactly two operations — :meth:`run_epoch`
and :meth:`result` — both pure functions of the directive stream, so the
coordinator can host workers in-process (serial driver) or behind a pipe
in a child process (:func:`shard_worker_main`) with byte-identical
outcomes.

A process hosts a *group* of workers (``tasks[g::n_procs]`` striding), so
``--shard-workers`` bounds process count independently of ``--shards``;
grouping cannot change results because each worker's epoch is a closed
computation over its own task and the shared directive.
"""

from __future__ import annotations

import copy
import traceback
from multiprocessing.connection import Connection
from typing import Sequence

from repro.api.session import ServingSession
from repro.harness.cache import metrics_to_payload
from repro.shard.partitioner import PartitionedSource, as_source, shard_of
from repro.shard.protocol import (
    EpochDirective,
    EpochReport,
    GlobalAccounting,
    ShardedAdmission,
    ShardTask,
)


class ShardWorker:
    """One partition's simulation, advanced one epoch at a time."""

    def __init__(self, task: ShardTask):
        self.task = task
        self.accounting = GlobalAccounting(task.shard, task.n_shards)
        admission = task.admission
        if admission is not None and task.n_shards > 1:
            admission = ShardedAdmission(admission, self.accounting)
        self.session = ServingSession(
            policy=task.policy, config=task.config, admission=admission
        )
        self.session.attach(self._source())

    def _source(self) -> PartitionedSource:
        """This shard's arrival stream.

        Request tuples are filtered first, then deep-copied — simulation
        mutates request state, and in the serial driver every worker
        shares the caller's objects.  Copying only the owned partition
        keeps the cost at 1x the workload across all shards.  The
        (re-)filtering PartitionedSource wrapper is a no-op on an
        already-filtered list but keeps every workload shape on the one
        code path.
        """
        task = self.task
        workload = task.workload
        if isinstance(workload, tuple):
            workload = [
                copy.deepcopy(req)
                for req in workload
                if shard_of(req.rid, task.n_shards) == task.shard
            ]
        return PartitionedSource(as_source(workload), task.shard, task.n_shards)

    def run_epoch(self, directive: EpochDirective) -> EpochReport:
        """Advance to the directive's barrier and report shard state."""
        self.accounting.apply(directive)
        cluster = self.session.cluster
        self.session.step(until=directive.end_t)
        cluster.epoch_boundary(
            min(directive.end_t, cluster.engine.horizon_s)
        )
        next_t = cluster.engine.peek_next_time()
        return EpochReport(
            shard=self.task.shard,
            epoch=directive.epoch,
            end_t=directive.end_t,
            active=next_t is not None,
            next_event_t=next_t,
            submitted=len(cluster.submitted),
            completed=len(cluster.completed),
            rejected=len(cluster.rejected),
            in_flight=cluster.in_flight(),
            active_requests=cluster.active_requests(),
            kv_tokens=sum(
                inst.total_kv_tokens() for inst in cluster.instances
            ),
        )

    def result(self) -> tuple[int, dict]:
        """``(shard, metrics payload)`` after the final barrier.

        Local instance ids are remapped onto the global grid before
        encoding, so the merged run reads like one cluster.  The payload
        codec (the disk cache's exact-round-trip encoder) is used in
        *both* drivers — the serial path pays the same encode/decode the
        pipe forces on the parallel path, which is what makes their
        results byte-identical rather than merely close.
        """
        cluster = self.session.cluster
        if not cluster.all_finished():
            raise RuntimeError(
                f"shard {self.task.shard} did not drain: "
                f"{len(cluster.completed)} completed + "
                f"{len(cluster.rejected)} rejected of "
                f"{len(cluster.submitted)} submitted"
            )
        metrics = self.session.metrics()
        offset = self.task.iid_offset
        if offset:
            for req in (
                *metrics.requests, *metrics.rejected, *metrics.cancelled
            ):
                if req.instance_id is not None:
                    req.instance_id += offset
        return self.task.shard, metrics_to_payload(metrics)


def shard_worker_main(
    tasks: Sequence[ShardTask], conn: Connection
) -> None:
    """Child-process entry point: host a worker group over a pipe.

    Messages are ``(kind, payload)`` tuples: each non-stop directive
    yields ``("reports", [EpochReport, ...])``, the stop directive yields
    ``("results", [(shard, payload), ...])``, and any exception is
    shipped back as ``("error", traceback_text)`` instead of dying
    silently and deadlocking the coordinator's recv.
    """
    try:
        workers = [ShardWorker(task) for task in tasks]
        while True:
            directive: EpochDirective = conn.recv()
            if directive.stop:
                conn.send(("results", [w.result() for w in workers]))
                return
            conn.send(("reports", [w.run_epoch(directive) for w in workers]))
    except EOFError:
        return  # coordinator hung up (error elsewhere); just exit
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
