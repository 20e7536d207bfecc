"""KV-cache migration lifecycle (Section IV-B, "KV cache transfer overhead").

Reasoning models cannot predict phase transitions, so the transfer cannot
be overlapped with computation: the request stops generating the moment it
emits the end-of-think token, its whole KV cache crosses the fabric, and
only then can the destination schedule its first answering token.  The
source keeps the memory pinned until the copy lands (copy-then-free).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fabric import Fabric
from repro.config import ModelConfig
from repro.serving.instance import ServingInstance
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind
from repro.workload.request import Request


@dataclass
class MigrationRecord:
    """One in-flight migration."""

    request: Request
    source: ServingInstance
    destination: ServingInstance
    started_t: float
    completes_t: float
    #: Pending ``TRANSFER_COMPLETE`` handle while in flight (cancellation).
    #: Cut at landing or cancel: the event's payload is this record, and
    #: the cycle would keep it alive until the cycle collector runs.
    event: Event | None = None

    @property
    def latency_s(self) -> float:
        return self.completes_t - self.started_t


class MigrationManager:
    """Starts transfers, releases source KV, lands requests at destinations."""

    def __init__(
        self,
        engine: SimulationEngine,
        fabric: Fabric,
        model: ModelConfig,
    ):
        self.engine = engine
        self.fabric = fabric
        self.model = model
        #: Latency of every landed transfer, in landing order.  Only the
        #: latency is kept, so a landed record (which holds the request
        #: and both instances) is released.
        self._latencies: list[float] = []
        #: rid -> record of every transfer still on the wire.
        self._active: dict[int, MigrationRecord] = {}

    @property
    def in_flight(self) -> int:
        """Transfers started and neither landed nor cancelled."""
        return len(self._active)

    def start(
        self,
        req: Request,
        source: ServingInstance,
        destination: ServingInstance,
        now: float,
    ) -> MigrationRecord:
        """Detach the request from its source and ship its KV cache."""
        if destination.iid == source.iid:
            raise ValueError("migration must change instances")
        source.depart(req, now)
        n_bytes = req.kv_tokens * self.model.kv_bytes_per_token
        start, completes = self.fabric.reserve_transfer(
            source.iid, destination.iid, n_bytes, now
        )
        record = MigrationRecord(
            request=req,
            source=source,
            destination=destination,
            started_t=now,
            completes_t=completes,
        )
        record.event = self.engine.schedule(
            completes, EventKind.TRANSFER_COMPLETE, record
        )
        self._active[req.rid] = record
        return record

    def cancel(self, req: Request, now: float) -> bool:
        """Abort an in-flight transfer (client cancellation).

        The source pool still pins the KV (copy-then-free), so release it
        there; the destination never heard of the request.  The fabric
        reservation stands — the wire time was committed at reserve time.
        """
        record = self._active.pop(req.rid, None)
        if record is None:
            return False
        if record.event is not None:
            record.event.cancelled = True
            record.event = None
        record.source.sync(now)
        record.source.release_departed(req)
        record.source.mark_dirty()
        record.source.maybe_start_step(now)
        return True

    def on_transfer_complete(self, now: float, record: MigrationRecord) -> None:
        """The copy landed: free the source pool, admit at the destination."""
        req = record.request
        record.event = None
        # Both pools are about to be mutated and re-read; emit any decode
        # tokens the instances lazily deferred before this moment.
        record.source.sync(now)
        record.destination.sync(now)
        record.source.release_departed(req)
        record.source.mark_dirty()
        record.source.maybe_start_step(now)
        req.n_migrations += 1
        req.transfer_wait_s += record.latency_s
        self._active.pop(req.rid, None)
        self._latencies.append(record.latency_s)
        record.destination.accept_migrated(req, now)

    def transfer_latencies(self) -> list[float]:
        """Observed end-to-end migration latencies (queueing + wire), one
        per landed transfer in landing order."""
        return list(self._latencies)
