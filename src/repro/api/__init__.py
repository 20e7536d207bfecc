"""``repro.api`` — the stable public façade for online serving.

The batch entry points (``build_trace`` → ``Cluster.run_trace`` →
``collect``) reproduce the paper's figures but cannot express live
traffic: no mid-run submission, no backpressure, no per-request
observability.  This package is the online counterpart, and the layer the
harness itself now runs on:

* :class:`~repro.api.session.ServingSession` — submit/observe/advance:
  ``submit(request) -> RequestHandle``, ``attach(source)``,
  ``step(until=...)`` / ``drain()``, subscriber hooks for the request
  lifecycle (admit, phase change, first token, complete, reject, defer);
* :mod:`~repro.api.sources` — pull-based :class:`ArrivalSource` iterators
  (synthetic, dataset-mix, JSONL trace, merged composition) consumed
  incrementally by the engine instead of a horizon-complete preload;
* :mod:`~repro.api.admission` — :class:`AdmissionPolicy` hooks that can
  reject or defer arrivals before placement, with explicit accounting
  (rejected ≠ SLO-violated ≠ completed).

Batch and online paths are interchangeable: running any workload through
a session yields byte-identical :class:`~repro.metrics.collector.RunMetrics`
to the legacy list-based path (property-tested for every registered
policy), which is what licenses the harness rewiring.

Stability: names exported here (``repro.api.*``) are the supported public
surface; internals reached through them may move between releases.
"""

from repro.api.admission import (
    ADMIT,
    AdmissionDecision,
    AdmissionPolicy,
    AdmitAll,
    KVBudgetAdmission,
    MaxInFlightAdmission,
    admit,
    defer,
    reject,
)
from repro.api.session import (
    EventPrinter,
    RequestHandle,
    ServingSession,
    SessionSubscriber,
    UnservableRequestError,
)
from repro.api.sources import (
    ArrivalSource,
    ListSource,
    MergedSource,
    PartitionedSource,
    SyntheticSource,
    TraceFileSource,
    as_source,
    shard_of,
    stable_shard64,
)

__all__ = [
    "ADMIT",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmitAll",
    "ArrivalSource",
    "EventPrinter",
    "KVBudgetAdmission",
    "ListSource",
    "MaxInFlightAdmission",
    "MergedSource",
    "PartitionedSource",
    "RequestHandle",
    "ServingSession",
    "SessionSubscriber",
    "SyntheticSource",
    "TraceFileSource",
    "UnservableRequestError",
    "admit",
    "as_source",
    "defer",
    "reject",
    "shard_of",
    "stable_shard64",
]
