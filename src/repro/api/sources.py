"""Pull-based arrival sources: the workload layer, inverted.

The original entry points materialized the full request list up front and
handed it to the engine.  An :class:`ArrivalSource` inverts that contract:
it is a *lazy, arrival-ordered iterator* of :class:`~repro.workload.request.Request`
objects, consumed incrementally by a :class:`~repro.api.session.ServingSession`
(via the engine's pull-based feed mechanism), so an unbounded stream —
live traffic, a huge trace file — enters the event queue one request at a
time instead of as a horizon-complete preload.  (Laziness bounds the
*event-queue* footprint, not the run's: requests the cluster has seen
still accumulate in its ``submitted``/``completed`` measurement records,
which every metrics view reads.)

Every batch workload constructor has a source counterpart:

=====================================  =====================================
batch (materialized list)              source (lazy iterator)
=====================================  =====================================
``build_trace(TraceConfig)``           :class:`SyntheticSource`
``build_replay_trace(ReplayConfig)``   :class:`TraceFileSource`
a plain ``list[Request]``              :class:`ListSource`
(not expressible)                      :class:`MergedSource` (composition)
=====================================  =====================================

**Determinism contract.**  A source must yield requests in non-decreasing
``arrival_t`` order (sessions validate this).  :class:`SyntheticSource`
and :class:`TraceFileSource` iterate the very generators the batch
builders materialize (:func:`~repro.workload.trace.iter_synthetic_trace`,
:func:`~repro.workload.trace.iter_replay_trace`) — so streaming a
workload through a session is *byte-identical* to preloading it
(``tests/test_api_session.py`` pins this property for every registered
policy).

Sources are single-use iterables: iterate each instance once.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.workload.request import Request
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceConfig,
    iter_replay_trace,
    iter_synthetic_trace,
)


class ArrivalSource:
    """Abstract lazy request stream (iterate once, arrival-ordered).

    Subclasses implement :meth:`__iter__` yielding freshly constructed
    :class:`~repro.workload.request.Request` objects with non-decreasing
    ``arrival_t``.  Freshness matters: simulation mutates request state,
    so a source must never hand out objects it will yield again.
    """

    def __iter__(self) -> Iterator[Request]:
        raise NotImplementedError


class ListSource(ArrivalSource):
    """Adapt an already materialized request list to the source contract.

    The list must be arrival-ordered (checked lazily during iteration, so
    a huge list costs nothing extra up front); ties keep list order, which
    is exactly what the batch path's FIFO event tie-break did.
    """

    def __init__(self, requests: Iterable[Request]):
        self._requests = list(requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        prev = float("-inf")
        for req in self._requests:
            if req.arrival_t < prev:
                raise ValueError(
                    f"ListSource requests must be arrival-ordered: request "
                    f"{req.rid} at t={req.arrival_t} after t={prev}"
                )
            prev = req.arrival_t
            yield req


class SyntheticSource(ArrivalSource):
    """Stream a Poisson-arrival dataset workload without materializing it.

    Iterates :func:`~repro.workload.trace.iter_synthetic_trace`, the
    generator ``build_trace(config)`` materializes, so the two are
    draw-for-draw identical.
    """

    def __init__(self, config: TraceConfig):
        self.config = config

    def __iter__(self) -> Iterator[Request]:
        return iter_synthetic_trace(self.config)


class TraceFileSource(ArrivalSource):
    """Stream a recorded JSONL trace from disk, one validated line at a
    time (the lazy counterpart of ``build_replay_trace``).

    Iterates :func:`~repro.workload.trace.iter_replay_trace`: ``rate_scale``
    rescales arrivals record-by-record as they are read, and malformed
    lines raise :class:`~repro.workload.trace.TraceFormatError` naming the
    file and line, exactly like the batch loader.
    """

    def __init__(self, config: ReplayTraceConfig):
        self.config = config

    def __iter__(self) -> Iterator[Request]:
        return iter_replay_trace(self.config)


class MergedSource(ArrivalSource):
    """Time-ordered k-way merge of several sources (workload composition).

    Ties break by source position (earlier-listed sources first), then by
    each source's own order — deterministic regardless of generator
    timing.  Lazy end to end: each component is advanced only when its
    head is consumed, so merging unbounded sources stays O(k) memory.
    """

    def __init__(self, sources: Iterable[ArrivalSource]):
        self.sources = tuple(sources)
        if not self.sources:
            raise ValueError("MergedSource needs at least one source")

    def __iter__(self) -> Iterator[Request]:
        # Each source contributes at most one head, so (arrival_t, index)
        # is a total order and heapq never compares Request objects.
        heads: list[tuple[float, int, Request, Iterator[Request]]] = []
        for index, source in enumerate(self.sources):
            iterator = iter(source)
            first = next(iterator, None)
            if first is not None:
                heads.append((first.arrival_t, index, first, iterator))
        heapq.heapify(heads)
        while heads:
            t, index, req, iterator = heapq.heappop(heads)
            yield req
            nxt = next(iterator, None)
            if nxt is not None:
                if nxt.arrival_t < t:
                    raise ValueError(
                        f"source {index} regressed: request {nxt.rid} at "
                        f"t={nxt.arrival_t} after t={t}"
                    )
                heapq.heappush(heads, (nxt.arrival_t, index, nxt, iterator))


#: Anything :func:`as_source` can coerce into an :class:`ArrivalSource`.
SourceLike = (
    ArrivalSource | TraceConfig | ReplayTraceConfig | Iterable[Request]
)


def as_source(workload: SourceLike) -> ArrivalSource:
    """Coerce any supported workload shape into an :class:`ArrivalSource`.

    Accepts an existing source (returned unchanged), a
    :class:`~repro.workload.trace.TraceConfig` (synthesis), a
    :class:`~repro.workload.trace.ReplayTraceConfig` (JSONL replay), or an
    iterable of requests.
    """
    if isinstance(workload, ArrivalSource):
        return workload
    if isinstance(workload, TraceConfig):
        return SyntheticSource(workload)
    if isinstance(workload, ReplayTraceConfig):
        return TraceFileSource(workload)
    if isinstance(workload, Iterable):
        return ListSource(workload)
    raise TypeError(
        f"cannot build an ArrivalSource from {type(workload).__name__!r}"
    )
