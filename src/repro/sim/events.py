"""Deterministic discrete-event queue.

The simulator is a classic event-driven loop.  Determinism matters for
reproducibility (same seed => identical schedules), so ties on timestamps are
broken by a monotonically increasing sequence number rather than by object
identity.
"""

from __future__ import annotations

import heapq
from enum import Enum, auto
from typing import Any


class EventKind(Enum):
    """Kinds of events the serving simulator processes."""

    #: A new request reaches the cluster front-end.
    ARRIVAL = auto()
    #: A serving instance finished its current engine step.
    STEP_COMPLETE = auto()
    #: A KV-cache migration finished arriving at its destination.
    TRANSFER_COMPLETE = auto()
    #: Generic callback event (used by tests and auxiliary models).
    CALLBACK = auto()
    #: A client abandoned its request (disconnect / explicit abort).
    CANCEL = auto()


class Event:
    """One scheduled occurrence.

    ``cancelled`` supports lazy deletion: the owner flips the flag and the
    engine skips the event when it is popped.  This is how stale
    ``STEP_COMPLETE`` events are invalidated after a forced re-schedule.

    Ordering is ``(time, kind priority, seq)``: arrivals dispatch before
    any other event kind sharing their exact timestamp, then FIFO.  A
    batch preload produced that order implicitly — every ARRIVAL was
    scheduled (and numbered) before the first handler ran — and pull-based
    feeding must reproduce it even though it interleaves arrival pushes
    with handler pushes, so the invariant lives in the comparator where
    neither path can miss it.
    """

    __slots__ = ("time", "seq", "kind", "priority", "payload", "cancelled")

    def __init__(self, time: float, seq: int, kind: EventKind, payload: Any):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.priority = 0 if kind is EventKind.ARRIVAL else 1
        self.payload = payload
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Tie detection: exact equality is the point.  Events scheduled
        # at the *same* float land in (priority, seq) order, and a
        # tolerance would merge genuinely distinct timestamps
        # (tests/test_sim_events.py pins the comparator).
        # lint-ignore: PAS004
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {self.kind.name}{flag})"


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking.

    The ordering contract: events pop in ``(time, kind priority, seq)``
    order — strictly by timestamp, arrivals ahead of other kinds at equal
    timestamps, FIFO within a kind-priority class (see :class:`Event`).
    The simulator's determinism rests on it.

    The arrival-first tie rule is what makes *incremental* event
    production (:meth:`repro.sim.engine.SimulationEngine.attach_feed`)
    equivalent to a batch preload: preloading gives every arrival a lower
    sequence number than any handler-scheduled event, while a feed
    interleaves the two — the comparator guarantees both produce the same
    dispatch order at timestamp collisions.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return its handle (for cancellation)."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event(time, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Pop the earliest non-cancelled event, or None when drained."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time
