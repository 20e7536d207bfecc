"""Simulation engine: the clock and the event dispatch loop.

The engine owns the event queue and the simulated clock.  Domain objects
(cluster, instances, migration manager) register handlers per event kind;
the engine guarantees handlers observe a monotonically non-decreasing clock.

Events reach the queue two ways:

* **push** — :meth:`SimulationEngine.schedule` / ``schedule_in`` place one
  event at an absolute/relative time (how domain objects react to other
  events);
* **pull** — :meth:`SimulationEngine.attach_feed` registers a lazy,
  time-ordered iterator of ``(time, kind, payload)`` items.  The engine
  materializes exactly one in-queue event per feed at a time and pulls the
  next item only when that head event is popped, so an unbounded arrival
  stream never has to be preloaded into the queue.  This is what lets the
  online :mod:`repro.api` session layer drive the simulator from
  incremental :class:`~repro.api.sources.ArrivalSource` iterators.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.sim.events import Event, EventKind, EventQueue

Handler = Callable[[float, Any], None]


class _Feed:
    """One attached pull source and its last-pulled timestamp."""

    __slots__ = ("iterator", "last_time")

    def __init__(self, iterator: Iterator[tuple[float, EventKind, Any]]):
        self.iterator = iterator
        self.last_time = float("-inf")


class SimulationEngine:
    """Event-driven simulation driver.

    Usage::

        engine = SimulationEngine()
        engine.register(EventKind.ARRIVAL, cluster.on_arrival)
        engine.schedule(0.0, EventKind.ARRIVAL, request)
        engine.run()
    """

    def __init__(self, max_events: int = 200_000_000):
        self.queue = EventQueue()
        self.now = 0.0
        self.max_events = max_events
        self.events_processed = 0
        self._handlers: dict[EventKind, Handler] = {}
        self._running = False
        self._feeds: list[_Feed] = []
        #: Head events of live feeds, so a pop can identify its feed.
        self._feed_heads: dict[Event, _Feed] = {}

    def register(self, kind: EventKind, handler: Handler) -> None:
        """Bind ``handler(now, payload)`` to an event kind (one per kind)."""
        self._handlers[kind] = handler

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        return self.queue.push(time, kind, payload)

    def schedule_in(self, delay: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event ``delay`` seconds from the current clock."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.now + delay, kind, payload)

    def attach_feed(
        self, iterator: Iterator[tuple[float, EventKind, Any]]
    ) -> None:
        """Register a lazy, time-ordered event source.

        ``iterator`` yields ``(time, kind, payload)`` with non-decreasing
        times (a :class:`ValueError` pinpoints the first regression).  The
        engine keeps exactly one event of each feed in the queue, pulling
        the next item only when that head is dispatched, so feeds of
        unbounded length cost O(1) queue space.  Items whose time is
        already in the past are scheduled at the current clock — a late
        submission cannot arrive earlier than "now".
        """
        feed = _Feed(iter(iterator))
        self._feeds.append(feed)
        self._advance_feed(feed)

    def feeds_exhausted(self) -> bool:
        """True when every attached feed has been fully consumed."""
        return not self._feeds

    def detach_feeds(self) -> int:
        """Stop pulling from every attached feed (graceful-shutdown cut).

        Each feed's already-materialized head event still dispatches —
        its payload was accounted when it was pulled, so dropping it
        would break the cluster's conservation law — but no further
        items are drawn.  Returns the number of feeds detached.
        """
        count = len(self._feeds)
        self._feeds.clear()
        self._feed_heads.clear()
        return count

    def _advance_feed(self, feed: _Feed) -> None:
        """Pull the feed's next item into the queue (or retire the feed).

        One item at a time suffices for batch-equivalent ordering: the
        event comparator ranks arrivals ahead of other kinds at equal
        timestamps (see :class:`repro.sim.events.Event`), so an arrival
        pulled *after* a handler scheduled a same-time event still
        dispatches first — exactly as its up-front sequence number would
        have arranged in a preload.
        """
        try:
            time, kind, payload = next(feed.iterator)
        except StopIteration:
            self._feeds.remove(feed)
            return
        if time < feed.last_time:
            raise ValueError(
                f"feed items must be time-ordered: {time} after "
                f"{feed.last_time}"
            )
        feed.last_time = time
        event = self.queue.push(max(time, self.now), kind, payload)
        self._feed_heads[event] = feed

    def peek_next_time(self) -> float | None:
        """Timestamp of the next event (feeds included), or None when idle.

        Unlike ``queue.peek_time()`` this cannot miss work: attached feeds
        always have their head event materialized before the peek.
        """
        return self.queue.peek_time()

    def run(self) -> None:
        """Drain the event queue and feeds (raises past ``max_events``)."""
        if self._running:
            raise RuntimeError("engine is not re-entrant")
        self._running = True
        try:
            while self._dispatch_next():
                pass
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one event; returns False when nothing is due.

        Shares :meth:`run`'s dispatch path, so the ``max_events``
        livelock guard applies.
        """
        return self._dispatch_next()

    def _dispatch_next(self) -> bool:
        """Pop and dispatch the next event; False when none.

        Feeds keep their head event queued at all times, so the pop below
        sees pushed and pulled work alike; the event comparator's
        arrival-first tie rule keeps the incremental order identical to a
        batch preload even at exact timestamp collisions.
        """
        event = self.queue.pop()
        if event is None:
            return False
        self.now = event.time
        self.events_processed += 1
        if self.events_processed > self.max_events:
            raise RuntimeError(
                f"exceeded max_events={self.max_events}; "
                "likely a scheduling livelock"
            )
        feed = self._feed_heads.pop(event, None)
        if feed is not None:
            self._advance_feed(feed)
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise RuntimeError(f"no handler registered for {event.kind}")
        handler(event.time, event.payload)
        return True
