"""Wall-clock pacing: run a :class:`~repro.api.session.ServingSession` in
real time.

The simulator is a discrete-event engine: left alone it burns through its
queue as fast as Python allows, the simulated clock jumping from event to
event.  The pacer anchors that clock to a monotonic wall clock so events
take effect when they are *due*::

    sim_now = (wall_clock() - anchor) * time_scale

Each :meth:`WallClockPacer.poll` advances the session through every event
whose simulated time has been reached and reports how long, in wall
seconds, the caller should sleep until the next one.  Between polls the
caller may inject work — submit fresh requests, cancel running ones —
which is how the HTTP gateway (:mod:`repro.serve.gateway`) feeds live
traffic into a paced session.

``time_scale`` is a speed multiplier in simulated seconds per wall
second: ``1.0`` replays in real time, ``10.0`` runs ten times faster than
real time, ``0.5`` at half speed.

Wall time never influences *simulated* outcomes.  The simulated timeline
is fully determined by the (simulated) timestamps of injected arrivals
and cancellations; the wall clock only decides when the engine is
cranked.  Re-running a recorded live trace offline therefore reproduces
the run event-for-event (see :mod:`repro.serve.record`).

The clock and sleep functions are injectable so unit tests drive the
pacer with a fake clock and never actually sleep.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.api.session import RequestHandle, ServingSession
from repro.workload.request import Request


def fast_forward_drain(
    session: ServingSession,
    deadline_s: float,
    *,
    clock: Callable[[], float] = time.monotonic,
    chunk_events: int = 5000,
) -> bool:
    """Finish a session's in-flight work as fast as possible, bounded.

    The graceful-shutdown tail: intake is cut first (no further arrivals
    are drawn from attached sources), then the remaining events run
    unpaced in bounded chunks until the session settles or ``deadline_s``
    wall seconds pass.  Returns ``True`` when everything reached a
    terminal state.
    """
    session.stop_intake()
    deadline = clock() + max(0.0, deadline_s)
    while not session.cluster.all_finished():
        if session.step(max_events=chunk_events) == 0:
            break
        if clock() > deadline:
            break
    return session.cluster.all_finished()


class WallClockPacer:
    """Anchor a serving session's simulated clock to wall time.

    ``max_poll_s`` caps every sleep the pacer recommends (and the ones
    :meth:`run` performs): even when the next simulated event is far
    away, the loop wakes at least that often to notice injected work and
    stop requests.
    """

    def __init__(
        self,
        session: ServingSession,
        *,
        time_scale: float = 1.0,
        max_poll_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not math.isfinite(time_scale) or time_scale <= 0:
            raise ValueError(
                f"time_scale must be positive and finite, got {time_scale!r}"
            )
        if not math.isfinite(max_poll_s) or max_poll_s <= 0:
            raise ValueError(
                f"max_poll_s must be positive and finite, got {max_poll_s!r}"
            )
        self.session = session
        self.time_scale = time_scale
        self.max_poll_s = max_poll_s
        self._clock = clock
        self._anchor: float | None = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor simulated ``t=0`` at the current wall instant.

        Idempotent: a second call keeps the original anchor, so helpers
        that need a started pacer may call it defensively.
        """
        if self._anchor is None:
            self._anchor = self._clock()

    @property
    def started(self) -> bool:
        return self._anchor is not None

    @property
    def sim_now(self) -> float:
        """The simulated instant corresponding to the current wall time.

        This is where the simulated clock *should* be; the engine's own
        clock trails it until the next :meth:`poll` catches up.
        """
        if self._anchor is None:
            raise RuntimeError("pacer not started; call start() first")
        return (self._clock() - self._anchor) * self.time_scale

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def poll(self) -> float | None:
        """Run every event now due; wall seconds until the next one.

        Advances the session through all events with simulated time
        ``<= sim_now``, then returns how long the caller should sleep
        before the next event is due (0.0 when it is already overdue),
        or ``None`` when the engine is idle — no pending event, which
        with live traffic means "until something is injected".  Never
        sleeps itself.
        """
        self.session.step(until=self.sim_now)
        next_t = self.session.cluster.engine.peek_next_time()
        if next_t is None:
            return None
        return max(0.0, (next_t - self.sim_now) / self.time_scale)

    def idle(self) -> bool:
        """No pending event and every attached arrival source consumed."""
        engine = self.session.cluster.engine
        return engine.peek_next_time() is None and engine.feeds_exhausted()

    def finished(self) -> bool:
        """Idle *and* every submitted request reached a terminal state."""
        return self.idle() and self.session.cluster.all_finished()

    def run(
        self,
        *,
        sleep: Callable[[float], None] = time.sleep,
        should_stop: Callable[[], bool] | None = None,
    ) -> int:
        """Pace until the workload drains (or ``should_stop`` says so).

        The loop alternates :meth:`poll` with a sleep capped at
        ``max_poll_s``, so a stop request is honoured within one cap
        interval.  Returns the number of polls performed.
        """
        self.start()
        polls = 0
        while should_stop is None or not should_stop():
            delay = self.poll()
            polls += 1
            if delay is None:
                if self.finished():
                    break
                # Idle but unresolved work exists (or live injection is
                # expected): wake again after the cap.
                delay = self.max_poll_s
            sleep(min(delay, self.max_poll_s))
        return polls

    # ------------------------------------------------------------------
    # live injection
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> RequestHandle:
        """Inject a live request (construct it with ``arrival_t`` already
        stamped from :attr:`sim_now` — the request's internal accounting
        clock is seeded from its arrival time at construction).  Raises
        :class:`~repro.api.session.UnservableRequestError` for a request
        no instance can ever serve, as :meth:`ServingSession.submit`
        does."""
        return self.session.submit(request)

    def cancel(self, target: RequestHandle | Request) -> bool:
        """Cancel a live request at the current wall instant.

        The cancellation is timestamped :attr:`sim_now` and takes effect
        when the engine catches up to it, in deterministic event order.
        Returns ``False`` when the request is already terminal.
        """
        return self.session.cancel(target, at=self.sim_now)
