"""`ServingSession`: the online request-lifecycle façade.

Everything the harness, the CLI and third-party code need for *online*
serving — submit requests as they arrive, observe their lifecycle, apply
admission control, advance simulated time — in one object, instead of the
batch contract ("materialize the full workload, run to completion, read
the metrics") the original entry points imposed.

A minimal online loop::

    from repro.api import ServingSession, TraceFileSource
    from repro.workload.trace import ReplayTraceConfig

    session = ServingSession(policy="pascal")
    session.attach(TraceFileSource(ReplayTraceConfig("trace.jsonl")))
    session.subscribe(MySubscriber())      # lifecycle event callbacks
    session.step(until=60.0)              # first simulated minute
    handle = session.submit(my_request)   # mid-run submission
    metrics = session.drain()             # run to completion + collect

The session is a thin, observable shell over the existing simulator: it
owns a :class:`~repro.cluster.cluster.Cluster`, feeds it from pull-based
:class:`~repro.api.sources.ArrivalSource` iterators through the engine's
feed mechanism, and fans the cluster's lifecycle hooks out to subscribers.
Running the same workload through a session or through the legacy batch
path produces **byte-identical** results — the property test in
``tests/test_equivalence.py`` pins it for every registered policy, and the
golden tables are now produced through this layer.

Lifecycle of one request (events in order)::

    submit ──► on_admit(handle, now, instance_id) ──► ... decoding ...
       │            ──► on_phase_change(handle, now)     # reasoning→answer
       │            ──► on_first_token(handle, now)      # TTFT milestone
       │            ──► on_complete(handle, now)
       ├──► on_defer(handle, now, delay_s) ──► (re-enters admission)
       ├──► on_reject(handle, now, reason)               # terminal
       └──► on_cancel(handle, now)                       # terminal

Requests with ``reasoning_len == 0`` skip ``on_phase_change`` (they are
born answering); every admitted request eventually fires ``on_complete``
when the session drains.  ``on_cancel`` can interrupt the lifecycle at
any point before completion — :meth:`RequestHandle.cancel` (or a
client disconnect at the serving gateway) schedules it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.policy import ClusterPolicy
from repro.api.admission import AdmissionPolicy
from repro.api.sources import SourceLike, as_source
from repro.metrics.collector import RunMetrics, collect
from repro.workload.request import Request, ReqState

if TYPE_CHECKING:  # annotation-only imports
    from repro.perfmodel.analytical import PerfModel
    from repro.serving.instance import ServingInstance


class UnservableRequestError(ValueError):
    """:meth:`ServingSession.submit` refused a request no instance can
    ever serve; the message names the limit it breaks.  The gateway
    answers it with HTTP 400."""


class RequestHandle:
    """The session's view of one submitted request.

    Handed back by :meth:`ServingSession.submit` and passed to every
    subscriber callback.  A handle stores nothing of its own: its status
    and every measurement accessor read the live (or final) request, so
    any two handles of one request agree.
    """

    __slots__ = ("request", "_session")

    #: ``status`` values, in lifecycle order.
    PENDING = "pending"      #: submitted, not yet placed (or deferred)
    ADMITTED = "admitted"    #: placed on an instance, decoding or queued
    REJECTED = "rejected"    #: turned away by admission (terminal)
    COMPLETED = "completed"  #: all answering tokens generated (terminal)
    CANCELLED = "cancelled"  #: abandoned by its client (terminal)

    _TERMINAL_STATUS = {
        ReqState.FINISHED: COMPLETED,
        ReqState.REJECTED: REJECTED,
        ReqState.CANCELLED: CANCELLED,
    }

    def __init__(
        self, request: Request, session: "ServingSession | None" = None
    ):
        self.request = request
        self._session = session

    @property
    def status(self) -> str:
        """Where the request is in its lifecycle, read from the request."""
        request = self.request
        status = self._TERMINAL_STATUS.get(request.state)
        if status is not None:
            return status
        if request.instance_id is None:
            return RequestHandle.PENDING
        return RequestHandle.ADMITTED

    @property
    def rid(self) -> int:
        """The underlying request id."""
        return self.request.rid

    @property
    def instance_id(self) -> int | None:
        """Instance currently (or last) hosting the request, if placed."""
        return self.request.instance_id

    @property
    def done(self) -> bool:
        """Terminal any way: completed, rejected or cancelled."""
        return self.request.terminal

    def cancel(self) -> bool:
        """Ask the session to cancel this request.

        The cancellation is *scheduled* (a ``CANCEL`` event at the current
        simulated clock) rather than applied in place, so it is safe to
        call from subscriber callbacks and takes effect in deterministic
        event order.  Returns ``False`` when the request is already
        terminal.  Raises :class:`RuntimeError` on a handle that was
        constructed detached from a session.
        """
        if self._session is None:
            raise RuntimeError(
                f"handle for request {self.rid} is not attached to a "
                "session; use Cluster.request_cancel(request)"
            )
        return self._session.cancel(self)

    def ttft(self) -> float | None:
        """Time to first answering token so far (None before it exists)."""
        return self.request.ttft()

    def e2e_latency(self) -> float | None:
        """Arrival to final token (None until completed)."""
        return self.request.e2e_latency()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestHandle(rid={self.rid}, {self.status}, "
            f"phase={self.request.phase.name})"
        )


class SessionSubscriber:
    """Base class for lifecycle observers: override what you care about.

    Callbacks run synchronously inside the simulation loop, in submission/
    event order, with the simulated clock as ``now``.  They must not call
    back into :meth:`ServingSession.step`/:meth:`~ServingSession.drain`
    (the engine is not re-entrant); submitting new requests from a
    callback is allowed — that is how closed-loop clients are written.
    """

    def on_admit(
        self, handle: RequestHandle, now: float, instance_id: int
    ) -> None:
        """``handle`` passed admission and was placed on ``instance_id``."""

    def on_reject(
        self, handle: RequestHandle, now: float, reason: str
    ) -> None:
        """Admission turned ``handle`` away permanently."""

    def on_defer(
        self, handle: RequestHandle, now: float, delay_s: float
    ) -> None:
        """Admission postponed ``handle``; it re-arrives ``delay_s`` later."""

    def on_phase_change(self, handle: RequestHandle, now: float) -> None:
        """``handle`` emitted its end-of-think token (reasoning→answering)."""

    def on_first_token(self, handle: RequestHandle, now: float) -> None:
        """``handle`` delivered its first user-visible answering token."""

    def on_complete(self, handle: RequestHandle, now: float) -> None:
        """``handle`` generated its final answering token (terminal)."""

    def on_cancel(self, handle: RequestHandle, now: float) -> None:
        """``handle``'s client abandoned it before completion (terminal)."""


class EventPrinter(SessionSubscriber):
    """Subscriber that renders the lifecycle stream as text lines.

    One line per event, ``[<sim time>] <event> req <rid> <detail>``, in
    dispatch order — what ``python -m repro.harness serve`` prints, and a
    convenient debugging tap for any session (``session.subscribe(
    EventPrinter())``).
    """

    def __init__(self, write: Callable[[str], None] | None = None):
        import sys

        self._write: Callable[[str], None] = (
            write if write is not None else sys.stdout.write
        )

    def _line(
        self, now: float, kind: str, handle: RequestHandle, detail: str = ""
    ) -> None:
        tag = f" ({handle.request.dataset})" if handle.request.dataset else ""
        suffix = f"  {detail}" if detail else ""
        self._write(
            f"[{now:12.3f}s] {kind:<12} req {handle.rid}{tag}{suffix}\n"
        )

    def on_admit(
        self, handle: RequestHandle, now: float, instance_id: int
    ) -> None:
        self._line(now, "admit", handle, f"-> instance {instance_id}")

    def on_reject(
        self, handle: RequestHandle, now: float, reason: str
    ) -> None:
        self._line(now, "reject", handle, reason)

    def on_defer(
        self, handle: RequestHandle, now: float, delay_s: float
    ) -> None:
        self._line(now, "defer", handle, f"retry in {delay_s:g}s")

    def on_phase_change(self, handle: RequestHandle, now: float) -> None:
        self._line(
            now,
            "phase",
            handle,
            f"reasoning -> answering "
            f"({handle.request.generated_tokens} think tokens)",
        )

    def on_first_token(self, handle: RequestHandle, now: float) -> None:
        ttft = handle.ttft()
        detail = f"ttft {ttft:.3f}s" if ttft is not None else ""
        self._line(now, "first-token", handle, detail)

    def on_complete(self, handle: RequestHandle, now: float) -> None:
        latency = handle.e2e_latency()
        detail = f"e2e {latency:.3f}s" if latency is not None else ""
        self._line(now, "complete", handle, detail)

    def on_cancel(self, handle: RequestHandle, now: float) -> None:
        req = handle.request
        self._line(
            now,
            "cancel",
            handle,
            f"in {req.phase.name.lower()} "
            f"({req.generated_tokens}/{req.total_decode_tokens} tokens)",
        )


class ServingSession:
    """An online serving deployment: submit, observe, advance, collect.

    Parameters
    ----------
    policy:
        Registered cluster-policy name (``repro.core.registry``) or an
        unbound :class:`~repro.core.policy.ClusterPolicy` instance.
    config:
        Cluster shape; defaults to the paper's eight-instance deployment
        (:class:`~repro.config.ClusterConfig`).
    admission:
        Optional :class:`~repro.api.admission.AdmissionPolicy` consulted
        before placement; omitted = admit everything.
    perf:
        Optional :class:`~repro.perfmodel.analytical.PerfModel` override
        (tests and what-if studies; None = the analytical H100 model).

    The session wraps one single-use :class:`~repro.cluster.cluster.Cluster`
    (exposed as :attr:`cluster` for advanced reads — instance census, the
    monitor, migration stats).  Time advances only inside :meth:`step` or
    :meth:`drain`; between calls the simulation is frozen and every
    accessor is a consistent snapshot.
    """

    def __init__(
        self,
        policy: str | ClusterPolicy = "pascal",
        config: ClusterConfig | None = None,
        admission: AdmissionPolicy | None = None,
        perf: PerfModel | None = None,
    ):
        self.config = config or ClusterConfig()
        self.cluster = Cluster(self.config, policy=policy, perf=perf)
        if admission is not None:
            # An explicit session gate wins; otherwise keep whatever the
            # policy installed at bind time (``speculative-replace``
            # defers rank-uncertain arrivals through its own gate).
            self.cluster.admission = admission
        self._subscribers: list[SessionSubscriber] = []
        cluster = self.cluster
        cluster.on_admit_hook = self._fire_admit
        cluster.on_reject_hook = self._fire_reject
        cluster.on_defer_hook = self._fire_defer
        cluster.on_phase_hook = self._fire_phase
        cluster.on_first_token_hook = self._fire_first_token
        cluster.on_complete_hook = self._fire_complete
        cluster.on_cancel_hook = self._fire_cancel

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> RequestHandle:
        """Submit one request now; returns its lifecycle handle.

        Safe at any point of the session's life: a request whose
        ``arrival_t`` is already in the past (relative to :attr:`now`) is
        admitted at the current clock, with the gap accounted as queued
        time.  Admission control, if installed, runs when the arrival
        event fires — not here — so the handle starts ``pending``.

        A request no instance can ever serve (see
        :meth:`~repro.serving.instance.ServingInstance.unservable_reason`)
        raises :class:`UnservableRequestError` and is not submitted.
        Requests fed through :meth:`attach` get no such check: they fail
        loudly inside the run instead.
        """
        # Every instance shares ``config.instance``: one speaks for all.
        reason = self.cluster.instances[0].unservable_reason(request)
        if reason is not None:
            raise UnservableRequestError(
                f"request {request.rid}: {reason}; no instance can ever "
                "serve it"
            )
        self.cluster.submit_one(request)
        return RequestHandle(request, self)

    def attach(self, source: SourceLike) -> None:
        """Feed an arrival source (or anything :func:`as_source` accepts).

        The source is consumed *incrementally* as simulated time reaches
        each arrival — O(1) queue space regardless of source length — and
        may be attached mid-run; multiple attached sources interleave by
        arrival time.  Subscriber callbacks receive a handle for each of
        its requests; :meth:`handle_for` builds one on demand.
        """
        self.cluster.attach_arrivals(as_source(source))

    def stop_intake(self) -> int:
        """Detach every attached arrival source (graceful-shutdown cut).

        Requests already pulled from the sources keep running; nothing
        further is drawn, so a bounded :meth:`step` loop can finish the
        in-flight work without ingesting the rest of an unbounded
        stream.  Returns the number of sources detached.  Directly
        submitted requests are unaffected.
        """
        return self.cluster.engine.detach_feeds()

    def cancel(
        self, target: RequestHandle | Request, at: float | None = None
    ) -> bool:
        """Schedule cancellation of a submitted request.

        ``at`` is a simulated time (clamped to the current clock; default
        = now); the cancel takes effect when the engine dispatches it, in
        deterministic event order — which makes this safe to call from
        subscriber callbacks.  Returns ``False`` when the request is
        already terminal.
        """
        request = target.request if isinstance(target, RequestHandle) else target
        return self.cluster.request_cancel(request, at)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: SessionSubscriber) -> SessionSubscriber:
        """Register a lifecycle observer (returned, for chaining)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: SessionSubscriber) -> None:
        """Remove a previously registered observer (KeyError if absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            raise KeyError(f"not a subscriber: {subscriber!r}") from None

    def handle_for(self, request: Request) -> RequestHandle:
        """A handle on ``request``: a view, so any number may exist."""
        return RequestHandle(request, self)

    @property
    def now(self) -> float:
        """The simulated clock (seconds since session start)."""
        return self.cluster.engine.now

    @property
    def n_submitted(self) -> int:
        """Requests the session has seen (sources count as they are pulled)."""
        return len(self.cluster.submitted)

    @property
    def n_completed(self) -> int:
        return len(self.cluster.completed)

    @property
    def n_rejected(self) -> int:
        return len(self.cluster.rejected)

    @property
    def n_cancelled(self) -> int:
        return len(self.cluster.cancelled)

    @property
    def n_in_flight(self) -> int:
        """Seen but unresolved: queued, running, migrating, or deferred."""
        return self.cluster.in_flight()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def step(
        self, until: float | None = None, max_events: int | None = None
    ) -> int:
        """Advance the simulation; returns the number of events processed.

        ``until`` bounds simulated time (events at ``t <= until`` run; the
        clock never jumps past the last processed event), ``max_events``
        bounds work; with neither, this is :meth:`drain` without the
        completeness check.  Returns 0 when nothing is due — attached
        sources exhausted and no pending events.
        """
        engine = self.cluster.engine
        if until is None and max_events is None:
            # Unbounded: take the engine's tight dispatch loop (one peek
            # per event) — this is the figure harness's hot path.
            before = engine.events_processed
            engine.run()
            return engine.events_processed - before
        processed = 0
        cutoff: float | None = None
        inclusive = False
        while max_events is None or processed < max_events:
            next_t = engine.peek_next_time()
            if next_t is None:
                break  # drained: no decode epoch is left open
            if until is not None and next_t > until:
                # Single-stepping dispatches everything at t <= until,
                # including the per-token events an epoch coalesced away.
                cutoff, inclusive = until, True
                break
            engine.step()
            processed += 1
        else:
            cutoff, inclusive = engine.now, False  # max_events exhausted
        # Emit lazily-deferred decode-epoch tokens so every accessor sees
        # a consistent frozen snapshot between step() calls.
        if cutoff is not None:
            for inst in self.cluster.instances:
                inst.sync(cutoff, inclusive)
        return processed

    def drain(self) -> RunMetrics:
        """Run to completion and return the final metrics.

        Raises :class:`RuntimeError` if the simulation stops with
        unresolved requests — a drained session always satisfies the
        conservation law ``submitted == completed + rejected + cancelled``.
        """
        self.cluster.engine.run()
        if not self.cluster.all_finished():
            raise RuntimeError(
                f"session did not drain: {self.n_completed} completed + "
                f"{self.n_rejected} rejected + {self.n_cancelled} "
                f"cancelled of {self.n_submitted} submitted "
                f"({self.n_in_flight} in flight)"
            )
        return self.metrics()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self) -> RunMetrics:
        """Snapshot the run's metrics *right now* (mid-run safe).

        Incremental collection: completed requests so far, throughput over
        the completed span, transfer latencies and predictor errors to
        date.  After :meth:`drain` this is the final record, byte-identical
        to what the legacy batch path produced.
        """
        return collect(self.cluster)

    # ------------------------------------------------------------------
    # hook fan-out
    # ------------------------------------------------------------------
    def _fire_admit(
        self, req: Request, inst: ServingInstance, now: float
    ) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_admit(handle, now, inst.iid)

    def _fire_reject(self, req: Request, now: float, reason: str) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_reject(handle, now, reason)

    def _fire_defer(self, req: Request, now: float, delay_s: float) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_defer(handle, now, delay_s)

    def _fire_phase(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_phase_change(handle, now)

    def _fire_first_token(self, req: Request, now: float) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_first_token(handle, now)

    def _fire_complete(self, req: Request, now: float) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_complete(handle, now)

    def _fire_cancel(self, req: Request, now: float) -> None:
        handle = RequestHandle(req, self)
        for sub in self._subscribers:
            sub.on_cancel(handle, now)
