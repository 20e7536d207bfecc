"""Cluster orchestration: engine wiring and event dispatch.

A :class:`Cluster` owns the simulation engine, a pool of serving instances
(Figure 6's "instance pool"), the instance monitor, the fabric and the
migration manager.  Every *decision* — which intra-instance scheduler the
instances run, where arrivals land, what happens at a phase transition —
is delegated to a :class:`~repro.core.policy.ClusterPolicy` resolved
through :mod:`repro.core.registry`, so the cluster core contains no
policy-specific logic.

Requests enter two ways:

* **batch** — :meth:`Cluster.submit` schedules every arrival up front
  (the original reproduce-a-figure path, still the convenience wrapper);
* **incremental** — :meth:`Cluster.attach_arrivals` feeds a lazy iterator
  of requests through the engine's pull-based feed mechanism, and
  :meth:`Cluster.submit_one` injects a single request mid-run (arrivals
  already in the past are admitted at the current clock).  This is the
  substrate of the online :class:`repro.api.ServingSession` façade.

Request *lifecycle hooks* (``on_admit_hook`` … ``on_complete_hook``) are
plain callables, no-ops by default, fired at admission, rejection,
deferral, the reasoning→answering transition, the first answering token
and completion.  An optional :attr:`Cluster.admission` policy (duck-typed
``decide(cluster, req, now)``, see :mod:`repro.api.admission`) can reject
or defer an arrival before placement; rejected requests end in
``ReqState.REJECTED``, land in :attr:`Cluster.rejected` and are never
seen by the scheduling policy.

See :mod:`repro.core.policies` for the paper's comparison set and
:mod:`repro.core.extensions` for the policies beyond it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.cluster.fabric import Fabric
from repro.cluster.migration import MigrationManager
from repro.config import ClusterConfig
from repro.core.policy import ClusterPolicy
from repro.core.registry import create_policy
from repro.metrics import collector
from repro.perfmodel.analytical import AnalyticalPerfModel, PerfModel
from repro.serving.instance import ServingInstance
from repro.serving.monitor import InstanceMonitor
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.request import ReqState, Request


#: Deferral livelock backstop: a request re-deferred more than this many
#: consecutive times while the cluster made *no* observable progress (no
#: completion/rejection, no token of KV movement anywhere) is hopeless —
#: capacity will never free — and its next deferral converts to a
#: rejection with a distinct ``"deferral livelock"`` reason instead of
#: spinning the event loop forever.  Any progress between two deferrals
#: of the same request resets its count, so ordinary backpressure (slow
#: but live service) is never cut short.
MAX_STALLED_DEFERRALS = 32


class Cluster:
    """A multi-instance serving deployment under one scheduling policy."""

    def __init__(
        self,
        config: ClusterConfig,
        policy: str | ClusterPolicy,
        perf: PerfModel | None = None,
    ):
        if isinstance(policy, str):
            policy = create_policy(policy, config)
        self.config = config
        self.policy = policy
        self.engine = SimulationEngine()
        self.perf = perf or AnalyticalPerfModel(
            config.instance.model, config.instance.gpu
        )
        self.monitor = InstanceMonitor()
        self.instances = [
            ServingInstance(
                iid=i,
                config=config.instance,
                perf=self.perf,
                engine=self.engine,
                scheduler=policy.make_intra_scheduler(i),
                slo=config.slo,
            )
            for i in range(config.n_instances)
        ]
        self.fabric = Fabric(config.fabric, config.n_instances)
        self.migrations = MigrationManager(
            self.engine, self.fabric, config.instance.model
        )

        self.completed: list[Request] = []
        self.submitted: list[Request] = []
        self.rejected: list[Request] = []
        #: Client-cancelled requests (terminal; distinct from rejected —
        #: the client walked away, the cluster did not turn them down).
        self.cancelled: list[Request] = []
        #: Requests whose ARRIVAL event is scheduled but not yet
        #: dispatched: batch submissions awaiting their arrival time,
        #: source pulls the engine has queued ahead, and admission
        #: deferrals.  Distinguishes "seen" from "actually on the
        #: cluster" (see :meth:`active_requests`).
        self.pending_arrivals = 0
        #: Deferred arrivals currently waiting out their delay, keyed by
        #: rid in defer order (insertion-ordered; see :meth:`deferred`).
        self._deferred: dict[int, Request] = {}
        #: Total admission deferral events (a request deferred k times
        #: counts k); surfaced through the metrics collector.
        self.n_deferrals = 0
        #: rid -> (consecutive stalled deferrals, progress marker at the
        #: request's previous deferral).
        self._deferral_stalls: dict[int, tuple[int, tuple[int, int] | None]] = {}
        self.token_log: dict[int, list[float]] | None = None

        #: Optional pre-placement gate: ``decide(cluster, req, now)``
        #: returning an object with ``action`` in {"admit","reject",
        #: "defer"} (see :mod:`repro.api.admission`).  None admits all.
        #: Policies may install one at bind time
        #: (``speculative-replace``); an explicit
        #: :class:`repro.api.ServingSession` gate takes precedence.
        self.admission = None

        #: Lifecycle hooks, fired by the event handlers below.  They are
        #: plain attributes (not a subscriber list) so the no-hook fast
        #: path costs one attribute call; :class:`repro.api.ServingSession`
        #: wires them to its subscriber fan-out.
        self.on_admit_hook: Callable[[Request, ServingInstance, float], None] = (
            lambda req, inst, now: None
        )
        self.on_reject_hook: Callable[[Request, float, str], None] = (
            lambda req, now, reason: None
        )
        self.on_defer_hook: Callable[[Request, float, float], None] = (
            lambda req, now, delay_s: None
        )
        self.on_phase_hook: Callable[[Request, ServingInstance, float], None] = (
            lambda req, src, now: None
        )
        self.on_first_token_hook: Callable[[Request, float], None] = (
            lambda req, now: None
        )
        self.on_complete_hook: Callable[[Request, float], None] = (
            lambda req, now: None
        )
        self.on_cancel_hook: Callable[[Request, float], None] = (
            lambda req, now: None
        )

        self.engine.register(EventKind.ARRIVAL, self._on_arrival)
        self.engine.register(EventKind.STEP_COMPLETE, self._on_step_complete)
        self.engine.register(
            EventKind.TRANSFER_COMPLETE, self.migrations.on_transfer_complete
        )
        self.engine.register(EventKind.CANCEL, self._on_cancel)
        for inst in self.instances:
            inst.on_transition = self._on_phase_transition
            inst.on_complete = self._on_request_complete
            inst.on_first_token = self._on_first_token

        # Bind last, against the fully constructed cluster: a policy's
        # on_bind may install an admission gate or read any of the
        # accounting attributes above.
        policy.bind(self)

    @property
    def policy_name(self) -> str:
        return self.policy.name

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, req: Request) -> None:
        if req.state is ReqState.CANCELLED:
            # Cancelled while this (re-)arrival sat in the queue: the
            # accounting was settled at cancel time (see
            # :meth:`_cancel_request`); drop the stale dispatch.
            return
        # Admission and placement read the cluster-wide census, which is
        # exact without catching any instance's decode epoch up.
        self.pending_arrivals -= 1
        # A re-arrival after a deferral leaves the waiting-room view;
        # it may be re-deferred below, which re-inserts it at the tail.
        self._deferred.pop(req.rid, None)
        if self.admission is not None:
            decision = self.admission.decide(self, req, now)
            action = getattr(decision, "action", "admit")
            if action == "reject":
                self._reject(req, now, getattr(decision, "reason", ""))
                return
            if action == "defer":
                delay_s = getattr(decision, "delay_s", 0.0)
                if delay_s <= 0:
                    raise ValueError(
                        f"admission deferred request {req.rid} by "
                        f"{delay_s}s; deferrals must be positive"
                    )
                reason = getattr(decision, "reason", "")
                if self._deferral_stalled(req):
                    # Livelock backstop: capacity is provably not
                    # freeing, so another deferral would re-present the
                    # same request to the same gate forever and the
                    # event loop would never drain.  Convert to a
                    # rejection with a distinct reason.
                    self._reject(
                        req,
                        now,
                        "deferral livelock: no progress across "
                        f"{MAX_STALLED_DEFERRALS} deferrals ({reason})",
                    )
                    return
                self.n_deferrals += 1
                self.pending_arrivals += 1
                self._deferred[req.rid] = req
                self.engine.schedule_in(delay_s, EventKind.ARRIVAL, req)
                self.on_defer_hook(req, now, delay_s)
                return
        self._deferral_stalls.pop(req.rid, None)
        inst = self.policy.place_arrival(req, now)
        inst.admit(req, now)
        self.on_admit_hook(req, inst, now)

    def _reject(self, req: Request, now: float, reason: str) -> None:
        """Turn ``req`` away at admission (terminal).

        It was never placed, so no accounting interval closes: its
        breakdown stays empty.
        """
        self._deferral_stalls.pop(req.rid, None)
        req.state = ReqState.REJECTED
        self.rejected.append(req)
        self.policy.on_arrival_rejected(req, now)
        self.on_reject_hook(req, now, reason)

    def _progress_marker(self) -> tuple[int, int]:
        """A snapshot that changes iff the cluster made *any* progress.

        Completions/rejections free capacity outright; the cluster-wide
        KV total (allocated plus queued demand, O(1) running counters)
        moves with every decoded token, admission or departure.  Two
        equal markers bracket a window in which nothing happened at all.
        """
        return (
            len(self.completed) + len(self.rejected),
            sum(inst.total_kv_tokens() for inst in self.instances),
        )

    def _deferral_stalled(self, req: Request) -> bool:
        """Track a deferral of ``req``; True when it is hopeless.

        Counts *consecutive* deferrals of the same request with no
        progress in between (see :data:`MAX_STALLED_DEFERRALS`); any
        progress resets the count, so ordinary backpressure — however
        many retries it takes — is never converted to a rejection.
        """
        marker = self._progress_marker()
        stalls, last_marker = self._deferral_stalls.get(req.rid, (0, None))
        stalls = stalls + 1 if marker == last_marker else 1
        if stalls > MAX_STALLED_DEFERRALS:
            self._deferral_stalls.pop(req.rid, None)
            return True
        self._deferral_stalls[req.rid] = (stalls, marker)
        return False

    def _on_step_complete(self, now: float, inst: ServingInstance) -> None:
        inst.on_step_complete(now)

    def _on_phase_transition(
        self, req: Request, src: ServingInstance, now: float
    ) -> None:
        """A request just emitted its end-of-think token on ``src``."""
        # Transition routing reads the cluster-wide census (Algorithm 2),
        # exact without catching any instance's decode epoch up.
        self.policy.on_phase_transition(req, src, now)
        # Fire after routing, so subscribers observe the post-decision
        # state (MIGRATING vs re-enqueued locally).
        self.on_phase_hook(req, src, now)

    def _on_first_token(self, req: Request, now: float) -> None:
        self.on_first_token_hook(req, now)

    def _on_request_complete(self, req: Request, now: float) -> None:
        self.completed.append(req)
        self.on_complete_hook(req, now)

    def _on_cancel(self, now: float, req: Request) -> None:
        self._cancel_request(req, now)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def _schedule_scripted_cancel(self, req: Request) -> None:
        """Schedule a trace-scripted cancellation (``cancel_at``), once.

        Called at submission (not in ``_on_arrival``: a deferral re-fires
        the ARRIVAL handler and would double-schedule the cancel).
        """
        if req.cancel_at is not None:
            self.engine.schedule(
                max(req.cancel_at, self.engine.now), EventKind.CANCEL, req
            )

    def request_cancel(self, req: Request, at: float | None = None) -> bool:
        """Schedule a cancellation, processed in deterministic event order.

        The one way to cancel: the ``CANCEL`` event runs
        :meth:`_cancel_request` between events, so this is safe to call
        from lifecycle hooks and subscriber callbacks.  Returns ``False``
        if the request is already terminal — nothing to cancel.
        """
        if req.terminal:
            return False
        at = self.engine.now if at is None else max(at, self.engine.now)
        self.engine.schedule(at, EventKind.CANCEL, req)
        return True

    def _cancel_request(self, req: Request, now: float) -> bool:
        """Dispatch a cancellation by lifecycle position.

        Exactly one of the branches below accounts the request out of the
        conservation ledger: off an instance, out of the migration fabric,
        or out of the pending-arrival pool (batch submissions awaiting
        their arrival time, admission deferrals, queued source pulls —
        their stale ARRIVAL event is dropped at dispatch).
        """
        if req.terminal:
            return False
        if req.state is ReqState.MIGRATING:
            if not self.migrations.cancel(req, now):  # pragma: no cover
                raise RuntimeError(
                    f"request {req.rid} is MIGRATING but has no active "
                    "transfer record"
                )
        elif req.instance_id is not None:
            inst = self.instances[req.instance_id]
            if not inst.cancel_request(req, now):  # pragma: no cover
                raise RuntimeError(
                    f"request {req.rid} claims residency on instance "
                    f"{req.instance_id} but is not registered there"
                )
        else:
            # Never placed: its ARRIVAL is still queued (or parked in the
            # deferral waiting room awaiting re-arrival).
            self.pending_arrivals -= 1
            self._deferred.pop(req.rid, None)
        self._deferral_stalls.pop(req.rid, None)
        req.mark_cancelled(now)
        self.cancelled.append(req)
        self.policy.on_request_cancelled(req, now)
        self.on_cancel_hook(req, now)
        return True

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def enable_token_log(self) -> dict[int, list[float]]:
        """Record every token's timestamp (timeline demos; adds overhead)."""
        self.token_log = {}
        for inst in self.instances:
            inst.token_log = self.token_log
        return self.token_log

    def submit_one(self, req: Request) -> None:
        """Schedule one arrival, mid-run safe.

        A request whose ``arrival_t`` is already in the past (a *late
        submission* relative to the simulated clock) is scheduled at the
        current clock instead: the wall-clock gap between its nominal
        arrival and its admission is accounted as blocked/queued time by
        the request's own interval bookkeeping.  The pre-feed batch path
        scheduled strictly at ``arrival_t`` and crashed on any mid-run
        submission ("cannot schedule into the past").
        """
        self.submitted.append(req)
        self.pending_arrivals += 1
        self.engine.schedule(
            max(req.arrival_t, self.engine.now), EventKind.ARRIVAL, req
        )
        self._schedule_scripted_cancel(req)

    def submit(self, requests: list[Request]) -> None:
        """Schedule arrival events for a trace (the batch convenience)."""
        for req in requests:
            self.submit_one(req)

    def attach_arrivals(self, requests: Iterable[Request]) -> None:
        """Feed a lazy, arrival-ordered request iterator into the engine.

        Requests are pulled one at a time as the simulation advances (see
        :meth:`repro.sim.engine.SimulationEngine.attach_feed`), so an
        arbitrarily long source is never materialized ahead of the run —
        though each pulled request joins :attr:`submitted` (and later
        :attr:`completed`) for measurement, so per-run memory still grows
        with the requests actually served.  ``len(cluster.submitted)`` is
        the number of requests the cluster has *seen*, not the length of
        the source.
        """
        self.engine.attach_feed(self._arrival_feed(requests))

    def _arrival_feed(
        self, requests: Iterable[Request]
    ) -> Iterator[tuple[float, EventKind, Request]]:
        for req in requests:
            self.submitted.append(req)
            self.pending_arrivals += 1
            self._schedule_scripted_cancel(req)
            yield req.arrival_t, EventKind.ARRIVAL, req

    def run(self) -> list[Request]:
        """Drain the simulation; returns the completed requests.

        A drained engine leaves no decode epoch open: each open epoch
        keeps its final ``STEP_COMPLETE`` event queued, and that event
        emits everything the epoch still owes.
        """
        self.engine.run()
        return self.completed

    def run_trace(self, requests: list[Request]) -> list[Request]:
        """Submit and run in one call."""
        self.submit(requests)
        return self.run()

    # ------------------------------------------------------------------
    # cluster-wide accounting
    # ------------------------------------------------------------------
    def throughput_tokens_per_s(self) -> float:
        """Output tokens (reasoning + answering) per second of makespan."""
        return collector.throughput_tokens_per_s(self.completed)

    def all_finished(self) -> bool:
        """Every seen request resolved (completed, rejected or cancelled)."""
        return (
            len(self.completed) + len(self.rejected) + len(self.cancelled)
            == len(self.submitted)
        )

    def in_flight(self) -> int:
        """Requests seen but not yet resolved.

        Counts everything between submission and a terminal outcome:
        running/queued/migrating requests, admission deferrals awaiting
        re-arrival, and source pulls whose arrival event is still queued.
        For admission decisions prefer :meth:`active_requests`, which
        excludes the not-yet-arrived.
        """
        return (
            len(self.submitted)
            - len(self.completed)
            - len(self.rejected)
            - len(self.cancelled)
        )

    def active_requests(self) -> int:
        """Requests actually occupying the cluster right now.

        :meth:`in_flight` minus arrivals that are merely scheduled
        (future batch submissions, the engine's one-ahead source pulls,
        admission deferrals).  During an admission decision the request
        being decided *is* counted — it has arrived — so concurrency
        gates compare ``active_requests() - 1`` against their bound.
        """
        return self.in_flight() - self.pending_arrivals

    def deferred(self) -> list[Request]:
        """Admission-deferred requests currently waiting out their delay.

        A snapshot in defer order: a request enters when the admission
        gate defers it, leaves when its re-arrival fires (and re-enters
        at the tail if deferred again).  Subset of
        :attr:`pending_arrivals`; empty when no admission policy defers.
        """
        return list(self._deferred.values())

    def check_invariants(self) -> None:
        """Request conservation, then every instance's
        :meth:`~ServingInstance.check_invariants`; raises
        ``AssertionError`` on drift.  Valid between any two events.

        Every submitted request is terminal, crossing the fabric,
        registered on exactly one instance, or awaiting its (re-)arrival
        dispatch (:attr:`pending_arrivals`).
        """
        placed = sum(len(inst.requests) for inst in self.instances)
        accounted = (
            len(self.completed) + len(self.rejected) + len(self.cancelled)
            + self.migrations.in_flight + placed + self.pending_arrivals
        )
        if accounted != len(self.submitted):
            raise AssertionError(
                f"request conservation drift at t={self.engine.now}: "
                f"{len(self.submitted)} submitted, {accounted} accounted "
                f"({len(self.completed)} completed, {len(self.rejected)} "
                f"rejected, {len(self.cancelled)} cancelled, "
                f"{self.migrations.in_flight} migrating, {placed} placed, "
                f"{self.pending_arrivals} pending)"
            )
        for inst in self.instances:
            inst.check_invariants()
