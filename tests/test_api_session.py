"""The `repro.api` façade: equivalence, lifecycle, admission, feeds.

The load-bearing guarantee of the serving-session redesign is that the
online path is a *refactor*, not a behavior change: running any workload
through a ``ServingSession`` (pull-based arrival sources, incremental
engine feeding) must produce results byte-identical to the legacy batch
preload.  The hypothesis property below pins that for every registered
policy; the rest of the file covers the new online semantics — lifecycle
event streams, admission accounting (rejected ≠ SLO-violated ≠
completed), mid-run submission, and the engine-feed regressions the
incremental path uncovered.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmitAll,
    EventPrinter,
    ListSource,
    MaxInFlightAdmission,
    MergedSource,
    ServingSession,
    SessionSubscriber,
    SyntheticSource,
    TraceFileSource,
    as_source,
    defer,
    reject,
)
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.core.registry import policy_names
from repro.harness.cache import metrics_to_payload
from repro.metrics.collector import collect
from repro.perfmodel.unit import UnitPerfModel
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.datasets import ALPACA_EVAL
from repro.workload.request import Request
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceConfig,
    build_replay_trace,
    build_trace,
    export_trace,
)


def small_config(n_instances: int = 2) -> ClusterConfig:
    return ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(
            kv_capacity_tokens=2400,
            scheduler=SchedulerConfig(token_quantum=16),
        ),
    )


def dataset_config(n_instances: int = 2) -> ClusterConfig:
    """Capacity sized for real dataset length models (multi-k requests)."""
    return ClusterConfig(
        n_instances=n_instances,
        instance=InstanceConfig(kv_capacity_tokens=40000),
    )


def make_requests(specs) -> list[Request]:
    """``specs`` = [(arrival_t, prompt, reasoning, answer), ...]."""
    return [
        Request(
            rid=rid,
            prompt_len=p,
            reasoning_len=r,
            answer_len=a,
            arrival_t=t,
        )
        for rid, (t, p, r, a) in enumerate(specs)
    ]


@st.composite
def small_workload(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    specs = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
        specs.append(
            (
                t,
                draw(st.integers(min_value=1, max_value=40)),
                draw(st.integers(min_value=0, max_value=60)),
                draw(st.integers(min_value=1, max_value=60)),
            )
        )
    return specs


# ---------------------------------------------------------------------------
# batch/session equivalence (the redesign's proof obligation)
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(specs=small_workload(), policy=st.sampled_from(policy_names()))
def test_session_source_equals_batch_for_every_policy(specs, policy):
    """Streaming any workload through a session == the legacy batch path,
    compared byte-for-byte via the canonical metrics payload."""
    cluster = Cluster(
        small_config(), policy=policy, perf=UnitPerfModel(0.01)
    )
    cluster.run_trace(make_requests(specs))
    batch = metrics_to_payload(collect(cluster))

    session = ServingSession(
        policy=policy, config=small_config(), perf=UnitPerfModel(0.01)
    )
    session.attach(ListSource(make_requests(specs)))
    online = metrics_to_payload(session.drain())

    assert online == batch


def test_synthetic_source_matches_build_trace():
    """The lazy synthetic source draws the exact requests build_trace does."""
    config = TraceConfig(
        ALPACA_EVAL, n_requests=50, arrival_rate_per_s=2.0, seed=13
    )
    batch = build_trace(config)
    streamed = list(SyntheticSource(config))
    assert len(batch) == len(streamed)
    for a, b in zip(batch, streamed):
        assert (
            a.rid,
            a.arrival_t,
            a.prompt_len,
            a.reasoning_len,
            a.answer_len,
            a.dataset,
        ) == (b.rid, b.arrival_t, b.prompt_len, b.reasoning_len,
              b.answer_len, b.dataset)


def test_trace_file_source_matches_build_replay_trace(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    export_trace(
        build_trace(
            TraceConfig(ALPACA_EVAL, n_requests=20, arrival_rate_per_s=3.0,
                        seed=5)
        ),
        trace_path,
    )
    config = ReplayTraceConfig(path=str(trace_path), rate_scale=2.0)
    batch = build_replay_trace(config)
    streamed = list(TraceFileSource(config))
    assert [(r.rid, r.arrival_t, r.prompt_len) for r in batch] == [
        (r.rid, r.arrival_t, r.prompt_len) for r in streamed
    ]


def test_session_run_evaluation_equivalent_via_sources():
    """An evaluation-shaped run through session == Cluster, full payload."""
    trace_config = TraceConfig(
        ALPACA_EVAL, n_requests=40, arrival_rate_per_s=2.0, seed=3
    )
    cluster = Cluster(dataset_config(4), policy="pascal")
    cluster.run_trace(build_trace(trace_config))
    session = ServingSession(policy="pascal", config=dataset_config(4))
    session.attach(SyntheticSource(trace_config))
    assert metrics_to_payload(session.drain()) == metrics_to_payload(
        collect(cluster)
    )


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------
def test_list_source_rejects_unordered():
    reqs = make_requests([(1.0, 5, 5, 5), (0.5, 5, 5, 5)])
    with pytest.raises(ValueError, match="arrival-ordered"):
        list(ListSource(reqs))


def test_merged_source_orders_and_breaks_ties_by_source_index():
    first = make_requests([(0.5, 5, 5, 5), (2.0, 5, 5, 5)])
    second = make_requests([(0.5, 6, 5, 5), (1.0, 6, 5, 5)])
    merged = list(MergedSource([ListSource(first), ListSource(second)]))
    assert [r.arrival_t for r in merged] == [0.5, 0.5, 1.0, 2.0]
    # Tie at 0.5 resolved in source order.
    assert merged[0].prompt_len == 5 and merged[1].prompt_len == 6


def test_merged_source_requires_sources():
    with pytest.raises(ValueError):
        MergedSource([])


def test_admit_constructor_returns_the_shared_decision():
    from repro.api import ADMIT, admit

    assert admit() is ADMIT
    assert ADMIT.action == "admit"


def test_as_source_coercions():
    assert isinstance(as_source([]), ListSource)
    trace_config = TraceConfig(ALPACA_EVAL, 1, 1.0)
    assert isinstance(as_source(trace_config), SyntheticSource)
    assert isinstance(
        as_source(ReplayTraceConfig(path="x.jsonl")), TraceFileSource
    )
    source = ListSource([])
    assert as_source(source) is source
    with pytest.raises(TypeError):
        as_source(object())


# ---------------------------------------------------------------------------
# lifecycle events
# ---------------------------------------------------------------------------
class Recorder(SessionSubscriber):
    def __init__(self):
        self.events: list[tuple] = []

    def on_admit(self, handle, now, instance_id):
        self.events.append(("admit", handle.rid, instance_id))

    def on_reject(self, handle, now, reason):
        self.events.append(("reject", handle.rid, reason))

    def on_defer(self, handle, now, delay_s):
        self.events.append(("defer", handle.rid, delay_s))

    def on_phase_change(self, handle, now):
        self.events.append(("phase", handle.rid))

    def on_first_token(self, handle, now):
        self.events.append(("first", handle.rid))

    def on_complete(self, handle, now):
        self.events.append(("complete", handle.rid))


def one_request_session(reasoning_len=8, answer_len=4, admission=None):
    session = ServingSession(
        policy="fcfs",
        config=small_config(1),
        admission=admission,
        perf=UnitPerfModel(0.01),
    )
    recorder = session.subscribe(Recorder())
    handle = session.submit(
        Request(rid=0, prompt_len=4, reasoning_len=reasoning_len,
                answer_len=answer_len, arrival_t=0.0)
    )
    return session, recorder, handle


def test_lifecycle_event_order_for_reasoning_request():
    session, recorder, handle = one_request_session()
    session.drain()
    kinds = [e[0] for e in recorder.events]
    assert kinds == ["admit", "phase", "first", "complete"]
    assert handle.status == "completed" and handle.done


def test_no_phase_event_for_pure_answering_request():
    session, recorder, handle = one_request_session(reasoning_len=0)
    session.drain()
    kinds = [e[0] for e in recorder.events]
    assert kinds == ["admit", "first", "complete"]


def test_first_token_fires_before_complete_for_one_token_answer():
    session, recorder, handle = one_request_session(answer_len=1)
    session.drain()
    kinds = [e[0] for e in recorder.events]
    assert kinds.index("first") < kinds.index("complete")


def test_first_token_of_a_one_token_answer_reads_completed():
    # The handle reads its request, which that one token also finished.
    seen: list[str] = []

    class Watch(SessionSubscriber):
        def on_first_token(self, handle, now):
            seen.append(handle.status)

    session, _, handle = one_request_session(answer_len=1)
    session.subscribe(Watch())
    session.drain()
    assert seen == ["completed"]
    assert handle.status == "completed"


def test_unsubscribe_stops_delivery_and_unknown_raises():
    session, recorder, _ = one_request_session()
    session.unsubscribe(recorder)
    session.drain()
    assert recorder.events == []
    with pytest.raises(KeyError):
        session.unsubscribe(recorder)


def test_event_printer_renders_stream():
    lines: list[str] = []
    session, _, _ = one_request_session()
    session.subscribe(EventPrinter(write=lines.append))
    session.drain()
    text = "".join(lines)
    assert "admit" in text and "complete" in text and "req 0" in text


def test_event_printer_renders_reject_and_defer():
    class DeferThenReject(AdmissionPolicy):
        def __init__(self):
            self.calls = 0

        def decide(self, cluster, req, now):
            self.calls += 1
            if self.calls == 1:
                return defer(1.0, "warming")
            return reject("full")

    lines: list[str] = []
    session = ServingSession(
        policy="fcfs", config=small_config(1), admission=DeferThenReject(),
        perf=UnitPerfModel(0.01),
    )
    session.subscribe(EventPrinter(write=lines.append))
    session.submit(Request(rid=0, prompt_len=4, reasoning_len=4,
                           answer_len=4, arrival_t=0.0))
    session.drain()
    text = "".join(lines)
    assert "defer" in text and "retry in 1s" in text
    assert "reject" in text and "full" in text


# ---------------------------------------------------------------------------
# admission accounting: rejected != SLO-violated != completed
# ---------------------------------------------------------------------------
def test_reject_all_accounting():
    class RejectAll(AdmissionPolicy):
        def decide(self, cluster, req, now):
            return reject("full")

    session = ServingSession(
        policy="fcfs", config=small_config(1), admission=RejectAll(),
        perf=UnitPerfModel(0.01),
    )
    recorder = session.subscribe(Recorder())
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4), (0.1, 4, 4, 4)])))
    metrics = session.drain()

    # Conservation: submitted == completed + rejected, no in-flight.
    assert session.n_submitted == 2
    assert session.n_completed == 0
    assert session.n_rejected == 2
    assert session.n_in_flight == 0
    assert [e[0] for e in recorder.events] == ["reject", "reject"]

    # Rejected requests are an explicit outcome, not completions and not
    # SLO violations: the SLO report never sees them.
    assert metrics.n_rejected == 2
    assert len(metrics.requests) == 0
    report = metrics.slo_report(session.config.slo)
    assert report.n_requests == 0
    assert report.n_violations == 0
    assert all(r.done_t is None for r in metrics.rejected)


def test_max_in_flight_admission_rejects_overflow():
    session = ServingSession(
        policy="fcfs",
        config=small_config(1),
        admission=MaxInFlightAdmission(1),
        perf=UnitPerfModel(1.0),
    )
    # Both arrive before the first finishes: the *second* must be the one
    # rejected.  (Regression: the engine's one-ahead source pull used to
    # count the not-yet-arrived successor as load, rejecting the first
    # request of an otherwise idle cluster.)
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4), (0.1, 4, 4, 4)])))
    session.drain()
    assert session.n_completed == 1
    assert session.n_rejected == 1
    assert [r.rid for r in session.cluster.rejected] == [1]
    assert [r.rid for r in session.cluster.completed] == [0]


def test_deferred_request_eventually_admits():
    class DeferOnce(AdmissionPolicy):
        def __init__(self):
            self.seen = set()

        def decide(self, cluster, req, now):
            if req.rid in self.seen:
                return AdmissionDecision("admit")
            self.seen.add(req.rid)
            return defer(5.0, "warming up")

    session, recorder, handle = (None, None, None)
    session = ServingSession(
        policy="fcfs", config=small_config(1), admission=DeferOnce(),
        perf=UnitPerfModel(0.01),
    )
    recorder = session.subscribe(Recorder())
    handle = session.submit(
        Request(rid=0, prompt_len=4, reasoning_len=4, answer_len=4,
                arrival_t=0.0)
    )
    session.drain()
    kinds = [e[0] for e in recorder.events]
    assert kinds[0] == "defer" and "admit" in kinds and "complete" in kinds
    assert handle.status == "completed"
    # The 5s deferral shows up as queued (blocked) time before first run.
    assert handle.request.first_sched_t >= 5.0


def test_deferred_view_tracks_waiting_room():
    class DeferOnce(AdmissionPolicy):
        def __init__(self):
            self.seen = set()

        def decide(self, cluster, req, now):
            if req.rid in self.seen:
                return AdmissionDecision("admit")
            self.seen.add(req.rid)
            return defer(5.0, "warming up")

    session = ServingSession(
        policy="fcfs", config=small_config(1), admission=DeferOnce(),
        perf=UnitPerfModel(0.01),
    )
    assert session.cluster.deferred() == []
    session.submit(
        Request(rid=7, prompt_len=4, reasoning_len=4, answer_len=4,
                arrival_t=0.0)
    )
    session.submit(
        Request(rid=3, prompt_len=4, reasoning_len=4, answer_len=4,
                arrival_t=0.5)
    )
    session.step(until=2.0)
    # Both arrivals fired and were deferred: the waiting-room snapshot
    # lists them in defer order (not rid order) while the delay runs.
    waiting = session.cluster.deferred()
    assert [r.rid for r in waiting] == [7, 3]
    assert session.cluster.pending_arrivals >= len(waiting)
    session.drain()
    assert session.cluster.deferred() == []
    assert session.n_completed == 2


def test_admit_all_is_identity():
    config = TraceConfig(ALPACA_EVAL, n_requests=15, arrival_rate_per_s=2.0,
                         seed=2)
    plain = ServingSession(policy="fcfs", config=dataset_config())
    plain.attach(SyntheticSource(config))
    gated = ServingSession(
        policy="fcfs", config=dataset_config(), admission=AdmitAll()
    )
    gated.attach(SyntheticSource(config))
    assert metrics_to_payload(plain.drain()) == metrics_to_payload(
        gated.drain()
    )


def test_kv_budget_admission_defers_then_admits():
    from repro.api import KVBudgetAdmission

    session = ServingSession(
        policy="fcfs",
        config=small_config(1),
        admission=KVBudgetAdmission(4, defer_s=2.0),
        perf=UnitPerfModel(0.5),
    )
    recorder = session.subscribe(Recorder())
    # The first request's prompt KV (4 tokens) fills the 4-token budget;
    # the second arrival defers until the first finishes and frees it.
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4), (0.1, 4, 4, 4)])))
    session.drain()
    kinds = [e[0] for e in recorder.events]
    assert "defer" in kinds
    assert session.n_completed == 2 and session.n_rejected == 0


def test_kv_budget_admission_rejects_without_defer():
    from repro.api import KVBudgetAdmission

    session = ServingSession(
        policy="fcfs",
        config=small_config(1),
        admission=KVBudgetAdmission(4),
        perf=UnitPerfModel(0.5),
    )
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4), (0.1, 4, 4, 4)])))
    session.drain()
    assert session.n_completed == 1 and session.n_rejected == 1


def test_invalid_admission_decisions_rejected():
    from repro.api import KVBudgetAdmission

    with pytest.raises(ValueError):
        defer(0.0)
    with pytest.raises(ValueError):
        MaxInFlightAdmission(0)
    with pytest.raises(ValueError):
        MaxInFlightAdmission(1, defer_s=-1.0)
    with pytest.raises(ValueError):
        KVBudgetAdmission(0)
    with pytest.raises(ValueError):
        KVBudgetAdmission(1, defer_s=0.0)


# ---------------------------------------------------------------------------
# online behaviors: step(until), mid-run submit, late submissions
# ---------------------------------------------------------------------------
def test_step_until_bounds_simulated_time():
    session = ServingSession(
        policy="fcfs", config=small_config(1), perf=UnitPerfModel(1.0)
    )
    session.attach(
        ListSource(make_requests([(0.0, 4, 4, 4), (100.0, 4, 4, 4)]))
    )
    session.step(until=50.0)
    assert session.now <= 50.0
    assert session.n_completed == 1
    assert session.n_submitted == 2  # second pulled, event pending
    session.drain()
    assert session.n_completed == 2


def test_step_max_events_bounds_work():
    session = ServingSession(
        policy="fcfs", config=small_config(1), perf=UnitPerfModel(0.01)
    )
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4)])))
    assert session.step(max_events=1) == 1
    assert session.n_completed == 0


def test_late_submission_admits_at_current_clock():
    """Regression (pre-session bug): submitting a request whose arrival_t
    is already in the past crashed the engine with "cannot schedule into
    the past".  The session/cluster path must clamp to the current clock
    and account the gap as queued time."""
    session = ServingSession(
        policy="fcfs", config=small_config(1), perf=UnitPerfModel(0.01)
    )
    session.attach(ListSource(make_requests([(1.0, 4, 4, 4)])))
    session.step()  # drain: clock is now ~1.x s
    assert session.now >= 1.0
    late = Request(rid=77, prompt_len=4, reasoning_len=4, answer_len=4,
                   arrival_t=0.0)
    handle = session.submit(late)  # pre-fix: ValueError
    session.drain()
    assert handle.status == "completed"
    # The time between nominal arrival (0.0) and admission is queued time.
    assert late.first_sched_t >= session.now - late.e2e_latency() - 1e-9
    assert late.ttft() is not None and late.ttft() >= 1.0


def test_mid_run_attached_source_interleaves():
    session = ServingSession(
        policy="fcfs", config=small_config(1), perf=UnitPerfModel(0.01)
    )
    session.attach(ListSource(make_requests([(0.0, 4, 4, 4)])))
    session.step(until=0.5)
    session.attach(ListSource([
        Request(rid=10, prompt_len=4, reasoning_len=0, answer_len=2,
                arrival_t=0.2)  # already in the past: clamps to now
    ]))
    session.drain()
    assert session.n_completed == 2


def test_handles_track_source_requests():
    session = ServingSession(
        policy="fcfs", config=small_config(1), perf=UnitPerfModel(0.01)
    )
    req = Request(rid=3, prompt_len=4, reasoning_len=4, answer_len=4,
                  arrival_t=0.0)
    session.attach(ListSource([req]))
    session.drain()
    handle = session.handle_for(req)
    assert handle.status == "completed"
    assert handle.instance_id == 0
    assert handle.e2e_latency() is not None


# ---------------------------------------------------------------------------
# engine feed mechanics (EventQueue preload-assumption audit)
# ---------------------------------------------------------------------------
def test_engine_feed_keeps_one_event_queued():
    engine = SimulationEngine()
    seen = []
    engine.register(EventKind.CALLBACK, lambda now, p: seen.append((now, p)))
    engine.attach_feed((float(i), EventKind.CALLBACK, i) for i in range(100))
    assert len(engine.queue) == 1  # head only, not the full preload
    engine.run()
    assert seen == [(float(i), i) for i in range(100)]
    assert engine.feeds_exhausted()


def test_arrival_wins_exact_timestamp_tie_with_handler_event():
    """Regression: a handler-scheduled event landing on the exact float
    timestamp of a feed arrival *further ahead* used to dispatch before
    it (the arrival's event was pushed later, so it carried a larger
    seq), diverging from the batch preload where every arrival outranks
    handler events at its timestamp.  The comparator's arrival-first tie
    rule now pins the batch order on both paths."""
    def run(batch: bool) -> list:
        engine = SimulationEngine()
        order = []

        def on_arrival(now, payload):
            order.append(("arr", now, payload))
            if payload == "A":
                # Handler schedules a dynamic event at exactly t=2.0 —
                # the timestamp of arrival C, two pulls ahead.
                engine.schedule(2.0, EventKind.CALLBACK, "D")

        engine.register(EventKind.ARRIVAL, on_arrival)
        engine.register(
            EventKind.CALLBACK, lambda now, p: order.append(("dyn", now, p))
        )
        items = [
            (0.5, EventKind.ARRIVAL, "A"),
            (1.0, EventKind.ARRIVAL, "B"),
            (2.0, EventKind.ARRIVAL, "C"),
        ]
        if batch:
            for time, kind, payload in items:
                engine.schedule(time, kind, payload)
        else:
            engine.attach_feed(iter(items))
        engine.run()
        return order

    assert run(batch=True) == run(batch=False)
    assert [p for _, _, p in run(batch=True)] == ["A", "B", "C", "D"]


def test_engine_feed_interleaves_with_scheduled_events():
    engine = SimulationEngine()
    order = []
    engine.register(EventKind.CALLBACK, lambda now, p: order.append(p))
    engine.schedule(1.5, EventKind.CALLBACK, "pushed")
    engine.attach_feed(
        iter([(1.0, EventKind.CALLBACK, "fed-a"),
              (2.0, EventKind.CALLBACK, "fed-b")])
    )
    engine.run()
    assert order == ["fed-a", "pushed", "fed-b"]


def test_engine_feed_rejects_time_regression():
    engine = SimulationEngine()
    engine.register(EventKind.CALLBACK, lambda now, p: None)
    engine.attach_feed(
        iter([(2.0, EventKind.CALLBACK, None),
              (1.0, EventKind.CALLBACK, None)])
    )
    with pytest.raises(ValueError, match="time-ordered"):
        engine.run()


def test_engine_feed_clamps_past_items_to_now():
    """A feed attached mid-run may head with an already-past timestamp;
    it must be dispatched at the current clock, not crash scheduling."""
    engine = SimulationEngine()
    seen = []
    engine.register(EventKind.CALLBACK, lambda now, p: seen.append(now))
    engine.schedule(5.0, EventKind.CALLBACK, None)
    engine.run()
    assert engine.now == 5.0
    engine.attach_feed(iter([(1.0, EventKind.CALLBACK, "late")]))
    engine.run()
    assert seen == [5.0, 5.0]  # clamped, not scheduled into the past
