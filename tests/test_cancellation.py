"""First-class cancellation: every lifecycle point, every policy.

A client may abandon a request at any instant — before its arrival
dispatches, while queued, mid-prefill, mid-reasoning, mid-answering,
parked in the deferral waiting room, or with its KV in flight between
instances.  These tests pin the contract:

* cancelling never corrupts the simulation: ``Cluster.check_invariants()``
  (request conservation, then every instance's ``check_invariants()``)
  holds after every event (Hypothesis, all policies x pool shapes);
* a cancelled request is terminal, carries ``cancelled_t``, frees its KV
  footprint, and enters no latency or SLO view;
* cancellations survive the disk codec, the shard merge, and the trace
  format (version-2 ``cancel_t``), and replay deterministically.
"""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    AdmissionPolicy,
    MaxInFlightAdmission,
    ServingSession,
    admit,
    defer,
    reject,
)
from repro.api.session import EventPrinter, RequestHandle, SessionSubscriber
from repro.cluster.cluster import Cluster
from repro.core.registry import policy_names
from repro.harness.cache import metrics_from_payload, metrics_to_payload
from repro.metrics.collector import collect
from repro.serve.record import stamp_live_cancels
from repro.shard import merge_metrics
from repro.workload.request import Phase, Request, ReqState
from repro.workload.trace import (
    ReplayTraceConfig,
    TraceFormatError,
    build_replay_trace,
    dump_trace,
    load_trace,
)
from tests.equivalence import (
    CONTENDED,
    POOL_SHAPES,
    UNIT,
    build_cluster,
    build_requests,
    build_session,
    drive,
    request_specs,
)

#: Three 256-token instances with an 8-token quantum, for the
#: deterministic lifecycle cases.
SMALL = dict(instances=3, kv_capacity=256, quantum=8, perf=UNIT)


def make_session(policy: str = "pascal") -> ServingSession:
    return build_session(policy, kv_capacity=1024, quantum=8, perf=UNIT)


def step_until_cancelled(cluster: Cluster, req: Request) -> None:
    """Dispatch events until ``req``'s scheduled ``CANCEL`` has run."""
    assert drive(cluster, lambda cluster: req.cancelled), (
        f"request {req.rid} was never cancelled"
    )


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=4, deadline=None, derandomize=True)
@given(specs=request_specs(cancels=True))
def test_cancel_anywhere_preserves_invariants(policy, shape, specs):
    """Scripted cancels at arbitrary lifecycle points never corrupt state:
    conservation (a pre-arrival cancel moves a request straight from
    pending to cancelled) and every instance's invariants hold after
    every event."""
    cluster = build_cluster(policy, shape, **CONTENDED)
    requests = build_requests(specs)
    cluster.submit(requests)
    drive(cluster, Cluster.check_invariants)

    assert cluster.deferred() == []
    rejected_rids = {r.rid for r in cluster.rejected}
    for req in requests:
        if req.rid in rejected_rids:
            continue  # turned away before any cancel could land
        assert req.state in (ReqState.FINISHED, ReqState.CANCELLED)
        if req.cancelled:
            assert req.cancelled_t is not None
            assert req.cancel_at is not None
            # Scripted cancels land exactly at their scripted instant.
            assert req.cancelled_t == pytest.approx(req.cancel_at)
            assert req.done_t is None
        else:
            # A request that outran its scripted cancel just finishes.
            assert req.done_t is not None

    # Cancelled requests never enter the latency / SLO views.
    metrics = collect(cluster)
    assert metrics.n_cancelled == len(cluster.cancelled)
    assert all(r.finished for r in metrics.requests)
    assert not any(r.cancelled for r in metrics.requests)


class ScriptedGate(AdmissionPolicy):
    """Rejects the rids in ``rejects``; defers each rid in ``defers``
    once, then admits it."""

    def __init__(self, rejects: set[int], defers: set[int]):
        self.rejects = rejects
        self.defers = set(defers)

    def decide(self, cluster, req, now):
        if req.rid in self.rejects:
            return reject("scripted")
        if req.rid in self.defers:
            self.defers.discard(req.rid)
            return defer(0.05, "scripted")
        return admit()


TERMINAL_STATUSES = (
    RequestHandle.COMPLETED,
    RequestHandle.REJECTED,
    RequestHandle.CANCELLED,
)


class StatusChecker(SessionSubscriber):
    """Records, at every callback, the status the handle reads next to
    the status the event implies."""

    def __init__(self):
        self.seen: list[tuple[int, str, str, bool]] = []
        self.last: dict[int, str] = {}

    def _check(self, handle: RequestHandle, implied: str) -> None:
        self.seen.append((handle.rid, implied, handle.status, handle.done))
        self.last[handle.rid] = implied

    def on_admit(self, handle, now, instance_id):
        self._check(handle, RequestHandle.ADMITTED)

    def on_reject(self, handle, now, reason):
        self._check(handle, RequestHandle.REJECTED)

    def on_defer(self, handle, now, delay_s):
        self._check(handle, RequestHandle.PENDING)

    def on_phase_change(self, handle, now):
        self._check(handle, RequestHandle.ADMITTED)

    def on_first_token(self, handle, now):
        # A one-token answer's first token is also its last.
        if handle.request.answer_len == 1:
            self._check(handle, RequestHandle.COMPLETED)
        else:
            self._check(handle, RequestHandle.ADMITTED)

    def on_complete(self, handle, now):
        self._check(handle, RequestHandle.COMPLETED)

    def on_cancel(self, handle, now):
        self._check(handle, RequestHandle.CANCELLED)


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    specs=request_specs(cancels=True),
    actions=st.lists(
        st.sampled_from(["admit", "reject", "defer"]), min_size=20, max_size=20
    ),
)
def test_handle_status_follows_the_request(policy, shape, specs, actions):
    """A handle's status, read from its request, is the status each
    lifecycle event implies, at every callback and after the drain."""
    rejects = {rid for rid, a in enumerate(actions) if a == "reject"}
    defers = {rid for rid, a in enumerate(actions) if a == "defer"}
    session = build_session(
        policy, shape, admission=ScriptedGate(rejects, defers), **SMALL
    )
    checker = session.subscribe(StatusChecker())
    handles = [session.submit(req) for req in build_requests(specs)]
    assert all(h.status == RequestHandle.PENDING for h in handles)

    while session.step(max_events=1):
        for req in session.cluster.deferred():
            assert session.handle_for(req).status == RequestHandle.PENDING
    for rid, implied, status, done in checker.seen:
        assert status == implied, f"request {rid}"
        assert done == (implied in TERMINAL_STATUSES), f"request {rid}"

    assert session.cluster.all_finished()
    for handle in handles:
        assert handle.done
        assert handle.status == checker.last[handle.rid]
        if handle.rid in rejects:
            assert handle.request.state is ReqState.REJECTED
            assert handle.request.breakdown == {}


class TestLifecyclePoints:
    """Deterministic cancels at each specific lifecycle point."""

    def test_cancel_before_arrival_dispatch(self):
        cluster = build_cluster("pascal", **SMALL)
        req = Request(
            rid=0, prompt_len=8, reasoning_len=10, answer_len=5,
            arrival_t=1.0,
        )
        cluster.submit_one(req)
        assert cluster.request_cancel(req, at=0.5)
        cluster.run()
        assert req.cancelled
        assert req.cancelled_t == pytest.approx(0.5)
        assert cluster.pending_arrivals == 0
        assert cluster.all_finished()
        assert req.first_sched_t is None  # never placed

    def test_cancel_mid_decode_frees_kv(self):
        cluster = build_cluster("pascal", **SMALL)
        req = Request(rid=0, prompt_len=8, reasoning_len=150, answer_len=50)
        req.cancel_at = 0.8
        cluster.submit_one(req)
        cluster.run()
        assert req.cancelled
        assert req.cancelled_t == pytest.approx(0.8)
        assert req.generated_tokens > 0  # it was decoding
        assert not req.finished
        for inst in cluster.instances:
            inst.check_invariants()
            assert inst.pool.gpu_used_blocks == 0
            assert req not in inst.requests

    def test_cancel_during_answering_phase(self):
        cluster = build_cluster("pascal", **SMALL)
        req = Request(rid=0, prompt_len=8, reasoning_len=10, answer_len=200)
        cluster.submit_one(req)
        assert drive(
            cluster,
            lambda cluster: req.phase is Phase.ANSWERING
            and req.generated_tokens > 20,
        )
        assert cluster.request_cancel(req)
        step_until_cancelled(cluster, req)
        assert req.phase is Phase.ANSWERING
        assert req.first_answer_t is not None  # tokens already streamed
        cluster.run()
        assert cluster.all_finished()
        for inst in cluster.instances:
            inst.check_invariants()

    def test_cancel_while_migrating(self):
        cluster = build_cluster(
            "pascal", **{**SMALL, "instances": 2, "kv_capacity": 1600}
        )
        src = cluster.instances[0]
        req = Request(rid=1, prompt_len=64, reasoning_len=3, answer_len=3)
        filler = Request(rid=2, prompt_len=32, reasoning_len=200, answer_len=5)
        # Direct-admit both on the source: the filler's reasoning load
        # makes the other instance the better answering home, so the
        # phase boundary triggers a migration.
        cluster.submitted.extend([req, filler])
        src.admit(req, 0.0)
        src.admit(filler, 0.0)
        assert drive(
            cluster, lambda cluster: req.state is ReqState.MIGRATING
        ), "scenario no longer triggers a migration"
        assert cluster.migrations.in_flight == 1
        assert cluster.request_cancel(req)
        step_until_cancelled(cluster, req)
        # Cancelled on the wire: the transfer never landed.
        assert cluster.migrations.in_flight == 0
        assert req.n_migrations == 0
        cluster.run()
        assert filler.finished
        for inst in cluster.instances:
            inst.check_invariants()
            assert inst.pool.gpu_used_blocks == 0

    def test_cancelled_transfer_record_frees_without_the_collector(self):
        # The cancelled TRANSFER_COMPLETE event stays queued with the
        # record as its payload; the record must not point back at it, or
        # it outlives the run until the cycle collector finds the pair.
        cluster = build_cluster(
            "pascal", **{**SMALL, "instances": 2, "kv_capacity": 1600}
        )
        src = cluster.instances[0]
        req = Request(rid=1, prompt_len=64, reasoning_len=3, answer_len=3)
        filler = Request(rid=2, prompt_len=32, reasoning_len=200, answer_len=5)
        cluster.submitted.extend([req, filler])
        start = cluster.migrations.start
        records = []

        def recording_start(*args):
            record = start(*args)
            records.append(weakref.ref(record))
            return record

        cluster.migrations.start = recording_start
        enabled = gc.isenabled()
        gc.disable()
        try:
            src.admit(req, 0.0)
            src.admit(filler, 0.0)
            assert drive(
                cluster, lambda cluster: req.state is ReqState.MIGRATING
            )
            assert cluster.request_cancel(req)
            cluster.run()
            assert req.state is ReqState.CANCELLED
            assert len(records) == 1
            assert records[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_cancel_while_deferred(self):
        cluster = build_cluster(
            "speculative-replace", "heterogeneous", **SMALL
        )
        requests = [
            Request(
                rid=rid,
                prompt_len=10,
                reasoning_len=40,
                answer_len=10,
                arrival_t=0.01 * rid,
                dataset="long",
            )
            for rid in range(12)
        ]
        cluster.submit(requests)
        assert drive(
            cluster, lambda cluster: cluster.deferred()
        ), "policy no longer defers here"
        target = cluster.deferred()[0]
        assert cluster.request_cancel(target)
        step_until_cancelled(cluster, target)
        # Cancelled in the waiting room: never placed, and gone from it.
        assert target.instance_id is None
        assert target not in cluster.deferred()
        cluster.run()
        assert cluster.all_finished()
        assert target.cancelled


class TestTerminalEdges:
    def test_scripted_cancel_after_completion_is_noop(self):
        cluster = build_cluster("pascal", **SMALL)
        req = Request(rid=0, prompt_len=8, reasoning_len=5, answer_len=5)
        req.cancel_at = 1e9
        cluster.submit_one(req)
        cluster.run()
        assert req.finished
        assert cluster.cancelled == []

    def test_double_cancel_is_noop(self):
        cluster = build_cluster("pascal", **SMALL)
        req = Request(rid=0, prompt_len=8, reasoning_len=150, answer_len=5)
        cluster.submit_one(req)
        # Mid-decode: it finishes at about 1.55 s.
        assert drive(cluster, lambda cluster: cluster.engine.now > 0.3)
        assert not req.finished
        # Both are scheduled; the second CANCEL dispatches as a no-op.
        assert cluster.request_cancel(req) is True
        assert cluster.request_cancel(req) is True
        step_until_cancelled(cluster, req)
        assert cluster.request_cancel(req) is False
        cluster.run()
        assert len(cluster.cancelled) == 1

    def test_cancel_rejected_request_is_noop(self):
        session = build_session(
            "pascal",
            admission=MaxInFlightAdmission(1),
            instances=1,
            kv_capacity=256,
            quantum=500,
            perf=UNIT,
        )
        first = Request(rid=0, prompt_len=8, reasoning_len=100, answer_len=20)
        second = Request(
            rid=1, prompt_len=8, reasoning_len=5, answer_len=5, arrival_t=0.1
        )
        h1 = session.submit(first)
        h2 = session.submit(second)
        session.step(until=0.5)
        assert h2.status == RequestHandle.REJECTED
        assert session.cancel(h2) is False
        assert session.cancel(h1) is True
        session.drain()
        assert session.n_cancelled == 1
        assert session.n_rejected == 1

    def test_mark_cancelled_on_terminal_request_raises(self):
        req = Request(rid=0, prompt_len=8, reasoning_len=5, answer_len=5)
        req.mark_cancelled(1.0)
        with pytest.raises(RuntimeError):
            req.mark_cancelled(2.0)


class TestSessionApi:
    def test_handle_cancel_fires_subscriber(self):
        session = make_session()
        events: list[tuple[int, float]] = []

        class Watcher(SessionSubscriber):
            def on_cancel(self, handle, now):
                events.append((handle.request.rid, now))

        session.subscribe(Watcher())
        req = Request(rid=7, prompt_len=8, reasoning_len=200, answer_len=30)
        handle = session.submit(req)
        session.step(until=0.5)
        assert handle.cancel() is True
        session.drain()
        assert handle.status == RequestHandle.CANCELLED
        assert handle.done
        assert events == [(7, req.cancelled_t)]
        assert session.n_cancelled == 1
        assert session.metrics().n_cancelled == 1

    def test_event_printer_reports_cancel(self):
        lines: list[str] = []
        session = make_session()
        session.subscribe(EventPrinter(write=lines.append))
        req = Request(rid=3, prompt_len=8, reasoning_len=200, answer_len=30)
        handle = session.submit(req)
        session.step(until=0.5)
        handle.cancel()
        session.drain()
        out = "".join(lines)
        assert "cancel" in out
        assert "req 3" in out

    def test_detached_handle_cancel_raises(self):
        req = Request(rid=0, prompt_len=8, reasoning_len=5, answer_len=5)
        handle = RequestHandle(req)
        with pytest.raises(RuntimeError):
            handle.cancel()

    def test_stop_intake_cuts_sources(self):
        session = make_session()
        reqs = [
            Request(
                rid=i, prompt_len=8, reasoning_len=5, answer_len=5,
                arrival_t=float(i),
            )
            for i in range(50)
        ]
        session.attach(reqs)
        session.step(until=2.5)
        assert session.stop_intake() == 1
        session.step()
        # Only the requests pulled before the cut (plus the one primed
        # head event) ever entered the run; the source tail is unread.
        assert session.n_submitted < 10
        assert session.cluster.all_finished()


class TestCodecs:
    def _metrics_with_cancel(self):
        session = make_session()
        reqs = [
            Request(
                rid=i, prompt_len=8, reasoning_len=50, answer_len=10,
                arrival_t=0.1 * i,
            )
            for i in range(4)
        ]
        reqs[2].cancel_at = 0.5
        for req in reqs:
            session.submit(req)
        return session.drain()

    def test_disk_codec_roundtrips_cancelled(self):
        metrics = self._metrics_with_cancel()
        assert metrics.n_cancelled == 1
        restored = metrics_from_payload(metrics_to_payload(metrics))
        assert restored.n_cancelled == 1
        original = metrics.cancelled[0]
        copy = restored.cancelled[0]
        assert copy.rid == original.rid
        assert copy.cancel_at == original.cancel_at
        assert copy.cancelled_t == original.cancelled_t
        assert copy.state is ReqState.CANCELLED
        assert copy.generated_tokens == original.generated_tokens

    def test_shard_merge_carries_cancelled(self):
        metrics = self._metrics_with_cancel()
        merged = merge_metrics([metrics, self._metrics_with_cancel()])
        assert merged.n_cancelled == 2
        times = [r.cancelled_t for r in merged.cancelled]
        assert times == sorted(times)


class TestTraceFormatV2:
    def test_v1_roundtrip_stays_version_1(self, tmp_path):
        reqs = [
            Request(
                rid=i, prompt_len=5, reasoning_len=10, answer_len=5,
                arrival_t=0.5 * i, dataset="d",
            )
            for i in range(3)
        ]
        text = dump_trace(reqs)
        assert text.splitlines()[0] == (
            '{"format": "pascal-trace", "version": 1}'
        )
        path = tmp_path / "v1.jsonl"
        path.write_text(text)
        assert dump_trace(load_trace(path)) == text

    def test_v2_roundtrip_with_cancel_t(self, tmp_path):
        reqs = [
            Request(
                rid=i, prompt_len=5, reasoning_len=10, answer_len=5,
                arrival_t=0.5 * i, dataset="d",
            )
            for i in range(3)
        ]
        reqs[1].cancel_at = 1.25
        text = dump_trace(reqs)
        assert '"version": 2' in text.splitlines()[0]
        assert '"cancel_t": 1.25' in text
        path = tmp_path / "v2.jsonl"
        path.write_text(text)
        loaded = load_trace(path)
        assert loaded[0].cancel_at is None
        assert loaded[1].cancel_at == 1.25
        assert dump_trace(loaded) == text

    BASE = '"prompt_len": 5, "reasoning_len": 3, "answer_len": 2'

    def _write(self, tmp_path, version: int, record: str) -> str:
        path = tmp_path / "t.jsonl"
        header = f'{{"format": "pascal-trace", "version": {version}}}'
        path.write_text(header + "\n" + record + "\n")
        return str(path)

    def test_cancel_t_requires_version_2(self, tmp_path):
        path = self._write(
            tmp_path,
            1,
            f'{{"arrival_t": 0.5, {self.BASE}, "cancel_t": 1.0}}',
        )
        with pytest.raises(TraceFormatError, match="version-2 header"):
            load_trace(path)

    def test_cancel_t_must_follow_arrival(self, tmp_path):
        path = self._write(
            tmp_path,
            2,
            f'{{"arrival_t": 1.5, {self.BASE}, "cancel_t": 1.5}}',
        )
        with pytest.raises(TraceFormatError, match="cancel_t"):
            load_trace(path)

    def test_cancel_t_must_be_a_number(self, tmp_path):
        path = self._write(
            tmp_path,
            2,
            f'{{"arrival_t": 0.5, {self.BASE}, "cancel_t": true}}',
        )
        with pytest.raises(TraceFormatError, match="cancel_t"):
            load_trace(path)

    def test_rate_scale_rescales_cancels(self, tmp_path):
        req = Request(
            rid=0, prompt_len=5, reasoning_len=10, answer_len=5, arrival_t=1.0
        )
        req.cancel_at = 3.0
        path = tmp_path / "t.jsonl"
        path.write_text(dump_trace([req]))
        scaled = build_replay_trace(
            ReplayTraceConfig(path=str(path), rate_scale=2.0)
        )
        assert scaled[0].arrival_t == pytest.approx(0.5)
        assert scaled[0].cancel_at == pytest.approx(1.5)

    def test_replay_reproduces_cancellation_deterministically(self, tmp_path):
        reqs = [
            Request(
                rid=i, prompt_len=5, reasoning_len=150, answer_len=50,
                arrival_t=0.5 * i, dataset="d",
            )
            for i in range(3)
        ]
        reqs[1].cancel_at = 0.9
        path = tmp_path / "t.jsonl"
        path.write_text(dump_trace(reqs))

        def run() -> tuple:
            session = make_session()
            session.attach(ReplayTraceConfig(path=str(path)))
            metrics = session.drain()
            return (
                metrics.n_cancelled,
                [r.rid for r in metrics.cancelled],
                [r.cancelled_t for r in metrics.cancelled],
                [r.done_t for r in metrics.requests],
            )

        first, second = run(), run()
        assert first == second
        assert first[0] == 1 and first[1] == [1]
        assert first[2] == [pytest.approx(0.9)]


class TestLiveRecording:
    def test_stamp_live_cancels_clamps_to_after_arrival(self, tmp_path):
        early = Request(
            rid=0, prompt_len=5, reasoning_len=5, answer_len=5, arrival_t=2.0
        )
        early.mark_cancelled(1.0)  # cancelled before its nominal arrival
        late = Request(
            rid=1, prompt_len=5, reasoning_len=5, answer_len=5, arrival_t=0.0
        )
        late.mark_cancelled(4.0)
        finished = Request(
            rid=2, prompt_len=5, reasoning_len=0, answer_len=5, arrival_t=1.0
        )
        stamped = stamp_live_cancels([early, late, finished])
        assert stamped[0].cancel_at == math.nextafter(2.0, math.inf)
        assert stamped[1].cancel_at == 4.0
        assert stamped[2].cancel_at is None
        # The stamped set is loader-valid and round-trips.
        path = tmp_path / "live.jsonl"
        path.write_text(dump_trace(stamped))
        loaded = load_trace(path)
        assert sorted((r.rid, r.cancel_at or 0.0) for r in loaded) == [
            (0, math.nextafter(2.0, math.inf)),
            (1, 4.0),
            (2, 0.0),
        ]
